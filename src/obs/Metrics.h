//===- obs/Metrics.h - Lock-cheap metrics registry --------------*- C++ -*-===//
///
/// \file
/// The runtime measurement substrate: counters, gauges and fixed-bucket
/// latency histograms behind a process-wide registry, exported through
/// the pluggable sinks of obs/Export.h. Recording is lock-free (relaxed
/// atomics) and registry lookups are mutex-protected but expected to be
/// cached at the call site (function-local static references), so the
/// synthesis hot loops never touch the registry map.
///
/// Instruments come in two flavours:
///
///   - *standalone* (constructed directly, e.g. the bench harness's
///     latency summaries): always record;
///   - *registry* instruments: gated on the global metrics switch, so an
///     instrumented binary with metrics disabled pays one relaxed atomic
///     load per record call and allocates nothing.
///
/// The paper's claims are latency-distribution claims (Fig. 7/8's 25-133x
/// average speedup), so the histogram keeps Prometheus `le` semantics
/// (cumulative-compatible upper bounds, inclusive) and answers p50/p90/
/// p99 by linear interpolation within the owning bucket.
///
//===----------------------------------------------------------------------===//

#ifndef DGGT_OBS_METRICS_H
#define DGGT_OBS_METRICS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dggt::obs {

/// Global record switch for registry instruments. One relaxed load on
/// every record call; off by default.
bool metricsEnabled();
void setMetricsEnabled(bool Enabled);

/// Label set of one instrument, e.g. {{"rung", "dggt-full"}}. Order is
/// preserved into the export.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

/// P-th percentile (P in [0, 100]) over an explicit bucket-count vector
/// with `le` bounds \p Bounds, by linear interpolation within the owning
/// bucket — the same estimator Histogram::percentile() uses. \p Counts
/// has Bounds.size() + 1 entries (overflow last); overflow samples
/// saturate at the last finite bound. Returns 0 when every count is 0.
/// Standalone so that bucket counts without a live Histogram can be
/// read too: /statusz takes arena percentiles from a registry snapshot,
/// and an interval's percentiles are the element-wise delta of two
/// bucketSnapshot()s.
double percentileFromCounts(const std::vector<double> &Bounds,
                            const std::vector<uint64_t> &Counts, double P);

/// Monotonic counter.
class Counter {
public:
  void inc(uint64_t N = 1) {
    if (Gated && !metricsEnabled())
      return;
    V.fetch_add(N, std::memory_order_relaxed);
  }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }

private:
  friend class MetricsRegistry;
  std::atomic<uint64_t> V{0};
  bool Gated = false;
};

/// Last-value gauge.
class Gauge {
public:
  void set(int64_t Value) {
    if (Gated && !metricsEnabled())
      return;
    V.store(Value, std::memory_order_relaxed);
  }
  void add(int64_t Delta) {
    if (Gated && !metricsEnabled())
      return;
    V.fetch_add(Delta, std::memory_order_relaxed);
  }
  int64_t value() const { return V.load(std::memory_order_relaxed); }

private:
  friend class MetricsRegistry;
  std::atomic<int64_t> V{0};
  bool Gated = false;
};

/// OpenMetrics exemplar: the most recent trace id that landed in a
/// histogram bucket, so a scrape can jump from a bad latency bucket
/// straight to the full trace of a query that produced it.
struct Exemplar {
  std::string TraceId; ///< 32-hex trace id; empty = no exemplar.
  double Value = 0.0;
  double UnixSeconds = 0.0;
};

/// Fixed-bucket histogram with Prometheus `le` semantics: a sample lands
/// in the first bucket whose upper bound is >= the sample; samples above
/// the last finite bound land in the implicit overflow (+Inf) bucket.
class Histogram {
public:
  /// \p UpperBounds must be strictly increasing and non-empty.
  explicit Histogram(std::vector<double> UpperBounds);

  Histogram(const Histogram &) = delete;
  Histogram &operator=(const Histogram &) = delete;

  void observe(double Value) { observe(Value, {}); }
  /// Like observe(), additionally remembering \p ExemplarTraceId as the
  /// bucket's exemplar (last writer wins; empty id records none). The
  /// exemplar path takes a small mutex — callers pass an id only on
  /// already-traced queries, so the hot untraced path stays lock-free.
  void observe(double Value, std::string_view ExemplarTraceId);

  uint64_t count() const { return Count.load(std::memory_order_relaxed); }
  double sum() const;

  /// Finite bucket bounds (the overflow bucket is implicit).
  const std::vector<double> &bounds() const { return Bounds; }
  /// Count of bucket \p I; I == bounds().size() is the overflow bucket.
  uint64_t bucketCount(size_t I) const {
    return Buckets[I].load(std::memory_order_relaxed);
  }
  /// All bucket counts at once (bounds().size() + 1, overflow last).
  /// A controller diffs two snapshots to get per-interval counts.
  std::vector<uint64_t> bucketSnapshot() const;

  /// P-th percentile estimate (P in [0, 100]) by linear interpolation
  /// within the owning bucket. Samples in the overflow bucket are
  /// attributed to the last finite bound (the estimate saturates there).
  /// Returns 0 for an empty histogram.
  double percentile(double P) const;
  double p50() const { return percentile(50); }
  double p90() const { return percentile(90); }
  double p99() const { return percentile(99); }

  /// Per-bucket exemplars (bounds().size() + 1, overflow last); empty
  /// when no exemplar was ever recorded.
  std::vector<Exemplar> exemplarSnapshot() const;

  /// The default latency bucket ladder in milliseconds: covers 0.05 ms
  /// pipeline stages up to the paper's 20 s interactive timeout.
  static const std::vector<double> &defaultLatencyBucketsMs();

private:
  friend class MetricsRegistry;
  std::vector<double> Bounds;
  /// Bounds.size() + 1 entries; the last is the overflow bucket.
  std::vector<std::atomic<uint64_t>> Buckets;
  std::atomic<uint64_t> Count{0};
  std::atomic<double> Sum{0.0};
  bool Gated = false;
  /// Exemplar slots, lazily sized on first record (guarded by ExM).
  mutable std::mutex ExM;
  std::vector<Exemplar> Exemplars;
};

/// One exported instrument value, decoupled from the live registry so
/// sinks can format without holding any lock.
struct MetricSnapshot {
  enum class Kind { Counter, Gauge, Histogram };
  Kind K = Kind::Counter;
  std::string Name;
  LabelSet Labels;
  uint64_t CounterValue = 0;
  int64_t GaugeValue = 0;
  std::vector<double> Bounds;        ///< Histogram only (finite bounds).
  std::vector<uint64_t> BucketCounts; ///< Bounds.size() + 1 (overflow last).
  uint64_t Count = 0;
  double Sum = 0.0;
  /// Per-bucket exemplars; empty, or BucketCounts.size() entries with
  /// empty-TraceId slots for buckets without one.
  std::vector<Exemplar> Exemplars;
};

/// Process-wide instrument registry. Instruments are created on first
/// lookup and live for the process lifetime (stable references), so call
/// sites cache them in function-local statics.
class MetricsRegistry {
public:
  static MetricsRegistry &instance();

  /// Returns the counter registered under (\p Name, \p Labels), creating
  /// it (gated on the global switch) on first use.
  Counter &counter(std::string_view Name, LabelSet Labels = {});
  Gauge &gauge(std::string_view Name, LabelSet Labels = {});
  /// \p UpperBounds is consulted only on first registration.
  Histogram &histogram(std::string_view Name, LabelSet Labels = {},
                       const std::vector<double> &UpperBounds =
                           Histogram::defaultLatencyBucketsMs());

  /// Point-in-time copy of every instrument, sorted by (name, labels) so
  /// exports are deterministic.
  std::vector<MetricSnapshot> snapshot() const;

  /// Label-cardinality guard: at most \p Cap distinct label-value sets
  /// per (kind, name) family; lookups past the cap collapse to a single
  /// overflow series with every label value set to "other", counted in
  /// seriesDropped() (exported as dggt_metrics_series_dropped_total).
  /// 0 disables the guard. Protects /metrics from unbounded per-shard /
  /// per-domain / per-route series growth.
  void setSeriesCapPerFamily(size_t Cap);
  size_t seriesCapPerFamily() const;
  uint64_t seriesDropped() const;

  /// Zeroes every instrument in place (references stay valid) and
  /// restores the default series cap. Tests only; a production registry
  /// is monotonic.
  void zeroAllForTest();

  static constexpr size_t DefaultSeriesCapPerFamily = 64;

private:
  MetricsRegistry() = default;
  struct Entry;
  Entry &entryFor(MetricSnapshot::Kind K, std::string_view Name,
                  LabelSet &&Labels);

  mutable std::mutex M;
  std::vector<std::unique_ptr<Entry>> Entries;
  std::atomic<size_t> SeriesCap{DefaultSeriesCapPerFamily};
  std::atomic<uint64_t> SeriesDropped{0};
};

/// Shorthand for the process registry.
inline MetricsRegistry &registry() { return MetricsRegistry::instance(); }

/// RAII latency probe: observes the elapsed milliseconds into \p H on
/// destruction. Reads no clock when metrics are disabled (for a gated
/// histogram the observation would be dropped anyway).
class ScopedLatencyMs {
public:
  explicit ScopedLatencyMs(Histogram &H)
      : H(metricsEnabled() ? &H : nullptr) {
    if (this->H)
      Start = std::chrono::steady_clock::now();
  }
  ~ScopedLatencyMs() {
    if (H)
      H->observe(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - Start)
                     .count());
  }
  ScopedLatencyMs(const ScopedLatencyMs &) = delete;
  ScopedLatencyMs &operator=(const ScopedLatencyMs &) = delete;

private:
  Histogram *H;
  std::chrono::steady_clock::time_point Start;
};

} // namespace dggt::obs

#endif // DGGT_OBS_METRICS_H
