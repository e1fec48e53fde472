//===- obs/QueryLog.h - Wide-event per-query log ----------------*- C++ -*-===//
///
/// \file
/// The wide-event query log: exactly one structured record per completed
/// query, Envoy-access-log style. Metrics answer "how is the fleet";
/// the query log answers "why was *this* query slow" — every record
/// carries the full story of one query (domain, outcome, rung reached,
/// ladder attempts and retries, gate decision, queue-wait / stage / total
/// latencies, cache hits, budget, truncated query text, trace id) so a
/// single line is enough for forensics without re-running anything.
///
/// Ownership of the one record is explicit: the component that *first
/// claims* a query's QueryContext emits the record. In the data plane
/// (HttpEndpoint → AsyncSynthesisService → SynthesisService) that is
/// AsyncSynthesisService::submit, for endpoint-minted and direct submits
/// alike; claimed contexts travel with `Recorded = true` so downstream
/// layers never double-log. Records land in a fixed-capacity in-memory
/// ring (served at /debug/querylog) and optionally in a JSONL file
/// configured by the `qlog:PATH` entry of DGGT_METRICS.
///
/// User query text is hostile input: sanitizeQueryText() truncates it to
/// a configurable byte cap on a UTF-8 boundary (with a `…` marker) and
/// replaces invalid UTF-8 with U+FFFD before the text reaches any log,
/// span attribute or status page.
///
//===----------------------------------------------------------------------===//

#ifndef DGGT_OBS_QUERYLOG_H
#define DGGT_OBS_QUERYLOG_H

#include "obs/Cost.h"

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace dggt::obs {

/// Names of the pipeline stages whose latencies a query reports, in
/// order.
inline constexpr const char *QueryStageNames[4] = {"parse", "prune",
                                                  "word_to_api",
                                                  "edge_to_path"};

/// Per-stage wall latency in ms, indexed like QueryStageNames; 0 for
/// stages that did not run. The one type every layer (pipeline, service
/// report, query log) carries the breakdown in.
using StageLatencyMs = std::array<double, 4>;

/// The wide event: one per completed query. Field-by-field reference in
/// DESIGN.md §14.
struct QueryLogRecord {
  std::string TraceId; ///< 32-hex-digit W3C trace id.
  std::string Domain;
  std::string Query;   ///< Pre-sanitized (sanitizeQueryText).
  std::string Outcome; ///< Service status name.
  std::string Rung;    ///< Answering rung name, or "" if none reached.
  std::string Gate;    ///< Admission decision: admitted/shed/gate/drain/...
  uint32_t Attempts = 0; ///< Ladder rung attempts (RungAttempt count).
  uint32_t Retries = 0;  ///< Attempts that retried a rung (Try > 0).
  double QueueWaitMs = 0.0;
  StageLatencyMs StageMs{}; ///< Per-stage latency breakdown.
  double TotalMs = 0.0;
  bool PathCacheHit = false;
  bool WordCacheHit = false;
  /// The query's DP-core cost vector (DESIGN.md §16) — exactly one per
  /// record. Unpopulated (all-zero, `populated:false`) for queries
  /// rejected before the pipeline ran.
  CostCounters Cost;
  uint64_t BudgetMs = 0;
  bool TraceKept = false; ///< Spans retained (head draw or tail keep).
  /// Unix timestamp of record emission; stamped by QueryLog::record().
  double WallSeconds = 0.0;
};

/// Serializes \p R as a single-line JSON object (the /debug/querylog and
/// qlog: JSONL shape).
std::string queryLogRecordJson(const QueryLogRecord &R);

/// Truncates \p Text to at most \p CapBytes bytes on a UTF-8 character
/// boundary, appending a `…` marker when anything was dropped, and
/// replaces invalid UTF-8 sequences with U+FFFD. The result is always
/// valid UTF-8 of at most CapBytes + 3 bytes.
std::string sanitizeQueryText(std::string_view Text, size_t CapBytes);
/// Convenience overload using the process-wide cap.
std::string sanitizeQueryText(std::string_view Text);

/// Process-wide query-text byte cap (default 256; `qcap:N` in
/// DGGT_METRICS).
size_t queryTextCapBytes();
void setQueryTextCapBytes(size_t CapBytes);

/// Process-wide query-log: a fixed-capacity overwrite ring plus an
/// optional JSONL file sink. record() is cheap (one mutex, no I/O unless
/// a file sink is configured) and safe from any thread.
class QueryLog {
public:
  static QueryLog &instance();

  /// Resizes the ring (default 1024 records); existing records are kept
  /// newest-first up to the new capacity.
  void configureRing(size_t Capacity);
  size_t ringCapacity() const;

  /// Appends every future record as one JSON line to \p Path ("stderr"
  /// and "stdout" supported; files truncated on open). Empty disables.
  /// Returns false (leaving the previous sink) when the file can't open.
  bool setJsonlPath(const std::string &Path);

  /// Stamps WallSeconds and stores \p R in the ring (and JSONL sink).
  void record(QueryLogRecord R);

  /// Records oldest-first.
  std::vector<QueryLogRecord> snapshot() const;
  /// Record with the given 32-hex trace id, or nullptr.
  std::shared_ptr<const QueryLogRecord> findByTraceId(
      std::string_view TraceId) const;

  uint64_t total() const;       ///< Records ever recorded.
  uint64_t overwritten() const; ///< Records evicted by ring overwrite.

  /// Clears the ring and counters and drops the JSONL sink (tests).
  void resetForTest();

private:
  QueryLog() = default;

  mutable std::mutex M;
  std::vector<std::shared_ptr<const QueryLogRecord>> Ring;
  size_t Cap = 1024;
  size_t Next = 0;
  bool Wrapped = false;
  uint64_t Total = 0;
  uint64_t Overwritten = 0;
  std::unique_ptr<std::ostream> OwnedOut; ///< File sink, if any.
  std::ostream *Out = nullptr;            ///< stderr/stdout or OwnedOut.
};

/// Shorthand for the process query log.
inline QueryLog &queryLog() { return QueryLog::instance(); }

} // namespace dggt::obs

#endif // DGGT_OBS_QUERYLOG_H
