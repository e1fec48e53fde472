//===- obs/Trace.h - Hierarchical spans --------------------------*- C++ -*-===//
///
/// \file
/// A minimal in-process tracer: hierarchical spans over the query path
/// (service query -> service rung -> pipeline stage -> merge internals),
/// recorded with RAII ScopedSpan guards and emitted to a pluggable
/// TraceSink when each span ends. Parenting is implicit through a
/// thread-local span stack, so deeply nested layers need no plumbing —
/// a pipeline-stage span started inside a rung attempt automatically
/// becomes its child.
///
/// Cross-thread queries carry an explicit QueryContext (128-bit trace
/// id, parent span id, sampling decision) through the data plane:
/// HttpEndpoint mints one per POST /v1/synthesize (honoring an inbound
/// W3C traceparent header), the async service passes it along,
/// and ScopedQueryContext adopts it into a worker's thread-local stack
/// so spans opened there join the query's trace instead of starting
/// orphan roots. While a context's TraceBuffer is attached, the query's
/// spans are buffered until completion and the keep/drop decision is
/// tail-based: head-sampled queries keep as before, and any query over
/// Tracer::tailKeepMs() or with a non-OK outcome is force-kept so p99
/// offenders are always fully traced.
///
/// When no sink is installed the tracer is disabled and a ScopedSpan
/// costs one relaxed atomic load and allocates nothing (the
/// disabled-mode contract tests assert zero allocations), so guards can
/// stay compiled into the hot path.
///
//===----------------------------------------------------------------------===//

#ifndef DGGT_OBS_TRACE_H
#define DGGT_OBS_TRACE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/Budget.h"

namespace dggt::obs {

/// One finished span, handed to the sink at end time.
struct SpanRecord {
  uint64_t TraceId = 0;  ///< Shared by every span under one root (low 64
                         ///< bits of the 128-bit id for propagated traces).
  uint64_t TraceHi = 0;  ///< High 64 bits; 0 for purely local traces.
  uint64_t SpanId = 0;   ///< Unique per span (process-wide).
  uint64_t ParentId = 0; ///< 0 for a root span.
  std::string Name;
  double StartSeconds = 0;    ///< Offset from the tracer epoch.
  double DurationSeconds = 0; ///< Wall clock of the span.
  /// Attributes attached via ScopedSpan::attr(), in insertion order.
  std::vector<std::pair<std::string, std::string>> Attrs;
};

/// Receives spans as they end. Implementations must be thread-safe:
/// concurrent queries end spans concurrently.
class TraceSink {
public:
  virtual ~TraceSink();
  virtual void onSpan(const SpanRecord &Span) = 0;
};

/// Buffers one query's spans until its outcome is known, so the
/// keep/drop decision can be made at the *tail* (latency, outcome)
/// instead of only at the head. Shared by every thread the query
/// touches. finish(true) flushes the buffered spans to the live sink;
/// finish(false) drops them (counted in Tracer::droppedSpans()). Spans
/// arriving after finish — e.g. a worker's `async.task` span closing
/// after its record settled the trace — are forwarded directly when the
/// trace was kept and dropped otherwise.
class TraceBuffer {
public:
  explicit TraceBuffer(size_t Capacity = 256);

  void add(const SpanRecord &Span);
  void finish(bool Keep);
  bool finished() const;

private:
  mutable std::mutex M;
  std::vector<SpanRecord> Spans;
  const size_t Cap;
  bool Finished = false;
  bool Kept = false;
};

/// Explicit per-query trace context, carried across thread-pool and
/// tier boundaries where the thread-local span stack cannot follow.
/// Generated even when tracing is off (the wide-event query log keys on
/// the trace id regardless); Buffer is only attached while tracing is
/// enabled.
struct QueryContext {
  uint64_t TraceHi = 0;    ///< High 64 bits of the 128-bit trace id.
  uint64_t TraceLo = 0;    ///< Low 64 bits (SpanRecord::TraceId).
  uint64_t ParentSpan = 0; ///< Span new children parent under (0 = root).
  bool Sampled = false;    ///< Head-sampling draw (or inbound flag).
  /// Some layer has claimed emission of this query's wide-event log
  /// record; exactly one record per query is the contract.
  bool Recorded = false;
  std::shared_ptr<TraceBuffer> Buffer;

  bool valid() const { return (TraceHi | TraceLo) != 0; }
  /// 32 lowercase hex chars (the W3C trace-id field).
  std::string traceIdHex() const;
};

/// Mints a fresh root context: new 128-bit trace id, head-sampling draw,
/// and (when tracing is enabled) a TraceBuffer for tail-based keeping.
QueryContext startQueryContext();

/// Parses a W3C `traceparent` header (00-<32 hex>-<16 hex>-<2 hex
/// flags>) into \p Ctx: trace id, inbound parent span, sampled flag.
/// Returns false (and leaves \p Ctx untouched) on any malformation.
bool parseTraceparent(std::string_view Header, QueryContext &Ctx);

/// Formats \p Ctx as a `traceparent` header value, with ParentSpan as
/// the parent-id field and the sampled flag from Ctx.Sampled.
std::string traceparentHeader(const QueryContext &Ctx);

/// Snapshot of the calling thread's current trace position as a
/// context: the installed ScopedQueryContext's ids (or the legacy
/// thread-local trace, if any), with ParentSpan = the innermost open
/// span. Invalid when the thread has no open trace. Recorded is set —
/// a captured context must never claim the query-log record again.
QueryContext currentQueryContext();

/// Allocates Ctx.Buffer when tracing is enabled and none is attached.
void attachTraceBuffer(QueryContext &Ctx);

/// Allocates a process-unique span id (for manual SpanRecord emission).
uint64_t newSpanId();

/// Seconds since the tracer epoch (SpanRecord::StartSeconds timebase).
double nowSecondsSinceEpoch();

/// Routes a manually built span into \p Ctx's trace: stamps the trace
/// ids (and a span id, if \p Span.SpanId is 0), then buffers it on the
/// context's TraceBuffer or — without one — sends it straight to the
/// sink when the context was head-sampled. No-op when tracing is off.
/// Returns the span id used.
uint64_t emitSpan(const QueryContext &Ctx, SpanRecord Span);

/// The tail-based keep decision for one completed query, applied and
/// recorded: keeps the trace when the head draw sampled it, when the
/// query ran \p TotalMs >= Tracer::tailKeepMs() (if configured), or
/// when \p OkOutcome is false. Flushes or drops Ctx.Buffer accordingly
/// and returns whether the trace was kept.
bool finishQueryTrace(const QueryContext &Ctx, double TotalMs,
                      bool OkOutcome);

/// Process-wide tracer. Installing a sink enables tracing; installing
/// nullptr disables it (in-flight spans finish quietly).
class Tracer {
public:
  static Tracer &instance();

  /// One relaxed load; safe for hot paths.
  static bool enabled() {
    return Enabled.load(std::memory_order_relaxed);
  }

  void setSink(std::shared_ptr<TraceSink> Sink);
  std::shared_ptr<TraceSink> sink() const;

  /// Head sampling: keep 1 in \p N trace trees. The decision is made
  /// once per *root* span (round-robin over a process-wide counter, so
  /// exactly 1 of every N roots survives under any thread interleaving);
  /// every descendant of a dropped root is dropped with it, keeping
  /// surviving trees complete. N <= 1 keeps everything. Sampling lets
  /// tracing stay on under production load at 1/N of the span cost.
  static void setSampleEvery(unsigned N) {
    SampleEvery.store(N == 0 ? 1 : N, std::memory_order_relaxed);
  }
  static unsigned sampleEvery() {
    return SampleEvery.load(std::memory_order_relaxed);
  }

  /// Tail-based force-keep threshold: a query slower than this is fully
  /// traced regardless of the head draw (0 disables the latency rule;
  /// non-OK outcomes are always force-kept). The `tail:MS` DGGT_METRICS
  /// entry configures it.
  static void setTailKeepMs(uint64_t Ms) {
    TailKeepMs.store(Ms, std::memory_order_relaxed);
  }
  static uint64_t tailKeepMs() {
    return TailKeepMs.load(std::memory_order_relaxed);
  }

  /// Traces kept by the tail rules (latency/outcome) that the head draw
  /// would have dropped. Exported as dggt_trace_tail_kept_total.
  static uint64_t tailKeptTraces() {
    return TailKept.load(std::memory_order_relaxed);
  }

  /// Spans dropped by head sampling since process start (roots and their
  /// descendants). Exported as dggt_trace_spans_dropped_total.
  static uint64_t droppedSpans() {
    return DroppedSpans.load(std::memory_order_relaxed);
  }

private:
  friend class ScopedSpan;
  friend class TraceBuffer;
  friend QueryContext startQueryContext();
  friend uint64_t emitSpan(const QueryContext &, SpanRecord);
  friend bool finishQueryTrace(const QueryContext &, double, bool);
  Tracer() = default;

  static std::atomic<bool> Enabled;
  static std::atomic<unsigned> SampleEvery;
  static std::atomic<uint64_t> RootCounter;
  static std::atomic<uint64_t> DroppedSpans;
  static std::atomic<uint64_t> TailKeepMs;
  static std::atomic<uint64_t> TailKept;

  mutable std::mutex M;
  std::shared_ptr<TraceSink> Sink;
};

/// Fixed-capacity in-memory trace sink: keeps the last `capacity()`
/// finished spans in a ring, overwriting the oldest under load, so
/// tracing can stay enabled in production with bounded memory and no
/// I/O on the query path. snapshot() hands back the retained spans
/// (oldest first) for an exporter or a debugger to drain.
class SpanRingSink : public TraceSink {
public:
  explicit SpanRingSink(size_t Capacity = 4096);

  void onSpan(const SpanRecord &Span) override;

  /// Retained spans, oldest first.
  std::vector<SpanRecord> snapshot() const;

  size_t capacity() const { return Cap; }
  /// Spans evicted by wrap-around since construction. Exported as
  /// dggt_trace_ring_overwritten_total.
  uint64_t overwritten() const {
    return Overwritten.load(std::memory_order_relaxed);
  }

private:
  const size_t Cap;
  mutable std::mutex M;
  std::vector<SpanRecord> Ring; ///< Ring buffer; Next is the write slot.
  size_t Next = 0;
  bool Wrapped = false;
  std::atomic<uint64_t> Overwritten{0};
};

/// RAII adoption of a QueryContext into the calling thread's span
/// stack: while alive, ScopedSpans opened on this thread join the
/// context's trace (same trace id, parented under Ctx.ParentSpan) and
/// route through its TraceBuffer. The previous thread-local state is
/// restored on destruction, so nesting is safe. A no-op for an invalid
/// context.
class ScopedQueryContext {
public:
  explicit ScopedQueryContext(const QueryContext &Ctx);
  ~ScopedQueryContext();

  ScopedQueryContext(const ScopedQueryContext &) = delete;
  ScopedQueryContext &operator=(const ScopedQueryContext &) = delete;

private:
  bool Installed = false;
  // Saved thread-local state (mirrors the internal ThreadSpanStack).
  uint64_t SavedTraceId = 0;
  uint64_t SavedTraceHi = 0;
  uint64_t SavedBaseParent = 0;
  std::vector<uint64_t> SavedStack;
  unsigned SavedSuppressedDepth = 0;
  std::shared_ptr<TraceBuffer> SavedBuffer;
  bool SavedAdopted = false;
  bool SavedSampled = false;
};

/// RAII span guard: starts a span on construction (when tracing is
/// enabled), ends and emits it on destruction. Must be destroyed on the
/// thread that created it (the parent stack is thread-local).
class ScopedSpan {
public:
  explicit ScopedSpan(std::string_view Name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  /// True when the span is being recorded (tracing was enabled at
  /// construction).
  bool active() const { return Active; }

  /// Attaches a string/integer/float attribute. No-ops when inactive.
  void attr(std::string_view Key, std::string_view Value);
  void attr(std::string_view Key, uint64_t Value);
  void attr(std::string_view Key, double Value);

private:
  SpanRecord Rec;
  Budget::Clock::time_point Start;
  bool Active = false;
  /// Dropped by head sampling: this span (or its root) lost the 1-in-N
  /// draw. Tracked so descendants opened inside it are suppressed too.
  bool Suppressed = false;
};

} // namespace dggt::obs

#endif // DGGT_OBS_TRACE_H
