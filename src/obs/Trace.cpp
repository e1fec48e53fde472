//===- obs/Trace.cpp - Hierarchical spans ---------------------------------===//

#include "obs/Trace.h"

#include "support/ThreadPool.h"

#include <cinttypes>
#include <cstdio>

using namespace dggt;
using namespace dggt::obs;

TraceSink::~TraceSink() = default;

std::atomic<bool> Tracer::Enabled{false};
std::atomic<unsigned> Tracer::SampleEvery{1};
std::atomic<uint64_t> Tracer::RootCounter{0};
std::atomic<uint64_t> Tracer::DroppedSpans{0};
std::atomic<uint64_t> Tracer::TailKeepMs{0};
std::atomic<uint64_t> Tracer::TailKept{0};

namespace {

/// Per-thread parenting state. A root span (empty stack) opens a new
/// trace id; children inherit it. While a QueryContext is adopted
/// (ScopedQueryContext), roots parent under the context instead.
struct ThreadSpanStack {
  uint64_t TraceId = 0;
  uint64_t TraceHi = 0;
  std::vector<uint64_t> Stack;
  /// Open spans suppressed by head sampling on this thread. While > 0,
  /// every new span is suppressed (a dropped root drops its whole tree).
  unsigned SuppressedDepth = 0;
  /// Adopted QueryContext state (ScopedQueryContext).
  uint64_t BaseParent = 0;
  std::shared_ptr<TraceBuffer> Buffer;
  bool Adopted = false;
  bool CtxSampled = false;
};

ThreadSpanStack &threadStack() {
  thread_local ThreadSpanStack S;
  return S;
}

uint64_t nextId() {
  static std::atomic<uint64_t> Next{1};
  return Next.fetch_add(1, std::memory_order_relaxed);
}

/// splitmix64 finalizer: spreads the sequential id counter over the full
/// 64-bit space so propagated trace ids look like W3C ids, not serials.
uint64_t mixId(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

Budget::Clock::time_point tracerEpoch() {
  static const Budget::Clock::time_point Epoch = Budget::Clock::now();
  return Epoch;
}

double sinceEpoch(Budget::Clock::time_point T) {
  return std::chrono::duration<double>(T - tracerEpoch()).count();
}

int hexVal(char C) {
  if (C >= '0' && C <= '9')
    return C - '0';
  if (C >= 'a' && C <= 'f')
    return C - 'a' + 10;
  if (C >= 'A' && C <= 'F')
    return C - 'A' + 10;
  return -1;
}

/// Parses exactly \p Digits hex chars from \p S into \p Out.
bool parseHexField(std::string_view S, size_t Digits, uint64_t &Out) {
  if (S.size() != Digits)
    return false;
  uint64_t V = 0;
  for (char C : S) {
    int H = hexVal(C);
    if (H < 0)
      return false;
    V = (V << 4) | static_cast<uint64_t>(H);
  }
  Out = V;
  return true;
}

/// ThreadPool context wrapper: captures the submitting thread's trace
/// position at trySubmit() time and restores it around the task in the
/// worker, so pool-crossing work keeps its trace instead of starting an
/// orphan root. Installed once via the registrar below; tasks submitted
/// outside any trace pass through untouched.
std::function<void()> wrapTaskWithTraceContext(std::function<void()> Fn) {
  QueryContext Ctx = currentQueryContext();
  if (!Ctx.valid())
    return Fn;
  return [Ctx = std::move(Ctx), Fn = std::move(Fn)]() {
    ScopedQueryContext Guard(Ctx);
    Fn();
  };
}

struct TaskWrapperRegistrar {
  TaskWrapperRegistrar() {
    ThreadPool::setTaskWrapper(&wrapTaskWithTraceContext);
  }
} RegisterTaskWrapper;

} // namespace

//===----------------------------------------------------------------------===//
// TraceBuffer
//===----------------------------------------------------------------------===//

TraceBuffer::TraceBuffer(size_t Capacity) : Cap(Capacity == 0 ? 1 : Capacity) {}

void TraceBuffer::add(const SpanRecord &Span) {
  std::shared_ptr<TraceSink> Direct;
  {
    std::lock_guard<std::mutex> L(M);
    if (!Finished) {
      if (Spans.size() < Cap) {
        Spans.push_back(Span);
        return;
      }
      Tracer::DroppedSpans.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // Late span (a worker span closing after the query's record settled
    // the trace): forward it when the trace was kept, drop it otherwise.
    if (!Kept) {
      Tracer::DroppedSpans.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Direct = Tracer::instance().sink();
  }
  if (Direct)
    Direct->onSpan(Span);
}

void TraceBuffer::finish(bool Keep) {
  std::vector<SpanRecord> Flush;
  {
    std::lock_guard<std::mutex> L(M);
    if (Finished)
      return;
    Finished = true;
    Kept = Keep;
    if (!Keep) {
      Tracer::DroppedSpans.fetch_add(Spans.size(),
                                     std::memory_order_relaxed);
      Spans.clear();
      return;
    }
    Flush.swap(Spans);
  }
  if (std::shared_ptr<TraceSink> Out = Tracer::instance().sink())
    for (const SpanRecord &S : Flush)
      Out->onSpan(S);
}

bool TraceBuffer::finished() const {
  std::lock_guard<std::mutex> L(M);
  return Finished;
}

//===----------------------------------------------------------------------===//
// QueryContext
//===----------------------------------------------------------------------===//

std::string QueryContext::traceIdHex() const {
  char Buf[33];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64 "%016" PRIx64, TraceHi,
                TraceLo);
  return Buf;
}

QueryContext dggt::obs::startQueryContext() {
  QueryContext Ctx;
  Ctx.TraceLo = nextId();
  Ctx.TraceHi = mixId(Ctx.TraceLo);
  if (Tracer::enabled()) {
    unsigned N = Tracer::sampleEvery();
    Ctx.Sampled =
        N <= 1 ||
        Tracer::RootCounter.fetch_add(1, std::memory_order_relaxed) % N == 0;
    Ctx.Buffer = std::make_shared<TraceBuffer>();
  }
  return Ctx;
}

bool dggt::obs::parseTraceparent(std::string_view Header, QueryContext &Ctx) {
  // 00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags> = 55 chars.
  if (Header.size() != 55 || Header[2] != '-' || Header[35] != '-' ||
      Header[52] != '-')
    return false;
  uint64_t Version = 0, Hi = 0, Lo = 0, Parent = 0, Flags = 0;
  if (!parseHexField(Header.substr(0, 2), 2, Version) ||
      !parseHexField(Header.substr(3, 16), 16, Hi) ||
      !parseHexField(Header.substr(19, 16), 16, Lo) ||
      !parseHexField(Header.substr(36, 16), 16, Parent) ||
      !parseHexField(Header.substr(53, 2), 2, Flags))
    return false;
  // All-zero trace or parent ids are invalid per the W3C spec; version
  // 0xff is reserved.
  if ((Hi | Lo) == 0 || Parent == 0 || Version == 0xff)
    return false;
  Ctx.TraceHi = Hi;
  Ctx.TraceLo = Lo;
  Ctx.ParentSpan = Parent;
  Ctx.Sampled = (Flags & 1) != 0;
  return true;
}

std::string dggt::obs::traceparentHeader(const QueryContext &Ctx) {
  char Buf[56];
  std::snprintf(Buf, sizeof(Buf),
                "00-%016" PRIx64 "%016" PRIx64 "-%016" PRIx64 "-%02x",
                Ctx.TraceHi, Ctx.TraceLo, Ctx.ParentSpan,
                Ctx.Sampled ? 1u : 0u);
  return Buf;
}

QueryContext dggt::obs::currentQueryContext() {
  ThreadSpanStack &S = threadStack();
  QueryContext Ctx;
  if (S.SuppressedDepth > 0)
    return Ctx; // Inside a dropped tree: nothing worth carrying.
  if (S.Adopted) {
    Ctx.TraceHi = S.TraceHi;
    Ctx.TraceLo = S.TraceId;
    Ctx.ParentSpan = S.Stack.empty() ? S.BaseParent : S.Stack.back();
    Ctx.Sampled = S.CtxSampled;
    Ctx.Buffer = S.Buffer;
  } else if (!S.Stack.empty()) {
    // A legacy thread-local trace: a live span means it survived the
    // head draw, so a capture of it is sampled by construction.
    Ctx.TraceHi = S.TraceHi;
    Ctx.TraceLo = S.TraceId;
    Ctx.ParentSpan = S.Stack.back();
    Ctx.Sampled = true;
  }
  Ctx.Recorded = true;
  return Ctx;
}

void dggt::obs::attachTraceBuffer(QueryContext &Ctx) {
  if (Tracer::enabled() && !Ctx.Buffer)
    Ctx.Buffer = std::make_shared<TraceBuffer>();
}

uint64_t dggt::obs::newSpanId() { return nextId(); }

double dggt::obs::nowSecondsSinceEpoch() {
  return sinceEpoch(Budget::Clock::now());
}

uint64_t dggt::obs::emitSpan(const QueryContext &Ctx, SpanRecord Span) {
  if (Span.SpanId == 0)
    Span.SpanId = nextId();
  if (!Tracer::enabled() || !Ctx.valid())
    return Span.SpanId;
  Span.TraceId = Ctx.TraceLo;
  Span.TraceHi = Ctx.TraceHi;
  if (Ctx.Buffer) {
    Ctx.Buffer->add(Span);
  } else if (Ctx.Sampled) {
    if (std::shared_ptr<TraceSink> Out = Tracer::instance().sink())
      Out->onSpan(Span);
  } else {
    Tracer::DroppedSpans.fetch_add(1, std::memory_order_relaxed);
  }
  return Span.SpanId;
}

bool dggt::obs::finishQueryTrace(const QueryContext &Ctx, double TotalMs,
                                 bool OkOutcome) {
  if (!Ctx.valid())
    return false;
  uint64_t Tail = Tracer::tailKeepMs();
  bool Keep = Ctx.Sampled || !OkOutcome ||
              (Tail > 0 && TotalMs >= static_cast<double>(Tail));
  if (!Ctx.Buffer)
    return Ctx.Sampled && Tracer::enabled();
  if (Keep && !Ctx.Sampled)
    Tracer::TailKept.fetch_add(1, std::memory_order_relaxed);
  Ctx.Buffer->finish(Keep);
  return Keep;
}

//===----------------------------------------------------------------------===//
// Tracer / SpanRingSink
//===----------------------------------------------------------------------===//

Tracer &Tracer::instance() {
  // Intentionally leaked (see MetricsRegistry::instance()): spans in
  // static destructors must find a live tracer.
  static Tracer *T = new Tracer();
  return *T;
}

void Tracer::setSink(std::shared_ptr<TraceSink> NewSink) {
  std::lock_guard<std::mutex> L(M);
  Sink = std::move(NewSink);
  Enabled.store(Sink != nullptr, std::memory_order_relaxed);
}

std::shared_ptr<TraceSink> Tracer::sink() const {
  std::lock_guard<std::mutex> L(M);
  return Sink;
}

SpanRingSink::SpanRingSink(size_t Capacity)
    : Cap(Capacity == 0 ? 1 : Capacity) {
  Ring.reserve(Cap);
}

void SpanRingSink::onSpan(const SpanRecord &Span) {
  std::lock_guard<std::mutex> L(M);
  if (Ring.size() < Cap) {
    Ring.push_back(Span);
    Next = Ring.size() % Cap; // Lands on 0 exactly when the ring fills.
    return;
  }
  Ring[Next] = Span;
  Next = (Next + 1) % Cap;
  Wrapped = true;
  Overwritten.fetch_add(1, std::memory_order_relaxed);
}

std::vector<SpanRecord> SpanRingSink::snapshot() const {
  std::lock_guard<std::mutex> L(M);
  std::vector<SpanRecord> Out;
  Out.reserve(Ring.size());
  if (!Wrapped) {
    Out = Ring;
    return Out;
  }
  for (size_t I = 0; I < Ring.size(); ++I)
    Out.push_back(Ring[(Next + I) % Ring.size()]);
  return Out;
}

//===----------------------------------------------------------------------===//
// ScopedQueryContext
//===----------------------------------------------------------------------===//

ScopedQueryContext::ScopedQueryContext(const QueryContext &Ctx) {
  if (!Ctx.valid())
    return;
  ThreadSpanStack &S = threadStack();
  Installed = true;
  SavedTraceId = S.TraceId;
  SavedTraceHi = S.TraceHi;
  SavedBaseParent = S.BaseParent;
  SavedStack = std::move(S.Stack);
  SavedSuppressedDepth = S.SuppressedDepth;
  SavedBuffer = std::move(S.Buffer);
  SavedAdopted = S.Adopted;
  SavedSampled = S.CtxSampled;
  S.TraceId = Ctx.TraceLo;
  S.TraceHi = Ctx.TraceHi;
  S.BaseParent = Ctx.ParentSpan;
  S.Stack.clear();
  S.SuppressedDepth = 0;
  S.Buffer = Ctx.Buffer;
  S.Adopted = true;
  S.CtxSampled = Ctx.Sampled;
}

ScopedQueryContext::~ScopedQueryContext() {
  if (!Installed)
    return;
  ThreadSpanStack &S = threadStack();
  S.TraceId = SavedTraceId;
  S.TraceHi = SavedTraceHi;
  S.BaseParent = SavedBaseParent;
  S.Stack = std::move(SavedStack);
  S.SuppressedDepth = SavedSuppressedDepth;
  S.Buffer = std::move(SavedBuffer);
  S.Adopted = SavedAdopted;
  S.CtxSampled = SavedSampled;
}

//===----------------------------------------------------------------------===//
// ScopedSpan
//===----------------------------------------------------------------------===//

ScopedSpan::ScopedSpan(std::string_view Name) {
  if (!Tracer::enabled())
    return;
  ThreadSpanStack &S = threadStack();
  // Head sampling: inside a dropped tree, or a fresh root that loses the
  // 1-in-N draw. Suppressed spans still track nesting depth so the tree
  // boundary is known, but record nothing and never reach the sink.
  if (S.SuppressedDepth > 0) {
    ++S.SuppressedDepth;
    Suppressed = true;
    Tracer::DroppedSpans.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (S.Stack.empty()) {
    if (S.Adopted) {
      // The adopted context made the sampling decision at its root.
      // Without a buffer an unsampled context records nothing; with one,
      // spans are buffered and the keep decision is tail-based.
      if (!S.CtxSampled && !S.Buffer) {
        S.SuppressedDepth = 1;
        Suppressed = true;
        Tracer::DroppedSpans.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    } else {
      unsigned N = Tracer::sampleEvery();
      if (N > 1 && Tracer::RootCounter.fetch_add(
                       1, std::memory_order_relaxed) %
                           N !=
                       0) {
        S.SuppressedDepth = 1;
        Suppressed = true;
        Tracer::DroppedSpans.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      S.TraceId = nextId();
      S.TraceHi = 0;
    }
  }
  Active = true;
  Rec.TraceId = S.TraceId;
  Rec.TraceHi = S.TraceHi;
  Rec.SpanId = nextId();
  Rec.ParentId = S.Stack.empty() ? (S.Adopted ? S.BaseParent : 0)
                                 : S.Stack.back();
  Rec.Name = std::string(Name);
  S.Stack.push_back(Rec.SpanId);
  Start = Budget::Clock::now();
  Rec.StartSeconds = sinceEpoch(Start);
}

ScopedSpan::~ScopedSpan() {
  if (Suppressed) {
    ThreadSpanStack &S = threadStack();
    if (S.SuppressedDepth > 0)
      --S.SuppressedDepth;
    return;
  }
  if (!Active)
    return;
  Rec.DurationSeconds =
      std::chrono::duration<double>(Budget::Clock::now() - Start).count();
  ThreadSpanStack &S = threadStack();
  // Pop our own id; an interleaving bug would desynchronize parenting,
  // so recover by unwinding to it.
  while (!S.Stack.empty()) {
    uint64_t Top = S.Stack.back();
    S.Stack.pop_back();
    if (Top == Rec.SpanId)
      break;
  }
  // Adopted contexts route through the query's TraceBuffer (tail-based
  // keep); everything else goes straight to the live sink.
  if (S.Adopted && S.Buffer) {
    S.Buffer->add(Rec);
    return;
  }
  if (std::shared_ptr<TraceSink> Out = Tracer::instance().sink())
    Out->onSpan(Rec);
}

void ScopedSpan::attr(std::string_view Key, std::string_view Value) {
  if (!Active)
    return;
  Rec.Attrs.emplace_back(std::string(Key), std::string(Value));
}

void ScopedSpan::attr(std::string_view Key, uint64_t Value) {
  if (!Active)
    return;
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%" PRIu64, Value);
  Rec.Attrs.emplace_back(std::string(Key), Buf);
}

void ScopedSpan::attr(std::string_view Key, double Value) {
  if (!Active)
    return;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6g", Value);
  Rec.Attrs.emplace_back(std::string(Key), Buf);
}
