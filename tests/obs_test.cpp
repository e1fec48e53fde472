//===- tests/obs_test.cpp - Observability subsystem -----------------------===//
//
// The metrics registry (counter/gauge/histogram semantics, gating,
// snapshots), the histogram's Prometheus `le` bucket math and percentile
// estimator, span nesting and parenting through the thread-local stack,
// the Prometheus / JSON-lines exporters, the DGGT_METRICS spec parser's
// strict validation, the disabled-mode zero-allocation contract, and
// concurrent recording.
//
//===----------------------------------------------------------------------===//

#include "obs/Export.h"
#include "obs/HttpEndpoint.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>
#include <sstream>
#include <thread>
#include <vector>

using namespace dggt;

//===----------------------------------------------------------------------===//
// Allocation counting (for the disabled-mode contract)
//===----------------------------------------------------------------------===//

namespace {
std::atomic<uint64_t> GlobalAllocs{0};
} // namespace

// The replacement operators intentionally pair ::operator new with
// std::free (both sides route through malloc); GCC's heuristic cannot
// see that and warns at inlined call sites.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *operator new(std::size_t Size) {
  GlobalAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

void *operator new[](std::size_t Size) { return ::operator new(Size); }

void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

#pragma GCC diagnostic pop

namespace {

/// Restores the process-wide observability switches around every test.
class ObsTest : public ::testing::Test {
protected:
  void SetUp() override {
    obs::setMetricsEnabled(false);
    obs::Tracer::instance().setSink(nullptr);
    obs::Tracer::setSampleEvery(1);
    obs::registry().zeroAllForTest();
    FaultInjector::instance().reset();
  }
  void TearDown() override {
    obs::setMetricsEnabled(false);
    obs::Tracer::instance().setSink(nullptr);
    obs::Tracer::setSampleEvery(1);
    obs::registry().zeroAllForTest();
    FaultInjector::instance().reset();
  }
};

/// Collects every span it sees, thread-safely.
class RecordingSink : public obs::TraceSink {
public:
  void onSpan(const obs::SpanRecord &Span) override {
    std::lock_guard<std::mutex> L(M);
    Spans.push_back(Span);
  }
  std::vector<obs::SpanRecord> spans() const {
    std::lock_guard<std::mutex> L(M);
    return Spans;
  }

private:
  mutable std::mutex M;
  std::vector<obs::SpanRecord> Spans;
};

} // namespace

//===----------------------------------------------------------------------===//
// Histogram bucket math
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, HistogramLeBucketBoundaries) {
  // Prometheus `le` semantics: a sample equal to a bound lands in that
  // bound's bucket (inclusive upper bounds).
  obs::Histogram H({1.0, 10.0, 100.0});
  H.observe(0.5);   // bucket 0
  H.observe(1.0);   // bucket 0 (le is inclusive)
  H.observe(1.001); // bucket 1
  H.observe(10.0);  // bucket 1
  H.observe(100.0); // bucket 2
  EXPECT_EQ(H.bucketCount(0), 2u);
  EXPECT_EQ(H.bucketCount(1), 2u);
  EXPECT_EQ(H.bucketCount(2), 1u);
  EXPECT_EQ(H.bucketCount(3), 0u); // overflow
  EXPECT_EQ(H.count(), 5u);
  EXPECT_NEAR(H.sum(), 112.501, 1e-9);
}

TEST_F(ObsTest, HistogramOverflowBucket) {
  obs::Histogram H({1.0, 2.0});
  H.observe(2.0000001);
  H.observe(1e12);
  EXPECT_EQ(H.bucketCount(0), 0u);
  EXPECT_EQ(H.bucketCount(1), 0u);
  EXPECT_EQ(H.bucketCount(2), 2u);
  EXPECT_EQ(H.count(), 2u);
  // The percentile estimate saturates at the last finite bound rather
  // than inventing a value for the unbounded bucket.
  EXPECT_DOUBLE_EQ(H.p50(), 2.0);
  EXPECT_DOUBLE_EQ(H.p99(), 2.0);
}

TEST_F(ObsTest, HistogramPercentiles) {
  obs::Histogram Empty({1.0});
  EXPECT_DOUBLE_EQ(Empty.percentile(50), 0.0);

  // 90 samples in (0, 10], 10 samples in (10, 20]: p50 interpolates
  // inside the first bucket, p99 inside the second.
  obs::Histogram H({10.0, 20.0});
  for (int I = 0; I < 90; ++I)
    H.observe(5.0);
  for (int I = 0; I < 10; ++I)
    H.observe(15.0);
  double P50 = H.p50();
  EXPECT_GT(P50, 0.0);
  EXPECT_LE(P50, 10.0);
  double P99 = H.p99();
  EXPECT_GT(P99, 10.0);
  EXPECT_LE(P99, 20.0);
  EXPECT_LE(H.p50(), H.p90());
  EXPECT_LE(H.p90(), H.p99());
}

TEST_F(ObsTest, IntervalPercentileSeesOnlyTheBucketDelta) {
  // A cumulative histogram's percentiles over one interval: the
  // element-wise difference of two bucketSnapshot()s fed through
  // percentileFromCounts, the estimator Histogram::percentile() uses.
  obs::Histogram H(obs::Histogram::defaultLatencyBucketsMs());
  std::vector<uint64_t> Prev(H.bounds().size() + 1, 0);
  auto IntervalPercentile = [&](double P) {
    std::vector<uint64_t> Now = H.bucketSnapshot();
    std::vector<uint64_t> Delta(Now.size());
    for (size_t I = 0; I < Now.size(); ++I)
      Delta[I] = Now[I] - Prev[I];
    Prev = std::move(Now);
    return obs::percentileFromCounts(H.bounds(), Delta, P);
  };

  for (int I = 0; I < 100; ++I)
    H.observe(10);
  double P50 = IntervalPercentile(50);
  EXPECT_GT(P50, 0.0);
  EXPECT_LE(P50, 50.0) << "an all-10ms interval has a small p50";

  // No new observations: the interval is empty and reads zero.
  EXPECT_EQ(IntervalPercentile(95), 0.0);

  // A slow burst dominates the interval even though the cumulative
  // histogram is still mostly 10 ms samples.
  for (int I = 0; I < 10; ++I)
    H.observe(800);
  EXPECT_GT(IntervalPercentile(95), 400.0);
  EXPECT_LE(H.p50(), 50.0) << "the cumulative p50 still reads the history";
}

TEST_F(ObsTest, DefaultLatencyBucketsAreStrictlyIncreasing) {
  const std::vector<double> &B = obs::Histogram::defaultLatencyBucketsMs();
  ASSERT_GE(B.size(), 2u);
  for (size_t I = 1; I < B.size(); ++I)
    EXPECT_LT(B[I - 1], B[I]);
}

//===----------------------------------------------------------------------===//
// Registry and gating
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, RegistryReturnsStableInstances) {
  obs::Counter &A =
      obs::registry().counter("obs_test_stable", {{"k", "v"}});
  obs::Counter &B =
      obs::registry().counter("obs_test_stable", {{"k", "v"}});
  obs::Counter &C =
      obs::registry().counter("obs_test_stable", {{"k", "other"}});
  EXPECT_EQ(&A, &B);
  EXPECT_NE(&A, &C);
}

TEST_F(ObsTest, GatedInstrumentsHonorTheGlobalSwitch) {
  obs::Counter &C = obs::registry().counter("obs_test_gated_counter");
  obs::Histogram &H = obs::registry().histogram("obs_test_gated_hist");
  C.inc();
  H.observe(1.0);
  EXPECT_EQ(C.value(), 0u);
  EXPECT_EQ(H.count(), 0u);

  obs::setMetricsEnabled(true);
  C.inc(3);
  H.observe(1.0);
  EXPECT_EQ(C.value(), 3u);
  EXPECT_EQ(H.count(), 1u);
}

TEST_F(ObsTest, StandaloneHistogramAlwaysRecords) {
  // Bench summaries construct histograms directly; they must record with
  // the global switch off.
  ASSERT_FALSE(obs::metricsEnabled());
  obs::Histogram H({1.0, 10.0});
  H.observe(0.5);
  EXPECT_EQ(H.count(), 1u);
}

TEST_F(ObsTest, GaugeSetAndAdd) {
  obs::setMetricsEnabled(true);
  obs::Gauge &G = obs::registry().gauge("obs_test_gauge");
  G.set(7);
  G.add(-2);
  EXPECT_EQ(G.value(), 5);
}

TEST_F(ObsTest, SnapshotIsSortedAndZeroable) {
  obs::setMetricsEnabled(true);
  obs::registry().counter("obs_test_zzz").inc();
  obs::Counter &A = obs::registry().counter("obs_test_aaa");
  A.inc(5);

  std::vector<obs::MetricSnapshot> Snap = obs::registry().snapshot();
  ASSERT_GE(Snap.size(), 2u);
  for (size_t I = 1; I < Snap.size(); ++I)
    EXPECT_LE(Snap[I - 1].Name, Snap[I].Name);

  obs::registry().zeroAllForTest();
  EXPECT_EQ(A.value(), 0u); // Zeroed in place: the reference stays valid.
  A.inc();
  EXPECT_EQ(A.value(), 1u);
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, SpanNestingAndParenting) {
  auto Sink = std::make_shared<RecordingSink>();
  obs::Tracer::instance().setSink(Sink);
  {
    obs::ScopedSpan Root("root");
    ASSERT_TRUE(Root.active());
    Root.attr("k", "v");
    {
      obs::ScopedSpan Child("child");
      obs::ScopedSpan Grandchild("grandchild");
      Grandchild.attr("n", static_cast<uint64_t>(42));
    }
    obs::ScopedSpan Sibling("sibling");
  }
  obs::Tracer::instance().setSink(nullptr);

  std::vector<obs::SpanRecord> Spans = Sink->spans();
  ASSERT_EQ(Spans.size(), 4u); // Emitted in end order.
  const obs::SpanRecord &Grandchild = Spans[0];
  const obs::SpanRecord &Child = Spans[1];
  const obs::SpanRecord &Sibling = Spans[2];
  const obs::SpanRecord &Root = Spans[3];

  EXPECT_EQ(Root.Name, "root");
  EXPECT_EQ(Root.ParentId, 0u);
  EXPECT_EQ(Child.ParentId, Root.SpanId);
  EXPECT_EQ(Grandchild.ParentId, Child.SpanId);
  EXPECT_EQ(Sibling.ParentId, Root.SpanId);
  // One trace: every span shares the root's trace id.
  EXPECT_EQ(Child.TraceId, Root.TraceId);
  EXPECT_EQ(Grandchild.TraceId, Root.TraceId);
  EXPECT_EQ(Sibling.TraceId, Root.TraceId);

  ASSERT_EQ(Root.Attrs.size(), 1u);
  EXPECT_EQ(Root.Attrs[0].first, "k");
  EXPECT_EQ(Root.Attrs[0].second, "v");
  ASSERT_EQ(Grandchild.Attrs.size(), 1u);
  EXPECT_EQ(Grandchild.Attrs[0].second, "42");
  EXPECT_GE(Root.DurationSeconds, Child.DurationSeconds);
}

TEST_F(ObsTest, SpansInactiveWithoutSink) {
  obs::ScopedSpan S("unused");
  EXPECT_FALSE(S.active());
  S.attr("k", "v"); // Must be a harmless no-op.
}

TEST_F(ObsTest, DisabledModeAllocatesNothing) {
  // The contract that lets guards stay compiled into hot paths: with
  // metrics and tracing off, spans, latency probes, and counter calls
  // perform zero heap allocations.
  ASSERT_FALSE(obs::metricsEnabled());
  obs::Counter &C = obs::registry().counter("obs_test_noalloc");
  obs::Histogram &H = obs::registry().histogram("obs_test_noalloc_ms");

  uint64_t Before = GlobalAllocs.load(std::memory_order_relaxed);
  for (int I = 0; I < 1000; ++I) {
    obs::ScopedSpan Span("obs.test.disabled");
    obs::ScopedLatencyMs T(H);
    C.inc();
  }
  EXPECT_EQ(GlobalAllocs.load(std::memory_order_relaxed), Before);
}

//===----------------------------------------------------------------------===//
// Exporters
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, PrometheusTextRoundTrip) {
  obs::setMetricsEnabled(true);
  obs::registry()
      .counter("obs_test_requests_total", {{"method", "get"}})
      .inc(3);
  obs::Histogram &H =
      obs::registry().histogram("obs_test_rt_ms", {}, {1.0, 10.0});
  H.observe(0.5);
  H.observe(5.0);
  H.observe(100.0);

  std::ostringstream OS;
  obs::writePrometheusText(obs::registry().snapshot(), OS);
  std::string Text = OS.str();

  EXPECT_NE(Text.find("# TYPE obs_test_requests_total counter"),
            std::string::npos);
  EXPECT_NE(Text.find("obs_test_requests_total{method=\"get\"} 3"),
            std::string::npos);
  EXPECT_NE(Text.find("# TYPE obs_test_rt_ms histogram"),
            std::string::npos);
  // Cumulative buckets: le="10" counts the le="1" samples too.
  EXPECT_NE(Text.find("obs_test_rt_ms_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(Text.find("obs_test_rt_ms_bucket{le=\"10\"} 2"),
            std::string::npos);
  EXPECT_NE(Text.find("obs_test_rt_ms_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(Text.find("obs_test_rt_ms_count 3"), std::string::npos);
}

TEST_F(ObsTest, JsonLinesMetricsRoundTrip) {
  obs::setMetricsEnabled(true);
  obs::registry().counter("obs_test_jl_total").inc(2);
  obs::registry().histogram("obs_test_jl_ms", {}, {1.0}).observe(0.5);

  std::ostringstream OS;
  obs::writeMetricsJsonLines(obs::registry().snapshot(), OS);
  std::string Text = OS.str();

  EXPECT_NE(Text.find("\"name\":\"obs_test_jl_total\""), std::string::npos);
  EXPECT_NE(Text.find("\"name\":\"obs_test_jl_ms\""), std::string::npos);
  EXPECT_NE(Text.find("\"p50\""), std::string::npos);
  // Every non-empty line is one JSON object.
  std::istringstream IS(Text);
  std::string Line;
  size_t Lines = 0;
  while (std::getline(IS, Line)) {
    if (Line.empty())
      continue;
    ++Lines;
    EXPECT_EQ(Line.front(), '{');
    EXPECT_EQ(Line.back(), '}');
  }
  EXPECT_GE(Lines, 2u);
}

TEST_F(ObsTest, TraceSinkWritesJsonLines) {
  std::ostringstream OS;
  {
    auto Sink = std::make_shared<obs::JsonLinesTraceSink>(OS);
    obs::Tracer::instance().setSink(Sink);
    {
      obs::ScopedSpan Root("trace.root");
      obs::ScopedSpan Child("trace.child");
      Child.attr("rung", "dggt-full");
    }
    obs::Tracer::instance().setSink(nullptr);
  }
  std::string Text = OS.str();
  EXPECT_NE(Text.find("\"name\":\"trace.child\""), std::string::npos);
  EXPECT_NE(Text.find("\"name\":\"trace.root\""), std::string::npos);
  EXPECT_NE(Text.find("\"rung\":\"dggt-full\""), std::string::npos);
  std::istringstream IS(Text);
  std::string Line;
  size_t Lines = 0;
  while (std::getline(IS, Line)) {
    if (Line.empty())
      continue;
    ++Lines;
    EXPECT_EQ(Line.front(), '{');
    EXPECT_EQ(Line.back(), '}');
  }
  EXPECT_EQ(Lines, 2u);
}

TEST_F(ObsTest, FaultCountsAreCollected) {
  FaultInjector::instance().armAlways(faults::DggtMerge);
  EXPECT_TRUE(faultFires(faults::DggtMerge));

  std::vector<obs::MetricSnapshot> Snap = obs::collectMetrics();
  bool FoundHits = false, FoundFired = false;
  for (const obs::MetricSnapshot &S : Snap) {
    if (S.Labels != obs::LabelSet{{"point", "dggt.merge"}})
      continue;
    if (S.Name == "dggt_fault_point_hits_total") {
      FoundHits = true;
      EXPECT_GE(S.CounterValue, 1u);
    }
    if (S.Name == "dggt_fault_point_fired_total") {
      FoundFired = true;
      EXPECT_GE(S.CounterValue, 1u);
    }
  }
  EXPECT_TRUE(FoundHits);
  EXPECT_TRUE(FoundFired);
}

//===----------------------------------------------------------------------===//
// Head sampling and the span ring
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, HeadSamplingKeepsExactlyOneInNTrees) {
  auto Sink = std::make_shared<RecordingSink>();
  obs::Tracer::instance().setSink(Sink);
  obs::Tracer::setSampleEvery(4);
  uint64_t DroppedBefore = obs::Tracer::droppedSpans();

  // 40 root spans, each with two children. The draw is round-robin on a
  // process-wide counter, so any 40 consecutive roots keep exactly 10 —
  // regardless of where the counter started.
  for (int I = 0; I < 40; ++I) {
    obs::ScopedSpan Root("sample.root");
    obs::ScopedSpan ChildA("sample.child");
    obs::ScopedSpan ChildB("sample.child");
  }
  obs::Tracer::instance().setSink(nullptr);

  std::vector<obs::SpanRecord> Spans = Sink->spans();
  size_t Roots = 0;
  for (const obs::SpanRecord &S : Spans)
    if (S.ParentId == 0)
      ++Roots;
  EXPECT_EQ(Roots, 10u);
  // Surviving trees are complete: every kept root has both children.
  EXPECT_EQ(Spans.size(), 30u);
  // 30 dropped roots each drop their 2 children with them.
  EXPECT_EQ(obs::Tracer::droppedSpans() - DroppedBefore, 90u);
}

TEST_F(ObsTest, DroppedRootSuppressesItsWholeTree) {
  auto Sink = std::make_shared<RecordingSink>();
  obs::Tracer::instance().setSink(Sink);
  obs::Tracer::setSampleEvery(1000000); // Effectively drop all but 1-in-1M.
  {
    obs::ScopedSpan R1("a");
    obs::ScopedSpan C("a.child");
  }
  {
    obs::ScopedSpan R2("b");
  }
  obs::Tracer::instance().setSink(nullptr);
  // At most one of the two trees (the counter's 1-in-N winner) was kept;
  // no orphan children appear without their root.
  for (const obs::SpanRecord &S : Sink->spans())
    if (S.Name == "a.child") {
      bool HaveRoot = false;
      for (const obs::SpanRecord &R : Sink->spans())
        HaveRoot |= R.SpanId == S.ParentId;
      EXPECT_TRUE(HaveRoot);
    }
}

TEST_F(ObsTest, SpanRingKeepsTheLastCapacitySpans) {
  obs::SpanRingSink Ring(3);
  obs::SpanRecord S;
  for (uint64_t I = 1; I <= 5; ++I) {
    S.SpanId = I;
    Ring.onSpan(S);
  }
  std::vector<obs::SpanRecord> Snap = Ring.snapshot();
  ASSERT_EQ(Snap.size(), 3u);
  EXPECT_EQ(Snap[0].SpanId, 3u); // Oldest retained first.
  EXPECT_EQ(Snap[1].SpanId, 4u);
  EXPECT_EQ(Snap[2].SpanId, 5u);
  EXPECT_EQ(Ring.overwritten(), 2u);
  EXPECT_EQ(Ring.capacity(), 3u);
}

TEST_F(ObsTest, SpanRingBeforeWrapReturnsInsertionOrder) {
  obs::SpanRingSink Ring(8);
  obs::SpanRecord S;
  for (uint64_t I = 1; I <= 3; ++I) {
    S.SpanId = I;
    Ring.onSpan(S);
  }
  std::vector<obs::SpanRecord> Snap = Ring.snapshot();
  ASSERT_EQ(Snap.size(), 3u);
  for (uint64_t I = 0; I < 3; ++I)
    EXPECT_EQ(Snap[I].SpanId, I + 1);
  EXPECT_EQ(Ring.overwritten(), 0u);
}

TEST_F(ObsTest, DroppedSpanCounterIsCollected) {
  obs::Tracer::setSampleEvery(1000000);
  auto Sink = std::make_shared<RecordingSink>();
  obs::Tracer::instance().setSink(Sink);
  for (int I = 0; I < 8; ++I)
    obs::ScopedSpan Root("drop.me");
  obs::Tracer::instance().setSink(nullptr);

  std::vector<obs::MetricSnapshot> Snap = obs::collectMetrics();
  bool Found = false;
  for (const obs::MetricSnapshot &S : Snap)
    if (S.Name == "dggt_trace_spans_dropped_total") {
      Found = true;
      EXPECT_GE(S.CounterValue, 7u); // At least 7 of the 8 roots dropped.
    }
  EXPECT_TRUE(Found);
}

//===----------------------------------------------------------------------===//
// DGGT_METRICS spec validation
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, SpecRejectsMalformedEntries) {
  std::string Error;
  EXPECT_FALSE(obs::configureFromSpec("", Error));
  EXPECT_FALSE(Error.empty());

  Error.clear();
  EXPECT_FALSE(obs::configureFromSpec("bogus:stderr", Error));
  EXPECT_FALSE(Error.empty());

  Error.clear();
  EXPECT_FALSE(obs::configureFromSpec("prom:", Error));
  EXPECT_FALSE(Error.empty());

  Error.clear();
  // Strict all-or-nothing: one bad entry rejects the whole spec, even
  // with a valid entry ahead of it.
  EXPECT_FALSE(obs::configureFromSpec("on,nope", Error));
  EXPECT_FALSE(Error.empty());
  EXPECT_FALSE(obs::metricsEnabled());
}

TEST_F(ObsTest, SpecOnEnablesCollection) {
  std::string Error;
  EXPECT_TRUE(obs::configureFromSpec("on", Error)) << Error;
  EXPECT_TRUE(obs::metricsEnabled());
}

TEST_F(ObsTest, SpecRejectsMalformedSamplingAndRingEntries) {
  std::string Error;
  EXPECT_FALSE(obs::configureFromSpec("sample:0", Error));
  EXPECT_FALSE(Error.empty());

  Error.clear();
  EXPECT_FALSE(obs::configureFromSpec("sample:abc", Error));
  EXPECT_FALSE(Error.empty());

  Error.clear();
  EXPECT_FALSE(obs::configureFromSpec("sample:-3", Error));
  EXPECT_FALSE(Error.empty());

  Error.clear();
  EXPECT_FALSE(obs::configureFromSpec("trace:ring:0", Error));
  EXPECT_FALSE(Error.empty());

  Error.clear();
  EXPECT_FALSE(obs::configureFromSpec("trace:ring:many", Error));
  EXPECT_FALSE(Error.empty());
  EXPECT_FALSE(obs::metricsEnabled());
}

TEST_F(ObsTest, SpecConfiguresSamplingDivisor) {
  std::string Error;
  EXPECT_TRUE(obs::configureFromSpec("sample:10", Error)) << Error;
  EXPECT_EQ(obs::Tracer::sampleEvery(), 10u);
  EXPECT_TRUE(obs::metricsEnabled());
}

TEST_F(ObsTest, SpecInstallsSpanRingWithCapacity) {
  std::string Error;
  EXPECT_TRUE(obs::configureFromSpec("trace:ring:8", Error)) << Error;
  std::shared_ptr<obs::SpanRingSink> Ring = obs::spanRing();
  ASSERT_NE(Ring, nullptr);
  EXPECT_EQ(Ring->capacity(), 8u);
  // The ring is the live trace sink: spans land in it.
  {
    obs::ScopedSpan Root("ring.root");
  }
  std::vector<obs::SpanRecord> Spans = Ring->snapshot();
  ASSERT_FALSE(Spans.empty());
  EXPECT_EQ(Spans.back().Name, "ring.root");

  // Ring eviction surfaces through the pull-collected counter.
  obs::SpanRecord S;
  for (int I = 0; I < 12; ++I)
    Ring->onSpan(S);
  bool Found = false;
  for (const obs::MetricSnapshot &M : obs::collectMetrics())
    if (M.Name == "dggt_trace_ring_overwritten_total") {
      Found = true;
      EXPECT_GE(M.CounterValue, 1u);
    }
  EXPECT_TRUE(Found);
}

TEST_F(ObsTest, SpecRejectsMalformedFlushAndHttpEntries) {
  std::string Error;
  EXPECT_FALSE(obs::configureFromSpec("flush:0", Error));
  EXPECT_FALSE(Error.empty());

  Error.clear();
  EXPECT_FALSE(obs::configureFromSpec("flush:abc", Error));
  EXPECT_FALSE(Error.empty());

  Error.clear();
  EXPECT_FALSE(obs::configureFromSpec("flush:", Error));
  EXPECT_FALSE(Error.empty());

  Error.clear();
  EXPECT_FALSE(obs::configureFromSpec("http:70000", Error));
  EXPECT_FALSE(Error.empty());

  Error.clear();
  EXPECT_FALSE(obs::configureFromSpec("http:abc", Error));
  EXPECT_FALSE(Error.empty());

  Error.clear();
  EXPECT_FALSE(obs::configureFromSpec("http:", Error));
  EXPECT_FALSE(Error.empty());
  EXPECT_FALSE(obs::metricsEnabled());
}

TEST_F(ObsTest, SpecAcceptsFlushInterval) {
  std::string Error;
  EXPECT_TRUE(obs::configureFromSpec("flush:30", Error)) << Error;
  EXPECT_TRUE(obs::metricsEnabled());
}

TEST_F(ObsTest, SpecStartsHttpEndpointOnEphemeralPort) {
  std::string Error;
  EXPECT_TRUE(obs::configureFromSpec("http:0", Error)) << Error;
  EXPECT_TRUE(obs::metricsEnabled());
  std::shared_ptr<obs::HttpEndpoint> Ep = obs::httpEndpoint();
  ASSERT_NE(Ep, nullptr);
  EXPECT_TRUE(Ep->running());
  EXPECT_NE(Ep->port(), 0u); // Resolved to a real ephemeral port.
}

//===----------------------------------------------------------------------===//
// Exposition-format escaping
//===----------------------------------------------------------------------===//

namespace {

/// Inverse of the Prometheus label-value escaping: \\, \", \n only.
std::string unescapePromLabel(std::string_view Escaped) {
  std::string Out;
  for (size_t I = 0; I < Escaped.size(); ++I) {
    if (Escaped[I] == '\\' && I + 1 < Escaped.size()) {
      char Next = Escaped[++I];
      Out += Next == 'n' ? '\n' : Next;
    } else {
      Out += Escaped[I];
    }
  }
  return Out;
}

} // namespace

TEST_F(ObsTest, PromLabelEscapingRoundTripsHostileValues) {
  // Exactly the three characters the exposition format escapes in label
  // values: backslash, double-quote, newline. Everything else (tabs,
  // control bytes, UTF-8) passes through raw.
  const std::string Hostile[] = {
      "plain",
      "back\\slash",
      "quo\"te",
      "new\nline",
      "\\n is literal backslash-n",
      "tab\tand bell\x07 stay raw",
      "all \\ three \" at \n once",
      "trailing backslash \\",
  };
  for (const std::string &Value : Hostile) {
    std::string Escaped = obs::escapePromLabel(Value);
    EXPECT_EQ(Escaped.find('\n'), std::string::npos) << Value;
    EXPECT_EQ(unescapePromLabel(Escaped), Value) << Value;
  }
  // The fixed points: each special maps to its two-byte escape.
  EXPECT_EQ(obs::escapePromLabel("\\"), "\\\\");
  EXPECT_EQ(obs::escapePromLabel("\""), "\\\"");
  EXPECT_EQ(obs::escapePromLabel("\n"), "\\n");
  EXPECT_EQ(obs::escapePromLabel("\t"), "\t"); // Tab is NOT escaped.
}

TEST_F(ObsTest, PrometheusTextEscapesHostileLabelValues) {
  obs::setMetricsEnabled(true);
  obs::registry()
      .counter("obs_test_hostile_total",
               {{"path", "a\\b"}, {"q", "say \"hi\"\nok"}})
      .inc();

  std::ostringstream OS;
  obs::writePrometheusText(obs::registry().snapshot(), OS);
  std::string Text = OS.str();

  EXPECT_NE(Text.find("path=\"a\\\\b\""), std::string::npos) << Text;
  EXPECT_NE(Text.find("q=\"say \\\"hi\\\"\\nok\""), std::string::npos) << Text;
  // The sample still parses line-oriented: no raw newline inside a label.
  std::istringstream IS(Text);
  std::string Line;
  while (std::getline(IS, Line)) {
    if (!Line.empty() && Line.front() != '#' &&
        Line.find("obs_test_hostile_total") != std::string::npos) {
      EXPECT_EQ(Line.back(), '1');
    }
  }
}

TEST_F(ObsTest, CollectMetricsIncludesBuildInfoAndUptime) {
  bool FoundBuild = false, FoundUptime = false;
  for (const obs::MetricSnapshot &M : obs::collectMetrics()) {
    if (M.Name == "dggt_build_info") {
      FoundBuild = true;
      EXPECT_EQ(M.K, obs::MetricSnapshot::Kind::Gauge);
      EXPECT_EQ(M.GaugeValue, 1); // Info-metric idiom: constant 1.
      bool HaveVersion = false, HaveSha = false, HaveSan = false;
      for (const auto &[Key, Value] : M.Labels) {
        HaveVersion |= Key == "version" && !Value.empty();
        HaveSha |= Key == "git_sha" && !Value.empty();
        HaveSan |= Key == "sanitizers" && !Value.empty();
      }
      EXPECT_TRUE(HaveVersion && HaveSha && HaveSan);
    }
    if (M.Name == "dggt_uptime_seconds") {
      FoundUptime = true;
      EXPECT_EQ(M.K, obs::MetricSnapshot::Kind::Gauge);
      EXPECT_GE(M.GaugeValue, 0);
    }
  }
  EXPECT_TRUE(FoundBuild);
  EXPECT_TRUE(FoundUptime);
}

//===----------------------------------------------------------------------===//
// Concurrency
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, ConcurrentCountersAndHistogramsLoseNothing) {
  obs::setMetricsEnabled(true);
  obs::Counter &C = obs::registry().counter("obs_test_concurrent_total");
  obs::Histogram &H =
      obs::registry().histogram("obs_test_concurrent_ms", {}, {1.0, 10.0});

  constexpr int Threads = 4;
  constexpr int PerThread = 25000;
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&] {
      for (int I = 0; I < PerThread; ++I) {
        C.inc();
        H.observe(I % 2 ? 0.5 : 100.0);
      }
    });
  for (std::thread &T : Pool)
    T.join();

  EXPECT_EQ(C.value(), static_cast<uint64_t>(Threads) * PerThread);
  EXPECT_EQ(H.count(), static_cast<uint64_t>(Threads) * PerThread);
  EXPECT_EQ(H.bucketCount(0) + H.bucketCount(2),
            static_cast<uint64_t>(Threads) * PerThread);
}
