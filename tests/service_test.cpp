//===- tests/service_test.cpp - Resilient service front door --------------===//
//
// The degradation ladder (rung order, attempt trail), hardened budgets
// (first-call clock check, remaining(), child splitting), bounded retry
// with backoff, the per-domain circuit breaker (trip, shed, half-open
// probe, close/re-open), and concurrent queries from many threads.
// Faults are injected through the FaultInjector so every scenario is
// deterministic — no timing races.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "service/SynthesisService.h"
#include "support/FaultInjection.h"
#include "synth/dggt/DggtSynthesizer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

using namespace dggt;

namespace {

/// Clears the process-wide fault registry around every test.
class ServiceTest : public ::testing::Test {
protected:
  void SetUp() override { FaultInjector::instance().reset(); }
  void TearDown() override { FaultInjector::instance().reset(); }

  /// The TextEditing domain, built once for the whole suite.
  static const Domain &textEditing() {
    static std::unique_ptr<Domain> D = makeTextEditingDomain();
    return *D;
  }
};

ServiceOptions fastOptions() {
  ServiceOptions Opts;
  Opts.TotalBudgetMs = 2000;
  Opts.BreakerTripThreshold = 2;
  Opts.BreakerCooldownMs = 50;
  return Opts;
}

} // namespace

//===----------------------------------------------------------------------===//
// Budget hardening
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, BudgetChecksClockOnFirstCall) {
  // A budget handed over past its deadline must report expiry on the
  // first expired() call, not after a 256-call stride of extra work.
  Budget B(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(B.expired());
}

TEST_F(ServiceTest, BudgetRemaining) {
  Budget Unlimited;
  EXPECT_EQ(Unlimited.remainingMs(), Budget::UnlimitedMs);

  Budget B(10000);
  uint64_t Left = B.remainingMs();
  EXPECT_GT(Left, 0u);
  EXPECT_LE(Left, 10000u);

  Budget Cancelled(10000);
  Cancelled.cancel();
  EXPECT_EQ(Cancelled.remainingMs(), 0u);
}

TEST_F(ServiceTest, ChildBudgetSharesParentDeadline) {
  // A child asking for more time than the parent has left is clamped to
  // the parent's deadline.
  Budget Parent(20);
  Budget Child = Parent.child(100000);
  EXPECT_LE(Child.remainingMs(), Parent.remainingMs() + 1);

  // A child of an unlimited parent is just its own budget.
  Budget Unlimited;
  EXPECT_EQ(Unlimited.child(0).remainingMs(), Budget::UnlimitedMs);
  EXPECT_LE(Unlimited.child(50).remainingMs(), 50u);

  // child(0) inherits the whole remainder.
  EXPECT_LE(Parent.child(0).remainingMs(), Parent.remainingMs() + 1);

  // Cancelling the child leaves the parent alive.
  Budget C2 = Parent.child(5);
  C2.cancel();
  EXPECT_TRUE(C2.expired());
  EXPECT_FALSE(Parent.expired());

  // A child of an expired parent starts expired.
  Budget Dead(10000);
  Dead.cancel();
  EXPECT_TRUE(Dead.child(500).expired());
}

//===----------------------------------------------------------------------===//
// Ladder behaviour
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, AnswersAtFullRungOnHealthyQuery) {
  SynthesisService S(fastOptions());
  S.addDomain(textEditing());
  ServiceReport Rep = S.query("TextEditing", "sort all lines");
  ASSERT_TRUE(Rep.ok()) << serviceStatusName(Rep.St);
  EXPECT_EQ(Rep.AnsweredBy, ServiceRung::DggtFull);
  ASSERT_EQ(Rep.Attempts.size(), 1u);
  EXPECT_EQ(Rep.Attempts[0].St, AttemptStatus::Success);
  EXPECT_FALSE(Rep.Result.Expression.empty());
}

TEST_F(ServiceTest, DggtFaultDegradesToHisynWithFullTrail) {
  // Faults in DGGT's merge stage take out both DGGT rungs; the
  // algorithm-diverse HISyn rung still answers, and the report carries
  // the whole attempt trail. (The query is one HISyn can answer — not
  // every DGGT success has a baseline equivalent.)
  FaultInjector::instance().armAlways(faults::DggtMerge);
  SynthesisService S(fastOptions());
  S.addDomain(textEditing());
  ServiceReport Rep = S.query("TextEditing", "print all lines");
  ASSERT_TRUE(Rep.ok()) << serviceStatusName(Rep.St);
  EXPECT_EQ(Rep.AnsweredBy, ServiceRung::Hisyn);
  ASSERT_EQ(Rep.Attempts.size(), 3u);
  EXPECT_EQ(Rep.Attempts[0].Rung, ServiceRung::DggtFull);
  EXPECT_EQ(Rep.Attempts[0].St, AttemptStatus::Timeout);
  EXPECT_EQ(Rep.Attempts[1].Rung, ServiceRung::DggtTight);
  EXPECT_EQ(Rep.Attempts[1].St, AttemptStatus::Timeout);
  EXPECT_EQ(Rep.Attempts[2].Rung, ServiceRung::Hisyn);
  EXPECT_EQ(Rep.Attempts[2].St, AttemptStatus::Success);
}

TEST_F(ServiceTest, NoValidTreeEndsTheLadder) {
  // A TextEditing near-miss: DGGT completes its search and finds no
  // valid tree. Only a timeout degrades, so HISyn (which would answer
  // it) never runs, and the service agrees with the direct pipeline.
  const char *Query = "copy all lines in every snarfled equal to 'begin'";
  PreparedQuery Q = textEditing().frontEnd().prepare(Query);
  Budget B(2000);
  SynthesisResult Direct = DggtSynthesizer().synthesize(Q, B);
  EXPECT_EQ(Direct.St, SynthesisResult::Status::NoValidTree);

  SynthesisService S(fastOptions());
  S.addDomain(textEditing());
  ServiceReport Rep = S.query("TextEditing", Query);
  EXPECT_FALSE(Rep.ok()) << Rep.Result.Expression;
  EXPECT_EQ(Rep.St, ServiceStatus::NoAnswer);
  ASSERT_EQ(Rep.Attempts.size(), 1u);
  EXPECT_EQ(Rep.Attempts[0].Rung, ServiceRung::DggtFull);
  EXPECT_EQ(Rep.Attempts[0].St, AttemptStatus::NoValidTree);
}

TEST_F(ServiceTest, AllRungsFaultedReturnsStructuredErrorInBudget) {
  // Faults at every rung: the service must return a structured status,
  // never crash or hang, and never overshoot the total budget by more
  // than 10%.
  FaultInjector::instance().armAlways(faults::DggtMerge);
  FaultInjector::instance().armAlways(faults::HisynEnumerate);
  ServiceOptions Opts = fastOptions();
  Opts.TotalBudgetMs = 1000;
  SynthesisService S(Opts);
  S.addDomain(textEditing());
  ServiceReport Rep = S.query("TextEditing", "sort all lines");
  EXPECT_EQ(Rep.St, ServiceStatus::DeadlineExceeded);
  ASSERT_EQ(Rep.Attempts.size(), 3u);
  for (const RungAttempt &A : Rep.Attempts)
    EXPECT_EQ(A.St, AttemptStatus::Timeout) << rungName(A.Rung);
  EXPECT_LT(Rep.TotalSeconds, 1.1 * 1.0);
}

TEST_F(ServiceTest, NoCandidatesFailsFastBeforeLadder) {
  SynthesisService S(fastOptions());
  S.addDomain(textEditing());
  ServiceReport Rep = S.query("TextEditing", "qwerty zxcvb plugh");
  EXPECT_EQ(Rep.St, ServiceStatus::NoCandidates);
  EXPECT_TRUE(Rep.Attempts.empty());
}

TEST_F(ServiceTest, UnknownDomainIsStructured) {
  SynthesisService S(fastOptions());
  S.addDomain(textEditing());
  EXPECT_EQ(S.query("NoSuchDomain", "sort").St,
            ServiceStatus::UnknownDomain);
}

TEST_F(ServiceTest, TransientFaultIsRetriedWithBackoff) {
  // One injected transient failure: the rung retries and succeeds; the
  // trail shows both tries at the same rung.
  FaultInjector::instance().armNth(faults::ServiceTransient, 1);
  SynthesisService S(fastOptions());
  S.addDomain(textEditing());
  ServiceReport Rep = S.query("TextEditing", "sort all lines");
  ASSERT_TRUE(Rep.ok()) << serviceStatusName(Rep.St);
  ASSERT_EQ(Rep.Attempts.size(), 2u);
  EXPECT_EQ(Rep.Attempts[0].St, AttemptStatus::TransientFault);
  EXPECT_EQ(Rep.Attempts[0].Try, 0u);
  EXPECT_EQ(Rep.Attempts[1].Rung, ServiceRung::DggtFull);
  EXPECT_EQ(Rep.Attempts[1].St, AttemptStatus::Success);
  EXPECT_EQ(Rep.Attempts[1].Try, 1u);
}

TEST_F(ServiceTest, TransientRetriesAreBounded) {
  // Transient faults on every attempt: each rung burns its retries and
  // the ladder ends in a structured no-answer (the rungs all completed,
  // nothing timed out).
  FaultInjector::instance().armAlways(faults::ServiceTransient);
  ServiceOptions Opts = fastOptions();
  Opts.MaxRetriesPerRung = 2;
  SynthesisService S(Opts);
  S.addDomain(textEditing());
  ServiceReport Rep = S.query("TextEditing", "sort all lines");
  EXPECT_EQ(Rep.St, ServiceStatus::NoAnswer);
  // 3 rungs x (1 try + 2 retries).
  EXPECT_EQ(Rep.Attempts.size(), 9u);
  for (const RungAttempt &A : Rep.Attempts)
    EXPECT_EQ(A.St, AttemptStatus::TransientFault);
}

//===----------------------------------------------------------------------===//
// Circuit breaker
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, BreakerTripsShedsAndHalfOpens) {
  FaultInjector::instance().armAlways(faults::DggtMerge);
  FaultInjector::instance().armAlways(faults::HisynEnumerate);
  ServiceOptions Opts = fastOptions(); // threshold 2, cooldown 50 ms
  Opts.TotalBudgetMs = 500;
  SynthesisService S(Opts);
  S.addDomain(textEditing());

  // Two consecutive deadline misses trip the breaker.
  EXPECT_EQ(S.query("TextEditing", "sort").St,
            ServiceStatus::DeadlineExceeded);
  EXPECT_EQ(S.breakerState("TextEditing"),
            SynthesisService::BreakerState::Closed);
  EXPECT_EQ(S.query("TextEditing", "sort").St,
            ServiceStatus::DeadlineExceeded);
  EXPECT_EQ(S.breakerState("TextEditing"),
            SynthesisService::BreakerState::Open);

  // While open, queries are shed without running any rung.
  ServiceReport Shed = S.query("TextEditing", "sort");
  EXPECT_EQ(Shed.St, ServiceStatus::CircuitOpen);
  EXPECT_TRUE(Shed.Attempts.empty());

  // After the cooldown the breaker half-opens; a healthy probe closes
  // it again.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_EQ(S.breakerState("TextEditing"),
            SynthesisService::BreakerState::HalfOpen);
  FaultInjector::instance().reset();
  ServiceReport Probe = S.query("TextEditing", "sort all lines");
  EXPECT_TRUE(Probe.ok()) << serviceStatusName(Probe.St);
  EXPECT_EQ(S.breakerState("TextEditing"),
            SynthesisService::BreakerState::Closed);
  EXPECT_TRUE(S.query("TextEditing", "sort all lines").ok());
}

TEST_F(ServiceTest, FailedProbeReopensBreaker) {
  FaultInjector::instance().armAlways(faults::DggtMerge);
  FaultInjector::instance().armAlways(faults::HisynEnumerate);
  ServiceOptions Opts = fastOptions();
  Opts.TotalBudgetMs = 500;
  SynthesisService S(Opts);
  S.addDomain(textEditing());

  EXPECT_EQ(S.query("TextEditing", "sort").St,
            ServiceStatus::DeadlineExceeded);
  EXPECT_EQ(S.query("TextEditing", "sort").St,
            ServiceStatus::DeadlineExceeded);
  EXPECT_EQ(S.breakerState("TextEditing"),
            SynthesisService::BreakerState::Open);

  // Probe with the faults still armed: it misses its deadline and the
  // breaker snaps open again immediately.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_EQ(S.query("TextEditing", "sort").St,
            ServiceStatus::DeadlineExceeded);
  EXPECT_EQ(S.query("TextEditing", "sort").St, ServiceStatus::CircuitOpen);
}

TEST_F(ServiceTest, BreakersAreSeparatePerDomain) {
  FaultInjector::instance().armAlways(faults::DggtMerge);
  FaultInjector::instance().armAlways(faults::HisynEnumerate);
  ServiceOptions Opts = fastOptions();
  Opts.TotalBudgetMs = 500;
  SynthesisService S(Opts);
  S.addDomain(textEditing());
  static std::unique_ptr<Domain> Ast = makeAstMatcherDomain();
  S.addDomain(*Ast);

  EXPECT_EQ(S.query("TextEditing", "sort").St,
            ServiceStatus::DeadlineExceeded);
  EXPECT_EQ(S.query("TextEditing", "sort").St,
            ServiceStatus::DeadlineExceeded);
  EXPECT_EQ(S.breakerState("TextEditing"),
            SynthesisService::BreakerState::Open);
  // The other domain's breaker is untouched.
  EXPECT_EQ(S.breakerState("ASTMatcher"),
            SynthesisService::BreakerState::Closed);
}

//===----------------------------------------------------------------------===//
// Deadline splitting end to end
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, RungBudgetsShareTheTotalDeadline) {
  // A tiny total budget: whatever happens, the query returns within 10%
  // of it (plus scheduling noise covered by the generous bound).
  ServiceOptions Opts = fastOptions();
  Opts.TotalBudgetMs = 100;
  SynthesisService S(Opts);
  S.addDomain(textEditing());
  WallTimer T;
  ServiceReport Rep =
      S.query("TextEditing", "replace every number with ';' in all lines");
  (void)Rep; // Any structured outcome is fine; the bound is the point.
  EXPECT_LT(T.seconds(), 0.5);
}

//===----------------------------------------------------------------------===//
// Concurrency
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, ConcurrentQueriesFromManyThreads) {
  SynthesisService S(fastOptions());
  S.addDomain(textEditing());
  constexpr int Threads = 8, PerThread = 4;
  std::atomic<int> OkCount{0}, Structured{0};
  std::vector<std::thread> Pool;
  Pool.reserve(Threads);
  for (int T = 0; T < Threads; ++T) {
    Pool.emplace_back([&, T] {
      const char *Queries[] = {"sort all lines", "delete every line",
                               "print all lines", "sort"};
      for (int I = 0; I < PerThread; ++I) {
        ServiceReport Rep =
            S.query("TextEditing", Queries[(T + I) % 4]);
        if (Rep.ok())
          ++OkCount;
        else
          ++Structured;
      }
    });
  }
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(OkCount + Structured, Threads * PerThread);
  // The happy-path queries above all synthesize.
  EXPECT_GT(OkCount.load(), 0);
}

TEST_F(ServiceTest, ConcurrentQueriesUnderInjectedFaults) {
  // Probabilistic faults across the hot stages while many threads query:
  // every outcome must still be a structured status.
  FaultInjector::instance().armProbability(faults::DggtMerge, 0.05, 7);
  FaultInjector::instance().armProbability(faults::PathSearchVisit, 0.001,
                                           11);
  ServiceOptions Opts = fastOptions();
  Opts.TotalBudgetMs = 500;
  SynthesisService S(Opts);
  S.addDomain(textEditing());
  std::atomic<int> Done{0};
  std::vector<std::thread> Pool;
  for (int T = 0; T < 4; ++T)
    Pool.emplace_back([&] {
      for (int I = 0; I < 3; ++I) {
        ServiceReport Rep = S.query("TextEditing", "sort all lines");
        // Any enum value is acceptable; the point is no crash/hang.
        (void)serviceStatusName(Rep.St);
        ++Done;
      }
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(Done.load(), 12);
}

//===----------------------------------------------------------------------===//
// Per-domain options overrides
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, DomainOverridesResolveAgainstBase) {
  ServiceOptions Opts = fastOptions();
  Opts.Overrides["TextEditing"].TotalBudgetMs = 777;
  Opts.Overrides["TextEditing"].MaxRetriesPerRung = 0;
  SynthesisService S(Opts);
  S.addDomain(textEditing());

  const ServiceOptions &R = S.optionsFor("TextEditing");
  EXPECT_EQ(R.TotalBudgetMs, 777u);
  EXPECT_EQ(R.MaxRetriesPerRung, 0u);
  // Unset fields inherit the base values.
  EXPECT_EQ(R.BreakerTripThreshold, Opts.BreakerTripThreshold);
  EXPECT_EQ(R.RetryBackoffMs, Opts.RetryBackoffMs);
  // Unknown domains fall back to the base options.
  EXPECT_EQ(S.optionsFor("NoSuchDomain").TotalBudgetMs, Opts.TotalBudgetMs);
}

TEST_F(ServiceTest, DomainOverrideDisablesRetries) {
  // The override must steer query() itself, not just the accessor: with
  // retries overridden to 0 a transient fault is not retried.
  FaultInjector::instance().armAlways(faults::ServiceTransient);
  ServiceOptions Opts = fastOptions();
  Opts.MaxRetriesPerRung = 2;
  Opts.Overrides["TextEditing"].MaxRetriesPerRung = 0;
  SynthesisService S(Opts);
  S.addDomain(textEditing());
  ServiceReport Rep = S.query("TextEditing", "sort all lines");
  EXPECT_EQ(Rep.St, ServiceStatus::NoAnswer);
  // 3 rungs x 1 try, no retries anywhere.
  EXPECT_EQ(Rep.Attempts.size(), 3u);
  for (const RungAttempt &A : Rep.Attempts)
    EXPECT_EQ(A.Try, 0u);
}

TEST_F(ServiceTest, DomainOverrideShortensLadder) {
  // Overriding EnableHisynFallback to false drops the third rung for
  // this domain only.
  FaultInjector::instance().armAlways(faults::DggtMerge);
  ServiceOptions Opts = fastOptions();
  Opts.Overrides["TextEditing"].EnableHisynFallback = false;
  SynthesisService S(Opts);
  S.addDomain(textEditing());
  ServiceReport Rep = S.query("TextEditing", "print all lines");
  EXPECT_FALSE(Rep.ok());
  ASSERT_EQ(Rep.Attempts.size(), 2u);
  EXPECT_EQ(Rep.Attempts[0].Rung, ServiceRung::DggtFull);
  EXPECT_EQ(Rep.Attempts[1].Rung, ServiceRung::DggtTight);
}

//===----------------------------------------------------------------------===//
// Attempt-trail budget accounting
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, AttemptTrailRecordsRemainingBudget) {
  ServiceOptions Opts = fastOptions();
  Opts.TotalBudgetMs = 5000;
  SynthesisService S(Opts);
  S.addDomain(textEditing());
  ServiceReport Rep = S.query("TextEditing", "sort all lines");
  ASSERT_TRUE(Rep.ok()) << serviceStatusName(Rep.St);
  ASSERT_FALSE(Rep.Attempts.empty());
  EXPECT_GT(Rep.Attempts[0].RemainingMs, 0u);
  EXPECT_LE(Rep.Attempts[0].RemainingMs, 5000u);
}

TEST_F(ServiceTest, RemainingBudgetDecaysAcrossAttempts) {
  // Transient faults force several attempts; the recorded headroom must
  // be non-increasing down the trail (the total budget only drains).
  FaultInjector::instance().armAlways(faults::ServiceTransient);
  ServiceOptions Opts = fastOptions();
  Opts.MaxRetriesPerRung = 2;
  Opts.RetryBackoffMs = 4;
  SynthesisService S(Opts);
  S.addDomain(textEditing());
  ServiceReport Rep = S.query("TextEditing", "sort all lines");
  ASSERT_GE(Rep.Attempts.size(), 2u);
  for (size_t I = 1; I < Rep.Attempts.size(); ++I)
    EXPECT_LE(Rep.Attempts[I].RemainingMs, Rep.Attempts[I - 1].RemainingMs);
}

//===----------------------------------------------------------------------===//
// Metrics and tracing integration
//===----------------------------------------------------------------------===//

namespace {

/// Collects spans for the integration assertions.
class SpanCollector : public obs::TraceSink {
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

/// Finds one snapshot entry by name and labels; null if absent.
const obs::MetricSnapshot *
findMetric(const std::vector<obs::MetricSnapshot> &Snap,
           std::string_view Name, const obs::LabelSet &Labels) {
  for (const obs::MetricSnapshot &S : Snap)
    if (S.Name == Name && S.Labels == Labels)
      return &S;
  return nullptr;
}

} // namespace

TEST_F(ServiceTest, QueryEmitsMetricsAndSpans) {
  obs::registry().zeroAllForTest();
  auto Collector = std::make_shared<SpanCollector>();
  ServiceOptions Opts = fastOptions();
  Opts.EnableMetrics = true;
  Opts.Trace = Collector;
  {
    SynthesisService S(Opts);
    S.addDomain(textEditing());
    ASSERT_TRUE(S.query("TextEditing", "sort all lines").ok());
  }
  obs::Tracer::instance().setSink(nullptr);
  obs::setMetricsEnabled(false);

  // Metrics: query counter, per-domain and per-rung latency, pipeline
  // stages, merge-table counters.
  std::vector<obs::MetricSnapshot> Snap = obs::registry().snapshot();
  const obs::MetricSnapshot *Queries =
      findMetric(Snap, "dggt_service_queries_total",
                 {{"domain", "TextEditing"}, {"status", "ok"}});
  ASSERT_NE(Queries, nullptr);
  EXPECT_EQ(Queries->CounterValue, 1u);

  const obs::MetricSnapshot *QueryLat =
      findMetric(Snap, "dggt_service_query_latency_ms",
                 {{"domain", "TextEditing"}});
  ASSERT_NE(QueryLat, nullptr);
  EXPECT_EQ(QueryLat->Count, 1u);

  const obs::MetricSnapshot *RungLat = findMetric(
      Snap, "dggt_service_rung_latency_ms", {{"rung", "dggt-full"}});
  ASSERT_NE(RungLat, nullptr);
  EXPECT_EQ(RungLat->Count, 1u);

  const obs::MetricSnapshot *RungAttempts =
      findMetric(Snap, "dggt_service_rung_attempts_total",
                 {{"rung", "dggt-full"}, {"status", "success"}});
  ASSERT_NE(RungAttempts, nullptr);
  EXPECT_EQ(RungAttempts->CounterValue, 1u);

  for (const char *Stage : {"parse", "prune", "word-to-api",
                            "edge-to-path", "merge-dggt"}) {
    const obs::MetricSnapshot *StageLat =
        findMetric(Snap, "dggt_pipeline_stage_latency_ms",
                   {{"stage", Stage}});
    ASSERT_NE(StageLat, nullptr) << Stage;
    EXPECT_GE(StageLat->Count, 1u) << Stage;
  }

  const obs::MetricSnapshot *MergeRuns =
      findMetric(Snap, "dggt_merge_runs_total", {});
  ASSERT_NE(MergeRuns, nullptr);
  EXPECT_GE(MergeRuns->CounterValue, 1u);

  // Spans: a service.query root with a service.rung child and pipeline
  // stage spans beneath, all in one trace.
  std::vector<obs::SpanRecord> Spans = Collector->spans();
  const obs::SpanRecord *Root = nullptr, *Rung = nullptr, *Stage = nullptr;
  for (const obs::SpanRecord &Sp : Spans) {
    if (Sp.Name == "service.query")
      Root = &Sp;
    else if (Sp.Name == "service.rung")
      Rung = &Sp;
    else if (Sp.Name == "pipeline.parse")
      Stage = &Sp;
  }
  ASSERT_NE(Root, nullptr);
  ASSERT_NE(Rung, nullptr);
  ASSERT_NE(Stage, nullptr);
  EXPECT_EQ(Root->ParentId, 0u);
  EXPECT_EQ(Rung->ParentId, Root->SpanId);
  EXPECT_EQ(Rung->TraceId, Root->TraceId);
  EXPECT_EQ(Stage->TraceId, Root->TraceId);

  bool HaveStatus = false;
  for (const auto &[K, V] : Root->Attrs)
    if (K == "status") {
      HaveStatus = true;
      EXPECT_EQ(V, "ok");
    }
  EXPECT_TRUE(HaveStatus);
}

TEST_F(ServiceTest, BreakerTransitionsAreCounted) {
  obs::registry().zeroAllForTest();
  FaultInjector::instance().armAlways(faults::DggtMerge);
  FaultInjector::instance().armAlways(faults::HisynEnumerate);
  ServiceOptions Opts = fastOptions();
  Opts.EnableMetrics = true;
  Opts.TotalBudgetMs = 100;
  Opts.BreakerTripThreshold = 1;
  Opts.BreakerCooldownMs = 20;
  SynthesisService S(Opts);
  S.addDomain(textEditing());

  // Trip: one deadline miss opens the circuit.
  EXPECT_EQ(S.query("TextEditing", "sort all lines").St,
            ServiceStatus::DeadlineExceeded);
  // Heal and wait out the cooldown; the probe half-opens then closes.
  FaultInjector::instance().reset();
  while (S.breakerState("TextEditing") !=
         SynthesisService::BreakerState::HalfOpen)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(S.query("TextEditing", "sort all lines").ok());
  obs::setMetricsEnabled(false);

  std::vector<obs::MetricSnapshot> Snap = obs::registry().snapshot();
  for (const char *To : {"open", "half-open", "closed"}) {
    const obs::MetricSnapshot *T =
        findMetric(Snap, "dggt_service_breaker_transitions_total",
                   {{"domain", "TextEditing"}, {"to", To}});
    ASSERT_NE(T, nullptr) << To;
    EXPECT_EQ(T->CounterValue, 1u) << To;
  }
}
