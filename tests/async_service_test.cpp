//===- tests/async_service_test.cpp - Pooled async front door -------------===//
//
// The concurrency layer over SynthesisService: the keyed ThreadPool
// (coalescing, bounded queue, drain), futures completing under a
// multi-thread submission hammer, async results staying bit-identical
// to the serial service, backpressure shedding at the queue cap,
// cancellation of tasks dequeued past their submission-time deadline,
// admission closing at a drain while accepted work completes, and the
// shared per-domain caches (hits are deterministic and change
// no results).
//
//===----------------------------------------------------------------------===//

#include "grammar/PathCache.h"
#include "nlu/WordToApiMatcher.h"
#include "service/AsyncSynthesisService.h"
#include "support/FaultInjection.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace dggt;

namespace {

/// Clears the process-wide fault registry around every test.
class AsyncServiceTest : public ::testing::Test {
protected:
  void SetUp() override { FaultInjector::instance().reset(); }
  void TearDown() override { FaultInjector::instance().reset(); }

  /// Domains built once for the whole suite.
  static const Domain &textEditing() {
    static std::unique_ptr<Domain> D = makeTextEditingDomain();
    return *D;
  }
  static const Domain &astMatcher() {
    static std::unique_ptr<Domain> D = makeAstMatcherDomain();
    return *D;
  }
};

/// Spins until \p Cond holds or ~2 s pass; returns whether it held.
template <typename Pred> bool waitFor(Pred Cond) {
  for (int I = 0; I < 2000; ++I) {
    if (Cond())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Cond();
}

} // namespace

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST_F(AsyncServiceTest, PoolRunsEveryAcceptedTask) {
  ThreadPool::Options O;
  O.Workers = 4;
  ThreadPool Pool(O);
  std::atomic<int> Ran{0};
  for (int I = 0; I < 100; ++I)
    ASSERT_TRUE(Pool.trySubmit(I % 3 == 0 ? "a" : "b", [&] { ++Ran; }));
  Pool.drain();
  EXPECT_EQ(Ran.load(), 100);
  ThreadPool::Stats S = Pool.stats();
  EXPECT_EQ(S.Submitted, 100u);
  EXPECT_EQ(S.Ran, 100u);
  EXPECT_EQ(S.Rejected, 0u);
}

TEST_F(AsyncServiceTest, PoolKeepsPerKeyFifoOrder) {
  // One worker: tasks of one key must run in submission order even when
  // interleaved with another key's tasks.
  ThreadPool::Options O;
  O.Workers = 1;
  ThreadPool Pool(O);
  std::vector<int> SeenA, SeenB;
  for (int I = 0; I < 20; ++I) {
    ASSERT_TRUE(Pool.trySubmit("a", [&SeenA, I] { SeenA.push_back(I); }));
    ASSERT_TRUE(Pool.trySubmit("b", [&SeenB, I] { SeenB.push_back(I); }));
  }
  Pool.drain();
  ASSERT_EQ(SeenA.size(), 20u);
  ASSERT_EQ(SeenB.size(), 20u);
  for (int I = 0; I < 20; ++I) {
    EXPECT_EQ(SeenA[I], I);
    EXPECT_EQ(SeenB[I], I);
  }
}

TEST_F(AsyncServiceTest, PoolShedsAtCapacity) {
  // A deliberately blocked worker: the queue fills to the cap and the
  // next submission is refused without blocking.
  ThreadPool::Options O;
  O.Workers = 1;
  O.QueueCap = 2;
  ThreadPool Pool(O);
  std::promise<void> Release;
  std::shared_future<void> Gate = Release.get_future().share();
  ASSERT_TRUE(Pool.trySubmit("a", [Gate] { Gate.wait(); }));
  // The blocker leaves the queue once a worker picks it up.
  ASSERT_TRUE(waitFor([&] { return Pool.queueDepth() == 0; }));
  EXPECT_TRUE(Pool.trySubmit("a", [] {}));
  EXPECT_TRUE(Pool.trySubmit("b", [] {}));
  EXPECT_FALSE(Pool.trySubmit("a", [] {})); // Cap reached.
  Release.set_value();
  Pool.drain();
  EXPECT_EQ(Pool.stats().Rejected, 1u);
  EXPECT_EQ(Pool.stats().Ran, 3u);
}

TEST_F(AsyncServiceTest, PoolCoalescesConsecutiveSameKeyTasks) {
  // A single worker draining one key's backlog should run most of it
  // without rotating (the counter is what the bench reports).
  ThreadPool::Options O;
  O.Workers = 1;
  O.CoalesceBatch = 8;
  ThreadPool Pool(O);
  std::promise<void> Release;
  std::shared_future<void> Gate = Release.get_future().share();
  ASSERT_TRUE(Pool.trySubmit("a", [Gate] { Gate.wait(); }));
  for (int I = 0; I < 16; ++I)
    ASSERT_TRUE(Pool.trySubmit("a", [] {}));
  Release.set_value();
  Pool.drain();
  EXPECT_GE(Pool.stats().Coalesced, 8u);
}

//===----------------------------------------------------------------------===//
// Async service: correctness under concurrency
//===----------------------------------------------------------------------===//

TEST_F(AsyncServiceTest, HammerAllFuturesComplete) {
  // N submitter threads x M queries over two domains; every future must
  // become ready with a definite status and the ledger must balance.
  AsyncOptions Opts;
  Opts.Workers = 4;
  Opts.QueueCap = 0; // Unbounded: this test wants zero shedding.
  AsyncSynthesisService S(Opts);
  S.addDomain(textEditing());
  S.addDomain(astMatcher());

  const std::vector<QueryCase> &TE = textEditing().queries();
  const std::vector<QueryCase> &AM = astMatcher().queries();
  constexpr int Threads = 4, PerThread = 25;

  std::mutex FuturesM;
  std::vector<std::future<ServiceReport>> Futures;
  std::vector<std::thread> Submitters;
  for (int T = 0; T < Threads; ++T)
    Submitters.emplace_back([&, T] {
      for (int I = 0; I < PerThread; ++I) {
        bool UseTE = (T + I) % 2 == 0;
        const QueryCase &Q = UseTE ? TE[(T * PerThread + I) % TE.size()]
                                   : AM[(T * PerThread + I) % AM.size()];
        std::future<ServiceReport> F =
            S.submit(UseTE ? "TextEditing" : "ASTMatcher", Q.Query);
        std::lock_guard<std::mutex> L(FuturesM);
        Futures.push_back(std::move(F));
      }
    });
  for (std::thread &T : Submitters)
    T.join();

  ASSERT_EQ(Futures.size(), static_cast<size_t>(Threads * PerThread));
  int Ok = 0;
  for (std::future<ServiceReport> &F : Futures) {
    ASSERT_TRUE(F.valid());
    ServiceReport Rep = F.get();
    EXPECT_NE(Rep.St, ServiceStatus::Overloaded);
    if (Rep.ok()) {
      EXPECT_FALSE(Rep.Result.Expression.empty());
      ++Ok;
    }
  }
  EXPECT_GT(Ok, 0);

  AsyncStats St = S.stats();
  EXPECT_EQ(St.Submitted, static_cast<uint64_t>(Threads * PerThread));
  EXPECT_EQ(St.Shed, 0u);
  EXPECT_EQ(St.Completed + St.Cancelled, St.Submitted);
}

TEST_F(AsyncServiceTest, AsyncResultsMatchSerialBitForBit) {
  // The async layer adds scheduling, not semantics: for the same query
  // set, status and expression must equal the serial service's, even
  // with shared caches warm from other workers' queries. Queries that
  // brush the deadline in either mode are skipped — their status is
  // timing, not semantics (an unlimited budget would dodge that but
  // lets a few ASTMatcher queries run for minutes).
  ServiceOptions Base;
  Base.TotalBudgetMs = 2000;

  SynthesisService Serial(Base);
  Serial.addDomain(textEditing());
  Serial.addDomain(astMatcher());

  AsyncOptions Opts;
  Opts.Service = Base;
  Opts.Workers = 4;
  Opts.QueueCap = 0;
  AsyncSynthesisService Async(Opts);
  Async.addDomain(textEditing());
  Async.addDomain(astMatcher());

  struct Case {
    const char *Domain;
    const std::string *Query;
  };
  std::vector<Case> Cases;
  const std::vector<QueryCase> &TE = textEditing().queries();
  const std::vector<QueryCase> &AM = astMatcher().queries();
  for (size_t I = 0; I < 25 && I < TE.size(); ++I)
    Cases.push_back({"TextEditing", &TE[I].Query});
  for (size_t I = 0; I < 25 && I < AM.size(); ++I)
    Cases.push_back({"ASTMatcher", &AM[I].Query});

  std::vector<std::future<ServiceReport>> Futures;
  for (const Case &C : Cases)
    Futures.push_back(Async.submit(C.Domain, *C.Query));

  size_t Compared = 0;
  auto Compare = [&](const Case &C, const ServiceReport &Want,
                     const ServiceReport &Got) {
    ++Compared;
    EXPECT_EQ(Got.St, Want.St) << *C.Query;
    EXPECT_EQ(Got.Result.Expression, Want.Result.Expression) << *C.Query;
    EXPECT_EQ(Got.Result.CgtSize, Want.Result.CgtSize) << *C.Query;
  };
  std::vector<size_t> Skipped;
  for (size_t I = 0; I < Cases.size(); ++I) {
    ServiceReport Want = Serial.query(Cases[I].Domain, *Cases[I].Query);
    ServiceReport Got = Futures[I].get();
    if (Want.St == ServiceStatus::DeadlineExceeded ||
        Got.St == ServiceStatus::DeadlineExceeded) {
      Skipped.push_back(I);
      continue;
    }
    Compare(Cases[I], Want, Got);
  }
  // A deadline skip is timing, not semantics — under a loaded test host
  // (parallel ctest, sanitizers) a burst of them is normal. Retry each
  // skip sequentially: one query at a time, no contention, warm caches.
  // A case that still brushes 2 s alone is genuinely slow; skip it.
  for (size_t I : Skipped) {
    ServiceReport Want = Serial.query(Cases[I].Domain, *Cases[I].Query);
    ServiceReport Got = Async.submit(Cases[I].Domain, *Cases[I].Query).get();
    if (Want.St == ServiceStatus::DeadlineExceeded ||
        Got.St == ServiceStatus::DeadlineExceeded)
      continue;
    Compare(Cases[I], Want, Got);
  }
  // TSan slows synthesis ~10x, pushing many queries into the deadline;
  // a handful of comparisons is still a meaningful identity check there.
#if defined(__SANITIZE_THREAD__)
  const size_t MinCompared = 10;
#else
  const size_t MinCompared = Cases.size() - 5;
#endif
  EXPECT_GE(Compared, MinCompared) << "too many deadline skips";
}

TEST_F(AsyncServiceTest, UnknownDomainFailsFastWithReadyFuture) {
  AsyncSynthesisService S;
  S.addDomain(textEditing());
  std::future<ServiceReport> F = S.submit("NoSuchDomain", "sort all lines");
  ASSERT_EQ(F.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(F.get().St, ServiceStatus::UnknownDomain);
  EXPECT_EQ(S.stats().Submitted, 0u);
}

//===----------------------------------------------------------------------===//
// Backpressure and cancellation
//===----------------------------------------------------------------------===//

TEST_F(AsyncServiceTest, FullQueueShedsWithOverloadedReport) {
  // One worker held by a transient-fault backoff sleep; with QueueCap=1
  // the second queued submission must shed immediately.
  FaultInjector::instance().armNth(faults::ServiceTransient, 1);

  AsyncOptions Opts;
  Opts.Workers = 1;
  Opts.QueueCap = 1;
  Opts.Service.TotalBudgetMs = 5000;
  Opts.Service.MaxRetriesPerRung = 1;
  Opts.Service.RetryBackoffMs = 150; // Holds the worker >= 150 ms.
  AsyncSynthesisService S(Opts);
  S.addDomain(textEditing());

  std::future<ServiceReport> Blocker = S.submit("TextEditing", "sort all lines");
  // Once the worker picks the blocker up, the queue is empty again.
  ASSERT_TRUE(waitFor([&] { return S.queueDepth() == 0; }));

  std::future<ServiceReport> Queued = S.submit("TextEditing", "print all lines");
  std::future<ServiceReport> Shed = S.submit("TextEditing", "sort all lines");
  ASSERT_EQ(Shed.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  ServiceReport Rep = Shed.get();
  EXPECT_EQ(Rep.St, ServiceStatus::Overloaded);
  EXPECT_TRUE(Rep.Attempts.empty());
  EXPECT_EQ(S.stats().Shed, 1u);

  EXPECT_TRUE(Blocker.get().ok());
  EXPECT_TRUE(Queued.get().ok());
  EXPECT_EQ(S.stats().Completed, 2u);
}

TEST_F(AsyncServiceTest, StatusJsonReportsTheConstructionLimits) {
  // The queue cap and coalesce batch are fixed at construction; /statusz
  // reports them unchanged after traffic.
  AsyncOptions Opts;
  Opts.Workers = 2;
  Opts.QueueCap = 64;
  Opts.CoalesceBatch = 4;
  AsyncSynthesisService S(Opts);
  S.addDomain(textEditing());

  for (int I = 0; I < 3; ++I)
    EXPECT_TRUE(S.submit("TextEditing", "sort all lines").get().ok());
  EXPECT_EQ(S.queueCap(), 64u);
  EXPECT_EQ(S.coalesceBatch(), 4u);

  std::string J = S.statusJson();
  EXPECT_NE(J.find("\"queue_cap\":64"), std::string::npos) << J;
  EXPECT_NE(J.find("\"coalesce_batch\":4"), std::string::npos) << J;
  EXPECT_NE(J.find("\"completed\":3"), std::string::npos) << J;
  EXPECT_EQ(S.stats().GateRejected, 0u);
}

TEST_F(AsyncServiceTest, QueuedPastDeadlineIsCancelledNotRun) {
  // A query's deadline is fixed at submit(). The worker is held on a
  // long blocker (transient-fault backoff), so by the time it dequeues
  // the 1 ms-budget victim the deadline has long passed: the ladder must
  // not run at all (empty attempt trail).
  FaultInjector::instance().armNth(faults::ServiceTransient, 1);

  AsyncOptions Opts;
  Opts.Workers = 1;
  Opts.QueueCap = 0;
  Opts.Service.TotalBudgetMs = 5000;
  Opts.Service.MaxRetriesPerRung = 1;
  Opts.Service.RetryBackoffMs = 100; // Holds the worker >= 100 ms.
  Opts.Service.Overrides["ASTMatcher"].TotalBudgetMs = 1;
  AsyncSynthesisService S(Opts);
  S.addDomain(textEditing());
  S.addDomain(astMatcher());

  std::future<ServiceReport> Blocker = S.submit("TextEditing", "sort all lines");
  std::future<ServiceReport> Victim =
      S.submit("ASTMatcher", "find all calls to malloc");

  ServiceReport Rep = Victim.get();
  EXPECT_EQ(Rep.St, ServiceStatus::DeadlineExceeded);
  EXPECT_TRUE(Rep.Attempts.empty()) << "cancelled work must not run rungs";
  EXPECT_GT(Rep.TotalSeconds, 0.0);
  EXPECT_TRUE(Blocker.get().ok());

  AsyncStats St = S.stats();
  EXPECT_EQ(St.Cancelled, 1u);
  EXPECT_EQ(St.Completed, 1u);
}

TEST_F(AsyncServiceTest, DrainVsInflightRaceCompletesEverythingAccepted) {
  AsyncOptions O;
  O.Workers = 1; // Serialize so the queue really holds work at drain time.
  O.QueueCap = 64;
  AsyncSynthesisService S(O);
  S.addDomain(textEditing());

  // Race a batch of accepted submissions against beginDrain().
  std::vector<std::future<ServiceReport>> Accepted;
  for (int I = 0; I < 8; ++I)
    Accepted.push_back(S.submit("TextEditing", "sort all lines"));
  S.beginDrain(60000);

  // Admission slams shut immediately and permanently.
  ServiceReport Rejected = S.submit("TextEditing", "sort all lines").get();
  EXPECT_EQ(Rejected.St, ServiceStatus::Draining);
  EXPECT_GE(S.stats().DrainRejected, 1u);

  // Everything accepted before the drain still completes — finished or
  // deliberately cancelled, never hung.
  for (std::future<ServiceReport> &F : Accepted) {
    ServiceReport Rep = F.get();
    EXPECT_TRUE(Rep.St == ServiceStatus::Ok ||
                Rep.St == ServiceStatus::Cancelled ||
                Rep.St == ServiceStatus::DeadlineExceeded)
        << serviceStatusName(Rep.St);
  }
  S.drain();
  EXPECT_TRUE(S.drainComplete());
}

//===----------------------------------------------------------------------===//
// Shared per-domain caches
//===----------------------------------------------------------------------===//

TEST_F(AsyncServiceTest, RepeatedQueryHitsCachesAndStaysIdentical) {
  AsyncSynthesisService S;
  S.addDomain(textEditing());

  ServiceReport First = S.submit("TextEditing", "sort all lines").get();
  ASSERT_TRUE(First.ok());

  PathCache *Paths = S.service().pathCache("TextEditing");
  ApiCandidateCache *Words = S.service().wordCache("TextEditing");
  ASSERT_NE(Paths, nullptr);
  ASSERT_NE(Words, nullptr);
  PathCacheStats Cold = Paths->stats();
  EXPECT_GT(Cold.Insertions, 0u);

  ServiceReport Second = S.submit("TextEditing", "sort all lines").get();
  ASSERT_TRUE(Second.ok());
  EXPECT_EQ(Second.Result.Expression, First.Result.Expression);
  EXPECT_EQ(Second.Result.CgtSize, First.Result.CgtSize);

  PathCacheStats Warm = Paths->stats();
  EXPECT_GT(Warm.Hits, Cold.Hits) << "second run must hit the path cache";
  EXPECT_GT(Words->stats().Hits, 0u);
}

TEST_F(AsyncServiceTest, CacheHitFlagsCountOnlyTheQuerysOwnLookups) {
  // One thread keeps hitting both caches while another prepares queries
  // whose every word is new. The shared caches' stats move during the
  // second thread's queries; its flags must stay false.
  const SynthesisFrontEnd &FE = textEditing().frontEnd();
  PathCache Paths("flags", 1u << 20);
  ApiCandidateCache Words("flags", 1u << 20);
  SharedQueryCaches Caches{&Paths, &Words};
  (void)FE.prepare("sort all lines", Caches);
  PreparedQuery Warm = FE.prepare("sort all lines", Caches);
  ASSERT_TRUE(Warm.PathCacheHit);
  ASSERT_TRUE(Warm.WordCacheHit);

  std::atomic<bool> Stop{false};
  std::atomic<unsigned> HitterRuns{0};
  std::thread Hitter([&] {
    while (!Stop.load(std::memory_order_relaxed)) {
      (void)FE.prepare("sort all lines", Caches);
      HitterRuns.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // Start once the hitter runs, and keep going until it has hit the
  // caches many times alongside the misses.
  while (HitterRuns.load() == 0)
    std::this_thread::yield();
  const unsigned Runs0 = HitterRuns.load();
  for (unsigned I = 0; I < 300 || HitterRuns.load() < Runs0 + 100; ++I) {
    // Letters only, so each query is one fresh word-cache key per word.
    std::string Fresh = "zorb";
    for (unsigned N = I; N; N /= 10)
      Fresh += static_cast<char>('a' + N % 10);
    PreparedQuery Q = FE.prepare(Fresh + "x " + Fresh + "y", Caches);
    EXPECT_FALSE(Q.WordCacheHit) << Fresh;
    EXPECT_FALSE(Q.PathCacheHit) << Fresh;
  }
  Stop.store(true, std::memory_order_relaxed);
  Hitter.join();
}

TEST_F(AsyncServiceTest, CachesCanBeDisabledPerDomain) {
  AsyncOptions Opts;
  Opts.Service.Overrides["TextEditing"].PathCacheBytes = 0;
  Opts.Service.Overrides["TextEditing"].WordCacheBytes = 0;
  AsyncSynthesisService S(Opts);
  S.addDomain(textEditing());
  EXPECT_EQ(S.service().pathCache("TextEditing"), nullptr);
  EXPECT_EQ(S.service().wordCache("TextEditing"), nullptr);
  EXPECT_TRUE(S.submit("TextEditing", "sort all lines").get().ok());
}

TEST_F(AsyncServiceTest, PathCacheEvictsUnderByteBudgetAndInvalidates) {
  // Unit-level: a tiny budget forces LRU eviction; invalidateAll() bumps
  // the epoch so stale entries can never satisfy a lookup.
  AsyncOptions Opts;
  Opts.Service.Overrides["TextEditing"].PathCacheBytes = 16u << 10;
  AsyncSynthesisService S(Opts);
  S.addDomain(textEditing());

  const std::vector<QueryCase> &TE = textEditing().queries();
  for (size_t I = 0; I < 40 && I < TE.size(); ++I)
    S.submit("TextEditing", TE[I].Query);
  S.drain();

  PathCache *Paths = S.service().pathCache("TextEditing");
  ASSERT_NE(Paths, nullptr);
  PathCacheStats St = Paths->stats();
  EXPECT_GT(St.Evictions, 0u) << "16 KiB must not hold 40 queries' paths";
  // Hard cap up to per-shard rounding (budget/shards + 1 each).
  EXPECT_LE(St.Bytes, (16u << 10) + 8u);

  uint64_t Before = Paths->epoch();
  Paths->invalidateAll();
  EXPECT_EQ(Paths->epoch(), Before + 1);
  EXPECT_EQ(Paths->stats().Entries, 0u);
  // Still correct after a flush.
  EXPECT_TRUE(S.submit("TextEditing", "sort all lines").get().ok());
}

TEST_F(AsyncServiceTest, ArmedFaultsBypassTheCaches) {
  // Fault-injection tests count Nth hits at search points; a cache hit
  // would change the count sequence, so armed faults force a real
  // search. The cache must neither serve nor record while armed.
  AsyncSynthesisService S;
  S.addDomain(textEditing());
  ASSERT_TRUE(S.submit("TextEditing", "sort all lines").get().ok());
  PathCache *Paths = S.service().pathCache("TextEditing");
  ASSERT_NE(Paths, nullptr);
  PathCacheStats Warm = Paths->stats();

  FaultInjector::instance().armNth(faults::PathSearchVisit, 1u << 30);
  ServiceReport Rep = S.submit("TextEditing", "sort all lines").get();
  EXPECT_TRUE(Rep.ok());
  PathCacheStats After = Paths->stats();
  EXPECT_EQ(After.Hits, Warm.Hits);
  EXPECT_EQ(After.Misses, Warm.Misses);
}
