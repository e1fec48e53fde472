//===- tests/soak_test.cpp - Seeded randomized soak and cache properties --===//
//
// Two randomized suites sharing one seed discipline: every test derives
// its std::mt19937_64 seed from DGGT_SOAK_SEED (or a fixed default) and
// attaches "rerun with DGGT_SOAK_SEED=N" to any failure, so a red run
// on one machine replays exactly on another.
//
//   SoakTest       — bursty multi-round hammer of AsyncSynthesisService
//                    on a small static queue cap: random burst sizes,
//                    two domains with very different deadlines, mid-run
//                    invalidateAll() on both shared caches, and random
//                    drains. Afterwards the ledger must balance exactly:
//                    every future ready with a definite status,
//                    Overloaded count == shed, and completed + cancelled
//                    == accepted.
//
//   CacheProperty  — random insert/lookup/invalidate sequences against
//                    PathCache and ApiCandidateCache checking the byte
//                    accounting invariants after every step: resident
//                    bytes never exceed the budget, entries and bytes
//                    reach exactly zero together on invalidateAll, and
//                    a re-inserted entry's hit is bit-identical to the
//                    pre-invalidation hit.
//
// Runs under the `slow` ctest label and inside check-soak / check-tsan.
//
//===----------------------------------------------------------------------===//

#include "grammar/PathCache.h"
#include "nlu/WordToApiMatcher.h"
#include "service/AsyncSynthesisService.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

using namespace dggt;

namespace {

/// The replay seed: DGGT_SOAK_SEED when set and numeric, else a fixed
/// default (deterministic CI runs; override to explore).
uint64_t soakSeed() {
  if (const char *Env = std::getenv("DGGT_SOAK_SEED"))
    if (std::optional<uint64_t> N = parseUnsigned(Env))
      return *N;
  return 20260805;
}

const Domain &textEditing() {
  static std::unique_ptr<Domain> D = makeTextEditingDomain();
  return *D;
}
const Domain &astMatcher() {
  static std::unique_ptr<Domain> D = makeAstMatcherDomain();
  return *D;
}

} // namespace

//===----------------------------------------------------------------------===//
// Async service soak
//===----------------------------------------------------------------------===//

TEST(SoakTest, BurstyHammerKeepsLedgerAndFuturesCoherent) {
  const uint64_t Seed = soakSeed();
  SCOPED_TRACE("rerun with DGGT_SOAK_SEED=" + std::to_string(Seed));
  std::mt19937_64 Rng(Seed);

  AsyncOptions O;
  O.Workers = 4;
  O.QueueCap = 24; // Small enough that bursts actually shed.
  O.CoalesceBatch = 4;
  O.Service.TotalBudgetMs = 2000;
  // Mixed deadlines: one domain with comfortable headroom, one tight
  // enough that queue wait pushes some queries over it.
  O.Service.Overrides["ASTMatcher"].TotalBudgetMs = 300;
  AsyncSynthesisService S(O);
  S.addDomain(textEditing());
  S.addDomain(astMatcher());

  const std::vector<QueryCase> &TE = textEditing().queries();
  const std::vector<QueryCase> &AM = astMatcher().queries();

  std::vector<std::future<ServiceReport>> Futures;
  for (int Round = 0; Round < 10; ++Round) {
    size_t Burst = 1 + Rng() % 30;
    for (size_t I = 0; I < Burst; ++I) {
      bool UseTE = Rng() % 3 != 0;
      const QueryCase &Q =
          UseTE ? TE[Rng() % TE.size()] : AM[Rng() % AM.size()];
      Futures.push_back(S.submit(UseTE ? "TextEditing" : "ASTMatcher",
                                 Q.Query));
    }
    // Mid-run invalidation races live workers; hits must simply stop,
    // never corrupt (the caches are exact: results cannot change).
    if (Rng() % 4 == 0) {
      if (PathCache *P = S.service().pathCache("TextEditing"))
        P->invalidateAll();
      if (ApiCandidateCache *W = S.service().wordCache("ASTMatcher"))
        W->invalidateAll();
    }
    if (Rng() % 3 == 0)
      S.drain();
  }
  S.drain();

  size_t Ok = 0, Overloaded = 0, Deadline = 0, OtherDefinite = 0;
  for (std::future<ServiceReport> &F : Futures) {
    ASSERT_TRUE(F.valid());
    // drain() returned: every accepted task has run, every shed future
    // was ready at submit.
    ASSERT_EQ(F.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    ServiceReport Rep = F.get();
    switch (Rep.St) {
    case ServiceStatus::Ok:
      EXPECT_FALSE(Rep.Result.Expression.empty());
      ++Ok;
      break;
    case ServiceStatus::Overloaded:
      EXPECT_TRUE(Rep.Attempts.empty());
      ++Overloaded;
      break;
    case ServiceStatus::DeadlineExceeded:
      ++Deadline;
      break;
    case ServiceStatus::UnknownDomain:
      FAIL() << "both domains are registered";
      break;
    default:
      ++OtherDefinite; // NoCandidates / NoAnswer / CircuitOpen.
      break;
    }
  }
  EXPECT_GT(Ok, 0u) << "a soak that completes nothing proves nothing";

  // The ledger balances exactly: every submission is accounted for once.
  AsyncStats St = S.stats();
  EXPECT_EQ(St.Submitted + St.Shed, Futures.size());
  EXPECT_EQ(St.Completed + St.Cancelled, St.Submitted);
  EXPECT_EQ(Overloaded, St.Shed);

  // The shared caches came through the invalidation race within budget.
  if (PathCache *P = S.service().pathCache("TextEditing"))
    EXPECT_LE(P->stats().Bytes, P->byteBudget());
  if (ApiCandidateCache *W = S.service().wordCache("ASTMatcher"))
    EXPECT_LE(W->stats().Bytes, W->byteBudget());
}

//===----------------------------------------------------------------------===//
// Cache byte-accounting properties
//===----------------------------------------------------------------------===//

namespace {

/// A synthetic path-search result of \p Paths paths, each \p Len nodes.
PathSearchResult makeResult(std::mt19937_64 &Rng, size_t Paths, size_t Len) {
  PathSearchResult R;
  for (size_t P = 0; P < Paths; ++P) {
    GrammarPath GP;
    for (size_t N = 0; N < Len; ++N)
      GP.Nodes.push_back(static_cast<GgNodeId>(Rng() % 1000));
    GP.ApiCount = static_cast<unsigned>(Rng() % Len);
    R.Paths.push_back(std::move(GP));
  }
  R.Truncated = Rng() % 2 == 0;
  R.Visits = Rng() % 100000;
  return R;
}

bool sameResult(const PathSearchResult &A, const PathSearchResult &B) {
  if (A.Truncated != B.Truncated || A.Visits != B.Visits ||
      A.Paths.size() != B.Paths.size())
    return false;
  for (size_t I = 0; I < A.Paths.size(); ++I)
    if (A.Paths[I].Nodes != B.Paths[I].Nodes ||
        A.Paths[I].ApiCount != B.Paths[I].ApiCount)
      return false;
  return true;
}

} // namespace

TEST(CachePropertyTest, PathCacheBytesStayWithinBudgetUnderRandomOps) {
  const uint64_t Seed = soakSeed();
  SCOPED_TRACE("rerun with DGGT_SOAK_SEED=" + std::to_string(Seed));
  std::mt19937_64 Rng(Seed);

  const uint64_t Budget = 32u << 10;
  PathCache Cache("prop", Budget);
  PathSearchLimits Limits;

  for (int Op = 0; Op < 2000; ++Op) {
    GgNodeId Start = static_cast<GgNodeId>(Rng() % 64);
    std::vector<GgNodeId> Targets;
    for (size_t I = 0, N = Rng() % 3; I < N; ++I)
      Targets.push_back(static_cast<GgNodeId>(Rng() % 64));

    unsigned Kind = Rng() % 100;
    if (Kind < 55) {
      // Sizes from trivial to bigger-than-a-shard: oversized entries
      // must be refused, not blow the budget.
      PathSearchResult R =
          makeResult(Rng, 1 + Rng() % 40, 2 + Rng() % 12);
      Cache.insert(Start, Targets, Limits, R);
    } else if (Kind < 95) {
      Cache.lookup(Start, Targets, Limits);
    } else {
      uint64_t Before = Cache.epoch();
      Cache.invalidateAll();
      EXPECT_EQ(Cache.epoch(), Before + 1);
      PathCacheStats St = Cache.stats();
      EXPECT_EQ(St.Entries, 0u) << "stale entries must be dropped eagerly";
      EXPECT_EQ(St.Bytes, 0u) << "empty cache must account zero bytes";
    }

    // The core invariants hold after *every* step. Bytes is unsigned,
    // so an accounting bug that "goes negative" wraps to a huge value
    // and fails the budget bound immediately.
    PathCacheStats St = Cache.stats();
    EXPECT_LE(St.Bytes, Cache.byteBudget());
    EXPECT_EQ(St.Entries == 0, St.Bytes == 0);
    EXPECT_EQ(St.Insertions >= St.Evictions, true);
  }
}

TEST(CachePropertyTest, PathCacheHitsAreBitIdenticalAcrossInvalidation) {
  const uint64_t Seed = soakSeed();
  SCOPED_TRACE("rerun with DGGT_SOAK_SEED=" + std::to_string(Seed));
  std::mt19937_64 Rng(Seed);

  PathCache Cache("prop-ident", 1u << 20);
  PathSearchLimits Limits;
  GgNodeId Start = 7;
  std::vector<GgNodeId> Targets{1, 2, 3};
  PathSearchResult R = makeResult(Rng, 5, 6);

  Cache.insert(Start, Targets, Limits, R);
  std::optional<PathSearchResult> First = Cache.lookup(Start, Targets, Limits);
  ASSERT_TRUE(First.has_value());
  EXPECT_TRUE(sameResult(*First, R));

  // The epoch bump makes the same key unreachable...
  Cache.invalidateAll();
  EXPECT_FALSE(Cache.lookup(Start, Targets, Limits).has_value());

  // ...and a re-insert under the new epoch serves the same bytes again.
  Cache.insert(Start, Targets, Limits, R);
  std::optional<PathSearchResult> Second =
      Cache.lookup(Start, Targets, Limits);
  ASSERT_TRUE(Second.has_value());
  EXPECT_TRUE(sameResult(*Second, *First))
      << "a hit after invalidation must be bit-identical to before";
}

TEST(CachePropertyTest, ApiCandidateCacheBytesStayWithinBudget) {
  const uint64_t Seed = soakSeed();
  SCOPED_TRACE("rerun with DGGT_SOAK_SEED=" + std::to_string(Seed));
  std::mt19937_64 Rng(Seed);

  const uint64_t Budget = 8u << 10;
  ApiCandidateCache Cache("prop-word", Budget);

  // Ground truth for what each key *resides* as: insert on a present
  // key is a no-op by design (concurrent-compute dedup), so the model
  // only updates when the key is actually absent.
  std::map<std::string, std::vector<ApiCandidate>> Model;
  for (int Op = 0; Op < 2000; ++Op) {
    std::string Key = "key-" + std::to_string(Rng() % 96);
    unsigned Kind = Rng() % 100;
    if (Kind < 55) {
      std::vector<ApiCandidate> V;
      for (size_t I = 0, N = Rng() % 60; I < N; ++I)
        V.push_back({static_cast<unsigned>(Rng() % 500),
                     static_cast<double>(Rng() % 300) / 100.0});
      bool Absent = !Cache.lookup(Key).has_value();
      Cache.insert(Key, V);
      if (Absent)
        Model[Key] = V;
      // else: no-op insert by design; the resident value is unchanged,
      // so the model already matches.
    } else if (Kind < 95) {
      std::optional<std::vector<ApiCandidate>> Hit = Cache.lookup(Key);
      auto It = Model.find(Key);
      if (Hit && It != Model.end()) {
        // A hit must read back exactly what was inserted.
        ASSERT_EQ(Hit->size(), It->second.size());
        for (size_t I = 0; I < It->second.size(); ++I) {
          EXPECT_EQ((*Hit)[I].ApiIndex, It->second[I].ApiIndex);
          EXPECT_EQ((*Hit)[I].Score, It->second[I].Score);
        }
      }
    } else {
      Cache.invalidateAll();
      ApiCandidateCacheStats St = Cache.stats();
      EXPECT_EQ(St.Entries, 0u);
      EXPECT_EQ(St.Bytes, 0u);
      Model.clear();
    }

    ApiCandidateCacheStats St = Cache.stats();
    EXPECT_LE(St.Bytes, Cache.byteBudget());
    EXPECT_EQ(St.Entries == 0, St.Bytes == 0);
  }
}
