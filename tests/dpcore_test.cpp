//===- tests/dpcore_test.cpp - Speed-of-light DP core tests ---------------===//
//
// Covers the epoch-frozen CSR adjacency of GrammarGraph, the iterative
// PathSearch core (bit-identity against the legacy recursive walk,
// including every truncation edge and the distance prune; the sparse
// reset of its per-thread workspace), the Arena bump
// allocator, the arena-backed N_API index of DynamicGrammarGraph, and the
// zero-heap steady-state property of the search workspace.
//
//===----------------------------------------------------------------------===//

#include "grammar/GrammarGraph.h"
#include "grammar/PathSearch.h"
#include "obs/Cost.h"
#include "support/Arena.h"
#include "synth/dggt/DynamicGrammarGraph.h"

#include "TestFixtures.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <thread>

using namespace dggt;
using namespace dggt::test;

// Sanitizer builds intercept operator new; skip the allocation-count test
// there and leave the global operators untouched.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DGGT_SANITIZED 1
#endif
#if !defined(DGGT_SANITIZED) && defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DGGT_SANITIZED 1
#endif
#endif

#ifndef DGGT_SANITIZED
namespace {
std::atomic<uint64_t> GNewCalls{0};
}

void *operator new(std::size_t Sz) {
  GNewCalls.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Sz ? Sz : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Sz) { return ::operator new(Sz); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
#endif // !DGGT_SANITIZED

namespace {

/// A layered chain grammar with \p Layers two-way branches:
///   s  ::= ROOT l0
///   lK ::= AK_A l(K+1) | AK_B l(K+1)
///   lN ::= LEAF
/// It has 2^Layers distinct LEAF -> ROOT paths, enough to exercise the
/// MaxPaths / MaxVisits truncation unwinding in both cores.
Grammar makeLayeredGrammar(unsigned Layers) {
  Grammar G;
  G.addProduction("s", {{"ROOT", "l0"}});
  for (unsigned L = 0; L < Layers; ++L) {
    std::string Next = "l" + std::to_string(L + 1);
    G.addProduction("l" + std::to_string(L),
                    {{"A" + std::to_string(L) + "A", Next},
                     {"A" + std::to_string(L) + "B", Next}});
  }
  G.addProduction("l" + std::to_string(Layers), {{"LEAF"}});
  return G;
}

/// A short path behind a long detour:
///   s    ::= TOP x
///   dK   ::= DKA d(K+1) | DKB d(K+1)      (K < Layers)
///   dN   ::= leaf                         (N = Layers)
///   x    ::= d0 | SHORT leaf
///   leaf ::= LEAF
/// The d-chain is declared before x, so leaf's in-list holds the detour
/// (3 * Layers + 8 nodes from LEAF up to TOP, 2^Layers ways) ahead of
/// the 7-node path through SHORT.
Grammar makeDetourGrammar(unsigned Layers) {
  Grammar G;
  G.addProduction("s", {{"TOP", "x"}});
  for (unsigned L = 0; L < Layers; ++L) {
    std::string K = std::to_string(L), Next = "d" + std::to_string(L + 1);
    G.addProduction("d" + K, {{"D" + K + "A", Next}, {"D" + K + "B", Next}});
  }
  G.addProduction("d" + std::to_string(Layers), {{"leaf"}});
  G.addProduction("x", {{"d0"}, {"SHORT", "leaf"}});
  G.addProduction("leaf", {{"LEAF"}});
  return G;
}

/// Runs one search in both cores and requires bit-identical results:
/// same path sequences, same ApiCounts, same Truncated flag, same Visits.
void expectCoresAgree(const GrammarGraph &GG, GgNodeId Start,
                      const std::vector<GgNodeId> &Targets,
                      const PathSearchLimits &Limits) {
  setDpCoreLegacy(true);
  PathSearchResult Legacy = findPathsBetween(GG, Start, Targets, Limits);
  setDpCoreLegacy(false);
  PathSearchResult Fast = findPathsBetween(GG, Start, Targets, Limits);

  EXPECT_EQ(Legacy.Truncated, Fast.Truncated);
  EXPECT_EQ(Legacy.Visits, Fast.Visits);
  ASSERT_EQ(Legacy.Paths.size(), Fast.Paths.size());
  for (size_t I = 0; I < Legacy.Paths.size(); ++I) {
    EXPECT_EQ(Legacy.Paths[I].Nodes, Fast.Paths[I].Nodes) << "path " << I;
    EXPECT_EQ(Legacy.Paths[I].ApiCount, Fast.Paths[I].ApiCount) << "path " << I;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Frozen CSR
//===----------------------------------------------------------------------===//

TEST(DpCoreReach, FreezesOnceAtConstruction) {
  PaperFragment F;
  EXPECT_TRUE(F.GG->csrFrozen());
}

TEST(DpCoreReach, CsrMirrorsAdjacencyInDeclarationOrder) {
  PaperFragment F;
  const GrammarGraph &GG = *F.GG;
  const uint32_t *InHead = GG.csrInHead();
  const uint32_t *OutHead = GG.csrOutHead();
  for (GgNodeId Id = 0; Id < GG.numNodes(); ++Id) {
    const std::vector<GgEdge> &In = GG.inEdges(Id);
    ASSERT_EQ(InHead[Id + 1] - InHead[Id], In.size());
    for (size_t K = 0; K < In.size(); ++K)
      EXPECT_EQ(GG.csrInNeighbors()[InHead[Id] + K], In[K].From);
    const std::vector<GgEdge> &Out = GG.outEdges(Id);
    ASSERT_EQ(OutHead[Id + 1] - OutHead[Id], Out.size());
    for (size_t K = 0; K < Out.size(); ++K)
      EXPECT_EQ(GG.csrOutNeighbors()[OutHead[Id] + K], Out[K].To);
  }
}

TEST(DpCoreReach, ApiBitsMatchNodeKinds) {
  PaperFragment F;
  for (GgNodeId Id = 0; Id < F.GG->numNodes(); ++Id)
    EXPECT_EQ(F.GG->isApiNode(Id),
              F.GG->node(Id).Kind == GgNodeKind::Api);
}

//===----------------------------------------------------------------------===//
// Iterative core vs. legacy recursion (bit-identity)
//===----------------------------------------------------------------------===//

class DpCoreParity : public ::testing::Test {
protected:
  void TearDown() override { setDpCoreLegacy(false); }
};

TEST_F(DpCoreParity, PaperFragmentAllPairs) {
  PaperFragment F;
  const GrammarGraph &GG = *F.GG;
  const char *Apis[] = {"INSERT", "STRING", "LIT",  "START", "STARTFROM",
                        "AFTER",  "ALL",    "FIRST", "LINESCOPE"};
  for (const char *From : Apis)
    for (const char *To : Apis) {
      std::vector<GgNodeId> Targets = {GG.apiOccurrences(To).front()};
      expectCoresAgree(GG, GG.apiOccurrences(From).front(), Targets, {});
    }
  // Multi-target searches including the start node.
  expectCoresAgree(GG, GG.apiOccurrences("LIT").front(),
                   {GG.apiOccurrences("INSERT").front(),
                    GG.apiOccurrences("STRING").front()},
                   {});
  expectCoresAgree(GG, GG.apiOccurrences("ALL").front(), {GG.startNode()},
                   {});
}

TEST_F(DpCoreParity, LayeredGrammarUnderEveryTruncationEdge) {
  Grammar G = makeLayeredGrammar(8); // 256 LEAF -> ROOT paths.
  GrammarGraph GG(G);
  GgNodeId Leaf = GG.apiOccurrences("LEAF").front();
  std::vector<GgNodeId> Root = {GG.apiOccurrences("ROOT").front()};

  PathSearchLimits Wide;
  Wide.MaxPathNodes = 64;
  Wide.MaxPaths = 100000;
  Wide.MaxVisits = 1000000;
  expectCoresAgree(GG, Leaf, Root, Wide);

  // MaxPaths truncation at several cut points (including 0 and an exact
  // fit), MaxVisits truncation mid-walk, and depth starvation.
  for (unsigned MaxPaths : {0u, 1u, 7u, 255u, 256u, 257u}) {
    PathSearchLimits L = Wide;
    L.MaxPaths = MaxPaths;
    expectCoresAgree(GG, Leaf, Root, L);
  }
  for (unsigned MaxVisits : {1u, 2u, 3u, 10u, 100u, 1000u}) {
    PathSearchLimits L = Wide;
    L.MaxVisits = MaxVisits;
    expectCoresAgree(GG, Leaf, Root, L);
  }
  for (unsigned MaxNodes : {1u, 2u, 5u, 16u, 26u}) {
    PathSearchLimits L = Wide;
    L.MaxPathNodes = MaxNodes;
    expectCoresAgree(GG, Leaf, Root, L);
  }
}

TEST_F(DpCoreParity, TargetOnStartNodeAndSelfSearch) {
  PaperFragment F;
  const GrammarGraph &GG = *F.GG;
  GgNodeId Insert = GG.apiOccurrences("INSERT").front();
  // Dependent == target: the non-trivial-path rule must hold in both.
  expectCoresAgree(GG, Insert, {Insert}, {});
  // Unreachable direction (INSERT is above ALL, not below).
  expectCoresAgree(GG, Insert, {GG.apiOccurrences("ALL").front()}, {});
}

TEST_F(DpCoreParity, DistancePruneReachesAShortPathBehindALongDetour) {
  Grammar G = makeDetourGrammar(4);
  GrammarGraph GG(G);
  GgNodeId Leaf = GG.apiOccurrences("LEAF").front();
  std::vector<GgNodeId> Top = {GG.apiOccurrences("TOP").front()};
  PathSearchLimits L;
  L.MaxPathNodes = 10; // The detour needs 20 nodes, the short path 7.
  L.MaxPaths = 64;
  L.MaxVisits = 12; // Fewer than the detour's first 10 levels hold.

  // No target is near enough to any detour node, so the walk never
  // enters the detour and reaches SHORT within the budget.
  PathSearchResult R = findPathsBetween(GG, Leaf, Top, L);
  EXPECT_FALSE(R.Truncated);
  EXPECT_EQ(R.Visits, 7u);
  ASSERT_EQ(R.Paths.size(), 1u);
  std::vector<std::string> Names;
  for (GgNodeId N : R.Paths[0].Nodes)
    Names.push_back(GG.node(N).Name);
  EXPECT_EQ(Names, (std::vector<std::string>{"TOP", "x", "x#1", "SHORT",
                                             "leaf", "leaf#0", "LEAF"}));
  expectCoresAgree(GG, Leaf, Top, L);

  // Once MaxPathNodes admits the detour, the walk takes it first and
  // spends the whole budget there before SHORT comes up.
  PathSearchLimits Long = L;
  Long.MaxPathNodes = 20;
  PathSearchResult Spent = findPathsBetween(GG, Leaf, Top, Long);
  EXPECT_TRUE(Spent.Truncated);
  EXPECT_TRUE(Spent.Paths.empty());
  expectCoresAgree(GG, Leaf, Top, Long);
}

TEST(DpCoreRaw, RawViewsMatchMaterializedResult) {
  PaperFragment F;
  const GrammarGraph &GG = *F.GG;
  GgNodeId Start = GG.apiOccurrences("STARTFROM").front();
  std::vector<GgNodeId> Targets = {GG.apiOccurrences("INSERT").front()};
  RawSearchResult Raw = searchPathsRaw(GG, Start, Targets, {});
  setDpCoreLegacy(false);
  PathSearchResult Owned = findPathsBetween(GG, Start, Targets, {});
  ASSERT_EQ(Raw.NumPaths, Owned.Paths.size());
  EXPECT_EQ(Raw.Truncated, Owned.Truncated);
  EXPECT_EQ(Raw.Visits, Owned.Visits);
  for (size_t I = 0; I < Raw.NumPaths; ++I) {
    const RawPathView &V = Raw.Paths[I];
    ASSERT_EQ(V.Len, Owned.Paths[I].Nodes.size());
    for (uint32_t K = 0; K < V.Len; ++K)
      EXPECT_EQ(V.Nodes[K], Owned.Paths[I].Nodes[K]);
    EXPECT_EQ(V.ApiCount, Owned.Paths[I].ApiCount);
    EXPECT_EQ(V.ApiCount, countApisOnPath(GG, Owned.Paths[I].Nodes));
  }
}

namespace {

/// One fast-core search and the cost counters it added on its thread.
struct SearchRun {
  PathSearchResult R;
  uint64_t InEdgeScans = 0;
  uint64_t WordsTouched = 0;
};

SearchRun runSearch(const GrammarGraph &GG, GgNodeId Start,
                    const std::vector<GgNodeId> &Targets,
                    const PathSearchLimits &Limits) {
  obs::queryCost() = obs::CostCounters{};
  SearchRun Out;
  Out.R = findPathsBetween(GG, Start, Targets, Limits);
  Out.InEdgeScans = obs::queryCost().InEdgeScans;
  Out.WordsTouched = obs::queryCost().BitsetWordsTouched;
  return Out;
}

} // namespace

TEST(DpCoreRaw, SparseResetLeavesNothingForTheNextSearch) {
  // One thread's workspace serves searches over two graphs with varying
  // targets and limits; each must see exactly what a fresh thread (a
  // fresh workspace) sees.
  setDpCoreLegacy(false);
  PaperFragment F;
  const GrammarGraph &P = *F.GG;
  Grammar G = makeLayeredGrammar(6);
  GrammarGraph Layered(G);
  auto Api = [](const GrammarGraph &GG, const char *Name) {
    return GG.apiOccurrences(Name).front();
  };
  PathSearchLimits Wide;
  Wide.MaxPathNodes = 64;
  Wide.MaxPaths = 1000;
  Wide.MaxVisits = 100000;
  PathSearchLimits Two = Wide;
  Two.MaxPathNodes = 2;
  PathSearchLimits FewVisits = Wide;
  FewVisits.MaxVisits = 10;
  PathSearchLimits FewPaths = Wide;
  FewPaths.MaxPaths = 3;
  struct Search {
    const GrammarGraph *GG;
    GgNodeId Start;
    std::vector<GgNodeId> Targets;
    PathSearchLimits Limits;
  };
  const std::vector<Search> Searches = {
      {&P, Api(P, "STARTFROM"), {Api(P, "INSERT")}, {}},
      {&Layered, Api(Layered, "LEAF"), {Api(Layered, "ROOT")}, FewVisits},
      {&P, Api(P, "LIT"), {Api(P, "INSERT"), Api(P, "STRING")}, Two},
      // The start lies outside the BFS ball (INSERT is above ALL).
      {&P, Api(P, "INSERT"), {Api(P, "ALL")}, Wide},
      {&Layered, Api(Layered, "LEAF"), {Api(Layered, "ROOT")}, FewPaths},
      {&P, Api(P, "ALL"), {P.startNode()}, {}},
      {&Layered, Api(Layered, "LEAF"), {Api(Layered, "ROOT")}, Wide},
      // The start is itself a target.
      {&P, Api(P, "INSERT"), {Api(P, "INSERT")}, Two},
      {&P, Api(P, "STARTFROM"), {Api(P, "INSERT")}, {}},
  };
  for (size_t I = 0; I < Searches.size(); ++I) {
    const Search &S = Searches[I];
    SearchRun Here = runSearch(*S.GG, S.Start, S.Targets, S.Limits);
    SearchRun Fresh;
    std::thread([&] {
      Fresh = runSearch(*S.GG, S.Start, S.Targets, S.Limits);
    }).join();
    EXPECT_EQ(Here.R.Truncated, Fresh.R.Truncated) << "search " << I;
    EXPECT_EQ(Here.R.Visits, Fresh.R.Visits) << "search " << I;
    EXPECT_EQ(Here.InEdgeScans, Fresh.InEdgeScans) << "search " << I;
    EXPECT_EQ(Here.WordsTouched, Fresh.WordsTouched) << "search " << I;
    ASSERT_EQ(Here.R.Paths.size(), Fresh.R.Paths.size()) << "search " << I;
    for (size_t K = 0; K < Here.R.Paths.size(); ++K) {
      EXPECT_EQ(Here.R.Paths[K].Nodes, Fresh.R.Paths[K].Nodes)
          << "search " << I << " path " << K;
      EXPECT_EQ(Here.R.Paths[K].ApiCount, Fresh.R.Paths[K].ApiCount)
          << "search " << I << " path " << K;
    }
  }
}

//===----------------------------------------------------------------------===//
// Arena
//===----------------------------------------------------------------------===//

TEST(Arena, BumpAlignAndGrow) {
  Arena A(/*FirstChunkBytes=*/64);
  char *P1 = A.allocateArray<char>(3);
  ASSERT_NE(P1, nullptr);
  uint64_t *P2 = A.allocateArray<uint64_t>(4);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P2) % alignof(uint64_t), 0u);
  // Oversized request gets its own chunk.
  char *Big = A.allocateArray<char>(1 << 16);
  ASSERT_NE(Big, nullptr);
  EXPECT_GE(A.bytesReserved(), size_t(1) << 16);
  EXPECT_GE(A.bytesUsed(), 3u + 4 * sizeof(uint64_t) + (1 << 16));
}

TEST(Arena, ResetRetainsChunksAndBumpsGeneration) {
  Arena A(/*FirstChunkBytes=*/128);
  (void)A.allocateArray<char>(100);
  (void)A.allocateArray<char>(5000);
  size_t Reserved = A.bytesReserved();
  size_t Used = A.bytesUsed();
  uint64_t Gen = A.generation();
  A.reset();
  EXPECT_EQ(A.bytesUsed(), 0u);
  EXPECT_EQ(A.bytesReserved(), Reserved); // No memory returned.
  EXPECT_EQ(A.generation(), Gen + 1);
  EXPECT_GE(A.highWater(), Used);
  // A same-sized replay fits entirely in the retained chunks.
  (void)A.allocateArray<char>(100);
  (void)A.allocateArray<char>(5000);
  EXPECT_EQ(A.bytesReserved(), Reserved);
}

TEST(Arena, ProcessHighWaterTracksPeaks) {
  uint64_t Before = Arena::processHighWater();
  {
    Arena A;
    (void)A.allocateArray<char>(200000);
  } // Destructor publishes the peak.
  EXPECT_GE(Arena::processHighWater(), Before);
  EXPECT_GE(Arena::processHighWater(), 200000u);
}

//===----------------------------------------------------------------------===//
// Arena-backed N_API index
//===----------------------------------------------------------------------===//

TEST(DynApiIndex, GetOrCreateFindAndGrowth) {
  Arena A;
  DynamicGrammarGraph Dyn(&A);
  // Force several rehash rounds past the 3/4 load factor.
  std::vector<DynNodeId> Ids;
  for (unsigned Dep = 0; Dep < 10; ++Dep)
    for (GgNodeId Occ = 0; Occ < 10; ++Occ)
      Ids.push_back(Dyn.getOrCreateApiNode(Dep, Occ));
  EXPECT_EQ(Dyn.apiIndexSize(), 100u);
  EXPECT_GE(Dyn.apiIndexCapacity(), 100u * 4 / 3);
  // Lookups survive the rehashes; re-creation is idempotent.
  size_t I = 0;
  for (unsigned Dep = 0; Dep < 10; ++Dep)
    for (GgNodeId Occ = 0; Occ < 10; ++Occ, ++I) {
      EXPECT_EQ(Dyn.findApiNode(Dep, Occ), Ids[I]);
      EXPECT_EQ(Dyn.getOrCreateApiNode(Dep, Occ), Ids[I]);
    }
  EXPECT_EQ(Dyn.apiIndexSize(), 100u);
  EXPECT_EQ(Dyn.findApiNode(99, 99), ~0u);
  // The index lives in the caller's arena.
  EXPECT_GT(A.bytesUsed(), 0u);
}

TEST(DynApiIndex, EmptyIndexFindMisses) {
  DynamicGrammarGraph Dyn;
  EXPECT_EQ(Dyn.findApiNode(0, 0), ~0u);
}

TEST(DynApiIndex, SentinelDepNodeKeysWork) {
  // finalize() indexes the grammar-root pseudo node under DepNode ~0u.
  DynamicGrammarGraph Dyn;
  DynNodeId Id = Dyn.getOrCreateApiNode(~0u, 7);
  EXPECT_EQ(Dyn.findApiNode(~0u, 7), Id);
  EXPECT_EQ(Dyn.findApiNode(~0u, 8), ~0u);
}

TEST(DynApiIndex, OwnedArenaSurvivesMove) {
  // A graph constructed without an external arena owns its index storage;
  // moving the graph object must not invalidate the table.
  DynamicGrammarGraph Dyn;
  DynNodeId Id = Dyn.getOrCreateApiNode(3, 4);
  DynamicGrammarGraph Moved = std::move(Dyn);
  EXPECT_EQ(Moved.findApiNode(3, 4), Id);
  EXPECT_EQ(Moved.getOrCreateApiNode(3, 4), Id);
}

//===----------------------------------------------------------------------===//
// Zero-heap steady state
//===----------------------------------------------------------------------===//

TEST(DpCoreAlloc, SteadyStateSearchDoesNotTouchTheHeap) {
#ifdef DGGT_SANITIZED
  GTEST_SKIP() << "operator new is intercepted under sanitizers";
#else
  Grammar G = makeLayeredGrammar(8);
  GrammarGraph GG(G);
  GgNodeId Leaf = GG.apiOccurrences("LEAF").front();
  std::vector<GgNodeId> Root = {GG.apiOccurrences("ROOT").front()};
  PathSearchLimits Limits;
  Limits.MaxPathNodes = 64;
  Limits.MaxPaths = 1024;

  // Warm the thread workspace (first call sizes the retained buffers).
  RawSearchResult Warm = searchPathsRaw(GG, Leaf, Root, Limits);
  ASSERT_EQ(Warm.NumPaths, 256u);

  uint64_t Before = GNewCalls.load(std::memory_order_relaxed);
  for (int I = 0; I < 100; ++I) {
    RawSearchResult R = searchPathsRaw(GG, Leaf, Root, Limits);
    ASSERT_EQ(R.NumPaths, 256u);
    ASSERT_FALSE(R.Truncated);
  }
  uint64_t After = GNewCalls.load(std::memory_order_relaxed);
  EXPECT_EQ(After - Before, 0u)
      << "cache-warm steady-state search must not allocate";
#endif
}
