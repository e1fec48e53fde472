//===- grammar/PathSearch.cpp - Reversed all-path search ------------------===//

#include "grammar/PathSearch.h"

#include "grammar/PathCache.h"
#include "obs/Cost.h"
#include "obs/Metrics.h"
#include "support/Arena.h"
#include "support/FaultInjection.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <unordered_set>

using namespace dggt;

namespace {

std::atomic<bool> GDpCoreLegacy{false};

/// Distance of a node the walk may not enter: no target within the BFS
/// ball, or the node is on the path already.
constexpr uint32_t Unreachable = UINT32_MAX;

/// One suspended level of the iterative walk.
struct Frame {
  GgNodeId Node;      ///< The node this frame pushed onto the path.
  uint32_t SavedDist; ///< Node's distance before the push; restored at pop.
  uint32_t EdgeIdx;   ///< Next slot of In to examine.
  uint32_t EdgeEnd;   ///< Node's in-degree.
  /// Node's in-list: the graph's own CSR slice, or (SavedDist <= 1) a
  /// targets-first copy stacked in SearchScratch::InOrd.
  const GgNodeId *In;
};

/// Per-thread retained workspace of the speed-of-light core. Buffers are
/// carved from a private arena and kept across searches (the arena is
/// never reset — superseded carve-outs just stay behind), so a warm
/// workspace serves every steady-state search with zero heap traffic.
///
/// Invariant between searches: Dist is all Unreachable. A search writes
/// only the nodes its BFS queues (and restores on-path nodes at pop), so
/// it resets exactly those instead of clearing the whole array.
struct SearchScratch {
  Arena A;

  /// Fewest hops from a governor target down to the node, Unreachable
  /// outside the search's BFS ball and while the node is on the path.
  /// One load per edge answers "on the path?", "does a target reach
  /// it?" and "is a target near enough?"; Dist == 0 marks the targets.
  uint32_t *Dist = nullptr;
  /// BFS queue, kept after the BFS as the list of nodes to reset.
  GgNodeId *Queue = nullptr;
  size_t NodeCap = 0;

  /// Targets-first copies of the in-lists of frames that have a target
  /// in-neighbor, stacked in frame order (a simple path holds distinct
  /// nodes, so numEdges slots always suffice).
  GgNodeId *InOrd = nullptr;
  size_t InOrdCap = 0;

  GgNodeId *StackNodes = nullptr;
  Frame *Frames = nullptr;
  unsigned DepthCap = 0;

  RawPathView *Views = nullptr;
  unsigned ViewCap = 0;
  GgNodeId *PathNodes = nullptr;
  size_t PathNodeCap = 0;

  void ensure(size_t NodesNeed, size_t EdgesNeed, unsigned DepthNeed,
              unsigned PathsNeed) {
    if (NodesNeed > NodeCap) {
      Dist = A.allocateArray<uint32_t>(NodesNeed);
      std::fill(Dist, Dist + NodesNeed, Unreachable);
      Queue = A.allocateArray<GgNodeId>(NodesNeed);
      NodeCap = NodesNeed;
    }
    if (EdgesNeed > InOrdCap) {
      InOrd = A.allocateArray<GgNodeId>(EdgesNeed);
      InOrdCap = EdgesNeed;
    }
    if (DepthNeed > DepthCap) {
      StackNodes = A.allocateArray<GgNodeId>(DepthNeed);
      Frames = A.allocateArray<Frame>(DepthNeed);
      DepthCap = DepthNeed;
    }
    if (PathsNeed > ViewCap) {
      Views = A.allocateArray<RawPathView>(PathsNeed);
      ViewCap = PathsNeed;
    }
    size_t NodesOnPaths = size_t(PathsNeed) * DepthNeed;
    if (NodesOnPaths > PathNodeCap) {
      PathNodes = A.allocateArray<GgNodeId>(NodesOnPaths);
      PathNodeCap = NodesOnPaths;
    }
  }
};

SearchScratch &scratch() {
  // Leaked on purpose: the workspace must outlive any static-teardown
  // user on this thread (mirrors queryArena()).
  thread_local SearchScratch *S = [] {
    auto *P = new SearchScratch();
    dggt::lsanIgnoreIntentionalLeak(P);
    return P;
  }();
  return *S;
}

/// Legacy DP core: the recursive walk with std::vector<bool> sets and a
/// per-record countApisOnPath() rescan. Kept as the bit-identity
/// reference and the "before" side of the A/B benches; its distance
/// prune comes from its own unbounded BFS over outEdges().
class ReversedSearch {
public:
  ReversedSearch(const GrammarGraph &GG,
                 const std::vector<GgNodeId> &GovernorTargets,
                 const PathSearchLimits &Limits)
      : GG(GG), Limits(Limits),
        Targets(GovernorTargets.begin(), GovernorTargets.end()) {
    // Dist[V] = fewest hops from any target down to V. A node at
    // distance d cannot end a path in fewer than d more nodes, so the
    // walk skips it when that would pass MaxPathNodes. The filter never
    // drops a recordable path, and it tames grammars with heavy
    // non-terminal fan-in.
    Dist.assign(GG.numNodes(), Unreachable);
    std::vector<GgNodeId> Work;
    for (GgNodeId T : GovernorTargets)
      if (Dist[T] != 0) {
        Dist[T] = 0;
        Work.push_back(T);
      }
    for (size_t Head = 0; Head < Work.size(); ++Head)
      for (const GgEdge &E : GG.outEdges(Work[Head]))
        if (Dist[E.To] == Unreachable) {
          Dist[E.To] = Dist[Work[Head]] + 1;
          Work.push_back(E.To);
        }
  }

  PathSearchResult run(GgNodeId DependentStart) {
    OnPath.assign(GG.numNodes(), false);
    Stack.clear();
    visit(DependentStart);
    Result.Visits = Visits;
    obs::queryCost().InEdgeScans += EdgeScans;
    return std::move(Result);
  }

private:
  const GrammarGraph &GG;
  const PathSearchLimits &Limits;
  std::unordered_set<GgNodeId> Targets;
  std::vector<uint32_t> Dist;
  std::vector<bool> OnPath;
  std::vector<GgNodeId> Stack;
  PathSearchResult Result;
  uint64_t Visits = 0;
  uint64_t EdgeScans = 0;

  void record() {
    if (Result.Paths.size() >= Limits.MaxPaths) {
      Result.Truncated = true;
      return;
    }
    GrammarPath P;
    P.Nodes.assign(Stack.rbegin(), Stack.rend());
    P.ApiCount = countApisOnPath(GG, P.Nodes);
    Result.Paths.push_back(std::move(P));
  }

  void visit(GgNodeId Node) {
    if (Result.Truncated || Stack.size() >= Limits.MaxPathNodes)
      return;
    // Fault point: a firing stands for a visit/allocation-limit trip and
    // truncates the search exactly like exceeding MaxVisits.
    if (++Visits > Limits.MaxVisits || faultFires(faults::PathSearchVisit)) {
      Result.Truncated = true;
      return;
    }
    assert(!OnPath[Node] && "caller filters on-path nodes");
    OnPath[Node] = true;
    Stack.push_back(Node);

    // Stop at the first governor target on this branch; do not extend
    // beyond it. A target only counts once the path is non-trivial.
    if (Stack.size() > 1 && Targets.count(Node)) {
      record();
    } else {
      // Visit target predecessors first so the shortest paths are on
      // record before any visit budget runs out.
      for (int Pass = 0; Pass < 2 && !Result.Truncated; ++Pass) {
        for (const GgEdge &E : GG.inEdges(Node)) {
          ++EdgeScans;
          if (OnPath[E.From])
            continue; // Simple paths only (grammar recursion).
          if (Dist[E.From] >= Limits.MaxPathNodes - Stack.size())
            continue; // No target within the nodes MaxPathNodes leaves.
          bool IsTarget = Targets.count(E.From) != 0;
          if (IsTarget != (Pass == 0))
            continue;
          visit(E.From);
          if (Result.Truncated)
            break;
        }
      }
    }

    Stack.pop_back();
    OnPath[Node] = false;
  }
};

} // namespace

void dggt::setDpCoreLegacy(bool Legacy) {
  GDpCoreLegacy.store(Legacy, std::memory_order_relaxed);
}

bool dggt::dpCoreLegacy() {
  return GDpCoreLegacy.load(std::memory_order_relaxed);
}

RawSearchResult dggt::searchPathsRaw(const GrammarGraph &GG,
                                     GgNodeId DependentStart,
                                     const std::vector<GgNodeId> &GovernorTargets,
                                     const PathSearchLimits &Limits) {
  assert(GG.csrFrozen() && "search requires a frozen graph");
  const uint32_t *InHead = GG.csrInHead();
  const GgNodeId *InList = GG.csrInNeighbors();
  const uint32_t *OutHead = GG.csrOutHead();
  const GgNodeId *OutList = GG.csrOutNeighbors();
  const size_t NumNodes = GG.numNodes();
  SearchScratch &S = scratch();
  S.ensure(NumNodes, InHead[NumNodes], Limits.MaxPathNodes, Limits.MaxPaths);
  uint32_t *Dist = S.Dist;

  // Multi-source BFS from the targets over the out-CSR. The walk enters
  // predecessors at depth 2 and deeper, so a node more than
  // MaxPathNodes - 2 hops below every target lies on no recordable path
  // and the ball stops there. It takes at least one hop, so that
  // Dist <= 1 marks every node with a target in-neighbor.
  const uint32_t HopCap = std::max(Limits.MaxPathNodes, 3u) - 2;
  size_t QueueLen = 0;
  uint64_t BfsScans = 0;
  for (GgNodeId T : GovernorTargets)
    if (Dist[T] != 0) {
      Dist[T] = 0;
      S.Queue[QueueLen++] = T;
    }
  for (size_t Head = 0; Head < QueueLen; ++Head) {
    const GgNodeId V = S.Queue[Head];
    const uint32_t D = Dist[V];
    if (D == HopCap)
      break; // FIFO order: every node left in the queue is at the cap.
    BfsScans += OutHead[V + 1] - OutHead[V];
    for (uint32_t E = OutHead[V]; E < OutHead[V + 1]; ++E)
      if (Dist[OutList[E]] == Unreachable) {
        Dist[OutList[E]] = D + 1;
        S.Queue[QueueLen++] = OutList[E];
      }
  }

  RawSearchResult Result;
  Result.Paths = S.Views;
  uint64_t Visits = 0;
  uint64_t EdgeScans = 0; // In-list slots examined; tallied at frame pop.
  bool Truncated = false;
  unsigned Depth = 0;       // Nodes currently on the path.
  unsigned ApiOnStack = 0;  // Running API count (hoisted countApisOnPath).
  size_t NumPaths = 0;
  size_t PathTail = 0;      // Bump offset into S.PathNodes.
  unsigned FrameTop = 0;
  size_t InOrdTop = 0;      // Bump offset into S.InOrd.

  auto record = [&]() {
    if (NumPaths >= Limits.MaxPaths) {
      Truncated = true;
      return;
    }
    // Reverse the stack into flat storage: governor end first, exactly
    // the legacy Nodes.assign(Stack.rbegin(), Stack.rend()).
    GgNodeId *Dst = S.PathNodes + PathTail;
    for (unsigned I = 0; I < Depth; ++I)
      Dst[I] = S.StackNodes[Depth - 1 - I];
    S.Views[NumPaths++] = RawPathView{Dst, Depth, ApiOnStack};
    PathTail += Depth;
  };

  auto popFrame = [&]() {
    const Frame &F = S.Frames[--FrameTop];
    assert(Depth > 0 && S.StackNodes[Depth - 1] == F.Node && "unbalanced pop");
    EdgeScans += F.EdgeIdx;
    Dist[F.Node] = F.SavedDist; // Leaves the path: enterable again.
    if (F.SavedDist <= 1)
      InOrdTop -= F.EdgeEnd;
    --Depth;
    if (GG.isApiNode(F.Node))
      --ApiOnStack;
  };

  // The recursion's entry checks, in their exact order; returns true iff
  // a frame was pushed (a subtree is pending).
  auto tryEnter = [&](GgNodeId Node) -> bool {
    if (Truncated || Depth >= Limits.MaxPathNodes)
      return false;
    // Fault point: a firing stands for a visit/allocation-limit trip and
    // truncates the search exactly like exceeding MaxVisits.
    if (++Visits > Limits.MaxVisits || faultFires(faults::PathSearchVisit)) {
      Truncated = true;
      return false;
    }
    S.StackNodes[Depth++] = Node;
    if (GG.isApiNode(Node))
      ++ApiOnStack;
    const uint32_t D = Dist[Node];
    // Stop at the first governor target on this branch; do not extend
    // beyond it. A target only counts once the path is non-trivial.
    // The leaf is unwound immediately, so its distance never moves.
    if (Depth > 1 && D == 0) {
      record();
      --Depth;
      if (GG.isApiNode(Node))
        --ApiOnStack;
      return false;
    }
    Dist[Node] = Unreachable; // On the path now: simple paths only.
    const uint32_t Lo = InHead[Node], Deg = InHead[Node + 1] - Lo;
    Frame &F = S.Frames[FrameTop++];
    F = Frame{Node, D, 0, Deg, InList + Lo};
    if (D <= 1) {
      // A target feeds this node: stable-partition its in-list, targets
      // first, so one sweep visits candidates in exactly the legacy
      // two-pass order (shortest paths on record before any visit
      // budget runs out). Every other frame reads the graph's list.
      GgNodeId *Ord = S.InOrd + InOrdTop;
      InOrdTop += Deg;
      uint32_t W = 0;
      for (uint32_t E = 0; E < Deg; ++E)
        if (Dist[InList[Lo + E]] == 0)
          Ord[W++] = InList[Lo + E];
      for (uint32_t E = 0; E < Deg; ++E)
        if (Dist[InList[Lo + E]] != 0)
          Ord[W++] = InList[Lo + E];
      F.In = Ord;
    }
    return true;
  };

  tryEnter(DependentStart);
  while (FrameTop != 0) {
    Frame &F = S.Frames[FrameTop - 1];
    bool Descended = false;
    // Skip From when Depth + 1 + Dist[From] > MaxPathNodes: no target is
    // near enough for a path through From to fit. Unreachable (on the
    // path, or outside the BFS ball) never fits.
    const uint32_t Slack = Limits.MaxPathNodes - Depth;
    while (!Truncated && F.EdgeIdx != F.EdgeEnd) {
      GgNodeId From = F.In[F.EdgeIdx++];
      if (Dist[From] >= Slack)
        continue;
      if (tryEnter(From)) {
        Descended = true;
        break;
      }
    }
    if (!Descended)
      popFrame();
  }
  assert(Depth == 0 && InOrdTop == 0 && "walk must unwind completely");

  // Restore the all-Unreachable invariant for the next search: the walk
  // put every on-path distance back, so only the BFS ball is dirty.
  for (size_t I = 0; I < QueueLen; ++I)
    Dist[S.Queue[I]] = Unreachable;

  // One flush per search into the query's cost vector: the distance
  // entries the BFS seeds and tests, one per edge scan, and the reset.
  {
    obs::CostCounters &C = obs::queryCost();
    C.InEdgeScans += EdgeScans;
    C.BitsetWordsTouched +=
        GovernorTargets.size() + BfsScans + EdgeScans + QueueLen;
  }

  Result.NumPaths = NumPaths;
  Result.Truncated = Truncated;
  Result.Visits = Visits;
  return Result;
}

PathSearchResult
dggt::findPathsBetween(const GrammarGraph &GG, GgNodeId DependentStart,
                       const std::vector<GgNodeId> &GovernorTargets,
                       const PathSearchLimits &Limits, PathCache *Cache) {
  // Fault tests arm points precisely (fire on the Nth search); a cache
  // hit would skip hits and shift every armed trigger, so the cache
  // steps aside while anything is armed.
  bool UseCache = Cache && !FaultInjector::anyArmed();
  if (UseCache) {
    if (std::optional<PathSearchResult> Hit =
            Cache->lookup(DependentStart, GovernorTargets, Limits)) {
      obs::CostCounters &C = obs::queryCost();
      ++C.PathSearches;
      ++C.PathCacheHits;
      return std::move(*Hit);
    }
  }

  PathSearchResult Result;
  if (dpCoreLegacy()) {
    ReversedSearch Search(GG, GovernorTargets, Limits);
    Result = Search.run(DependentStart);
  } else {
    // Speed-of-light core, then materialize owning paths (cache entries
    // and callers must never hold views into the thread workspace).
    RawSearchResult Raw =
        searchPathsRaw(GG, DependentStart, GovernorTargets, Limits);
    Result.Truncated = Raw.Truncated;
    Result.Visits = Raw.Visits;
    Result.Paths.reserve(Raw.NumPaths);
    for (size_t I = 0; I < Raw.NumPaths; ++I) {
      const RawPathView &V = Raw.Paths[I];
      GrammarPath P;
      P.Nodes.assign(V.Nodes, V.Nodes + V.Len);
      P.ApiCount = V.ApiCount;
      Result.Paths.push_back(std::move(P));
    }
  }
  // Per-query attribution is unconditional (thread-local adds, no
  // fetch_add): the query log wants a populated cost vector even when
  // registry metrics are off.
  {
    obs::CostCounters &C = obs::queryCost();
    ++C.PathSearches;
    C.NodeVisits += Result.Visits;
  }
  // Batched metric adds: one search, three fetch_adds — the per-visit
  // inner loop stays untouched.
  if (obs::metricsEnabled()) {
    static obs::Counter &Searches =
        obs::registry().counter("dggt_pathsearch_searches_total");
    static obs::Counter &Visits =
        obs::registry().counter("dggt_pathsearch_visits_total");
    static obs::Counter &Paths =
        obs::registry().counter("dggt_pathsearch_paths_total");
    static obs::Counter &Truncations =
        obs::registry().counter("dggt_pathsearch_truncations_total");
    Searches.inc();
    Visits.inc(Result.Visits);
    Paths.inc(Result.Paths.size());
    if (Result.Truncated)
      Truncations.inc();
  }
  if (UseCache)
    Cache->insert(DependentStart, GovernorTargets, Limits, Result);
  return Result;
}

PathSearchResult dggt::findPathsFromStart(const GrammarGraph &GG,
                                          GgNodeId DependentStart,
                                          const PathSearchLimits &Limits) {
  return findPathsBetween(GG, DependentStart, {GG.startNode()}, Limits);
}
