//===- grammar/PathSearch.h - Reversed all-path search -----------*- C++ -*-===//
///
/// \file
/// Step 4 of the HISyn pipeline (EdgeToPath): for a dependency edge
/// w1 -> w2, find every grammar path that starts at an occurrence of one
/// of w1's candidate APIs and ends at an occurrence of one of w2's
/// candidate APIs. The search walks *backward* (dependent to governor)
/// over the grammar graph's in-edges, which is why the paper calls it a
/// reversed all-path search (Section II, step 4).
///
/// Each search first runs a multi-source BFS from its governor targets
/// over the frozen out-CSR, bounded at MaxPathNodes - 2 hops, and the
/// walk skips any predecessor from which no target can be reached within
/// the nodes MaxPathNodes still allows (an admissible bound: it never
/// drops a recordable path).
///
/// Two implementations share these entry points (selected by
/// setDpCoreLegacy(), bit-identical by construction — DESIGN.md §15):
/// the speed-of-light core — an explicit-stack iterative walk over the
/// frozen CSR adjacency whose BFS distances double as the on-path set,
/// a running API count maintained on the stack, and all scratch
/// (distances, frames, recorded path nodes) in a per-thread arena-backed
/// workspace that retains its memory and is reset sparsely, so a
/// steady-state search does zero global heap traffic and costs what it
/// visits — and the legacy recursive walk it replaced, kept for A/B
/// benches and the bit-identity sweep.
///
//===----------------------------------------------------------------------===//

#ifndef DGGT_GRAMMAR_PATHSEARCH_H
#define DGGT_GRAMMAR_PATHSEARCH_H

#include "grammar/GrammarPath.h"

#include <cstdint>

namespace dggt {

class PathCache;

/// Bounds for the all-path search; defaults match a medium-size domain.
struct PathSearchLimits {
  /// Maximum number of nodes on a path (APIs + non-terminals +
  /// derivations).
  unsigned MaxPathNodes = 16;
  /// Cap on recorded paths per (dependent occurrence, governor set) query;
  /// hitting it truncates the candidate set (recorded in the result).
  unsigned MaxPaths = 512;
  /// Cap on DFS node visits per query, bounding the backward walk on
  /// grammars with heavy fan-in (ASTMatcher's category non-terminals).
  unsigned MaxVisits = 200000;
};

/// Result of one all-path search.
struct PathSearchResult {
  std::vector<GrammarPath> Paths; ///< Governor end first; Id unassigned (0).
  bool Truncated = false;         ///< MaxPaths was hit.
  uint64_t Visits = 0;            ///< DFS node visits consumed.
};

/// One recorded path inside the per-thread search workspace: a view into
/// flat, workspace-owned node storage (governor end first).
struct RawPathView {
  const GgNodeId *Nodes = nullptr;
  uint32_t Len = 0;
  unsigned ApiCount = 0;
};

/// Zero-copy result of the speed-of-light core. Views stay valid only
/// until the next search on the calling thread.
struct RawSearchResult {
  const RawPathView *Paths = nullptr;
  size_t NumPaths = 0;
  bool Truncated = false;
  uint64_t Visits = 0;
};

/// Runs the iterative CSR walk into the calling thread's retained
/// workspace and returns views over it — the zero-heap steady-state
/// core (no allocation once the workspace is warm for the graph size).
/// findPathsBetween() materializes this into an owning PathSearchResult;
/// call this directly only when the views' lifetime is acceptable
/// (benches, tests, tight pipelines).
RawSearchResult searchPathsRaw(const GrammarGraph &GG, GgNodeId DependentStart,
                               const std::vector<GgNodeId> &GovernorTargets,
                               const PathSearchLimits &Limits = {});

/// Selects the legacy (recursive) DP core process-wide.
/// Both cores return bit-identical results; the switch exists for the
/// before/after benches and the equivalence sweep. Default: off.
void setDpCoreLegacy(bool Legacy);
bool dpCoreLegacy();

/// Finds all simple downward paths from any node in \p GovernorTargets to
/// \p DependentStart by walking in-edges backward from \p DependentStart.
///
/// A path stops at the *first* governor target encountered on a branch
/// (the paper's "follows the grammar graph backward until reaching" a
/// governor candidate). \p GovernorTargets may contain API occurrence
/// nodes or the start non-terminal node.
///
/// With a non-null \p Cache, the search is memoized: an exact-key hit
/// returns the cached result (bit-identical to re-searching) and a miss
/// populates the cache. Cached results are deep copies on the global
/// heap — never views into a search workspace or arena. The cache is
/// bypassed entirely while any fault point is armed, so fault-injection
/// tests exercise the real search.
PathSearchResult findPathsBetween(const GrammarGraph &GG,
                                  GgNodeId DependentStart,
                                  const std::vector<GgNodeId> &GovernorTargets,
                                  const PathSearchLimits &Limits = {},
                                  PathCache *Cache = nullptr);

/// Finds all simple paths from the grammar start node down to
/// \p DependentStart (used for the root pseudo-edge and for HISyn's
/// orphan treatment).
PathSearchResult findPathsFromStart(const GrammarGraph &GG,
                                    GgNodeId DependentStart,
                                    const PathSearchLimits &Limits = {});

} // namespace dggt

#endif // DGGT_GRAMMAR_PATHSEARCH_H
