//===- obs/Cost.h - Per-query DP-core cost attribution ----------*- C++ -*-===//
///
/// \file
/// The per-query cost vector of DESIGN.md §16: a handful of additive
/// counters accumulated by the DP core's hot paths (path search, sibling
/// merging, Cgt fusion) and snapshotted once per query into the
/// ServiceReport / QueryLogRecord, so a slow query's record says *where
/// inside the core* its work went — not just that it was slow.
///
/// Accumulation is a plain thread-local struct (`queryCost()`), reset by
/// the pipeline at the same query boundary that recycles the per-query
/// arena (synth/Pipeline.cpp). The hot loops add into function-local
/// counters and flush once per search/merge, so the per-visit inner
/// loops stay untouched; a thread-local field add is the most a per-call
/// site ever pays. Single-writer by construction (one query per worker
/// thread at a time), no atomics needed.
///
/// The counters are chosen to validate symbolic DP cost bounds against
/// reality (PAPERS.md, Vieira/Cotterell/Eisner): node visits and in-edge
/// scans bound the search, bitset words the reachability folding,
/// merge candidates/survivors and pairwise conflict checks the sibling
/// cross product, and Cgt fusion ops the prefix-tree joins that own the
/// residual p99.
///
//===----------------------------------------------------------------------===//

#ifndef DGGT_OBS_COST_H
#define DGGT_OBS_COST_H

#include <cstdint>
#include <string>

namespace dggt::obs {

/// Additive work counters for one query. Value-semantic: snapshotted by
/// copy into ServiceReport and QueryLogRecord.
struct CostCounters {
  /// True once the pipeline ran for the query (the reset marks it).
  /// Records for queries rejected before preparation (unknown domain,
  /// shed, open breaker) carry an unpopulated, all-zero vector.
  bool Populated = false;

  uint64_t PathSearches = 0;   ///< findPathsBetween calls (incl. cache hits).
  uint64_t PathCacheHits = 0;  ///< Searches answered by the shared cache.
  uint64_t NodeVisits = 0;     ///< DP-walk node entries (both cores).
  uint64_t InEdgeScans = 0;    ///< In-edge slots examined by the walk.
  /// Path-search distance entries touched: the BFS's seeds and
  /// out-edge tests, one per in-edge scan, and the sparse reset.
  uint64_t BitsetWordsTouched = 0;
  uint64_t MergeCandidates = 0;    ///< Sibling-merge cross-product size.
  uint64_t MergeSurvivors = 0;     ///< Combinations surviving grammar pruning.
  uint64_t ConflictChecks = 0;     ///< Pairwise or-edge conflict tests.
  uint64_t CgtFusionOps = 0;       ///< Edge fusion attempts into prefix trees.
  uint64_t ArenaHighWaterBytes = 0; ///< queryArena() bytes at query end.
};

/// The calling thread's in-flight query cost vector. Reset by
/// SynthesisFrontEnd::prepare/prepareFromGraph at the query boundary
/// (beside the arena reset); snapshotted by the service layer when the
/// query finishes on the same thread.
CostCounters &queryCost();

/// Serializes \p C as one JSON object (used by the query log; key
/// names are the wire schema of DESIGN.md §16).
std::string costCountersJson(const CostCounters &C);

} // namespace dggt::obs

#endif // DGGT_OBS_COST_H
