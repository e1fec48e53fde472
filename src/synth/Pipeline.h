//===- synth/Pipeline.h - Shared steps 1-4 of the pipeline --------*- C++ -*-===//
///
/// \file
/// Runs the stages both synthesizers share: dependency parsing, query
/// graph pruning, WordToAPI and EdgeToPath (steps 1-4 of Figure 3),
/// producing a PreparedQuery that step 5 (PathMerging — where HISyn and
/// DGGT differ) consumes.
///
//===----------------------------------------------------------------------===//

#ifndef DGGT_SYNTH_PIPELINE_H
#define DGGT_SYNTH_PIPELINE_H

#include "grammar/GrammarGraph.h"
#include "nlp/DependencyGraph.h"
#include "nlp/GraphPruner.h"
#include "nlu/WordToApiMatcher.h"
#include "synth/EdgeToPath.h"
#include "text/Thesaurus.h"

#include <string_view>

namespace dggt {

class PathCache;

/// Optional cross-query memo handles threaded through query preparation.
/// Both caches are per-domain, owned by the caller (the service layer),
/// and shared by every query against that domain — including from
/// concurrent worker threads (both are internally thread-safe). Null
/// members simply disable that cache.
struct SharedQueryCaches {
  PathCache *Paths = nullptr;        ///< EdgeToPath all-path searches.
  ApiCandidateCache *Words = nullptr; ///< WordToAPI candidate lists.
};

/// Everything steps 1-4 produce for one query.
struct PreparedQuery {
  const GrammarGraph *GG = nullptr;
  const ApiDocument *Doc = nullptr;
  DependencyGraph Pruned;
  WordToApiMap Words;
  EdgeToPathMap Edges;
  PathSearchLimits Limits;

  /// Per-stage wall latency in the fixed order {parse, prune,
  /// word_to_api, edge_to_path} (obs::QueryStageNames); 0 for stages
  /// that did not run (prepareFromGraph skips the first two). Feeds the
  /// wide-event query log's stage breakdown.
  double StageMs[4] = {0.0, 0.0, 0.0, 0.0};
  /// True if this query's own lookups hit the shared cache (at least one
  /// node's candidates / one path search answered from it). Counted on
  /// the preparing thread, so other workers' hits never mark this query.
  bool PathCacheHit = false;
  bool WordCacheHit = false;

  /// True if every dependency node has at least one API candidate.
  bool allWordsMapped() const;
};

/// The synthesis front end for one domain: holds the grammar graph, the
/// API document, the thesaurus and the tuning options, and prepares
/// queries against them.
class SynthesisFrontEnd {
public:
  SynthesisFrontEnd(const GrammarGraph &GG, const ApiDocument &Doc,
                    const Thesaurus &Syn, MatcherOptions MatchOpts = {},
                    PathSearchLimits Limits = {}, PruneOptions Prune = {});

  /// Steps 1-4 on a raw NL query. \p Caches memoizes the WordToAPI and
  /// EdgeToPath stages across queries (hits are bit-identical to
  /// recomputation; see PathCache / ApiCandidateCache).
  PreparedQuery prepare(std::string_view Query,
                        SharedQueryCaches Caches = {}) const;

  /// Steps 3-4 on an externally supplied pruned dependency graph (used by
  /// tests and the property-based generators).
  PreparedQuery prepareFromGraph(const DependencyGraph &Pruned,
                                 SharedQueryCaches Caches = {}) const;

  const GrammarGraph &grammarGraph() const { return GG; }
  const ApiDocument &document() const { return Doc; }
  const WordToApiMatcher &matcher() const { return Matcher; }
  const PruneOptions &pruneOptions() const { return Prune; }

private:
  const GrammarGraph &GG;
  const ApiDocument &Doc;
  WordToApiMatcher Matcher;
  PathSearchLimits Limits;
  PruneOptions Prune;
};

} // namespace dggt

#endif // DGGT_SYNTH_PIPELINE_H
