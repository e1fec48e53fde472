//===- synth/Pipeline.cpp - Shared steps 1-4 of the pipeline --------------===//

#include "synth/Pipeline.h"

#include "grammar/PathCache.h"
#include "nlp/DependencyParser.h"
#include "nlp/GraphPruner.h"
#include "obs/Cost.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Arena.h"
#include "synth/Synthesizer.h"

#include <chrono>

using namespace dggt;

Synthesizer::~Synthesizer() = default;

std::string_view dggt::statusName(SynthesisResult::Status St) {
  switch (St) {
  case SynthesisResult::Status::Success:
    return "success";
  case SynthesisResult::Status::Timeout:
    return "timeout";
  case SynthesisResult::Status::NoCandidates:
    return "no-candidates";
  case SynthesisResult::Status::NoValidTree:
    return "no-valid-tree";
  }
  return "unknown";
}

bool PreparedQuery::allWordsMapped() const {
  for (unsigned Id = 0; Id < Pruned.size(); ++Id)
    if (Words.forNode(Id).empty())
      return false;
  return Pruned.size() > 0;
}

namespace {

/// Per-stage latency histogram, cached per stage name (pipeline stages
/// are the paper's Figure 3 boxes; see DESIGN.md "Observability").
obs::Histogram &stageHistogram(const char *Stage) {
  return obs::registry().histogram("dggt_pipeline_stage_latency_ms",
                                   {{"stage", Stage}});
}

/// RAII wall-clock probe stamping elapsed milliseconds into a
/// PreparedQuery stage slot (always on — the query log wants stage
/// timings even when registry metrics are disabled).
class StageTimer {
public:
  explicit StageTimer(double &Slot)
      : Slot(Slot), Start(std::chrono::steady_clock::now()) {}
  ~StageTimer() {
    Slot = std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - Start)
               .count();
  }

private:
  double &Slot;
  std::chrono::steady_clock::time_point Start;
};

} // namespace

SynthesisFrontEnd::SynthesisFrontEnd(const GrammarGraph &GG,
                                     const ApiDocument &Doc,
                                     const Thesaurus &Syn,
                                     MatcherOptions MatchOpts,
                                     PathSearchLimits Limits,
                                     PruneOptions Prune)
    : GG(GG), Doc(Doc), Matcher(Doc, Syn, MatchOpts), Limits(Limits),
      Prune(std::move(Prune)) {}

PreparedQuery SynthesisFrontEnd::prepare(std::string_view Query,
                                         SharedQueryCaches Caches) const {
  obs::ScopedSpan Span("pipeline.prepare");
  double ParseMs = 0.0, PruneMs = 0.0;
  DependencyGraph Raw;
  {
    static obs::Histogram &H = stageHistogram("parse");
    obs::ScopedSpan S("pipeline.parse");
    obs::ScopedLatencyMs T(H);
    StageTimer ST(ParseMs);
    Raw = parseDependencies(Query);
  }
  DependencyGraph Pruned;
  {
    static obs::Histogram &H = stageHistogram("prune");
    obs::ScopedSpan S("pipeline.prune");
    obs::ScopedLatencyMs T(H);
    StageTimer ST(PruneMs);
    Pruned = pruneQueryGraph(Raw, Prune);
  }
  PreparedQuery Q = prepareFromGraph(Pruned, Caches);
  Q.StageMs[0] = ParseMs;
  Q.StageMs[1] = PruneMs;
  return Q;
}

PreparedQuery
SynthesisFrontEnd::prepareFromGraph(const DependencyGraph &Pruned,
                                    SharedQueryCaches Caches) const {
  // Query boundary: recycle this worker's per-query arena. Everything
  // carved from it during the previous query (notably the dynamic
  // graph's N_API index) is dead by construction — PreparedQuery and the
  // caches hold only owning heap storage (DESIGN.md §15). prepare()
  // funnels through here, so both entry points hit the reset.
  queryArena().reset();
  // Same boundary for the cost vector: everything the DP core counts
  // from here until the service snapshots it belongs to this query.
  obs::queryCost() = obs::CostCounters{};
  obs::queryCost().Populated = true;
  PreparedQuery Q;
  Q.GG = &GG;
  Q.Doc = &Doc;
  Q.Pruned = Pruned;
  Q.Limits = Limits;
  {
    static obs::Histogram &H = stageHistogram("word-to-api");
    obs::ScopedSpan S("pipeline.word_to_api");
    obs::ScopedLatencyMs T(H);
    StageTimer ST(Q.StageMs[2]);
    unsigned WordHits = 0;
    Q.Words = Matcher.mapGraph(Q.Pruned, Caches.Words, &WordHits);
    Q.WordCacheHit = WordHits > 0;
  }
  {
    static obs::Histogram &H = stageHistogram("edge-to-path");
    obs::ScopedSpan S("pipeline.edge_to_path");
    obs::ScopedLatencyMs T(H);
    StageTimer ST(Q.StageMs[3]);
    // This thread's own count: the shared cache's stats also move with
    // other workers' hits.
    const uint64_t Hits0 = obs::queryCost().PathCacheHits;
    Q.Edges = buildEdgeToPath(GG, Doc, Q.Pruned, Q.Words, Limits, Caches.Paths);
    Q.PathCacheHit = obs::queryCost().PathCacheHits > Hits0;
  }
  return Q;
}
