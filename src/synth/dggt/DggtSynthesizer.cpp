//===- synth/dggt/DggtSynthesizer.cpp - DGGT (Algorithm 1) ----------------===//

#include "synth/dggt/DggtSynthesizer.h"

#include "obs/Cost.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Arena.h"
#include "support/FaultInjection.h"
#include "synth/Expression.h"
#include "synth/SizeBounds.h"
#include "synth/dggt/GrammarBasedPruning.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>

using namespace dggt;

namespace {

/// One bottom-up construction of the dynamic grammar graph (step 1 of
/// Algorithm 1) plus the optimal-CGT backtrack (step 2), for a single
/// pruned-graph variant.
class VariantRun {
public:
  /// \p IndexArena backs the dynamic graph's N_API index; null means the
  /// graph owns its storage (required when the graph is exported past the
  /// query boundary).
  VariantRun(const PreparedQuery &Q, const DependencyGraph &Graph,
             const EdgeToPathMap &Edges, const DggtSynthesizer::Options &Opts,
             Budget &B, Arena *IndexArena)
      : Q(Q), GG(*Q.GG), Graph(Graph), Edges(Edges), Opts(Opts), B(B),
        Dyn(IndexArena) {}

  SynthesisResult run() {
    Result.Stats.DepEdges = static_cast<unsigned>(Edges.Edges.size());
    Result.Stats.PathsAfterReloc = Edges.totalPaths();
    if (Edges.Edges.empty()) {
      Result.St = SynthesisResult::Status::NoValidTree;
      return Result;
    }
    indexEdges();

    // Bottom-up over dependency nodes, deepest first (Algorithm 1 lines
    // 2-22).
    std::vector<unsigned> Order(Graph.size());
    for (unsigned I = 0; I < Graph.size(); ++I)
      Order[I] = I;
    std::sort(Order.begin(), Order.end(), [&](unsigned A, unsigned C) {
      unsigned DA = Graph.depthOf(A), DC = Graph.depthOf(C);
      if (DA != DC)
        return DA > DC;
      return A < C;
    });
    for (unsigned Node : Order) {
      // Poll the budget between nodes too: single-child chains never
      // enter the sibling enumeration (the only other poll site), so a
      // deep chain could otherwise overshoot the deadline unchecked. The
      // fault point stands for a mid-merge failure.
      if (faultFires(faults::DggtMerge))
        B.cancel();
      if (B.expired())
        TimedOut = true;
      else if (ChildGroups.count(Node))
        processInternal(Node);
      else
        makeLeaf(Node);
      if (TimedOut) {
        Result.St = SynthesisResult::Status::Timeout;
        Result.Stats.DynNodes = Dyn.numNodes();
        return Result;
      }
    }

    finalize();
    Result.Stats.DynNodes = Dyn.numNodes();
    return Result;
  }

  DynamicGrammarGraph takeGraph() { return std::move(Dyn); }

private:
  const PreparedQuery &Q;
  const GrammarGraph &GG;
  const DependencyGraph &Graph;
  const EdgeToPathMap &Edges;
  const DggtSynthesizer::Options &Opts;
  Budget &B;

  DynamicGrammarGraph Dyn;
  SynthesisResult Result;
  bool TimedOut = false;

  /// Epoch-marked scratch for comboBounds()'s distinct-API count, sized
  /// to the grammar graph on first use; a bump of ApiEpoch is a clear.
  std::vector<uint64_t> ApiMark;
  uint64_t ApiEpoch = 0;

  /// Child synthesis edges grouped by governor dependency node.
  std::map<unsigned, std::vector<const EdgePaths *>> ChildGroups;
  const EdgePaths *PseudoRootEdge = nullptr;
  /// Dependents of unrelocatable orphan edges: reattached to the grammar
  /// root at finalize() time (HISyn-style fallback).
  std::vector<unsigned> RootAttached;

  void indexEdges() {
    for (const EdgePaths &EP : Edges.Edges) {
      if (!EP.Edge.GovNode) {
        PseudoRootEdge = &EP;
        continue;
      }
      if (EP.isOrphanEdge()) {
        RootAttached.push_back(EP.Edge.DepNode);
        continue;
      }
      ChildGroups[*EP.Edge.GovNode].push_back(&EP);
    }
  }

  std::vector<GgNodeId> occurrencesOf(unsigned DepNode) const {
    return candidateOccurrences(GG, *Q.Doc, Q.Words, DepNode);
  }

  /// Annotates the dependency node's literal payload onto grammar node
  /// \p Occ inside \p Tree.
  void annotate(Cgt &Tree, unsigned Dep, GgNodeId Occ) const {
    const DepNode &N = Graph.node(Dep);
    if (N.Literal)
      Tree.annotateLiteral(Occ, *N.Literal);
  }

  void makeLeaf(unsigned Node) {
    for (GgNodeId Occ : occurrencesOf(Node)) {
      DynNodeId Id = Dyn.getOrCreateApiNode(Node, Occ);
      Cgt Tree;
      Tree.setSoloNode(Occ);
      annotate(Tree, Node, Occ);
      Dyn.relax(Id, CgtObjective{1, 0.0, 0}, std::move(Tree));
      Dyn.addAuxEdge(Dyn.startNode(), Id);
    }
  }

  /// Feasible paths of edge \p EP that start at governor occurrence
  /// \p Occ and whose dependent endpoint has a reached dynamic node.
  std::vector<const GrammarPath *> feasiblePaths(const EdgePaths &EP,
                                                 GgNodeId Occ) const {
    std::vector<const GrammarPath *> F;
    for (const GrammarPath &P : EP.Paths) {
      if (P.governorEnd() != Occ)
        continue;
      DynNodeId D = Dyn.findApiNode(EP.Edge.DepNode, P.dependentEnd());
      if (D != ~0u && Dyn.node(D).Reached)
        F.push_back(&P);
    }
    return F;
  }

  /// Case I of Algorithm 1 (lines 5-11): single child edge.
  void singleChild(unsigned Node, GgNodeId Occ, const EdgePaths &EP) {
    for (const GrammarPath *P : feasiblePaths(EP, Occ)) {
      DynNodeId Dep = Dyn.findApiNode(EP.Edge.DepNode, P->dependentEnd());
      const DynNode &DN = Dyn.node(Dep);
      // The dependent endpoint API is counted in both the path and the
      // child's partial CGT; subtract the double count.
      CgtObjective Obj = DN.Obj;
      Obj.Size += P->ApiCount - 1;
      Obj.Score += P->DepScore;
      Obj.Len += static_cast<unsigned>(P->Nodes.size());
      Cgt Tree = DN.MinCgt;
      obs::queryCost().CgtFusionOps += P->Nodes.size();
      Tree.addPath(*P);
      annotate(Tree, Node, Occ);
      DynNodeId Id = Dyn.getOrCreateApiNode(Node, Occ);
      Dyn.addPathEdge(Dep, Id, P->Id);
      Dyn.relax(Id, Obj, std::move(Tree));
    }
  }

  /// One feasible candidate path at a sibling-group level, with every
  /// input the combination walk re-reads hoisted out of the DFS: the
  /// or-edge list (grammar pruning), the API nodes on the path and the
  /// dependent subtree's size surplus (size bounds). The walk re-offers
  /// each path once per node of the partial combination above it, so
  /// deriving these per tryAdd/bounds call dominated the merge stage.
  struct PathCand {
    const GrammarPath *P = nullptr;
    OrChoiceTracker::OrEdgeList OrEdges;
    std::vector<GgNodeId> ApiNodes;
    unsigned ExtraMin = 0; ///< Dyn.node(dependent).minSize() - 1.
  };

  /// Effective bounds of one sibling combination (chosen by per-level
  /// candidate index): the Section V-C path bounds plus the
  /// (combination-dependent) subtree sizes below each chosen endpoint,
  /// so pruning can never discard a combination whose *overall* tree is
  /// the smallest. Identical to computeSizeBounds() + the dependent
  /// surplus, with the distinct-API union done by epoch marking instead
  /// of a per-call std::set.
  ComboSizeBounds comboBounds(const std::vector<std::vector<PathCand>> &F,
                              const std::vector<uint32_t> &Choice) {
    if (ApiMark.size() < GG.numNodes())
      ApiMark.assign(GG.numNodes(), 0);
    ++ApiEpoch;
    unsigned Distinct = 0, SumSizes = 0, Extra = 0;
    for (size_t L = 0; L < Choice.size(); ++L) {
      const PathCand &C = F[L][Choice[L]];
      SumSizes += C.P->ApiCount;
      Extra += C.ExtraMin;
      for (GgNodeId N : C.ApiNodes)
        if (ApiMark[N] != ApiEpoch) {
          ApiMark[N] = ApiEpoch;
          ++Distinct;
        }
    }
    ComboSizeBounds BD;
    unsigned N = static_cast<unsigned>(Choice.size());
    BD.MinSize = Distinct + Extra;
    BD.MaxSize = (SumSizes >= N - 1 ? SumSizes - (N - 1) : 0) + Extra;
    return BD;
  }

  /// Case II of Algorithm 1 (lines 12-22): sibling edges. Enumerates the
  /// local combinations with grammar-based pruning (DFS cutoffs), applies
  /// size-based pruning, merges survivors into prefix trees, and relaxes
  /// N_PCGT / N_API nodes.
  void siblingGroup(unsigned Node, GgNodeId Occ,
                    const std::vector<const EdgePaths *> &Group) {
    // Feasible candidates per child edge (same filter as feasiblePaths),
    // with the pruning inputs precomputed once per path.
    std::vector<std::vector<PathCand>> F(Group.size());
    double Total = 1.0;
    for (size_t I = 0; I < Group.size(); ++I) {
      for (const GrammarPath &P : Group[I]->Paths) {
        if (P.governorEnd() != Occ)
          continue;
        DynNodeId D =
            Dyn.findApiNode(Group[I]->Edge.DepNode, P.dependentEnd());
        if (D == ~0u || !Dyn.node(D).Reached)
          continue;
        PathCand C;
        C.P = &P;
        if (Opts.EnableGrammarPruning)
          C.OrEdges = OrChoiceTracker::orEdges(GG, P);
        if (Opts.EnableSizePruning) {
          for (GgNodeId N : P.Nodes)
            if (GG.node(N).Kind == GgNodeKind::Api)
              C.ApiNodes.push_back(N);
          C.ExtraMin = Dyn.node(D).minSize() - 1;
        }
        F[I].push_back(std::move(C));
      }
      if (F[I].empty())
        return; // This occurrence cannot govern all children.
      Total *= static_cast<double>(F[I].size());
    }
    Result.Stats.CombosAfterReloc += Total;
    obs::queryCost().MergeCandidates += static_cast<uint64_t>(Total);

    const size_t Levels = Group.size();

    // Grammar pruning as pairwise conflict bitsets. Committed paths are
    // always mutually consistent, so a candidate conflicts with the
    // committed choice state iff it conflicts pairwise with some
    // committed path — the incremental tracker's per-candidate or-edge
    // scan collapses to one bit test, with a word-wise OR of the
    // candidate's conflict rows on each descend.
    //
    // ConflictRows[I][J] (I < J) holds, per candidate of F[I], a bitset
    // over F[J]'s candidates that conflict with it.
    std::vector<size_t> BitWords(Levels);
    for (size_t J = 0; J < Levels; ++J)
      BitWords[J] = (F[J].size() + 63) / 64;
    std::vector<std::vector<std::vector<uint64_t>>> ConflictRows(Levels);
    if (Opts.EnableGrammarPruning && Levels > 1) {
      auto ConflictPair = [](const OrChoiceTracker::OrEdgeList &A,
                             const OrChoiceTracker::OrEdgeList &B) {
        for (auto [NtA, DerivA] : A)
          for (auto [NtB, DerivB] : B)
            if (NtA == NtB && DerivA != DerivB)
              return true;
        return false;
      };
      for (size_t I = 0; I + 1 < Levels; ++I) {
        ConflictRows[I].resize(Levels);
        for (size_t J = I + 1; J < Levels; ++J) {
          std::vector<uint64_t> &Rows = ConflictRows[I][J];
          Rows.assign(F[I].size() * BitWords[J], 0);
          for (size_t A = 0; A < F[I].size(); ++A)
            for (size_t C = 0; C < F[J].size(); ++C)
              if (ConflictPair(F[I][A].OrEdges, F[J][C].OrEdges))
                Rows[A * BitWords[J] + (C >> 6)] |= uint64_t(1) << (C & 63);
          obs::queryCost().ConflictChecks +=
              static_cast<uint64_t>(F[I].size()) * F[J].size();
        }
      }
    }

    // Forbidden[J] = OR of the committed candidates' conflict rows for
    // level J; SaveBuf snapshots the touched levels per descend so a pop
    // is a copy-back.
    std::vector<std::vector<uint64_t>> Forbidden(Levels);
    for (size_t J = 0; J < Levels; ++J)
      Forbidden[J].assign(BitWords[J], 0);
    std::vector<uint64_t> SaveBuf;

    auto PushForbid = [&](size_t Level, uint32_t Cand) {
      for (size_t J = Level + 1; J < Levels; ++J) {
        SaveBuf.insert(SaveBuf.end(), Forbidden[J].begin(),
                       Forbidden[J].end());
        const uint64_t *Row =
            ConflictRows[Level][J].data() + size_t(Cand) * BitWords[J];
        for (size_t K = 0; K < BitWords[J]; ++K)
          Forbidden[J][K] |= Row[K];
      }
    };
    auto PopForbid = [&](size_t Level) {
      for (size_t J = Levels; J-- > Level + 1;) {
        std::copy(SaveBuf.end() - BitWords[J], SaveBuf.end(),
                  Forbidden[J].begin());
        SaveBuf.resize(SaveBuf.size() - BitWords[J]);
      }
    };

    // Pass 1: find the smallest max-bound among surviving combinations
    // (grammar pruning applied during the walk), recording the survivors
    // so the merge pass below is a linear replay instead of a second
    // enumeration of the cross product.
    unsigned CMin = ~0u;
    std::vector<uint32_t> Choice(Levels);

    auto RemainingBelow = [&](size_t Level) {
      double Prod = 1.0;
      for (size_t J = Level + 1; J < F.size(); ++J)
        Prod *= static_cast<double>(F[J].size());
      return Prod;
    };

    const bool Pruning = Opts.EnableGrammarPruning;
    auto Walk = [&](auto &&Self, size_t Level, auto &&Visit) -> void {
      if (TimedOut)
        return;
      if (B.expired()) {
        TimedOut = true;
        return;
      }
      if (Level == F.size()) {
        Visit();
        return;
      }
      const uint64_t *Forbid = Forbidden[Level].data();
      for (uint32_t I = 0; I < F[Level].size(); ++I) {
        if (Pruning && ((Forbid[I >> 6] >> (I & 63)) & 1)) {
          Result.Stats.PrunedByGrammar +=
              static_cast<uint64_t>(RemainingBelow(Level));
          continue;
        }
        Choice[Level] = I;
        if (Pruning && Level + 1 < Levels) {
          PushForbid(Level, I);
          Self(Self, Level + 1, Visit);
          PopForbid(Level);
        } else {
          Self(Self, Level + 1, Visit);
        }
        if (TimedOut)
          return;
      }
    };

    // Recording cap: an (ablation-sized) enumeration past this many
    // survivor entries falls back to re-walking the DFS for the merge
    // pass rather than holding the whole survivor list in memory.
    const size_t MaxRecorded = size_t(1) << 22;
    uint64_t Survivors = 0;
    bool Overflow = false;
    std::vector<uint32_t> Recorded;
    std::vector<unsigned> RecordedMin;
    const uint64_t PrunedBefore = Result.Stats.PrunedByGrammar;

    Walk(Walk, 0, [&] {
      ++Survivors;
      unsigned MinSize = 0;
      if (Opts.EnableSizePruning) {
        ComboSizeBounds BD = comboBounds(F, Choice);
        CMin = std::min(CMin, BD.MaxSize);
        MinSize = BD.MinSize;
      }
      if (Overflow)
        return;
      if (Recorded.size() + Choice.size() > MaxRecorded) {
        Overflow = true;
        Recorded.clear();
        Recorded.shrink_to_fit();
        RecordedMin.clear();
        RecordedMin.shrink_to_fit();
        return;
      }
      Recorded.insert(Recorded.end(), Choice.begin(), Choice.end());
      if (Opts.EnableSizePruning)
        RecordedMin.push_back(MinSize);
    });
    obs::queryCost().MergeSurvivors += Survivors;
    if (TimedOut || Survivors == 0)
      return;

    std::vector<const GrammarPath *> Combo(Group.size());
    if (!Overflow) {
      // Pass 2, replayed: merge the recorded survivors that size-based
      // pruning keeps. The replay visits exactly the sequence the second
      // walk would have (the tracker is deterministic), so the funnel
      // counter still accounts the grammar-pruned subtrees of both
      // passes.
      Result.Stats.PrunedByGrammar +=
          Result.Stats.PrunedByGrammar - PrunedBefore;
      for (uint64_t S = 0; S < Survivors; ++S) {
        if (TimedOut)
          return;
        if (B.expired()) {
          TimedOut = true;
          return;
        }
        if (Opts.EnableSizePruning && RecordedMin[S] > CMin) {
          ++Result.Stats.PrunedBySize;
          continue;
        }
        for (size_t L = 0; L < Group.size(); ++L)
          Combo[L] = F[L][Recorded[S * Group.size() + L]].P;
        ++Result.Stats.RemainingCombos;
        mergeCombination(Node, Occ, Group, Combo);
      }
      return;
    }

    // Pass 2, re-walked (recording overflowed): merge the survivors that
    // size-based pruning keeps.
    for (auto &Bits : Forbidden)
      std::fill(Bits.begin(), Bits.end(), 0);
    SaveBuf.clear();
    Walk(Walk, 0, [&] {
      if (Opts.EnableSizePruning &&
          comboBounds(F, Choice).MinSize > CMin) {
        ++Result.Stats.PrunedBySize;
        return;
      }
      for (size_t L = 0; L < Group.size(); ++L)
        Combo[L] = F[L][Choice[L]].P;
      ++Result.Stats.RemainingCombos;
      mergeCombination(Node, Occ, Group, Combo);
    });
  }

  /// Merges one surviving combination into a prefix tree, joins the child
  /// partial CGTs, and relaxes the N_PCGT and N_API nodes.
  void mergeCombination(unsigned Node, GgNodeId Occ,
                        const std::vector<const EdgePaths *> &Group,
                        const std::vector<const GrammarPath *> &Combo) {
    // Fault point: cancel the budget mid-merge so the expiry surfaces
    // through the ordinary Timeout path (no special unwinding).
    if (faultFires(faults::DggtMerge)) {
      B.cancel();
      TimedOut = true;
      return;
    }
    Cgt Full;
    CgtObjective Obj;
    size_t EdgeBound = 0;
    for (const GrammarPath *P : Combo)
      EdgeBound += P->Nodes.size();
    for (size_t I = 0; I < Combo.size(); ++I)
      EdgeBound += Dyn.node(Dyn.findApiNode(Group[I]->Edge.DepNode,
                                            Combo[I]->dependentEnd()))
                       .MinCgt.numEdges();
    Full.reserveEdges(EdgeBound);
    // Fusion work is the addEdge attempts (each pays a containsEdge scan
    // of the growing tree): every path node pair plus every child-CGT
    // edge merged below — EdgeBound is exactly that count's upper bound.
    obs::queryCost().CgtFusionOps += EdgeBound;
    for (const GrammarPath *P : Combo) {
      Full.addPath(*P);
      Obj.Score += P->DepScore;
      Obj.Len += static_cast<unsigned>(P->Nodes.size());
    }
    for (size_t I = 0; I < Combo.size(); ++I) {
      DynNodeId D =
          Dyn.findApiNode(Group[I]->Edge.DepNode, Combo[I]->dependentEnd());
      Full.merge(Dyn.node(D).MinCgt);
      Obj.Score += Dyn.node(D).Obj.Score;
      Obj.Len += Dyn.node(D).Obj.Len;
    }
    annotate(Full, Node, Occ);
    ++Result.Stats.PrefixTreesBuilt;

    // A fused combination can still be structurally invalid (a node
    // reached via two parents) or — with grammar pruning disabled —
    // or-conflicting; such merges are discarded here.
    std::optional<GgNodeId> Root = Full.rootIfTree();
    if (!Root || *Root != Occ || Full.hasOrConflict(GG) ||
        Full.literalConflict())
      return;

    Obj.Size = Full.apiCount(GG);
    DynNodeId PcgtId = Dyn.addPcgtNode(Node, Occ);
    for (size_t I = 0; I < Combo.size(); ++I) {
      DynNodeId D =
          Dyn.findApiNode(Group[I]->Edge.DepNode, Combo[I]->dependentEnd());
      Dyn.addPathEdge(D, PcgtId, Combo[I]->Id);
    }
    Dyn.relax(PcgtId, Obj, Full);

    DynNodeId ApiId = Dyn.getOrCreateApiNode(Node, Occ);
    Dyn.addAuxEdge(PcgtId, ApiId);
    Dyn.relax(ApiId, Obj, std::move(Full));
  }

  void processInternal(unsigned Node) {
    const std::vector<const EdgePaths *> &Group = ChildGroups.at(Node);
    for (GgNodeId Occ : occurrencesOf(Node)) {
      if (Group.size() == 1)
        singleChild(Node, Occ, *Group.front());
      else
        siblingGroup(Node, Occ, Group);
      if (TimedOut)
        return;
    }
  }

  /// Step 2 of Algorithm 1: connect the grammar start to the root word's
  /// best partial CGTs, splice in root-attached orphans, and emit.
  void finalize() {
    if (!PseudoRootEdge) {
      Result.St = SynthesisResult::Status::NoValidTree;
      return;
    }
    // The node standing for the grammar root in the dynamic graph.
    DynNodeId RootDyn = Dyn.getOrCreateApiNode(~0u, GG.startNode());
    for (const GrammarPath &P : PseudoRootEdge->Paths) {
      DynNodeId D = Dyn.findApiNode(PseudoRootEdge->Edge.DepNode,
                                    P.dependentEnd());
      if (D == ~0u || !Dyn.node(D).Reached)
        continue;
      const DynNode &DN = Dyn.node(D);
      CgtObjective Obj = DN.Obj;
      Obj.Size += P.ApiCount - 1;
      Obj.Score += P.DepScore;
      Obj.Len += static_cast<unsigned>(P.Nodes.size());
      Cgt Tree = DN.MinCgt;
      Tree.addPath(P);
      Dyn.addPathEdge(D, RootDyn, P.Id);
      Dyn.relax(RootDyn, Obj, std::move(Tree));
    }
    if (!Dyn.node(RootDyn).Reached) {
      Result.St = SynthesisResult::Status::NoValidTree;
      return;
    }

    Cgt Final = Dyn.node(RootDyn).MinCgt;
    CgtObjective FinalObj = Dyn.node(RootDyn).Obj;
    // HISyn-style fallback for orphans no plausible governor accepted:
    // attach their best subtree under the grammar root directly. An
    // attachment that would invalidate the tree is skipped (graceful
    // degradation; the baseline fails outright on these).
    for (unsigned Orphan : RootAttached) {
      std::optional<Cgt> BestAdd;
      CgtObjective BestObj{~0u, -1.0, ~0u};
      for (GgNodeId Occ : occurrencesOf(Orphan)) {
        DynNodeId D = Dyn.findApiNode(Orphan, Occ);
        if (D == ~0u || !Dyn.node(D).Reached)
          continue;
        PathSearchResult R = findPathsFromStart(GG, Occ, Q.Limits);
        for (const GrammarPath &P : R.Paths) {
          CgtObjective Obj = Dyn.node(D).Obj;
          Obj.Size += P.ApiCount - 1;
          Obj.Score += 1.0;
          Obj.Len += static_cast<unsigned>(P.Nodes.size());
          Cgt Add = Dyn.node(D).MinCgt;
          Add.addPath(P);
          Add.merge(Final);
          if (!Obj.betterThan(BestObj) || !Add.isValid(GG))
            continue;
          BestObj = Obj;
          Add = Dyn.node(D).MinCgt;
          Add.addPath(P);
          BestAdd = std::move(Add);
        }
      }
      if (BestAdd)
        Final.merge(*BestAdd);
    }

    if (!Final.isValid(GG)) {
      Result.St = SynthesisResult::Status::NoValidTree;
      return;
    }
    Result.St = SynthesisResult::Status::Success;
    Result.CgtSize = Final.apiCount(GG);
    Result.Objective = FinalObj;
    Result.Objective.Size = Result.CgtSize;
    {
      static obs::Histogram &H = obs::registry().histogram(
          "dggt_pipeline_stage_latency_ms", {{"stage", "tree-to-expression"}});
      obs::ScopedSpan Span("synth.tree_to_expression");
      obs::ScopedLatencyMs T(H);
      Result.Expression = renderExpression(GG, *Q.Doc, Final);
    }
  }
};

/// True when \p A and \p B have identical edge sets (so the original
/// EdgeToPath map can be reused for the un-relocated variant).
bool sameEdges(const DependencyGraph &A, const DependencyGraph &B) {
  if (A.size() != B.size() || A.edges().size() != B.edges().size())
    return false;
  for (size_t I = 0; I < A.edges().size(); ++I) {
    const DepEdge &EA = A.edges()[I], &EB = B.edges()[I];
    if (EA.Governor != EB.Governor || EA.Dependent != EB.Dependent)
      return false;
  }
  return true;
}

} // namespace

SynthesisResult
DggtSynthesizer::synthesizeVariant(const PreparedQuery &Query,
                                   const DependencyGraph &Variant,
                                   const EdgeToPathMap &Edges, Budget &B,
                                   DynamicGrammarGraph *Export) const {
  // Pipeline-owned graphs die with the query, so their N_API index lives
  // in the per-query arena. An exported graph outlives the query: it must
  // own its index storage (the arena would be reset underneath it).
  Arena *IndexArena = Export ? nullptr : &queryArena();
  VariantRun Run(Query, Variant, Edges, Opts, B, IndexArena);
  SynthesisResult R = Run.run();
  if (Export)
    *Export = Run.takeGraph();
  return R;
}

SynthesisResult DggtSynthesizer::synthesize(const PreparedQuery &Query,
                                            Budget &B) const {
  obs::ScopedSpan Span("synth.dggt");
  SynthesisResult R;
  {
    static obs::Histogram &H = obs::registry().histogram(
        "dggt_pipeline_stage_latency_ms", {{"stage", "merge-dggt"}});
    obs::ScopedLatencyMs T(H);
    R = run(Query, B);
  }
  if (Span.active()) {
    Span.attr("status", statusName(R.St));
    Span.attr("dyn_nodes", R.Stats.DynNodes);
    Span.attr("prefix_trees", R.Stats.PrefixTreesBuilt);
    Span.attr("variants", static_cast<uint64_t>(R.Stats.VariantsTried));
  }
  if (obs::metricsEnabled()) {
    // The merge-table funnel: how much work each of the three paper
    // optimizations removed, and what was actually materialized.
    static obs::Counter &Runs =
        obs::registry().counter("dggt_merge_runs_total");
    static obs::Counter &DynNodes =
        obs::registry().counter("dggt_merge_dyn_nodes_total");
    static obs::Counter &PrefixTrees =
        obs::registry().counter("dggt_merge_prefix_trees_total");
    static obs::Counter &Merged =
        obs::registry().counter("dggt_merge_combos_merged_total");
    static obs::Counter &PrunedGrammar = obs::registry().counter(
        "dggt_merge_combos_pruned_total", {{"by", "grammar"}});
    static obs::Counter &PrunedSize = obs::registry().counter(
        "dggt_merge_combos_pruned_total", {{"by", "size"}});
    static obs::Counter &PrunedReloc = obs::registry().counter(
        "dggt_merge_combos_pruned_total", {{"by", "relocation"}});
    Runs.inc();
    DynNodes.inc(R.Stats.DynNodes);
    PrefixTrees.inc(R.Stats.PrefixTreesBuilt);
    Merged.inc(R.Stats.RemainingCombos);
    PrunedGrammar.inc(R.Stats.PrunedByGrammar);
    PrunedSize.inc(R.Stats.PrunedBySize);
    // Relocation removes combinations before enumeration even starts;
    // the delta of the combination counts is its contribution.
    double Removed = R.Stats.OriginalCombos - R.Stats.CombosAfterReloc;
    if (Removed > 0)
      PrunedReloc.inc(static_cast<uint64_t>(Removed));
  }
  return R;
}

SynthesisResult DggtSynthesizer::run(const PreparedQuery &Query,
                                     Budget &B) const {
  SynthesisResult Result;
  if (!Query.allWordsMapped()) {
    Result.St = SynthesisResult::Status::NoCandidates;
    return Result;
  }
  assert(Query.GG && Query.Doc && "unprepared query");

  SynthesisStats Base;
  Base.DepEdges = static_cast<unsigned>(Query.Edges.Edges.size());
  Base.OriginalPaths = Query.Edges.totalPaths();
  Base.OriginalCombos = Query.Edges.totalCombinations();
  Base.Orphans = static_cast<unsigned>(effectiveOrphans(Query).size());

  std::vector<DependencyGraph> Variants;
  if (Opts.EnableOrphanRelocation) {
    RelocationResult Reloc = relocateOrphans(Query, Opts.Relocation);
    Variants = std::move(Reloc.Variants);
  } else {
    Variants.push_back(Query.Pruned);
  }

  std::optional<SynthesisResult> Best;
  for (const DependencyGraph &Variant : Variants) {
    EdgeToPathMap Rebuilt;
    const EdgeToPathMap *Edges = &Query.Edges;
    if (!sameEdges(Variant, Query.Pruned)) {
      Rebuilt = buildEdgeToPath(*Query.GG, *Query.Doc, Variant, Query.Words,
                                Query.Limits);
      Edges = &Rebuilt;
    }
    SynthesisResult R = synthesizeVariant(Query, Variant, *Edges, B);
    if (R.St == SynthesisResult::Status::Timeout) {
      Result.St = SynthesisResult::Status::Timeout;
      Result.Stats = Base;
      Result.Stats.VariantsTried =
          static_cast<unsigned>(Variants.size());
      return Result;
    }
    if (R.ok() && (!Best || R.Objective.betterThan(Best->Objective)))
      Best = std::move(R);
  }

  if (!Best && Opts.EnableOrphanRelocation && Base.Orphans > 0) {
    // Every relocated placement conflicted; fall back to the original
    // graph, where orphan subtrees hang off the grammar root and an
    // attachment that cannot merge is dropped gracefully.
    SynthesisResult R =
        synthesizeVariant(Query, Query.Pruned, Query.Edges, B);
    if (R.St == SynthesisResult::Status::Timeout) {
      Result.St = R.St;
      Result.Stats = Base;
      return Result;
    }
    if (R.ok())
      Best = std::move(R);
  }

  if (!Best) {
    Result.St = SynthesisResult::Status::NoValidTree;
    Result.Stats = Base;
    Result.Stats.VariantsTried = static_cast<unsigned>(Variants.size());
    return Result;
  }
  Result = std::move(*Best);
  // Keep the chosen variant's funnel counters; restore the pre-relocation
  // figures from the original map (Table III's left columns).
  Result.Stats.OriginalPaths = Base.OriginalPaths;
  Result.Stats.OriginalCombos = Base.OriginalCombos;
  Result.Stats.Orphans = Base.Orphans;
  Result.Stats.VariantsTried = static_cast<unsigned>(Variants.size());
  return Result;
}
