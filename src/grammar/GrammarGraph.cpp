//===- grammar/GrammarGraph.cpp - Graph form of a CFG ---------------------===//

#include "grammar/GrammarGraph.h"

#include <cassert>

using namespace dggt;

GgNodeId GrammarGraph::addNode(GgNodeKind Kind, std::string Name) {
  assert(!CsrFrozen && "graph is epoch-frozen");
  Nodes.push_back({Kind, std::move(Name)});
  Out.emplace_back();
  In.emplace_back();
  return static_cast<GgNodeId>(Nodes.size() - 1);
}

void GrammarGraph::addEdge(GgNodeId From, GgNodeId To, bool IsOr) {
  assert(From < Nodes.size() && To < Nodes.size() && "edge out of range");
  assert(!CsrFrozen && "graph is epoch-frozen");
  GgEdge E{From, To, IsOr};
  Out[From].push_back(E);
  In[To].push_back(E);
}

GgNodeId GrammarGraph::symbolNode(const std::string &Sym) {
  if (G.isNonTerminal(Sym)) {
    auto It = NtNode.find(Sym);
    assert(It != NtNode.end() && "NT nodes are pre-created");
    return It->second;
  }
  assert(G.isApiTerminal(Sym) && "symbol is neither NT nor API");
  GgNodeId Id = addNode(GgNodeKind::Api, Sym);
  ApiNodes[Sym].push_back(Id);
  ++ApiOccurrenceCount;
  return Id;
}

GrammarGraph::GrammarGraph(const Grammar &G) : G(G) {
  assert(G.validate().empty() && "grammar must validate");

  // Pass 1: one node per non-terminal.
  for (const Production &P : G.productions())
    NtNode.emplace(P.Lhs, addNode(GgNodeKind::NonTerminal, P.Lhs));
  StartNode = NtNode.at(G.startSymbol());

  // Pass 2: derivation nodes, API occurrence nodes and edges.
  for (const Production &P : G.productions()) {
    GgNodeId Nt = NtNode.at(P.Lhs);
    for (size_t AltIdx = 0; AltIdx < P.Alternatives.size(); ++AltIdx) {
      const std::vector<std::string> &Alt = P.Alternatives[AltIdx];
      GgNodeId Deriv = addNode(GgNodeKind::Derivation,
                               P.Lhs + "#" + std::to_string(AltIdx));
      addEdge(Nt, Deriv, /*IsOr=*/true);

      // Call-structure convention: a leading API terminal owns the rest
      // of the alternative as its arguments.
      size_t First = 0;
      GgNodeId ArgParent = Deriv;
      if (G.isApiTerminal(Alt[0])) {
        GgNodeId Head = symbolNode(Alt[0]);
        addEdge(Deriv, Head, /*IsOr=*/false);
        ArgParent = Head;
        First = 1;
      }
      for (size_t I = First; I < Alt.size(); ++I)
        addEdge(ArgParent, symbolNode(Alt[I]), /*IsOr=*/false);
    }
  }

  freezeCsr();
}

void GrammarGraph::freezeCsr() {
  assert(!CsrFrozen && "the CSR must freeze exactly once per epoch");

  // CSR copies of both adjacency directions: one contiguous id array per
  // direction, offsets per node. Declaration order is preserved, so CSR
  // traversals visit neighbors in exactly the inEdges()/outEdges() order.
  const size_t N = Nodes.size();
  InHead.assign(N + 1, 0);
  OutHead.assign(N + 1, 0);
  size_t InTotal = 0, OutTotal = 0;
  for (size_t I = 0; I < N; ++I) {
    InHead[I] = static_cast<uint32_t>(InTotal);
    OutHead[I] = static_cast<uint32_t>(OutTotal);
    InTotal += In[I].size();
    OutTotal += Out[I].size();
  }
  InHead[N] = static_cast<uint32_t>(InTotal);
  OutHead[N] = static_cast<uint32_t>(OutTotal);
  InList.reserve(InTotal);
  OutList.reserve(OutTotal);
  for (size_t I = 0; I < N; ++I) {
    for (const GgEdge &E : In[I])
      InList.push_back(E.From);
    for (const GgEdge &E : Out[I])
      OutList.push_back(E.To);
  }

  ApiBits.assign(N / 64 + 1, 0);
  for (size_t I = 0; I < N; ++I)
    if (Nodes[I].Kind == GgNodeKind::Api)
      ApiBits[I >> 6] |= uint64_t(1) << (I & 63);
  CsrFrozen = true;
}

const std::vector<GgNodeId> &
GrammarGraph::apiOccurrences(std::string_view Name) const {
  static const std::vector<GgNodeId> Empty;
  auto It = ApiNodes.find(std::string(Name));
  return It == ApiNodes.end() ? Empty : It->second;
}

GgNodeId GrammarGraph::derivationOwner(GgNodeId Derivation) const {
  assert(Nodes[Derivation].Kind == GgNodeKind::Derivation &&
         "not a derivation node");
  assert(In[Derivation].size() == 1 && "derivation must have one owner");
  return In[Derivation].front().From;
}

std::string GrammarGraph::dump() const {
  std::string Dump;
  for (GgNodeId Id = 0; Id < Nodes.size(); ++Id) {
    const GgNode &N = Nodes[Id];
    const char *Kind = N.Kind == GgNodeKind::NonTerminal ? "nt"
                       : N.Kind == GgNodeKind::Derivation ? "deriv"
                                                          : "api";
    Dump += "[" + std::to_string(Id) + "] " + Kind + " " + N.Name + "\n";
    for (const GgEdge &E : Out[Id])
      Dump += "  -" + std::string(E.IsOr ? "or" : "cat") + "-> [" +
              std::to_string(E.To) + "] " + Nodes[E.To].Name + "\n";
  }
  return Dump;
}
