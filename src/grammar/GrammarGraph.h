//===- grammar/GrammarGraph.h - Graph form of a CFG --------------*- C++ -*-===//
///
/// \file
/// The *grammar graph* of Section IV-A: a directed graph with three node
/// kinds — non-terminal nodes, derivation nodes (one per production
/// alternative) and API nodes — and two edge kinds: concatenation edges
/// and "or" edges (alternatives of one non-terminal, which are mutually
/// exclusive in any grammar-valid code generation tree).
///
/// Construction expands the call-structure convention of Grammar.h: for
/// an alternative `API sym1 sym2`, the derivation node points to the API
/// node, and the API node points to sym1 and sym2 (its arguments). API
/// nodes are created per *occurrence* so that the same API used in two
/// rules yields two nodes, as in the paper's Figure 4.
///
/// The grammar is immutable per epoch, so the graph is *frozen* at the
/// end of construction into cache-friendly read-only form (DESIGN.md
/// §15): a CSR (struct-of-arrays) copy of the adjacency for the hot
/// traversals, plus one bit per node for the API-kind test. The graph
/// keeps no reachability relation; each path search bounds itself with
/// its own BFS from its targets (PathSearch.h).
///
//===----------------------------------------------------------------------===//

#ifndef DGGT_GRAMMAR_GRAMMARGRAPH_H
#define DGGT_GRAMMAR_GRAMMARGRAPH_H

#include "grammar/Grammar.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace dggt {

/// Node id inside a GrammarGraph.
using GgNodeId = uint32_t;

/// Kind of a grammar graph node.
enum class GgNodeKind : uint8_t {
  NonTerminal, ///< A non-terminal symbol.
  Derivation,  ///< The entire RHS of one production alternative.
  Api,         ///< An occurrence of an API terminal.
};

/// One grammar graph node.
struct GgNode {
  GgNodeKind Kind;
  /// Symbol name: the non-terminal, the API name, or a synthesized
  /// "lhs#k" label for derivation nodes.
  std::string Name;
};

/// One grammar graph edge.
struct GgEdge {
  GgNodeId From;
  GgNodeId To;
  /// True for NT -> derivation edges ("or" edges); false for
  /// concatenation edges.
  bool IsOr;
};

/// Directed graph over a CFG with occurrence-level API nodes.
class GrammarGraph {
public:
  /// Builds the graph for \p G. \p G must validate (asserted).
  explicit GrammarGraph(const Grammar &G);

  const Grammar &grammar() const { return G; }

  size_t numNodes() const { return Nodes.size(); }
  const GgNode &node(GgNodeId Id) const { return Nodes[Id]; }

  /// Node of the start non-terminal.
  GgNodeId startNode() const { return StartNode; }

  /// All occurrence nodes of API \p Name (empty if unknown).
  const std::vector<GgNodeId> &apiOccurrences(std::string_view Name) const;

  /// Out-edges / in-edges of \p Id, in grammar declaration order.
  const std::vector<GgEdge> &outEdges(GgNodeId Id) const {
    return Out[Id];
  }
  const std::vector<GgEdge> &inEdges(GgNodeId Id) const { return In[Id]; }

  /// \name Frozen CSR adjacency (hot-path form)
  /// Neighbor ids only, contiguous per node, same declaration order as
  /// inEdges()/outEdges(). Predecessors of \p Id are
  /// csrInNeighbors()[csrInHead()[Id] .. csrInHead()[Id+1]).
  /// @{
  const uint32_t *csrInHead() const { return InHead.data(); }
  const GgNodeId *csrInNeighbors() const { return InList.data(); }
  const uint32_t *csrOutHead() const { return OutHead.data(); }
  const GgNodeId *csrOutNeighbors() const { return OutList.data(); }
  /// @}

  /// The non-terminal node owning a derivation node (its unique parent).
  GgNodeId derivationOwner(GgNodeId Derivation) const;

  /// Frozen kind test: true if \p Id is an API occurrence node. One bit
  /// load — lets the path walk keep a running API count without touching
  /// the (string-carrying) node records.
  bool isApiNode(GgNodeId Id) const {
    return (ApiBits[Id >> 6] >> (Id & 63)) & 1;
  }

  /// True once freezeCsr() ran (always, after construction).
  bool csrFrozen() const { return CsrFrozen; }

  /// Number of API-kind nodes in the graph (occurrences, not names).
  size_t numApiOccurrences() const { return ApiOccurrenceCount; }

  /// Graphviz-style dump for debugging.
  std::string dump() const;

private:
  GgNodeId addNode(GgNodeKind Kind, std::string Name);
  void addEdge(GgNodeId From, GgNodeId To, bool IsOr);

  /// Returns the node for symbol \p Sym inside the rule expansion:
  /// non-terminals resolve to their unique NT node; API terminals get a
  /// fresh occurrence node.
  GgNodeId symbolNode(const std::string &Sym);

  /// Freezes the CSR adjacency and the API-kind bits. Called exactly
  /// once, at the end of construction (debug-asserted: the epoch-frozen
  /// contract every lock-free reader relies on).
  void freezeCsr();

  const Grammar &G;
  std::vector<GgNode> Nodes;
  std::vector<std::vector<GgEdge>> Out;
  std::vector<std::vector<GgEdge>> In;
  std::unordered_map<std::string, GgNodeId> NtNode;
  std::unordered_map<std::string, std::vector<GgNodeId>> ApiNodes;
  GgNodeId StartNode = 0;
  size_t ApiOccurrenceCount = 0;

  /// CSR adjacency, frozen at construction.
  std::vector<uint32_t> InHead, OutHead; ///< numNodes()+1 offsets each.
  std::vector<GgNodeId> InList, OutList; ///< Flat neighbor ids.
  std::vector<uint64_t> ApiBits;         ///< Bit per node: API kind.
  bool CsrFrozen = false;
};

} // namespace dggt

#endif // DGGT_GRAMMAR_GRAMMARGRAPH_H
