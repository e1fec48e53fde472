//===- tests/grammar_test.cpp - grammar/ unit tests -----------------------===//

#include "grammar/BnfParser.h"
#include "grammar/GrammarGraph.h"
#include "grammar/PathSearch.h"

#include "TestFixtures.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace dggt;
using namespace dggt::test;

TEST(Grammar, ProductionsAndSymbols) {
  Grammar G;
  G.addProduction("s", {{"a"}, {"API"}});
  G.addProduction("a", {{"INNER"}});
  EXPECT_EQ(G.startSymbol(), "s");
  EXPECT_TRUE(G.isNonTerminal("a"));
  EXPECT_FALSE(G.isNonTerminal("API"));
  EXPECT_TRUE(G.isApiTerminal("API"));
  EXPECT_FALSE(G.isApiTerminal("a"));
  EXPECT_EQ(G.apiTerminals(), (std::vector<std::string>{"API", "INNER"}));
  EXPECT_EQ(G.validate(), "");
}

TEST(Grammar, AppendingAlternatives) {
  Grammar G;
  G.addProduction("s", {{"A"}});
  G.addProduction("s", {{"B"}});
  ASSERT_EQ(G.productions().size(), 1u);
  EXPECT_EQ(G.productions()[0].Alternatives.size(), 2u);
}

TEST(Grammar, ValidationCatchesUnknownSymbols) {
  Grammar G;
  G.addProduction("s", {{"missing_nt"}});
  EXPECT_NE(G.validate(), "");
}

TEST(BnfParser, ParsesRulesAndContinuations) {
  BnfParseResult R = parseBnf(R"bnf(
# comment
s    ::= a | B
a    ::= C D
       | E
)bnf");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.G.startSymbol(), "s");
  const Production *P = R.G.productionFor("a");
  ASSERT_NE(P, nullptr);
  ASSERT_EQ(P->Alternatives.size(), 2u);
  EXPECT_EQ(P->Alternatives[0], (std::vector<std::string>{"C", "D"}));
  EXPECT_EQ(P->Alternatives[1], (std::vector<std::string>{"E"}));
}

TEST(BnfParser, ReportsMissingSeparator) {
  BnfParseResult R = parseBnf("s = A");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("::="), std::string::npos);
}

TEST(BnfParser, ReportsBadSymbol) {
  // Lowercase non-terminal without a production is an error.
  BnfParseResult R = parseBnf("s ::= undefined_nt");
  EXPECT_FALSE(R.ok());
}

TEST(GrammarGraph, NodeAndEdgeKinds) {
  PaperFragment F;
  const GrammarGraph &GG = *F.GG;

  // One occurrence node per API occurrence in the grammar text.
  EXPECT_EQ(GG.apiOccurrences("INSERT").size(), 1u);
  EXPECT_EQ(GG.apiOccurrences("START").size(), 1u);
  EXPECT_TRUE(GG.apiOccurrences("NOSUCH").empty());

  // The start node is the NT of the first production.
  EXPECT_EQ(GG.node(GG.startNode()).Kind, GgNodeKind::NonTerminal);
  EXPECT_EQ(GG.node(GG.startNode()).Name, "cmd");

  // NT -> derivation edges are "or" edges; derivation -> symbol edges are
  // concatenation edges.
  for (const GgEdge &E : GG.outEdges(GG.startNode()))
    EXPECT_TRUE(E.IsOr);
}

TEST(GrammarGraph, ApiHeadedAlternativeOwnsArguments) {
  // insert ::= INSERT insert_arg: the INSERT node must be the parent of
  // insert_arg (call-structure convention).
  PaperFragment F;
  const GrammarGraph &GG = *F.GG;
  GgNodeId Insert = F.GG->apiOccurrences("INSERT").front();
  ASSERT_EQ(GG.outEdges(Insert).size(), 1u);
  EXPECT_EQ(GG.node(GG.outEdges(Insert).front().To).Name, "insert_arg");
}

TEST(GrammarGraph, Reachability) {
  // Reachability is path existence: walking back up from a descendant
  // finds a path to its ancestor.
  PaperFragment F;
  const GrammarGraph &GG = *F.GG;
  GgNodeId Insert = GG.apiOccurrences("INSERT").front();
  GgNodeId All = GG.apiOccurrences("ALL").front();
  GgNodeId Lit = GG.apiOccurrences("LIT").front();
  auto Reaches = [&](GgNodeId Ancestor, GgNodeId Descendant) {
    return !findPathsBetween(GG, Descendant, {Ancestor}).Paths.empty();
  };
  EXPECT_TRUE(Reaches(Insert, All));
  EXPECT_TRUE(Reaches(Insert, Lit));
  EXPECT_FALSE(Reaches(All, Insert));
  // A node is no target of its own search (paths are non-trivial).
  EXPECT_FALSE(Reaches(Insert, Insert));
  EXPECT_FALSE(findPathsFromStart(GG, All).Paths.empty());
}

TEST(PathSearch, FindsPathsBetweenApis) {
  // Edge insert -> start with candidates {START, STARTFROM}: two paths
  // (START under pos; STARTFROM under pos_arg), mirroring paths 3.1/3.2
  // of the paper's Figure 4.
  PaperFragment F;
  const GrammarGraph &GG = *F.GG;
  GgNodeId Insert = GG.apiOccurrences("INSERT").front();

  PathSearchResult ToStart =
      findPathsBetween(GG, GG.apiOccurrences("START").front(), {Insert});
  ASSERT_EQ(ToStart.Paths.size(), 1u);
  EXPECT_EQ(ToStart.Paths[0].governorEnd(), Insert);
  EXPECT_EQ(ToStart.Paths[0].ApiCount, 2u); // INSERT and START.

  PathSearchResult ToStartFrom =
      findPathsBetween(GG, GG.apiOccurrences("STARTFROM").front(), {Insert});
  ASSERT_EQ(ToStartFrom.Paths.size(), 1u);
  // STARTFROM sits under POSITION: three APIs on the path.
  EXPECT_EQ(ToStartFrom.Paths[0].ApiCount, 3u);
}

TEST(PathSearch, StopsAtFirstTarget) {
  // Searching from LIT with targets {INSERT, STRING} must stop at STRING
  // and not also record the longer path through to INSERT.
  PaperFragment F;
  const GrammarGraph &GG = *F.GG;
  std::vector<GgNodeId> Targets = {GG.apiOccurrences("INSERT").front(),
                                   GG.apiOccurrences("STRING").front()};
  PathSearchResult R =
      findPathsBetween(GG, GG.apiOccurrences("LIT").front(), Targets);
  ASSERT_EQ(R.Paths.size(), 1u);
  EXPECT_EQ(R.Paths[0].governorEnd(), GG.apiOccurrences("STRING").front());
}

TEST(PathSearch, FromStart) {
  PaperFragment F;
  const GrammarGraph &GG = *F.GG;
  PathSearchResult R =
      findPathsFromStart(GG, GG.apiOccurrences("INSERT").front());
  ASSERT_EQ(R.Paths.size(), 1u);
  EXPECT_EQ(R.Paths[0].governorEnd(), GG.startNode());
  EXPECT_EQ(R.Paths[0].ApiCount, 1u); // Only INSERT is an API on it.
}

TEST(PathSearch, RespectsLengthLimit) {
  PaperFragment F;
  const GrammarGraph &GG = *F.GG;
  PathSearchLimits Limits;
  Limits.MaxPathNodes = 2; // Too short for any real path here.
  PathSearchResult R = findPathsBetween(
      GG, GG.apiOccurrences("ALL").front(),
      {GG.apiOccurrences("INSERT").front()}, Limits);
  EXPECT_TRUE(R.Paths.empty());
}

TEST(PathSearch, RespectsMaxPaths) {
  PaperFragment F;
  const GrammarGraph &GG = *F.GG;
  PathSearchLimits Limits;
  Limits.MaxPaths = 0;
  PathSearchResult R = findPathsBetween(
      GG, GG.apiOccurrences("ALL").front(),
      {GG.apiOccurrences("INSERT").front()}, Limits);
  EXPECT_TRUE(R.Paths.empty());
  EXPECT_TRUE(R.Truncated);
}

TEST(GrammarPath, RenderAndCount) {
  PaperFragment F;
  const GrammarGraph &GG = *F.GG;
  PathSearchResult R = findPathsBetween(
      GG, GG.apiOccurrences("START").front(),
      {GG.apiOccurrences("INSERT").front()});
  ASSERT_FALSE(R.Paths.empty());
  std::string Text = renderPath(GG, R.Paths[0]);
  EXPECT_NE(Text.find("INSERT"), std::string::npos);
  EXPECT_NE(Text.find("START"), std::string::npos);
  EXPECT_EQ(countApisOnPath(GG, R.Paths[0].Nodes), R.Paths[0].ApiCount);
}
