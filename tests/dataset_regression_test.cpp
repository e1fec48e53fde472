//===- tests/dataset_regression_test.cpp - Golden dataset outputs ---------===//
//
// Golden regression tests over representative dataset queries: each case
// pins the exact codelet DGGT must synthesize. Parameterized per domain
// so the suite reports each query separately. These guard the tuned
// behaviour of the whole pipeline (parser rules, matcher scoring,
// objective tie-breaks) against regressions.
//
//===----------------------------------------------------------------------===//

#include "domains/Domain.h"
#include "eval/Harness.h"
#include "synth/dggt/DggtSynthesizer.h"

#include <gtest/gtest.h>

using namespace dggt;

namespace {

struct Golden {
  const char *Query;
  const char *Expression;
};

// Names each case by its query. Without this gtest prints the two
// pointers, and the test names CTest derives from them change with every
// build and every load address.
void PrintTo(const Golden &G, std::ostream *OS) { *OS << G.Query; }

const Domain &textEditing() {
  static std::unique_ptr<Domain> D = makeTextEditingDomain();
  return *D;
}

const Domain &astMatcher() {
  static std::unique_ptr<Domain> D = makeAstMatcherDomain();
  return *D;
}

class TextEditingGolden : public testing::TestWithParam<Golden> {};
class AstMatcherGolden : public testing::TestWithParam<Golden> {};

void check(const Domain &D, const Golden &G) {
  EvalHarness H(D, 10000);
  DggtSynthesizer S;
  CaseOutcome O = H.runCase(S, {G.Query, G.Expression});
  ASSERT_TRUE(O.Result.ok()) << statusName(O.Result.St);
  EXPECT_EQ(O.Result.Expression, G.Expression);
}

} // namespace

TEST_P(TextEditingGolden, SynthesizesExactly) {
  check(textEditing(), GetParam());
}

TEST_P(AstMatcherGolden, SynthesizesExactly) { check(astMatcher(), GetParam()); }

INSTANTIATE_TEST_SUITE_P(
    Queries, TextEditingGolden,
    testing::Values(
        Golden{"insert ';' at the end of each line",
               "INSERT(STRING(;), END(), IterationScope(LINESCOPE(), "
               "BConditionOccurrence(ALL())))"},
        Golden{"append ':' in every line containing numerals",
               "INSERT(STRING(:), IterationScope(LINESCOPE(), "
               "BConditionOccurrence(CONTAINS(NUMBERTOKEN()), ALL())))"},
        Golden{"insert ',' after 14 characters in each sentence",
               "INSERT(STRING(,), AFTER(CHARNUMBER(14)), "
               "IterationScope(SENTENCESCOPE(), BConditionOccurrence(ALL())))"},
        Golden{"insert '.' before 3 words in every sentence",
               "INSERT(STRING(.), BEFORE(WORDNUMBER(3)), "
               "IterationScope(SENTENCESCOPE(), BConditionOccurrence(ALL())))"},
        Golden{"delete all numbers in each line",
               "DELETE(NUMBERTOKEN(), IterationScope(LINESCOPE(), "
               "BConditionOccurrence(ALL())))"},
        Golden{"erase all spaces in each line starting with '-'",
               "DELETE(SPACETOKEN(), IterationScope(LINESCOPE(), "
               "BConditionOccurrence(STARTSWITH(-), ALL())))"},
        Golden{"replace 'foo' with 'bar' in each line",
               "REPLACE(STRING(foo), STRING(bar), "
               "IterationScope(LINESCOPE(), BConditionOccurrence(ALL())))"},
        Golden{"copy the first word in each line",
               "COPY(WORDTOKEN(), IterationScope(LINESCOPE(), "
               "BConditionOccurrence(FIRST())))"},
        Golden{"convert all words to uppercase in each line",
               "CONVERTCASE(WORDTOKEN(), TOUPPER(), "
               "IterationScope(LINESCOPE(), BConditionOccurrence(ALL())))"},
        Golden{"sort all lines in ascending order",
               "SORTLINES(LINESCOPE(), ASCENDING())"},
        Golden{"merge the lines with ';'", "MERGELINES(LINESCOPE(), STRING(;))"},
        Golden{"split all lines at ','",
               "SPLITLINES(LINETOKEN(), STRING(,))"},
        Golden{"if a sentence starts with '-', add ':' after 14 characters",
               "INSERT(STRING(:), AFTER(CHARNUMBER(14)), "
               "IterationScope(SENTENCESCOPE(), "
               "BConditionOccurrence(STARTSWITH(-))))"},
        Golden{"count all words in each sentence",
               "COUNT(WORDTOKEN(), IterationScope(SENTENCESCOPE(), "
               "BConditionOccurrence(ALL())))"},
        Golden{"insert '|' at position 10 in each line",
               "INSERT(STRING(|), POSITION(CHARNUMBER(10)), "
               "IterationScope(LINESCOPE(), BConditionOccurrence(ALL())))"}));

INSTANTIATE_TEST_SUITE_P(
    Queries, AstMatcherGolden,
    testing::Values(
        Golden{"find all call expressions", "callExpr()"},
        Golden{"find functions named 'main'",
               "functionDecl(hasName(\"main\"))"},
        Golden{"find virtual cxx methods", "cxxMethodDecl(isVirtual())"},
        Golden{"find functions with 2 parameters",
               "functionDecl(parameterCountIs(2))"},
        Golden{"search for call expressions whose argument is a float "
               "literal",
               "callExpr(hasArgument(floatLiteral()))"},
        Golden{"find cxx constructor expressions which declare a cxx "
               "method named 'PI'",
               "cxxConstructExpr(hasDeclaration(cxxMethodDecl(hasName(\"PI\""
               "))))"},
        Golden{"list all binary operators named '*'",
               "binaryOperator(hasOperatorName(\"*\"))"},
        Golden{"find calls calling a function named 'malloc'",
               "callExpr(callee(functionDecl(hasName(\"malloc\"))))"},
        Golden{"find classes derived from a class named 'Base'",
               "cxxRecordDecl(isDerivedFrom(cxxRecordDecl(hasName(\"Base\"))"
               "))"},
        Golden{"find for loops whose condition is a binary operator",
               "forStmt(hasCondition(binaryOperator()))"},
        Golden{"find functions returning pointer types",
               "functionDecl(returns(pointerType()))"},
        Golden{"find deleted functions", "functionDecl(isDeleted())"},
        Golden{"list integer literals equal to 42",
               "integerLiteral(equalsIntegralValue(42))"},
        Golden{"find pointer types whose pointee is a record type",
               "pointerType(pointee(recordType()))"},
        Golden{"find try statements with a catch all handler",
               "cxxTryStmt(isCatchAllHandler())"}));
