//===- tests/entry_point_test.cpp - One answer from every entry point -----===//
//
// Zero-load agreement across the four ways into the translator: the
// direct pipeline (SynthesisFrontEnd::prepare + DggtSynthesizer),
// SynthesisService::query, AsyncSynthesisService::submit and loopback
// POST /v1/synthesize. For every dataset query of both paper domains,
// and for a TextEditing near-miss that DGGT rejects but the service's
// HISyn rung could answer, all four must report the same status and the
// same expression. Zero tolerance: one disagreement fails the suite.
//
//===----------------------------------------------------------------------===//

#include "domains/Domain.h"
#include "obs/Export.h"
#include "obs/HttpEndpoint.h"
#include "service/AsyncSynthesisService.h"
#include "synth/dggt/DggtSynthesizer.h"

#include "LoopbackHttp.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

using namespace dggt;

namespace {

/// Far above any query's run time, even under sanitizers: a timeout
/// makes the service ladder degrade (and three in a row open its
/// breaker), which depends on host speed, not on the query. Zero load
/// means no entry point ever runs out of time.
constexpr uint64_t BudgetMs = 60000;

/// What an entry point answered, in the service's vocabulary.
struct Answer {
  std::string Status; ///< serviceStatusName() spelling.
  std::string Expression;

  bool operator==(const Answer &O) const {
    return Status == O.Status && Expression == O.Expression;
  }
};

std::string describe(const Answer &A) {
  return A.Status + (A.Expression.empty() ? "" : " " + A.Expression);
}

/// The direct pipeline, mapped to the status the service ladder reports
/// for the same synthesizer outcome (the service checks word coverage
/// before running any rung; a completed search without a valid tree is
/// its no-answer).
Answer direct(const Domain &D, const std::string &Query) {
  PreparedQuery P = D.frontEnd().prepare(Query);
  if (!P.allWordsMapped())
    return {std::string(serviceStatusName(ServiceStatus::NoCandidates)), ""};
  Budget B(BudgetMs);
  SynthesisResult R = DggtSynthesizer().synthesize(P, B);
  switch (R.St) {
  case SynthesisResult::Status::Success:
    return {std::string(serviceStatusName(ServiceStatus::Ok)), R.Expression};
  case SynthesisResult::Status::NoCandidates:
    return {std::string(serviceStatusName(ServiceStatus::NoCandidates)), ""};
  case SynthesisResult::Status::NoValidTree:
    return {std::string(serviceStatusName(ServiceStatus::NoAnswer)), ""};
  case SynthesisResult::Status::Timeout:
    return {std::string(serviceStatusName(ServiceStatus::DeadlineExceeded)),
            ""};
  }
  return {"?", ""};
}

Answer fromReport(const ServiceReport &Rep) {
  return {std::string(serviceStatusName(Rep.St)),
          Rep.ok() ? Rep.Result.Expression : ""};
}

/// The decoded value of the JSON string field \p Key in \p Json, or
/// nullopt when absent. Handles the escapes obs::escapeJson emits for
/// codelets and status names (quotes and backslashes).
std::optional<std::string> jsonString(const std::string &Json,
                                      const std::string &Key) {
  std::string Needle = "\"" + Key + "\":\"";
  size_t At = Json.find(Needle);
  if (At == std::string::npos)
    return std::nullopt;
  std::string Out;
  for (size_t I = At + Needle.size(); I < Json.size(); ++I) {
    if (Json[I] == '"')
      return Out;
    if (Json[I] == '\\' && ++I == Json.size())
      break;
    Out += Json[I];
  }
  return std::nullopt;
}

Answer overHttp(uint16_t Port, const std::string &Domain,
                const std::string &Query) {
  test::Response Rep =
      test::post(Port, "{\"domain\":\"" + obs::escapeJson(Domain) +
                           "\",\"query\":\"" + obs::escapeJson(Query) +
                           "\"}");
  std::optional<std::string> Status = jsonString(Rep.Body, "status");
  if (Rep.Code == 0 || !Status)
    return {"bad-reply", std::to_string(Rep.Code) + " " + Rep.Body};
  return {*Status, jsonString(Rep.Body, "codelet").value_or("")};
}

class EntryPointAgreement : public testing::Test {
protected:
  static void SetUpTestSuite() {
    TextEditing = makeTextEditingDomain().release();
    AstMatcher = makeAstMatcherDomain().release();
    AsyncOptions Opts;
    Opts.Workers = 1;
    Opts.Service.TotalBudgetMs = BudgetMs;
    Opts.Service.HttpPort = 0; // Own an ephemeral loopback endpoint.
    Service = new AsyncSynthesisService(Opts);
    Service->addDomain(*TextEditing);
    Service->addDomain(*AstMatcher);
  }

  static void TearDownTestSuite() {
    delete Service;
    delete AstMatcher;
    delete TextEditing;
  }

  struct Tally {
    size_t Mismatches = 0; ///< Queries some entry point answered differently.
    size_t Answered = 0;   ///< Queries all four answered with a codelet.
  };

  /// Asks all four entry points, one after another (zero load).
  static Tally agree(const Domain &D, const std::vector<std::string> &Queries) {
    Tally T;
    obs::HttpEndpoint *Ep = Service->service().endpoint();
    EXPECT_NE(Ep, nullptr);
    if (!Ep) {
      T.Mismatches = Queries.size();
      return T;
    }
    for (const std::string &Q : Queries) {
      Answer Direct = direct(D, Q);
      Answer Svc = fromReport(
          Service->service().query(D.name(), Q, Budget(BudgetMs)));
      Answer Async = fromReport(Service->submit(D.name(), Q).get());
      Answer Http = overHttp(Ep->port(), D.name(), Q);
      if (Direct == Svc && Direct == Async && Direct == Http) {
        T.Answered += Direct.Status == serviceStatusName(ServiceStatus::Ok);
        continue;
      }
      ++T.Mismatches;
      ADD_FAILURE() << D.name() << " \"" << Q << "\": direct "
                    << describe(Direct) << " | service " << describe(Svc)
                    << " | async " << describe(Async) << " | http "
                    << describe(Http);
    }
    return T;
  }

  static std::vector<std::string> datasetQueries(const Domain &D) {
    std::vector<std::string> Out;
    for (const QueryCase &C : D.queries())
      Out.push_back(C.Query);
    return Out;
  }

  static Domain *TextEditing;
  static Domain *AstMatcher;
  static AsyncSynthesisService *Service;
};

Domain *EntryPointAgreement::TextEditing = nullptr;
Domain *EntryPointAgreement::AstMatcher = nullptr;
AsyncSynthesisService *EntryPointAgreement::Service = nullptr;

} // namespace

TEST_F(EntryPointAgreement, TextEditingDatasetAnswersTheSameEverywhere) {
  std::vector<std::string> Queries = datasetQueries(*TextEditing);
  ASSERT_EQ(Queries.size(), 200u);
  Tally T = agree(*TextEditing, Queries);
  EXPECT_EQ(T.Mismatches, 0u);
  // Agreement on failures alone would prove nothing.
  EXPECT_GE(T.Answered, Queries.size() * 9 / 10);
}

TEST_F(EntryPointAgreement, AstMatcherDatasetAnswersTheSameEverywhere) {
  std::vector<std::string> Queries = datasetQueries(*AstMatcher);
  ASSERT_EQ(Queries.size(), 100u);
  Tally T = agree(*AstMatcher, Queries);
  EXPECT_EQ(T.Mismatches, 0u);
  EXPECT_GE(T.Answered, Queries.size() * 9 / 10);
}

TEST_F(EntryPointAgreement, NearMissIsRejectedTheSameEverywhere) {
  // DGGT finds no valid tree for this mutant but the HISyn rung can
  // answer it, so a service that degraded past a completed DGGT search
  // would disagree with the direct pipeline here.
  const std::string NearMiss =
      "copy all lines in every snarfled equal to 'begin'";
  Tally T = agree(*TextEditing, {NearMiss});
  EXPECT_EQ(T.Mismatches, 0u);
  EXPECT_EQ(T.Answered, 0u);
}
