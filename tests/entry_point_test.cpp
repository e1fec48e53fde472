//===- tests/entry_point_test.cpp - One answer from every entry point -----===//
//
// Zero-load agreement across the four ways into the translator: the
// direct pipeline (SynthesisFrontEnd::prepare + DggtSynthesizer),
// SynthesisService::query, AsyncSynthesisService::submit and loopback
// POST /v1/synthesize. For every dataset query of both paper domains,
// and for a TextEditing near-miss that DGGT rejects but the service's
// HISyn rung could answer, all four must report the same status and the
// same expression. Zero tolerance: one disagreement fails the suite.
// The async leg also checks that the query's one query-log record says
// exactly what its ServiceReport says: outcome, rung, attempts and
// retries, stage and total latencies, queue wait and every cost counter.
//
//===----------------------------------------------------------------------===//

#include "domains/Domain.h"
#include "obs/Export.h"
#include "obs/HttpEndpoint.h"
#include "obs/QueryLog.h"
#include "obs/Trace.h"
#include "service/AsyncSynthesisService.h"
#include "synth/dggt/DggtSynthesizer.h"

#include "LoopbackHttp.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <sstream>
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

/// Where the query-log record \p R differs from the report \p Rep it
/// was written from; empty when they agree exactly.
std::string recordVsReport(const obs::QueryLogRecord &R,
                           const ServiceReport &Rep) {
  std::ostringstream Diff;
  Diff.precision(17);
  auto Check = [&](const std::string &Field, const auto &Logged,
                   const auto &Reported) {
    if (!(Logged == Reported))
      Diff << " " << Field << ": logged " << Logged << ", reported "
           << Reported << ";";
  };
  Check("outcome", R.Outcome, std::string(serviceStatusName(Rep.St)));
  Check("rung", R.Rung,
        Rep.AnsweredBy ? std::string(rungName(*Rep.AnsweredBy)) : "");
  Check("attempts", size_t{R.Attempts}, Rep.Attempts.size());
  size_t Retries = 0;
  for (const RungAttempt &A : Rep.Attempts)
    Retries += A.Try > 0;
  Check("retries", size_t{R.Retries}, Retries);
  for (size_t I = 0; I < Rep.StageMs.size(); ++I)
    Check(std::string("stage_ms.") + obs::QueryStageNames[I], R.StageMs[I],
          Rep.StageMs[I]);
  Check("total_ms", R.TotalMs, Rep.TotalSeconds * 1000.0);
  Check("queue_wait_ms", R.QueueWaitMs, Rep.QueueWaitMs);
  if (!(R.Cost == Rep.Cost))
    Diff << " cost: logged " << obs::costCountersJson(R.Cost)
         << ", reported " << obs::costCountersJson(Rep.Cost) << ";";
  return Diff.str();
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
    // Each query's records are read right after it completes, so a
    // short ring holds them and keeps each snapshot cheap.
    obs::queryLog().configureRing(64);
  }

  static void TearDownTestSuite() {
    delete Service;
    delete AstMatcher;
    delete TextEditing;
  }

  struct Tally {
    /// Queries some entry point answered differently, or whose async
    /// query-log record disagreed with its report.
    size_t Mismatches = 0;
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
      // The async leg mints its own context, so that the query's records
      // can be found by trace id. The worker writes the record before it
      // completes the future (other legs' records may land at any time).
      SubmitOptions SO;
      SO.Ctx = obs::startQueryContext();
      ServiceReport AsyncRep =
          Service->submit(D.name(), Q, SO, nullptr).get();
      Answer Async = fromReport(AsyncRep);
      std::vector<obs::QueryLogRecord> Recs;
      for (obs::QueryLogRecord &R : obs::queryLog().snapshot())
        if (R.TraceId == SO.Ctx.traceIdHex())
          Recs.push_back(std::move(R));
      std::string RecordDiff =
          Recs.size() != 1
              ? " " + std::to_string(Recs.size()) + " records;"
              : recordVsReport(Recs.front(), AsyncRep);
      Answer Http = overHttp(Ep->port(), D.name(), Q);
      bool AnswersAgree = Direct == Svc && Direct == Async && Direct == Http;
      if (AnswersAgree && RecordDiff.empty()) {
        T.Answered += Direct.Status == serviceStatusName(ServiceStatus::Ok);
        continue;
      }
      ++T.Mismatches;
      if (!AnswersAgree)
        ADD_FAILURE() << D.name() << " \"" << Q << "\": direct "
                      << describe(Direct) << " | service " << describe(Svc)
                      << " | async " << describe(Async) << " | http "
                      << describe(Http);
      if (!RecordDiff.empty())
        ADD_FAILURE() << D.name() << " \"" << Q
                      << "\": query-log record vs async report:"
                      << RecordDiff;
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
