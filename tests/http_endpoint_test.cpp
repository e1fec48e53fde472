//===- tests/http_endpoint_test.cpp - Live introspection endpoint ---------===//
//
// The embedded HTTP scrape server: loopback smoke over every route
// (200/404/405/400), strict request-line parsing, live mid-run /metrics
// content, /debug/traces ring snapshots with limit/filter queries,
// health flipping to 503 while a domain breaker is open, the /statusz
// JSON shape from a real async service, and concurrent scrapes racing a
// submission hammer (the TSan target).
//
// The client is a raw blocking socket on purpose: the server's parser
// is strict, and a real HTTP library would quietly normalize exactly
// the malformed inputs these tests need to send.
//
//===----------------------------------------------------------------------===//

#include "obs/Export.h"
#include "obs/HttpEndpoint.h"
#include "obs/Metrics.h"
#include "obs/Profiler.h"
#include "obs/QueryLog.h"
#include "obs/Trace.h"
#include "service/AsyncSynthesisService.h"
#include "support/Clock.h"
#include "support/FaultInjection.h"

#include "LoopbackHttp.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace dggt;
using namespace dggt::test;

namespace {

/// A raw connection whose send and read phases are split, so a test can
/// interleave clock advances (parked-reply deadlines, body trickle)
/// between them.
struct RawConn {
  int Fd = -1;

  bool open(uint16_t Port) {
    Fd = socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0)
      return false;
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(Port);
    inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
    return connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) == 0;
  }

  bool sendAll(const std::string &Bytes) {
    size_t Off = 0;
    while (Off < Bytes.size()) {
      ssize_t N = send(Fd, Bytes.data() + Off, Bytes.size() - Off, 0);
      if (N <= 0)
        return false;
      Off += static_cast<size_t>(N);
    }
    return true;
  }

  /// Blocks until the server closes; empty = dropped without a response.
  std::string readAll() {
    std::string Out;
    char Buf[4096];
    ssize_t R;
    while ((R = read(Fd, Buf, sizeof(Buf))) > 0)
      Out.append(Buf, static_cast<size_t>(R));
    return Out;
  }

  ~RawConn() {
    if (Fd >= 0)
      close(Fd);
  }
};

/// Restores the process-wide observability switches around every test.
class HttpEndpointTest : public ::testing::Test {
protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }

  static void reset() {
    obs::setMetricsEnabled(false);
    obs::Tracer::instance().setSink(nullptr);
    obs::Tracer::setSampleEvery(1);
    obs::registry().zeroAllForTest();
    obs::setHttpEndpoint(nullptr);
    obs::profiler().resetForTest();
    obs::queryLog().resetForTest();
    obs::queryLog().configureRing(1024);
    FaultInjector::instance().reset();
  }

  /// An endpoint started on an ephemeral loopback port.
  static std::unique_ptr<obs::HttpEndpoint>
  startEndpoint(obs::HttpEndpoint::Options O = {}) {
    auto Ep = std::make_unique<obs::HttpEndpoint>(O);
    std::string Error;
    EXPECT_TRUE(Ep->start(Error)) << Error;
    EXPECT_NE(Ep->port(), 0u);
    return Ep;
  }

  static const Domain &textEditing() {
    static std::unique_ptr<Domain> D = makeTextEditingDomain();
    return *D;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Lifecycle and routing smoke
//===----------------------------------------------------------------------===//

TEST_F(HttpEndpointTest, StartsOnEphemeralPortAndStopsCleanly) {
  auto Ep = startEndpoint();
  EXPECT_TRUE(Ep->running());
  uint16_t Port = Ep->port();
  EXPECT_EQ(get(Port, "/healthz").Code, 200);
  Ep->stop();
  EXPECT_FALSE(Ep->running());
  EXPECT_EQ(Ep->port(), 0u);
  // The socket is closed: a fresh connection gets nothing back.
  EXPECT_EQ(rawExchange(Port, "GET /healthz HTTP/1.1\r\n\r\n"), "");
}

TEST_F(HttpEndpointTest, NonLoopbackBindRefusedWithoutOptIn) {
  // Pin the opt-in source for the duration of this test; restored below.
  const char *Old = std::getenv("DGGT_METRICS");
  std::string Saved = Old ? Old : "";
  bool Had = Old != nullptr;
  unsetenv("DGGT_METRICS");

  obs::HttpEndpoint::Options Wide;
  Wide.BindAddress = "0.0.0.0";
  {
    obs::HttpEndpoint Ep(Wide);
    std::string Error;
    EXPECT_FALSE(Ep.start(Error));
    EXPECT_NE(Error.find("insecure-bind"), std::string::npos) << Error;
    EXPECT_FALSE(Ep.running());
    EXPECT_EQ(Ep.port(), 0u);
  }

  // The whole loopback block stays allowed, not just 127.0.0.1.
  {
    obs::HttpEndpoint::Options Loop;
    Loop.BindAddress = "127.0.0.2";
    obs::HttpEndpoint Ep(Loop);
    std::string Error;
    EXPECT_TRUE(Ep.start(Error)) << Error;
  }

  // 'insecure-bind' is a valid (no-op) spec entry, so an operator can
  // ship it inside a real DGGT_METRICS value without a parse warning...
  std::string SpecError;
  EXPECT_TRUE(obs::configureFromSpec("insecure-bind", SpecError)) << SpecError;

  // ...and with it present the same non-loopback bind proceeds.
  setenv("DGGT_METRICS", "trace:ring,insecure-bind", 1);
  {
    obs::HttpEndpoint Ep(Wide);
    std::string Error;
    EXPECT_TRUE(Ep.start(Error)) << Error;
    EXPECT_TRUE(Ep.running());
  }

  if (Had)
    setenv("DGGT_METRICS", Saved.c_str(), 1);
  else
    unsetenv("DGGT_METRICS");
}

TEST_F(HttpEndpointTest, MetricsRouteServesLivePrometheusText) {
  obs::setMetricsEnabled(true);
  auto Ep = startEndpoint();
  obs::Counter &C = obs::registry().counter("http_test_live_total");
  C.inc(3);

  Response Rep = get(Ep->port(), "/metrics");
  EXPECT_EQ(Rep.Code, 200);
  EXPECT_NE(Rep.Head.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(Rep.Body.find("http_test_live_total 3"), std::string::npos);
  EXPECT_NE(Rep.Body.find("dggt_build_info{"), std::string::npos);
  EXPECT_NE(Rep.Body.find("dggt_uptime_seconds"), std::string::npos);

  // Live, not a startup snapshot: the next scrape sees the increment.
  C.inc();
  EXPECT_NE(get(Ep->port(), "/metrics").Body.find("http_test_live_total 4"),
            std::string::npos);
}

TEST_F(HttpEndpointTest, UnknownPathIs404WithRouteList) {
  auto Ep = startEndpoint();
  Response Rep = get(Ep->port(), "/nope");
  EXPECT_EQ(Rep.Code, 404);
  EXPECT_NE(Rep.Body.find("/metrics"), std::string::npos);
}

TEST_F(HttpEndpointTest, NonGetMethodIs405WithAllowHeader) {
  auto Ep = startEndpoint();
  Response Rep = parseResponse(rawExchange(
      Ep->port(), "POST /metrics HTTP/1.1\r\nContent-Length: 0\r\n\r\n"));
  EXPECT_EQ(Rep.Code, 405);
  EXPECT_NE(Rep.Head.find("Allow: GET"), std::string::npos);
}

TEST_F(HttpEndpointTest, MalformedRequestLinesAre400) {
  auto Ep = startEndpoint();
  const char *Malformed[] = {
      "BLARG\r\n\r\n",                      // No spaces at all.
      "GET /metrics\r\n\r\n",               // Missing version.
      "GET  /metrics HTTP/1.1\r\n\r\n",     // Double space.
      "GET /metrics HTTP/2.0\r\n\r\n",      // Unsupported version.
      "GET metrics HTTP/1.1\r\n\r\n",       // Target without '/'.
      "GET /a b HTTP/1.1\r\n\r\n",          // Four tokens.
  };
  for (const char *Req : Malformed) {
    Response Rep = parseResponse(rawExchange(Ep->port(), Req));
    EXPECT_EQ(Rep.Code, 400) << Req;
  }
}

TEST_F(HttpEndpointTest, OversizedRequestHeadIs400) {
  obs::HttpEndpoint::Options O;
  O.MaxRequestBytes = 128;
  auto Ep = startEndpoint(O);
  // A head that never terminates and exceeds the cap: the server must
  // answer 400 and close instead of buffering forever.
  std::string Huge = "GET /metrics HTTP/1.1\r\nX-Pad: ";
  Huge.append(512, 'a');
  Response Rep = parseResponse(rawExchange(Ep->port(), Huge));
  EXPECT_EQ(Rep.Code, 400);
}

TEST_F(HttpEndpointTest, RequestsAreCountedByRouteAndCode) {
  obs::setMetricsEnabled(true);
  auto Ep = startEndpoint();
  ASSERT_EQ(get(Ep->port(), "/metrics").Code, 200);
  ASSERT_EQ(get(Ep->port(), "/scan-me-if-you-can").Code, 404);
  EXPECT_EQ(Ep->requestsServed(), 2u);

  uint64_t MetricsOk = 0, Other404 = 0;
  for (const obs::MetricSnapshot &M : obs::registry().snapshot()) {
    if (M.Name != "dggt_http_requests_total")
      continue;
    if (M.Labels == obs::LabelSet{{"path", "/metrics"}, {"code", "200"}})
      MetricsOk = M.CounterValue;
    // Unknown paths collapse to one label value: a URL scanner cannot
    // mint unbounded label cardinality.
    if (M.Labels == obs::LabelSet{{"path", "other"}, {"code", "404"}})
      Other404 = M.CounterValue;
  }
  EXPECT_EQ(MetricsOk, 1u);
  EXPECT_EQ(Other404, 1u);
}

//===----------------------------------------------------------------------===//
// Providers: health, readiness, status
//===----------------------------------------------------------------------===//

TEST_F(HttpEndpointTest, HealthRoutesDefaultTo200WithoutProvider) {
  auto Ep = startEndpoint();
  EXPECT_EQ(get(Ep->port(), "/healthz").Code, 200);
  EXPECT_EQ(get(Ep->port(), "/readyz").Code, 200);
}

TEST_F(HttpEndpointTest, HealthAndReadinessTrackTheProvider) {
  auto Ep = startEndpoint();
  std::atomic<bool> Ready{false}, Healthy{true};
  Ep->setHealthProvider([&] {
    obs::HealthStatus St;
    St.Ready = Ready.load();
    St.Healthy = Healthy.load();
    St.Detail = "from test";
    return St;
  });

  // Not ready yet (warming up): /readyz gates, /healthz still passes.
  EXPECT_EQ(get(Ep->port(), "/readyz").Code, 503);
  EXPECT_EQ(get(Ep->port(), "/healthz").Code, 200);

  Ready = true;
  EXPECT_EQ(get(Ep->port(), "/readyz").Code, 200);

  Healthy = false;
  Response Rep = get(Ep->port(), "/healthz");
  EXPECT_EQ(Rep.Code, 503);
  EXPECT_NE(Rep.Body.find("from test"), std::string::npos);

  // Deregistering restores the no-provider default.
  Ep->setHealthProvider(nullptr);
  EXPECT_EQ(get(Ep->port(), "/healthz").Code, 200);
}

TEST_F(HttpEndpointTest, StaleProviderClearIsANoOp) {
  auto Ep = startEndpoint();
  uint64_t Old = Ep->setHealthProvider([] {
    obs::HealthStatus St;
    St.Healthy = false;
    St.Detail = "old owner";
    return St;
  });
  uint64_t New = Ep->setHealthProvider([] {
    obs::HealthStatus St;
    St.Healthy = false;
    St.Detail = "new owner";
    return St;
  });
  EXPECT_NE(Old, 0u);
  EXPECT_NE(New, Old);

  // The replaced owner clearing with its stale token must not wipe the
  // live registration ("last registered wins" stays true).
  Ep->clearHealthProvider(Old);
  Response Rep = get(Ep->port(), "/healthz");
  EXPECT_EQ(Rep.Code, 503);
  EXPECT_NE(Rep.Body.find("new owner"), std::string::npos);

  // The live owner's clear does restore the no-provider default.
  Ep->clearHealthProvider(New);
  EXPECT_EQ(get(Ep->port(), "/healthz").Code, 200);
}

TEST_F(HttpEndpointTest, DestroyingOlderServiceKeepsNewerServiceProviders) {
  // The shared-endpoint shape: two services registered on one global
  // spec-configured endpoint, last one wins the providers. Destroying
  // the older service must not revert /statusz and /readyz to the
  // "no service registered" defaults.
  auto Shared = std::make_shared<obs::HttpEndpoint>();
  std::string Error;
  ASSERT_TRUE(Shared->start(Error)) << Error;
  obs::setHttpEndpoint(Shared);

  auto Older = std::make_unique<SynthesisService>();
  SynthesisService Newer;
  Newer.addDomain(textEditing());
  Older.reset(); // Its destructor's token-matched clear is a no-op.

  Response Rep = get(Shared->port(), "/statusz");
  EXPECT_EQ(Rep.Code, 200);
  EXPECT_NE(Rep.Body.find("\"TextEditing\""), std::string::npos)
      << Rep.Body;
  EXPECT_EQ(get(Shared->port(), "/readyz").Code, 200);
}

TEST_F(HttpEndpointTest, StatuszWrapsProviderJsonWithBuildAndUptime) {
  auto Ep = startEndpoint();
  Response Bare = get(Ep->port(), "/statusz");
  EXPECT_EQ(Bare.Code, 200);
  EXPECT_NE(Bare.Body.find("\"build\":{\"version\":\""), std::string::npos);
  EXPECT_NE(Bare.Body.find("\"uptime_seconds\":"), std::string::npos);
  EXPECT_NE(Bare.Body.find("\"service\":null"), std::string::npos);

  Ep->setStatusProvider([] { return std::string("{\"x\":1}"); });
  Response Rep = get(Ep->port(), "/statusz");
  EXPECT_NE(Rep.Body.find("\"service\":{\"x\":1}"), std::string::npos);
  EXPECT_NE(Rep.Body.find("\"requests_served\":"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// /debug/traces
//===----------------------------------------------------------------------===//

TEST_F(HttpEndpointTest, TracesRouteWithoutRingReportsUnconfigured) {
  // Declared before the ring test: a 'trace:ring' spec installs the ring
  // process-wide and there is deliberately no uninstall.
  auto Ep = startEndpoint();
  Response Rep = get(Ep->port(), "/debug/traces");
  EXPECT_EQ(Rep.Code, 200);
  EXPECT_NE(Rep.Body.find("\"spans\":[]"), std::string::npos);
  EXPECT_NE(Rep.Body.find("\"ring_configured\":false"), std::string::npos);
}

TEST_F(HttpEndpointTest, TracesRouteSnapshotsTheRingWithLimitAndFilter) {
  std::string Error;
  ASSERT_TRUE(obs::configureFromSpec("trace:ring:16", Error)) << Error;
  auto Ep = startEndpoint();

  { obs::ScopedSpan S("ep.alpha"); }
  { obs::ScopedSpan S("ep.beta"); }
  { obs::ScopedSpan S("ep.beta"); }

  Response All = get(Ep->port(), "/debug/traces");
  EXPECT_EQ(All.Code, 200);
  EXPECT_NE(All.Body.find("\"ep.alpha\""), std::string::npos);
  EXPECT_NE(All.Body.find("\"ep.beta\""), std::string::npos);
  EXPECT_NE(All.Body.find("\"ring_configured\":true"), std::string::npos);
  EXPECT_NE(All.Body.find("\"ring_capacity\":16"), std::string::npos);

  // ?span= is a substring filter on the span name.
  Response Beta = get(Ep->port(), "/debug/traces?span=beta");
  EXPECT_EQ(Beta.Body.find("\"ep.alpha\""), std::string::npos);
  EXPECT_NE(Beta.Body.find("\"ep.beta\""), std::string::npos);

  // ?limit= keeps the newest N.
  Response One = get(Ep->port(), "/debug/traces?limit=1");
  EXPECT_NE(One.Body.find("\"count\":1"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Service integration
//===----------------------------------------------------------------------===//

TEST_F(HttpEndpointTest, HealthzFlipsTo503WhileDomainBreakerIsOpen) {
  FaultInjector::instance().armAlways(faults::DggtMerge);
  FaultInjector::instance().armAlways(faults::HisynEnumerate);
  ServiceOptions Opts;
  Opts.TotalBudgetMs = 500;
  Opts.BreakerTripThreshold = 2;
  Opts.BreakerCooldownMs = 60000; // Stays open for the whole test.
  Opts.HttpPort = 0;              // Own an ephemeral endpoint.
  SynthesisService S(Opts);
  S.addDomain(textEditing());
  ASSERT_NE(S.endpoint(), nullptr);
  uint16_t Port = S.endpoint()->port();

  // Warmed up, domain registered, breaker closed: both gates pass.
  EXPECT_EQ(get(Port, "/readyz").Code, 200);
  EXPECT_EQ(get(Port, "/healthz").Code, 200);

  // Two consecutive deadline misses trip the breaker.
  EXPECT_EQ(S.query("TextEditing", "sort").St, ServiceStatus::DeadlineExceeded);
  EXPECT_EQ(S.query("TextEditing", "sort").St, ServiceStatus::DeadlineExceeded);
  ASSERT_EQ(S.breakerState("TextEditing"),
            SynthesisService::BreakerState::Open);

  Response Rep = get(Port, "/healthz");
  EXPECT_EQ(Rep.Code, 503);
  EXPECT_NE(Rep.Body.find("TextEditing"), std::string::npos);
  // Readiness is about taking traffic at all, not per-domain health.
  EXPECT_EQ(get(Port, "/readyz").Code, 200);
}

TEST_F(HttpEndpointTest, StatuszReportsAsyncAndPerDomainState) {
  AsyncOptions Opts;
  Opts.Workers = 2;
  Opts.QueueCap = 64;
  Opts.Service.HttpPort = 0;
  AsyncSynthesisService S(Opts);
  S.addDomain(textEditing());
  ASSERT_NE(S.service().endpoint(), nullptr);
  uint16_t Port = S.service().endpoint()->port();

  ASSERT_TRUE(S.submit("TextEditing", "sort all lines").get().ok());
  ASSERT_TRUE(S.submit("TextEditing", "sort all lines").get().ok());

  Response Rep = get(Port, "/statusz");
  EXPECT_EQ(Rep.Code, 200);
  const char *Expected[] = {
      "\"service\":{\"workers\":2", "\"queue_depth\":", "\"queue_cap\":64",
      "\"shed\":0",                 "\"completed\":2",  "\"serial\":{",
      "\"domains\":{",              "\"TextEditing\":", "\"breaker\":\"closed\"",
      "\"path_cache\":{",           "\"hit_rate\":",    "\"budget_bytes\":",
      "\"word_cache\":{",
  };
  for (const char *Needle : Expected)
    EXPECT_NE(Rep.Body.find(Needle), std::string::npos)
        << Needle << " missing from " << Rep.Body;
}

TEST_F(HttpEndpointTest, ConcurrentScrapesRaceTheSubmissionHammer) {
  // The TSan target: scraper threads hitting every route while submitter
  // threads push queries through the pool. Every scrape must come back
  // well-formed (200, or 503 only from the health gates).
  AsyncOptions Opts;
  Opts.Workers = 2;
  Opts.QueueCap = 0;
  Opts.Service.HttpPort = 0;
  Opts.Service.EnableMetrics = true;
  AsyncSynthesisService S(Opts);
  S.addDomain(textEditing());
  uint16_t Port = S.service().endpoint()->port();

  const std::vector<QueryCase> &TE = textEditing().queries();
  constexpr int Submitters = 2, PerThread = 15, Scrapers = 2, ScrapesEach = 20;

  std::atomic<int> BadScrapes{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T < Scrapers; ++T)
    Threads.emplace_back([&, T] {
      const char *Routes[] = {"/metrics", "/statusz", "/healthz",
                              "/debug/traces"};
      for (int I = 0; I < ScrapesEach; ++I) {
        Response Rep = get(Port, Routes[(T + I) % 4]);
        if (Rep.Code != 200 && Rep.Code != 503)
          ++BadScrapes;
      }
    });
  std::atomic<int> Incomplete{0};
  for (int T = 0; T < Submitters; ++T)
    Threads.emplace_back([&, T] {
      for (int I = 0; I < PerThread; ++I) {
        ServiceReport Rep =
            S.submit("TextEditing", TE[(T * PerThread + I) % TE.size()].Query)
                .get();
        if (Rep.St == ServiceStatus::Overloaded)
          ++Incomplete;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  S.drain();

  EXPECT_EQ(BadScrapes.load(), 0);
  EXPECT_EQ(Incomplete.load(), 0); // Unbounded queue: nothing shed.

  // After the race, a final scrape still shows coherent async metrics.
  Response Metrics = get(Port, "/metrics");
  EXPECT_NE(Metrics.Body.find("dggt_async_queue_wait_ms_bucket"),
            std::string::npos);
  EXPECT_NE(Metrics.Body.find("dggt_http_requests_total"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// POST /v1/synthesize: the query data plane
//===----------------------------------------------------------------------===//

TEST_F(HttpEndpointTest, SynthesizePostAnswersCodeletJson) {
  AsyncOptions Opts;
  Opts.Workers = 2;
  Opts.QueueCap = 64;
  Opts.Service.HttpPort = 0;
  AsyncSynthesisService S(Opts);
  S.addDomain(textEditing());
  uint16_t Port = S.service().endpoint()->port();

  Response Rep = post(
      Port, "{\"domain\":\"TextEditing\",\"query\":\"sort all lines\"}");
  EXPECT_EQ(Rep.Code, 200);
  EXPECT_NE(Rep.Head.find("application/json"), std::string::npos);
  EXPECT_NE(Rep.Body.find("\"status\":\"ok\""), std::string::npos) << Rep.Body;
  EXPECT_NE(Rep.Body.find("\"codelet\":\""), std::string::npos);
  EXPECT_NE(Rep.Body.find("\"answered_by\":\""), std::string::npos);
  EXPECT_NE(Rep.Body.find("\"attempts\":["), std::string::npos);
  EXPECT_NE(Rep.Body.find("\"total_ms\":"), std::string::npos);

  // An explicit budget rides through SubmitOptions without changing the
  // answer for an easy query.
  Response Budgeted = post(Port, "{\"domain\":\"TextEditing\","
                                 "\"query\":\"sort all lines\","
                                 "\"budget_ms\":2000}");
  EXPECT_EQ(Budgeted.Code, 200);
  EXPECT_NE(Budgeted.Body.find("\"status\":\"ok\""), std::string::npos);
}

TEST_F(HttpEndpointTest, SynthesizeUnknownDomainIs404) {
  AsyncOptions Opts;
  Opts.Workers = 1;
  Opts.QueueCap = 8;
  Opts.Service.HttpPort = 0;
  AsyncSynthesisService S(Opts);
  S.addDomain(textEditing());

  Response Rep = post(S.service().endpoint()->port(),
                      "{\"domain\":\"Nope\",\"query\":\"sort\"}");
  EXPECT_EQ(Rep.Code, 404);
  EXPECT_NE(Rep.Body.find("unknown-domain"), std::string::npos) << Rep.Body;
}

TEST_F(HttpEndpointTest, SynthesizeWithoutProviderIs503WithRetryAfter) {
  auto Ep = startEndpoint();
  Response Rep = post(Ep->port(), "{\"domain\":\"X\",\"query\":\"y\"}");
  EXPECT_EQ(Rep.Code, 503);
  EXPECT_NE(Rep.Head.find("Retry-After: 1"), std::string::npos) << Rep.Head;
}

TEST_F(HttpEndpointTest, SynthesizeGetIs405WithAllowPost) {
  auto Ep = startEndpoint();
  Response Rep = get(Ep->port(), "/v1/synthesize");
  EXPECT_EQ(Rep.Code, 405);
  EXPECT_NE(Rep.Head.find("Allow: POST"), std::string::npos) << Rep.Head;
}

TEST_F(HttpEndpointTest, SynthesizeBodyFramingIsStrict) {
  auto Ep = startEndpoint();
  uint16_t Port = Ep->port();

  // Missing Content-Length: the body cannot be framed.
  Response NoCl = parseResponse(rawExchange(
      Port, "POST /v1/synthesize HTTP/1.1\r\nHost: l\r\n\r\n"));
  EXPECT_EQ(NoCl.Code, 411);

  // Duplicate Content-Length (even agreeing): smuggling primitive, 400.
  Response Dup = parseResponse(rawExchange(
      Port, "POST /v1/synthesize HTTP/1.1\r\nContent-Length: 2\r\n"
            "Content-Length: 2\r\n\r\n{}"));
  EXPECT_EQ(Dup.Code, 400);

  // Malformed Content-Length value.
  Response Bad = parseResponse(rawExchange(
      Port, "POST /v1/synthesize HTTP/1.1\r\nContent-Length: 12abc\r\n\r\n"));
  EXPECT_EQ(Bad.Code, 400);

  // Case-insensitive header match still counts the duplicate.
  Response MixedCase = parseResponse(rawExchange(
      Port, "POST /v1/synthesize HTTP/1.1\r\ncontent-length: 2\r\n"
            "Content-Length: 2\r\n\r\n{}"));
  EXPECT_EQ(MixedCase.Code, 400);
}

TEST_F(HttpEndpointTest, SynthesizeOversizedDeclaredBodyIs413) {
  obs::HttpEndpoint::Options O;
  O.MaxBodyBytes = 64;
  auto Ep = startEndpoint(O);
  // Refused on the declared length alone — no body byte is ever sent.
  Response Rep = parseResponse(rawExchange(
      Ep->port(),
      "POST /v1/synthesize HTTP/1.1\r\nContent-Length: 100000\r\n\r\n"));
  EXPECT_EQ(Rep.Code, 413);
}

TEST_F(HttpEndpointTest, SynthesizeMalformedJsonBodyIs400) {
  auto Ep = startEndpoint();
  EXPECT_EQ(post(Ep->port(), "this is not json").Code, 400);
  EXPECT_EQ(post(Ep->port(), "{\"domain\":\"X\"}").Code, 400); // No query.
  EXPECT_EQ(post(Ep->port(), "{\"query\":\"y\"}").Code, 400);  // No domain.
}

TEST_F(HttpEndpointTest, SynthesizeCannedRejectionCarriesRetryAfter) {
  // A canned provider standing in for a shedding service: the endpoint
  // must pass the code and Retry-After guidance through verbatim.
  auto Ep = startEndpoint();
  Ep->setSynthesizeProvider(
      [](const obs::SynthesizeRequest &,
         obs::HttpEndpoint::SynthesizeReply Reply) {
        obs::SynthesizeResponse R;
        R.Code = 429;
        R.Body = "{\"status\":\"overloaded\"}";
        R.RetryAfterSeconds = 2;
        Reply(std::move(R));
      });
  Response Rep = post(Ep->port(), "{\"domain\":\"X\",\"query\":\"y\"}");
  EXPECT_EQ(Rep.Code, 429);
  EXPECT_NE(Rep.Head.find("Retry-After: 2"), std::string::npos) << Rep.Head;
  EXPECT_NE(Rep.Body.find("overloaded"), std::string::npos);
}

TEST_F(HttpEndpointTest, SynthesizeReplyFaultDropsTheConnection) {
  // dataplane.reply: the answer is computed but never written — the
  // client sees a clean close with zero response bytes and must treat it
  // as a retryable transport failure.
  auto Ep = startEndpoint();
  std::atomic<int> Answered{0};
  Ep->setSynthesizeProvider(
      [&](const obs::SynthesizeRequest &,
          obs::HttpEndpoint::SynthesizeReply Reply) {
        ++Answered;
        obs::SynthesizeResponse R;
        R.Body = "{\"status\":\"ok\"}";
        Reply(std::move(R));
      });
  FaultInjector::instance().armAlways(faults::DataplaneReply);
  EXPECT_EQ(rawExchange(Ep->port(), postFrame("{\"domain\":\"X\","
                                              "\"query\":\"y\"}")),
            "");
  EXPECT_EQ(Answered.load(), 1);

  // Disarmed, the same request answers normally.
  FaultInjector::instance().reset();
  EXPECT_EQ(post(Ep->port(), "{\"domain\":\"X\",\"query\":\"y\"}").Code, 200);
}

TEST_F(HttpEndpointTest, ParkedConnectionTimesOutTo504OnTheVirtualClock) {
  // A provider that accepts the query and never answers: the parked
  // connection must become a 504 once budget_ms + RequestTimeoutMs
  // lapses on the injected clock — no real waiting.
  VirtualClock VC;
  obs::HttpEndpoint::Options O;
  O.Clock = &VC;
  auto Ep = startEndpoint(O);

  std::promise<void> Accepted;
  std::shared_future<void> AcceptedF = Accepted.get_future().share();
  obs::HttpEndpoint::SynthesizeReply Parked; // Kept alive, never invoked.
  Ep->setSynthesizeProvider(
      [&](const obs::SynthesizeRequest &,
          obs::HttpEndpoint::SynthesizeReply Reply) {
        Parked = std::move(Reply);
        Accepted.set_value();
      });

  RawConn C;
  ASSERT_TRUE(C.open(Ep->port()));
  ASSERT_TRUE(C.sendAll(postFrame(
      "{\"domain\":\"X\",\"query\":\"y\",\"budget_ms\":100}")));
  AcceptedF.wait(); // The connection is parked; now lapse its deadline.
  VC.advanceMs(100 + O.RequestTimeoutMs + 1);

  Response Rep = parseResponse(C.readAll());
  EXPECT_EQ(Rep.Code, 504);
  EXPECT_NE(Rep.Body.find("did not complete"), std::string::npos) << Rep.Body;

  // The late answer lands on an already-answered connection: ignored.
  obs::SynthesizeResponse R;
  R.Body = "{}";
  Parked(std::move(R));
}

TEST_F(HttpEndpointTest, BodyTrickleHitsTheSameDeadlineAsHeads) {
  // A client that sends the head plus a sliver of body and then stalls
  // holds a connection slot; the per-connection deadline covers body
  // reads exactly as it covers heads, so the lapse drops it without a
  // response.
  VirtualClock VC;
  obs::HttpEndpoint::Options O;
  O.Clock = &VC;
  auto Ep = startEndpoint(O);

  RawConn Trickle;
  ASSERT_TRUE(Trickle.open(Ep->port()));
  ASSERT_TRUE(Trickle.sendAll(
      "POST /v1/synthesize HTTP/1.1\r\nContent-Length: 64\r\n\r\n{\"dom"));

  // A later-connected probe completing proves the trickler was accepted
  // (the listener backlog drains in order), so its deadline is armed
  // before the clock jumps.
  EXPECT_EQ(get(Ep->port(), "/healthz").Code, 200);
  VC.advanceMs(O.RequestTimeoutMs + 1);

  EXPECT_EQ(Trickle.readAll(), "");
}

TEST_F(HttpEndpointTest, DrainFlipsReadyzAndShedsSynthesizePosts) {
  AsyncOptions Opts;
  Opts.Workers = 1;
  Opts.QueueCap = 8;
  Opts.Service.HttpPort = 0;
  AsyncSynthesisService S(Opts);
  S.addDomain(textEditing());
  uint16_t Port = S.service().endpoint()->port();

  ASSERT_EQ(get(Port, "/readyz").Code, 200);
  ASSERT_EQ(
      post(Port, "{\"domain\":\"TextEditing\",\"query\":\"sort\"}").Code, 200);

  S.beginDrain(60000);

  Response Ready = get(Port, "/readyz");
  EXPECT_EQ(Ready.Code, 503);
  EXPECT_NE(Ready.Body.find("draining"), std::string::npos) << Ready.Body;

  // New work is refused with retry guidance — the client's cue to send
  // the query to another replica.
  Response Shed = post(Port, "{\"domain\":\"TextEditing\",\"query\":\"sort\"}");
  EXPECT_EQ(Shed.Code, 503);
  EXPECT_NE(Shed.Body.find("\"status\":\"draining\""), std::string::npos)
      << Shed.Body;
  EXPECT_NE(Shed.Head.find("Retry-After: 1"), std::string::npos);

  // Nothing is in flight, but the worker that answered the first POST
  // sends the reply from inside its task — the 200 can land before the
  // pool's running counter ticks down, so give bookkeeping a moment.
  bool Complete = false;
  for (int I = 0; I < 2000 && !Complete; ++I) {
    Complete = S.drainComplete();
    if (!Complete)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(Complete);
}

//===----------------------------------------------------------------------===//
// Profiler control surface and slow-query views
//===----------------------------------------------------------------------===//

TEST_F(HttpEndpointTest, ProfileRouteIs404UntilSamplesExist) {
  auto Ep = startEndpoint();
  Response Rep = get(Ep->port(), "/debug/profile");
  EXPECT_EQ(Rep.Code, 404);
  EXPECT_NE(Rep.Body.find("no profile samples"), std::string::npos)
      << Rep.Body;
  // Stopping an idle profiler over HTTP conflicts, it does not 200.
  Response Stop = parseResponse(rawExchange(
      Ep->port(), "POST /debug/profile/stop HTTP/1.1\r\n\r\n"));
  EXPECT_EQ(Stop.Code, 409);
  EXPECT_NE(Stop.Body.find("not running"), std::string::npos) << Stop.Body;
}

TEST_F(HttpEndpointTest, ProfileStartStopOverHttpServesFoldedStacks) {
  auto Ep = startEndpoint();
  uint16_t Port = Ep->port();

  Response Started = parseResponse(rawExchange(
      Port, "POST /debug/profile/start?hz=500 HTTP/1.1\r\n\r\n"));
  ASSERT_EQ(Started.Code, 200) << Started.Body;
  EXPECT_NE(Started.Body.find("\"status\":\"started\""), std::string::npos);
  EXPECT_NE(Started.Body.find("\"hz\":500"), std::string::npos);

  // A second start conflicts while the first run is live.
  Response Again = parseResponse(rawExchange(
      Port, "POST /debug/profile/start HTTP/1.1\r\n\r\n"));
  EXPECT_EQ(Again.Code, 409);
  EXPECT_NE(Again.Body.find("already running"), std::string::npos)
      << Again.Body;

  // Bad knobs are 400s, not silent defaults.
  EXPECT_EQ(parseResponse(
                rawExchange(Port, "POST /debug/profile/start?hz=0 "
                                  "HTTP/1.1\r\n\r\n"))
                .Code,
            400);
  EXPECT_EQ(parseResponse(
                rawExchange(Port, "POST /debug/profile/start?seconds=x "
                                  "HTTP/1.1\r\n\r\n"))
                .Code,
            400);
  // Profiler control is POST-only.
  EXPECT_EQ(get(Port, "/debug/profile/start").Code, 405);

  // Burn CPU so the process-CPU timer fires, then stop and read.
  auto Until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(400);
  volatile uint64_t Sink = 0;
  while (std::chrono::steady_clock::now() < Until)
    for (int I = 0; I < 1000; ++I)
      Sink += static_cast<uint64_t>(I) * 2654435761u;

  Response Stopped = parseResponse(rawExchange(
      Port, "POST /debug/profile/stop HTTP/1.1\r\n\r\n"));
  EXPECT_EQ(Stopped.Code, 200) << Stopped.Body;

  Response Prof = get(Port, "/debug/profile");
  ASSERT_EQ(Prof.Code, 200) << Prof.Body;
  EXPECT_NE(Prof.Head.find("text/plain"), std::string::npos);
  // Folded shape: first line is "frame(;frame)* count".
  ASSERT_FALSE(Prof.Body.empty());
  std::string First = Prof.Body.substr(0, Prof.Body.find('\n'));
  size_t Space = First.rfind(' ');
  ASSERT_NE(Space, std::string::npos) << First;
  EXPECT_GT(std::stoull(First.substr(Space + 1)), 0u) << First;

  // /statusz reflects the profiler's self-accounting.
  Response St = get(Port, "/statusz");
  ASSERT_EQ(St.Code, 200);
  EXPECT_NE(St.Body.find("\"profiler\":{\"running\":false"),
            std::string::npos)
      << St.Body;
}

TEST_F(HttpEndpointTest, QuerylogSlowestReturnsTopNByTotalMs) {
  auto Ep = startEndpoint();
  for (int I = 0; I < 6; ++I) {
    obs::QueryLogRecord R;
    R.TraceId = std::string(31, 'a') + static_cast<char>('0' + I);
    R.Domain = "TextEditing";
    R.Outcome = "ok";
    R.TotalMs = 10.0 * (I % 3) + I; // 0,11,22,3,14,25
    obs::queryLog().record(std::move(R));
  }
  Response Rep = get(Ep->port(), "/debug/querylog?slowest=2");
  ASSERT_EQ(Rep.Code, 200);
  EXPECT_NE(Rep.Body.find("\"count\":2"), std::string::npos) << Rep.Body;
  // The two slowest (25 then 22), slowest first.
  size_t P25 = Rep.Body.find("\"total_ms\":25");
  size_t P22 = Rep.Body.find("\"total_ms\":22");
  ASSERT_NE(P25, std::string::npos) << Rep.Body;
  ASSERT_NE(P22, std::string::npos) << Rep.Body;
  EXPECT_LT(P25, P22);
  EXPECT_EQ(Rep.Body.find("\"total_ms\":11"), std::string::npos);
}

TEST_F(HttpEndpointTest, DebugQueryExplainRanksAgainstDomainPeers) {
  auto Ep = startEndpoint();
  // Nine cheap peers and one outlier doing 100x the fusion work.
  for (int I = 0; I < 10; ++I) {
    obs::QueryLogRecord R;
    R.TraceId = std::string(31, 'b') + static_cast<char>('0' + I);
    R.Domain = "TextEditing";
    R.Outcome = "ok";
    R.TotalMs = I == 9 ? 80.0 : 2.0;
    R.Cost.Populated = true;
    R.Cost.CgtFusionOps = I == 9 ? 10000 : 100;
    R.Cost.NodeVisits = 50;
    obs::queryLog().record(std::move(R));
  }
  std::string Id = std::string(31, 'b') + "9";
  Response Rep = get(Ep->port(), "/debug/query/" + Id);
  ASSERT_EQ(Rep.Code, 200) << Rep.Body;
  ASSERT_NE(Rep.Body.find("\"explain\":{"), std::string::npos) << Rep.Body;
  EXPECT_NE(Rep.Body.find("\"domain_peers\":10"), std::string::npos)
      << Rep.Body;
  // The outlier metric ranks with a p100 percentile and a 100x median.
  size_t Fusion = Rep.Body.find("\"metric\":\"cgt_fusion_ops\"");
  ASSERT_NE(Fusion, std::string::npos) << Rep.Body;
  std::string Entry = Rep.Body.substr(Fusion, 120);
  EXPECT_NE(Entry.find("\"percentile\":100"), std::string::npos) << Entry;
  EXPECT_NE(Entry.find("\"x_median\":100"), std::string::npos) << Entry;
  // A flat metric (node_visits, identical everywhere) must not outrank
  // the outlier: the ranked list leads with a 100x entry.
  size_t RankedStart = Rep.Body.find("\"ranked\":[");
  ASSERT_NE(RankedStart, std::string::npos);
  std::string FirstEntry = Rep.Body.substr(RankedStart, 160);
  EXPECT_EQ(FirstEntry.find("\"metric\":\"node_visits\""),
            std::string::npos)
      << FirstEntry;
}

TEST_F(HttpEndpointTest, StatuszCarriesArenaHighWaterSection) {
  obs::setMetricsEnabled(true);
  AsyncOptions Opts;
  Opts.Workers = 1;
  Opts.Service.HttpPort = 0;
  AsyncSynthesisService S(Opts);
  S.addDomain(textEditing());
  uint16_t Port = S.service().endpoint()->port();

  ASSERT_TRUE(
      S.submit("TextEditing", "sort all lines").get().ok());

  Response St = get(Port, "/statusz");
  ASSERT_EQ(St.Code, 200);
  size_t Arena = St.Body.find("\"arena\":{\"process_high_water_bytes\":");
  ASSERT_NE(Arena, std::string::npos) << St.Body;
  // One query ran: the histogram section is present with percentiles.
  EXPECT_NE(St.Body.find("\"query_count\":1"), std::string::npos)
      << St.Body;
  EXPECT_NE(St.Body.find("\"p99_bytes\":"), std::string::npos) << St.Body;
}
