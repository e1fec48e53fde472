//===- obs/HttpEndpoint.h - Live introspection scrape server ----*- C++ -*-===//
///
/// \file
/// A small, dependency-free HTTP/1.1 server that turns the observability
/// stack from a flight recorder into live instrumentation. One dedicated
/// thread runs a blocking poll() loop over a loopback listener and a
/// bounded set of connections, serving:
///
///   GET /metrics       Prometheus text of collectMetrics() — the same
///                      pull-on-demand path the file exporters use, so a
///                      scrape mid-run sees live counters, not the atexit
///                      dump.
///   GET /debug/traces  JSON snapshot of the span ring installed by a
///                      'trace:ring' spec entry (?limit=N keeps the
///                      newest N, ?span=SUBSTR filters by span name).
///   GET /debug/querylog  The wide-event query log ring, newest last
///                      (?domain=, ?outcome=, ?min_ms=MS filters;
///                      ?limit=N keeps the newest N).
///   GET /debug/query/<trace-id>  One query by 32-hex trace id: its
///                      query-log record joined with every retained
///                      span of that trace from the span ring.
///   GET /healthz       200 while the registered service is healthy,
///                      503 while any domain circuit breaker is open.
///   GET /readyz        200 once warmup completed and a domain is
///                      registered; 503 before that.
///   GET /statusz       One JSON snapshot: build info, uptime, endpoint
///                      counters, and the registered service's status
///                      (breaker rungs, queue depth, shed count, cache
///                      hit rates and byte usage).
///   POST /v1/synthesize  The query data plane: a JSON body
///                      {"query":..., "domain":..., "budget_ms":...}
///                      submitted to the registered SynthesizeProvider.
///                      The reply is *deferred*: the provider enqueues
///                      the query and answers through a callback, so the
///                      poll thread never blocks on synthesis — the
///                      connection parks until the answer (or its
///                      deadline) arrives. Body handling is bounded:
///                      missing Content-Length is 411, duplicate or
///                      malformed is 400, larger than MaxBodyBytes is
///                      413, and the per-connection trickle deadline
///                      covers body reads exactly as it covers heads.
///
/// Anything else is 404, non-GET methods are 405 (POST is accepted only
/// on /v1/synthesize), and a malformed request line is 400 — the parser
/// is strict (single spaces, three tokens, HTTP/1.x) because this
/// endpoint faces scrapers and programmatic clients, not browsers.
///
/// Security posture: binds 127.0.0.1 by default, serves read-only
/// snapshots, never echoes request content, caps header size and
/// concurrent connections, and closes every connection after one
/// response. Exposing it beyond loopback takes two explicit operator
/// decisions: a non-loopback Options::BindAddress *and* the
/// `insecure-bind` entry in DGGT_METRICS — start() refuses the former
/// without the latter, so a config typo cannot publish the endpoint.
///
/// The endpoint reaches the service layer only through the two
/// std::function providers below — obs sits *under* the service
/// libraries, so SynthesisService/AsyncSynthesisService register
/// themselves at construction instead of being linked in. It serves
/// /metrics and /debug/traces with no providers at all.
///
/// Wired up either by the `http:PORT` DGGT_METRICS spec entry (global
/// endpoint, see httpEndpoint()) or by ServiceOptions::HttpPort (owned
/// by that service). Port 0 binds an ephemeral port; port() reports the
/// actual one, and Options::Announce prints it to stdout for scripts.
///
//===----------------------------------------------------------------------===//

#ifndef DGGT_OBS_HTTPENDPOINT_H
#define DGGT_OBS_HTTPENDPOINT_H

#include "obs/Trace.h"
#include "support/Clock.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

namespace dggt::obs {

/// What a health provider reports; maps onto /healthz and /readyz.
struct HealthStatus {
  bool Ready = true;   ///< Warmed up and able to take traffic.
  bool Healthy = true; ///< No domain circuit breaker is open.
  std::string Detail;  ///< Short human-readable note for the body.
};

/// One parsed POST /v1/synthesize request.
struct SynthesizeRequest {
  std::string Domain;
  std::string Query;
  uint64_t BudgetMs = 0; ///< 0 = the domain's configured budget.
  /// Per-query trace context, minted by the endpoint (honoring an
  /// inbound W3C `traceparent` header) with ParentSpan set to the
  /// request's root span. Providers thread it through the async service
  /// and its workers so every span of the query shares one trace id.
  QueryContext Ctx;
};

/// What a synthesize provider answers (already serialized; the endpoint
/// adds the HTTP framing).
struct SynthesizeResponse {
  int Code = 200;
  std::string Body; ///< JSON body.
  /// >0 adds a Retry-After header (429/503 shed-and-retry guidance).
  unsigned RetryAfterSeconds = 0;
};

/// Live introspection server; see the file comment.
class HttpEndpoint {
public:
  struct Options {
    /// Loopback by default. start() refuses anything outside 127.0.0.0/8
    /// unless DGGT_METRICS contains the `insecure-bind` opt-in.
    std::string BindAddress = "127.0.0.1";
    /// TCP port; 0 asks the kernel for an ephemeral one (see port()).
    uint16_t Port = 0;
    /// Connections beyond this are accepted and immediately closed.
    unsigned MaxConnections = 32;
    /// Request head cap; a client exceeding it gets a 400 and a close.
    size_t MaxRequestBytes = 8 * 1024;
    /// Request *body* cap: a Content-Length above this is refused with
    /// 413 before a single body byte is read.
    size_t MaxBodyBytes = 64 * 1024;
    /// A connection idle longer than this mid-request is dropped. The
    /// same trickle-byte deadline covers head and body reads.
    uint64_t RequestTimeoutMs = 5000;
    /// Ceiling on how long a deferred /v1/synthesize reply may stay in
    /// flight when the request carries no budget_ms; with a budget the
    /// connection parks for budget_ms + RequestTimeoutMs. Either way a
    /// provider that never answers yields a 504, not a leaked socket.
    uint64_t SynthesizeTimeoutMs = 30000;
    /// Time source for connection deadlines; null = the real steady
    /// clock. Tests inject a VirtualClock so trickle/parked timeouts
    /// are deterministic.
    const ClockSource *Clock = nullptr;
    /// Print "dggt-http-endpoint: listening on HOST:PORT" to stdout on
    /// start (scripts curl the ephemeral port; see check-endpoint).
    bool Announce = false;
  };

  /// /healthz + /readyz source. Invoked on the server thread.
  using HealthProvider = std::function<HealthStatus()>;
  /// /statusz source: returns one JSON object (already serialized).
  using StatusProvider = std::function<std::string()>;
  /// Completion callback of one deferred synthesize request. May be
  /// invoked from any thread, including synchronously from inside the
  /// provider; the first invocation wins and later ones are ignored
  /// (the connection has already answered or gone away).
  using SynthesizeReply = std::function<void(SynthesizeResponse)>;
  /// POST /v1/synthesize sink. Invoked on the server thread; must NOT
  /// block on synthesis — it enqueues the query and answers through the
  /// reply callback (an immediate rejection may call it inline).
  using SynthesizeProvider =
      std::function<void(const SynthesizeRequest &, SynthesizeReply)>;

  HttpEndpoint(); ///< Default options (loopback, ephemeral port).
  explicit HttpEndpoint(Options O);
  /// Graceful shutdown: stops accepting, wakes the poll loop, joins.
  ~HttpEndpoint();

  HttpEndpoint(const HttpEndpoint &) = delete;
  HttpEndpoint &operator=(const HttpEndpoint &) = delete;

  /// Binds, listens and spawns the server thread. On failure returns
  /// false with \p Error set and leaves the endpoint stopped; start()
  /// may be retried. Idempotent while running.
  bool start(std::string &Error);

  /// Stops the server thread and closes every socket. Idempotent;
  /// called by the destructor.
  void stop();

  bool running() const { return Running.load(std::memory_order_acquire); }

  /// The bound port (resolves an ephemeral request); 0 until started.
  uint16_t port() const { return BoundPort.load(std::memory_order_acquire); }

  const Options &options() const { return Opts; }

  /// Installs (or, with nullptr, removes) the /healthz-/readyz and
  /// /statusz sources, returning a registration token (0 for a null
  /// provider). Providers are invoked under an internal mutex, so after
  /// a clear returns no further calls are in flight — owners clear
  /// their provider before destruction.
  uint64_t setHealthProvider(HealthProvider P);
  uint64_t setStatusProvider(StatusProvider P);
  /// Same contract for the /v1/synthesize sink; without one the route
  /// answers 503.
  uint64_t setSynthesizeProvider(SynthesizeProvider P);

  /// Removes the matching provider only if \p Token is still the live
  /// registration. A stale owner's clear is a no-op, so when providers
  /// are replaced ("last registered wins") destroying the older owner
  /// cannot wipe the newer owner's registration. Token 0 is ignored.
  void clearHealthProvider(uint64_t Token);
  void clearStatusProvider(uint64_t Token);
  void clearSynthesizeProvider(uint64_t Token);

  /// Requests answered since start (any status code).
  uint64_t requestsServed() const {
    return Served.load(std::memory_order_relaxed);
  }

private:
  struct Conn;
  struct DeferredState;
  struct Waker;

  /// What processing one connection's buffered bytes decided.
  enum class ReqAction {
    Respond,  ///< A full response is ready; write it and close.
    NeedBody, ///< Head parsed; keep reading until the body is complete.
    Deferred, ///< Handed to the synthesize provider; park the connection.
  };

  void serverLoop();
  /// Parses a complete request head (request line + headers); GET routes
  /// answer immediately, POST /v1/synthesize validates Content-Length
  /// and switches the connection to body reading.
  ReqAction processHead(Conn &C, std::string &Resp);
  /// Runs once the declared body is fully buffered: parses the JSON and
  /// hands the query to the provider (Deferred), or rejects (Respond).
  ReqAction processBody(Conn &C, std::string &Resp);
  /// Counts and frames one response (status line, headers, body).
  /// \p Traceparent, when non-empty, is echoed as a `traceparent`
  /// response header so clients can correlate their answer with
  /// /debug/query/<trace-id>.
  std::string respond(std::string_view Path, int Code,
                      std::string_view ContentType, std::string_view Body,
                      unsigned RetryAfterSeconds = 0,
                      std::string_view Allow = {},
                      std::string_view Traceparent = {});
  std::string dispatch(std::string_view Target, int &Code,
                       std::string &ContentType);

  Options Opts;
  std::atomic<bool> Running{false};
  std::atomic<bool> StopFlag{false};
  std::atomic<uint16_t> BoundPort{0};
  std::atomic<uint64_t> Served{0};
  int ListenFd = -1;
  int WakeFds[2] = {-1, -1}; ///< Self-pipe waking poll() for shutdown.
  /// Shared handle to the wake pipe for deferred-reply callbacks, which
  /// may outlive a stop(): the waker is invalidated before the pipe
  /// closes, so a late reply wakes nobody instead of writing a dead fd.
  std::shared_ptr<Waker> WakeHandle;
  std::thread Server;

  std::mutex ProvidersM;
  HealthProvider Health;
  StatusProvider Status;
  SynthesizeProvider Synthesize;
  uint64_t HealthToken = 0; ///< Live registration ids; 0 = none.
  uint64_t StatusToken = 0;
  uint64_t SynthesizeToken = 0;
  uint64_t NextProviderToken = 1;
};

/// The process-wide endpoint installed by an `http:PORT` DGGT_METRICS
/// spec entry, or null. Service layers register their health/status
/// providers on it at construction.
std::shared_ptr<HttpEndpoint> httpEndpoint();

/// Installs \p Ep as the global endpoint (spec wiring; replaces any
/// previous one, which keeps serving until its owner drops it).
/// Providers registered on the previous endpoint do not migrate:
/// services constructed before the swap keep pointing at the old
/// instance, so re-configure before building services (see the
/// `http:` case in Export.cpp).
void setHttpEndpoint(std::shared_ptr<HttpEndpoint> Ep);

} // namespace dggt::obs

#endif // DGGT_OBS_HTTPENDPOINT_H
