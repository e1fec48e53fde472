//===- obs/HttpEndpoint.cpp - Live introspection scrape server ------------===//

#include "obs/HttpEndpoint.h"

#include "obs/BuildInfo.h"
#include "obs/Export.h"
#include "obs/Metrics.h"
#include "obs/Profiler.h"
#include "obs/QueryLog.h"
#include "support/Arena.h"
#include "support/FaultInjection.h"
#include "support/StringUtils.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <algorithm>
#include <poll.h>
#include <sstream>
#include <sys/socket.h>
#include <unistd.h>
#include <vector>

using namespace dggt;
using namespace dggt::obs;

namespace {

const char *statusText(int Code) {
  switch (Code) {
  case 200:
    return "OK";
  case 400:
    return "Bad Request";
  case 404:
    return "Not Found";
  case 405:
    return "Method Not Allowed";
  case 409:
    return "Conflict";
  case 411:
    return "Length Required";
  case 413:
    return "Content Too Large";
  case 429:
    return "Too Many Requests";
  case 502:
    return "Bad Gateway";
  case 503:
    return "Service Unavailable";
  case 504:
    return "Gateway Timeout";
  }
  return "Internal Server Error";
}

bool setNonBlocking(int Fd) {
  int Flags = fcntl(Fd, F_GETFL, 0);
  return Flags >= 0 && fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) == 0;
}

/// True when the DGGT_METRICS spec carries the explicit `insecure-bind`
/// entry — the operator's written consent to expose the unauthenticated
/// introspection surface beyond loopback. Read per start() call so a
/// test can flip it; the spec parser in Export.cpp accepts the entry as
/// a no-op (it is consumed here, not there).
bool insecureBindAllowed() {
  const char *Env = std::getenv("DGGT_METRICS");
  if (!Env)
    return false;
  for (const std::string &Item : split(Env, ","))
    if (trim(Item) == "insecure-bind")
      return true;
  return false;
}

/// Decodes %XX and '+' in a query-string component; invalid escapes pass
/// through verbatim (the filters they feed are substring matches, not
/// security decisions).
std::string urlDecode(std::string_view S) {
  auto Hex = [](char C) -> int {
    if (C >= '0' && C <= '9')
      return C - '0';
    if (C >= 'a' && C <= 'f')
      return C - 'a' + 10;
    if (C >= 'A' && C <= 'F')
      return C - 'A' + 10;
    return -1;
  };
  std::string Out;
  Out.reserve(S.size());
  for (size_t I = 0; I < S.size(); ++I) {
    if (S[I] == '+') {
      Out += ' ';
    } else if (S[I] == '%' && I + 2 < S.size() && Hex(S[I + 1]) >= 0 &&
               Hex(S[I + 2]) >= 0) {
      Out += static_cast<char>(Hex(S[I + 1]) * 16 + Hex(S[I + 2]));
      I += 2;
    } else {
      Out += S[I];
    }
  }
  return Out;
}

/// Splits "k1=v1&k2=v2" into decoded pairs.
std::vector<std::pair<std::string, std::string>>
parseQuery(std::string_view Query) {
  std::vector<std::pair<std::string, std::string>> Out;
  for (const std::string &Item : split(Query, "&")) {
    if (Item.empty())
      continue;
    size_t Eq = Item.find('=');
    if (Eq == std::string::npos)
      Out.emplace_back(urlDecode(Item), "");
    else
      Out.emplace_back(urlDecode(Item.substr(0, Eq)),
                       urlDecode(Item.substr(Eq + 1)));
  }
  return Out;
}

/// Handles POST /debug/profile/start|stop. Status mapping: 200 on a
/// state change, 409 when the request conflicts with the current state
/// (already running / not running), 400 for unparseable knobs, 500 when
/// the OS refuses the timer.
std::string profilerControl(std::string_view Path, std::string_view Query,
                            int &Code) {
  if (Path == "/debug/profile/stop") {
    if (profiler().stop()) {
      Code = 200;
      return "{\"status\":\"stopped\",\"samples_total\":" +
             std::to_string(profiler().samplesTotal()) + "}";
    }
    Code = 409;
    return "{\"error\":\"profiler is not running\"}";
  }
  uint64_t Hz = 99; // The classic just-off-100 rate: avoids lockstep
                    // with 10ms-periodic work.
  uint64_t Seconds = 0;
  for (const auto &[K, V] : parseQuery(Query)) {
    if (K == "hz") {
      std::optional<uint64_t> N = parseUnsigned(V);
      if (!N || *N == 0 || *N > 1000) {
        Code = 400;
        return "{\"error\":\"hz must be an integer in 1-1000\"}";
      }
      Hz = *N;
    } else if (K == "seconds") {
      std::optional<uint64_t> N = parseUnsigned(V);
      if (!N || *N == 0 || *N > 86400) {
        Code = 400;
        return "{\"error\":\"seconds must be an integer in 1-86400\"}";
      }
      Seconds = *N;
    }
  }
  switch (profiler().start(static_cast<unsigned>(Hz),
                           static_cast<double>(Seconds))) {
  case Profiler::StartStatus::Started:
    Code = 200;
    return "{\"status\":\"started\",\"hz\":" + std::to_string(Hz) +
           ",\"seconds\":" + std::to_string(Seconds) + "}";
  case Profiler::StartStatus::AlreadyRunning:
    Code = 409;
    return "{\"error\":\"profiler already running; stop it first\"}";
  case Profiler::StartStatus::BadRate:
    Code = 400;
    return "{\"error\":\"hz must be an integer in 1-1000\"}";
  case Profiler::StartStatus::Error:
    break;
  }
  Code = 500;
  return "{\"error\":\"cannot arm the profiling timer\"}";
}

/// One (name, value) the explainer ranks. The vocabulary is the record's
/// latency fields plus the DP-core cost vector — every number a slow
/// query could blame.
struct ExplainMetric {
  const char *Name;
  double Value;
};

std::vector<ExplainMetric> explainMetrics(const QueryLogRecord &R) {
  std::vector<ExplainMetric> M = {
      {"total_ms", R.TotalMs},
      {"queue_wait_ms", R.QueueWaitMs},
      {"stage_parse_ms", R.StageMs[0]},
      {"stage_prune_ms", R.StageMs[1]},
      {"stage_word_to_api_ms", R.StageMs[2]},
      {"stage_edge_to_path_ms", R.StageMs[3]},
  };
  if (R.Cost.Populated) {
    M.push_back({"path_searches", double(R.Cost.PathSearches)});
    M.push_back({"node_visits", double(R.Cost.NodeVisits)});
    M.push_back({"in_edge_scans", double(R.Cost.InEdgeScans)});
    M.push_back({"bitset_words", double(R.Cost.BitsetWordsTouched)});
    M.push_back({"merge_candidates", double(R.Cost.MergeCandidates)});
    M.push_back({"merge_survivors", double(R.Cost.MergeSurvivors)});
    M.push_back({"conflict_checks", double(R.Cost.ConflictChecks)});
    M.push_back({"cgt_fusion_ops", double(R.Cost.CgtFusionOps)});
    M.push_back({"arena_high_water_bytes",
                 double(R.Cost.ArenaHighWaterBytes)});
  }
  return M;
}

/// The slow-query explainer: ranks \p R's latency and cost metrics
/// against its same-domain peers in the querylog ring. For each metric,
/// the percentile rank (share of peers at or below R's value) and the
/// ratio to the peer median; sorted worst-first and capped, so the top
/// line reads "p99.7 in cgt_fusion_ops, 41x domain median".
std::string explainJson(const QueryLogRecord &R) {
  std::vector<QueryLogRecord> Peers = queryLog().snapshot();
  std::erase_if(Peers, [&](const QueryLogRecord &P) {
    return P.Domain != R.Domain;
  });
  std::ostringstream OS;
  OS << "{\"domain_peers\":" << Peers.size() << ",\"ranked\":[";
  if (Peers.empty()) {
    OS << "]}";
    return OS.str();
  }
  struct Ranked {
    const char *Name;
    double Value, Percentile, XMedian;
  };
  std::vector<Ranked> Out;
  for (const ExplainMetric &M : explainMetrics(R)) {
    std::vector<double> Vals;
    Vals.reserve(Peers.size());
    for (const QueryLogRecord &P : Peers)
      for (const ExplainMetric &PM : explainMetrics(P))
        if (std::strcmp(PM.Name, M.Name) == 0)
          Vals.push_back(PM.Value);
    if (Vals.empty())
      continue;
    std::sort(Vals.begin(), Vals.end());
    size_t AtOrBelow =
        std::upper_bound(Vals.begin(), Vals.end(), M.Value) - Vals.begin();
    double Pct = 100.0 * double(AtOrBelow) / double(Vals.size());
    double Median = Vals.size() % 2
                        ? Vals[Vals.size() / 2]
                        : (Vals[Vals.size() / 2 - 1] + Vals[Vals.size() / 2]) / 2;
    double XMed = Median > 0 ? M.Value / Median : (M.Value > 0 ? -1 : 1);
    Out.push_back({M.Name, M.Value, Pct, XMed});
  }
  // Worst offender first: highest percentile, then largest multiple of
  // the median as the tie-break (everything above median ties at p100
  // when the ring is small).
  std::stable_sort(Out.begin(), Out.end(), [](const Ranked &A,
                                              const Ranked &B) {
    if (A.Percentile != B.Percentile)
      return A.Percentile > B.Percentile;
    return A.XMedian > B.XMedian;
  });
  constexpr size_t Cap = 8;
  char Buf[64];
  for (size_t I = 0; I < Out.size() && I < Cap; ++I) {
    if (I)
      OS << ",";
    OS << "{\"metric\":\"" << Out[I].Name << "\",\"value\":";
    std::snprintf(Buf, sizeof(Buf), "%.6g", Out[I].Value);
    OS << Buf << ",\"percentile\":";
    std::snprintf(Buf, sizeof(Buf), "%.4g", Out[I].Percentile);
    OS << Buf << ",\"x_median\":";
    if (Out[I].XMedian < 0)
      OS << "null"; // Peer median is zero: a multiple is meaningless.
    else {
      std::snprintf(Buf, sizeof(Buf), "%.4g", Out[I].XMedian);
      OS << Buf;
    }
    OS << "}";
  }
  OS << "]}";
  return OS.str();
}

/// The bounded label vocabulary of dggt_http_requests_total: known
/// routes keep their path, everything else collapses to "other" so a
/// URL-scanning client cannot mint unbounded label values.
std::string_view routeLabel(std::string_view Path) {
  if (Path == "/metrics" || Path == "/debug/traces" || Path == "/healthz" ||
      Path == "/readyz" || Path == "/statusz" || Path == "/v1/synthesize" ||
      Path == "/debug/querylog" || Path == "/debug/profile" ||
      Path == "/debug/profile/start" || Path == "/debug/profile/stop")
    return Path;
  // Trace-id lookups collapse to one label: ids are client-chosen.
  if (Path.rfind("/debug/query/", 0) == 0)
    return "/debug/query";
  return "other";
}

void countRequest(std::string_view Path, int Code) {
  if (!metricsEnabled())
    return;
  char CodeBuf[8];
  std::snprintf(CodeBuf, sizeof(CodeBuf), "%d", Code);
  registry()
      .counter("dggt_http_requests_total", {{"path", std::string(routeLabel(Path))},
                                            {"code", CodeBuf}})
      .inc();
}

obs::Histogram &scrapeLatencyMs() {
  static obs::Histogram &H =
      registry().histogram("dggt_http_scrape_latency_ms");
  return H;
}

//===--------------------------------------------------------------------===//
// Minimal flat-JSON body parser
//===--------------------------------------------------------------------===//

/// Cursor over the /v1/synthesize request body. The accepted grammar is
/// deliberately small — one flat object of string and non-negative
/// integer members — because that is the entire request schema; a
/// nested value or trailing garbage is a 400, not something to recover.
struct JsonCursor {
  std::string_view S;
  size_t I = 0;

  void skipWs() {
    while (I < S.size() && (S[I] == ' ' || S[I] == '\t' || S[I] == '\r' ||
                            S[I] == '\n'))
      ++I;
  }
  bool eat(char C) {
    skipWs();
    if (I >= S.size() || S[I] != C)
      return false;
    ++I;
    return true;
  }
  bool atEnd() {
    skipWs();
    return I >= S.size();
  }

  /// Parses a JSON string literal (standard escapes, \uXXXX for code
  /// points below U+0800; surrogates are rejected — NL queries are
  /// plain text, not astral-plane payloads).
  bool parseString(std::string &Out) {
    skipWs();
    if (I >= S.size() || S[I] != '"')
      return false;
    ++I;
    Out.clear();
    while (I < S.size()) {
      char C = S[I++];
      if (C == '"')
        return true;
      if (static_cast<unsigned char>(C) < 0x20)
        return false; // Raw control characters are invalid JSON.
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (I >= S.size())
        return false;
      char E = S[I++];
      switch (E) {
      case '"': Out += '"'; break;
      case '\\': Out += '\\'; break;
      case '/': Out += '/'; break;
      case 'b': Out += '\b'; break;
      case 'f': Out += '\f'; break;
      case 'n': Out += '\n'; break;
      case 'r': Out += '\r'; break;
      case 't': Out += '\t'; break;
      case 'u': {
        if (I + 4 > S.size())
          return false;
        unsigned V = 0;
        for (int K = 0; K < 4; ++K) {
          char H = S[I++];
          V <<= 4;
          if (H >= '0' && H <= '9')
            V |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            V |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            V |= static_cast<unsigned>(H - 'A' + 10);
          else
            return false;
        }
        if (V >= 0xD800 && V <= 0xDFFF)
          return false;
        if (V < 0x80) {
          Out += static_cast<char>(V);
        } else if (V < 0x800) {
          Out += static_cast<char>(0xC0 | (V >> 6));
          Out += static_cast<char>(0x80 | (V & 0x3F));
        } else {
          Out += static_cast<char>(0xE0 | (V >> 12));
          Out += static_cast<char>(0x80 | ((V >> 6) & 0x3F));
          Out += static_cast<char>(0x80 | (V & 0x3F));
        }
        break;
      }
      default:
        return false;
      }
    }
    return false; // Unterminated.
  }

  bool parseNumber(uint64_t &Out) {
    skipWs();
    size_t Start = I;
    while (I < S.size() && S[I] >= '0' && S[I] <= '9')
      ++I;
    if (I == Start)
      return false;
    std::optional<uint64_t> N = parseUnsigned(S.substr(Start, I - Start));
    if (!N)
      return false;
    Out = *N;
    return true;
  }
};

/// Parses the request body into \p Req. Unknown string/number keys are
/// ignored (forward compatibility); anything structurally outside "one
/// flat object" fails.
bool parseSynthesizeBody(std::string_view Body, SynthesizeRequest &Req,
                         std::string &Error) {
  JsonCursor C{Body};
  if (!C.eat('{')) {
    Error = "body is not a JSON object";
    return false;
  }
  bool First = true;
  while (true) {
    C.skipWs();
    if (C.eat('}'))
      break;
    if (!First && !C.eat(',')) {
      Error = "expected ',' between members";
      return false;
    }
    First = false;
    std::string Key;
    if (!C.parseString(Key)) {
      Error = "expected string key";
      return false;
    }
    if (!C.eat(':')) {
      Error = "expected ':' after key";
      return false;
    }
    C.skipWs();
    if (C.I < C.S.size() && C.S[C.I] == '"') {
      std::string Val;
      if (!C.parseString(Val)) {
        Error = "malformed string value";
        return false;
      }
      if (Key == "query")
        Req.Query = std::move(Val);
      else if (Key == "domain")
        Req.Domain = std::move(Val);
    } else {
      uint64_t Val = 0;
      if (!C.parseNumber(Val)) {
        Error = "malformed value for key '" + Key + "'";
        return false;
      }
      if (Key == "budget_ms")
        Req.BudgetMs = Val;
    }
  }
  if (!C.atEnd()) {
    Error = "trailing bytes after the JSON object";
    return false;
  }
  if (Req.Domain.empty() || Req.Query.empty()) {
    Error = "missing required members 'domain' and/or 'query'";
    return false;
  }
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

/// One in-flight connection of the poll loop.
struct HttpEndpoint::Conn {
  int Fd = -1;
  std::string Buf; ///< Request bytes read so far.
  std::chrono::steady_clock::time_point Deadline;
  bool HeadDone = false; ///< Head parsed; now reading the body.
  size_t HeadEnd = 0;    ///< Offset of the "\r\n\r\n" terminator.
  size_t BodyLen = 0;    ///< Declared Content-Length.
  std::string Path;      ///< Request path (for the route counter).
  std::string Traceparent;    ///< Inbound `traceparent` header, if any.
  std::string TraceparentOut; ///< Echoed on the deferred reply / 504.
  /// Non-null while parked on the synthesize provider's answer.
  std::shared_ptr<DeferredState> Deferred;
};

/// The parking slot of one deferred request: the provider's reply
/// callback fills it from an arbitrary thread, the poll loop drains it.
/// Shared ownership (callback + connection) means whichever side is
/// late — a reply after the client hung up, a close after the reply —
/// touches valid memory and simply loses the race.
struct HttpEndpoint::DeferredState {
  std::atomic<bool> Ready{false};
  std::mutex M; ///< Guards Resp against the Ready publish.
  SynthesizeResponse Resp;
};

/// Shared handle to the poll loop's wake pipe. Reply callbacks hold a
/// weak_ptr: stop() invalidates the fd under the mutex before closing
/// the pipe, so a reply landing mid-shutdown wakes nobody instead of
/// writing to a recycled descriptor.
struct HttpEndpoint::Waker {
  std::mutex M;
  int Fd = -1;

  void wake() {
    std::lock_guard<std::mutex> L(M);
    if (Fd < 0)
      return;
    char B = 'x';
    [[maybe_unused]] ssize_t W = write(Fd, &B, 1);
  }
};

HttpEndpoint::HttpEndpoint() : HttpEndpoint(Options()) {}

HttpEndpoint::HttpEndpoint(Options O) : Opts(std::move(O)) {}

HttpEndpoint::~HttpEndpoint() { stop(); }

bool HttpEndpoint::start(std::string &Error) {
  if (Running.load(std::memory_order_acquire))
    return true;

  int Fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0) {
    Error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  int One = 1;
  setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));

  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Opts.Port);
  if (inet_pton(AF_INET, Opts.BindAddress.c_str(), &Addr.sin_addr) != 1) {
    Error = "bad bind address '" + Opts.BindAddress + "'";
    close(Fd);
    return false;
  }
  // The endpoint serves unauthenticated read-only introspection; leaving
  // loopback (anything outside 127.0.0.0/8, including 0.0.0.0) must be
  // the operator's written decision, not a config typo.
  if ((ntohl(Addr.sin_addr.s_addr) >> 24) != 127 && !insecureBindAllowed()) {
    Error = "refusing non-loopback bind address '" + Opts.BindAddress +
            "' (unauthenticated endpoint); add 'insecure-bind' to "
            "DGGT_METRICS to expose it beyond loopback";
    close(Fd);
    return false;
  }
  if (bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    Error = "bind " + Opts.BindAddress + ":" + std::to_string(Opts.Port) +
            ": " + std::strerror(errno);
    close(Fd);
    return false;
  }
  if (listen(Fd, 16) != 0) {
    Error = std::string("listen: ") + std::strerror(errno);
    close(Fd);
    return false;
  }
  socklen_t Len = sizeof(Addr);
  if (getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &Len) != 0) {
    Error = std::string("getsockname: ") + std::strerror(errno);
    close(Fd);
    return false;
  }
  if (!setNonBlocking(Fd)) {
    Error = std::string("fcntl: ") + std::strerror(errno);
    close(Fd);
    return false;
  }
  if (pipe(WakeFds) != 0) {
    Error = std::string("pipe: ") + std::strerror(errno);
    close(Fd);
    WakeFds[0] = WakeFds[1] = -1;
    return false;
  }
  setNonBlocking(WakeFds[0]);
  WakeHandle = std::make_shared<Waker>();
  WakeHandle->Fd = WakeFds[1];

  ListenFd = Fd;
  BoundPort.store(ntohs(Addr.sin_port), std::memory_order_release);
  StopFlag.store(false, std::memory_order_release);
  Running.store(true, std::memory_order_release);
  Server = std::thread([this] { serverLoop(); });

  if (Opts.Announce) {
    // Exact prefix parsed by cmake/CheckEndpointOutput.cmake; flushed so
    // a supervisor reading a pipe sees the port before the first scrape.
    std::printf("dggt-http-endpoint: listening on %s:%u\n",
                Opts.BindAddress.c_str(), static_cast<unsigned>(port()));
    std::fflush(stdout);
  }
  return true;
}

void HttpEndpoint::stop() {
  if (!Running.exchange(false, std::memory_order_acq_rel))
    return;
  StopFlag.store(true, std::memory_order_release);
  if (WakeFds[1] >= 0) {
    char B = 'x';
    [[maybe_unused]] ssize_t W = write(WakeFds[1], &B, 1);
  }
  if (Server.joinable())
    Server.join();
  // Invalidate the waker before the pipe closes: a late deferred reply
  // then no-ops instead of writing a dead (possibly recycled) fd.
  if (WakeHandle) {
    std::lock_guard<std::mutex> L(WakeHandle->M);
    WakeHandle->Fd = -1;
  }
  WakeHandle.reset();
  if (ListenFd >= 0)
    close(ListenFd);
  for (int &Fd : WakeFds)
    if (Fd >= 0)
      close(Fd);
  ListenFd = -1;
  WakeFds[0] = WakeFds[1] = -1;
  BoundPort.store(0, std::memory_order_release);
}

uint64_t HttpEndpoint::setHealthProvider(HealthProvider P) {
  std::lock_guard<std::mutex> L(ProvidersM);
  Health = std::move(P);
  HealthToken = Health ? NextProviderToken++ : 0;
  return HealthToken;
}

uint64_t HttpEndpoint::setStatusProvider(StatusProvider P) {
  std::lock_guard<std::mutex> L(ProvidersM);
  Status = std::move(P);
  StatusToken = Status ? NextProviderToken++ : 0;
  return StatusToken;
}

uint64_t HttpEndpoint::setSynthesizeProvider(SynthesizeProvider P) {
  std::lock_guard<std::mutex> L(ProvidersM);
  Synthesize = std::move(P);
  SynthesizeToken = Synthesize ? NextProviderToken++ : 0;
  return SynthesizeToken;
}

void HttpEndpoint::clearHealthProvider(uint64_t Token) {
  if (!Token)
    return;
  std::lock_guard<std::mutex> L(ProvidersM);
  if (HealthToken == Token) {
    Health = nullptr;
    HealthToken = 0;
  }
}

void HttpEndpoint::clearStatusProvider(uint64_t Token) {
  if (!Token)
    return;
  std::lock_guard<std::mutex> L(ProvidersM);
  if (StatusToken == Token) {
    Status = nullptr;
    StatusToken = 0;
  }
}

void HttpEndpoint::clearSynthesizeProvider(uint64_t Token) {
  if (!Token)
    return;
  std::lock_guard<std::mutex> L(ProvidersM);
  if (SynthesizeToken == Token) {
    Synthesize = nullptr;
    SynthesizeToken = 0;
  }
}

//===----------------------------------------------------------------------===//
// Server loop
//===----------------------------------------------------------------------===//

void HttpEndpoint::serverLoop() {
  std::vector<Conn> Conns;
  std::vector<pollfd> Pfds;

  auto CloseConn = [&](size_t I) {
    close(Conns[I].Fd);
    Conns.erase(Conns.begin() + static_cast<ptrdiff_t>(I));
  };

  /// Writes the whole response; the bodies are small and the peer is a
  /// scraper on loopback, so a short blocking write loop is fine.
  auto WriteAll = [&](int Fd, std::string_view Data) {
    size_t Off = 0;
    while (Off < Data.size()) {
      ssize_t N = send(Fd, Data.data() + Off, Data.size() - Off, MSG_NOSIGNAL);
      if (N > 0) {
        Off += static_cast<size_t>(N);
        continue;
      }
      if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        pollfd P{Fd, POLLOUT, 0};
        if (poll(&P, 1, static_cast<int>(Opts.RequestTimeoutMs)) <= 0)
          return; // Peer stalled; drop the rest.
        continue;
      }
      return; // Peer went away.
    }
  };

  while (!StopFlag.load(std::memory_order_acquire)) {
    Pfds.clear();
    Pfds.push_back({ListenFd, POLLIN, 0});
    Pfds.push_back({WakeFds[0], POLLIN, 0});
    for (const Conn &C : Conns)
      Pfds.push_back({C.Fd, POLLIN, 0});

    // 250 ms cap so idle-connection sweeping and shutdown stay prompt
    // even if the wake pipe write were ever lost.
    int N = poll(Pfds.data(), Pfds.size(), 250);
    if (StopFlag.load(std::memory_order_acquire))
      break;
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }

    // Only connections that existed when Pfds was built have a pollfd
    // (Pfds[I + 2] mirrors Conns[I] for I < Old); those accepted below
    // are first polled on the next iteration.
    size_t Old = Conns.size();

    // Accept new connections (bounded; beyond the cap: accept + close so
    // the backlog cannot fill with sockets we will never read).
    // SOCK_CLOEXEC so in-flight connection fds don't leak into children
    // across fork/exec, matching the listener.
    if (Pfds[0].revents & POLLIN) {
      while (true) {
        int Fd = accept4(ListenFd, nullptr, nullptr,
                         SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (Fd < 0)
          break;
        if (Conns.size() >= Opts.MaxConnections) {
          close(Fd);
          continue;
        }
        Conn C;
        C.Fd = Fd;
        C.Deadline = clockNow(Opts.Clock) +
                     std::chrono::milliseconds(Opts.RequestTimeoutMs);
        Conns.push_back(std::move(C));
      }
    }
    if (Pfds[1].revents & POLLIN) {
      char Buf[16];
      while (read(WakeFds[0], Buf, sizeof(Buf)) > 0) {
      }
    }

    // Service readable connections. Iterate backwards so CloseConn's
    // erase cannot skip an entry or shift a lower index out from under
    // its pollfd.
    for (size_t I = Old; I-- > 0;) {
      short Re = Pfds[I + 2].revents;
      Conn &C = Conns[I];
      if (Re & (POLLERR | POLLHUP | POLLNVAL)) {
        CloseConn(I);
        continue;
      }

      // A parked (deferred) connection is serviced on every wake: the
      // provider's answer is written when ready, the extended deadline
      // turns a never-answering provider into a 504, and bytes/EOF from
      // the client are drained so a vanished peer frees its slot.
      if (C.Deferred) {
        if (C.Deferred->Ready.load(std::memory_order_acquire)) {
          SynthesizeResponse R;
          {
            std::lock_guard<std::mutex> L(C.Deferred->M);
            R = C.Deferred->Resp;
          }
          // dataplane.reply: the response is computed but never makes it
          // back — the client sees a dropped connection (tests drive the
          // "who retries" half of the failure matrix with this).
          if (!faultFires(faults::DataplaneReply))
            WriteAll(C.Fd,
                     respond(C.Path, R.Code, "application/json", R.Body,
                             R.RetryAfterSeconds, {}, C.TraceparentOut));
          CloseConn(I);
          continue;
        }
        if (clockNow(Opts.Clock) >= C.Deadline) {
          WriteAll(C.Fd,
                   respond(C.Path, 504, "application/json",
                           "{\"error\":\"synthesis did not complete before "
                           "the deadline\"}",
                           0, {}, C.TraceparentOut));
          CloseConn(I);
          continue;
        }
        if (Re & POLLIN) {
          char Buf[256];
          ssize_t R = recv(C.Fd, Buf, sizeof(Buf), 0);
          if (R == 0 || (R < 0 && errno != EAGAIN && errno != EWOULDBLOCK))
            CloseConn(I); // Client gone; the late answer is dropped.
        }
        continue;
      }

      // Deadline applies whether or not bytes arrived: a client
      // trickling one byte per poll round must not outlive the timeout,
      // and the same clock covers head and body reads.
      if (clockNow(Opts.Clock) >= C.Deadline) {
        CloseConn(I);
        continue;
      }
      if (!(Re & POLLIN))
        continue;
      char Buf[4096];
      ssize_t R = recv(C.Fd, Buf, sizeof(Buf), 0);
      if (R == 0 || (R < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
        CloseConn(I);
        continue;
      }
      if (R > 0)
        C.Buf.append(Buf, static_cast<size_t>(R));

      if (!C.HeadDone) {
        size_t HeadEnd = C.Buf.find("\r\n\r\n");
        if (HeadEnd == std::string::npos) {
          if (C.Buf.size() > Opts.MaxRequestBytes) {
            // Oversized or never-terminating head: strict 400, close.
            WriteAll(C.Fd,
                     respond("", 400, "application/json",
                             "{\"error\":\"request head too large\"}"));
            CloseConn(I);
          }
          continue;
        }
        C.HeadEnd = HeadEnd;
        std::string Resp;
        ReqAction Act = processHead(C, Resp);
        if (Act == ReqAction::Respond) {
          WriteAll(C.Fd, Resp);
          CloseConn(I);
          continue;
        }
        // NeedBody: fall through — the bytes read alongside the head may
        // already complete the body.
      }

      if (C.Buf.size() >= C.HeadEnd + 4 + C.BodyLen) {
        std::string Resp;
        ReqAction Act = processBody(C, Resp);
        if (Act == ReqAction::Respond) {
          WriteAll(C.Fd, Resp);
          CloseConn(I);
        }
        // Deferred: the connection parks; serviced above on later wakes.
      }
    }
  }

  for (const Conn &C : Conns)
    close(C.Fd);
}

//===----------------------------------------------------------------------===//
// Request handling
//===----------------------------------------------------------------------===//

std::string HttpEndpoint::respond(std::string_view Path, int Code,
                                  std::string_view ContentType,
                                  std::string_view Body,
                                  unsigned RetryAfterSeconds,
                                  std::string_view Allow,
                                  std::string_view Traceparent) {
  Served.fetch_add(1, std::memory_order_relaxed);
  countRequest(Path, Code);

  std::string Resp;
  Resp.reserve(Body.size() + 200);
  Resp += "HTTP/1.1 ";
  Resp += std::to_string(Code);
  Resp += " ";
  Resp += statusText(Code);
  Resp += "\r\nContent-Type: ";
  Resp += ContentType;
  if (!Allow.empty()) {
    Resp += "\r\nAllow: ";
    Resp += Allow;
  }
  if (!Traceparent.empty()) {
    Resp += "\r\ntraceparent: ";
    Resp += Traceparent;
  }
  if (RetryAfterSeconds > 0) {
    Resp += "\r\nRetry-After: ";
    Resp += std::to_string(RetryAfterSeconds);
  }
  Resp += "\r\nContent-Length: ";
  Resp += std::to_string(Body.size());
  Resp += "\r\nConnection: close\r\n\r\n";
  Resp += Body;
  return Resp;
}

HttpEndpoint::ReqAction HttpEndpoint::processHead(Conn &C, std::string &Resp) {
  ScopedLatencyMs Latency(scrapeLatencyMs());

  // Strict request line: exactly "METHOD SP TARGET SP HTTP/1.x", single
  // spaces, target starting with '/'.
  std::string_view Head(C.Buf.data(), C.HeadEnd);
  std::string_view Line = Head.substr(0, Head.find("\r\n"));

  size_t Sp1 = Line.find(' ');
  size_t Sp2 = Sp1 == std::string_view::npos ? std::string_view::npos
                                             : Line.find(' ', Sp1 + 1);
  if (!(Sp1 != std::string_view::npos && Sp2 != std::string_view::npos &&
        Line.find(' ', Sp2 + 1) == std::string_view::npos && Sp1 > 0 &&
        Sp2 > Sp1 + 1 && Sp2 + 1 < Line.size())) {
    Resp = respond("", 400, "application/json",
                   "{\"error\":\"malformed request line\"}");
    return ReqAction::Respond;
  }
  std::string_view Method = Line.substr(0, Sp1);
  std::string_view Target = Line.substr(Sp1 + 1, Sp2 - Sp1 - 1);
  std::string_view Version = Line.substr(Sp2 + 1);
  if (!((Version == "HTTP/1.1" || Version == "HTTP/1.0") &&
        Target.front() == '/')) {
    Resp = respond("", 400, "application/json",
                   "{\"error\":\"malformed request line\"}");
    return ReqAction::Respond;
  }
  std::string_view Path = Target.substr(0, Target.find('?'));
  C.Path = std::string(Path);

  if (Path == "/v1/synthesize") {
    if (Method != "POST") {
      Resp = respond(Path, 405, "application/json",
                     "{\"error\":\"/v1/synthesize is POST-only\"}", 0, "POST");
      return ReqAction::Respond;
    }
    // Exactly one well-formed Content-Length header frames the body.
    // Duplicates (even agreeing ones) and anything the strict unsigned
    // parser rejects are a 400: request smuggling primitives, not
    // tolerable sloppiness.
    size_t Found = 0;
    uint64_t Length = 0;
    bool Malformed = false;
    std::vector<std::string> Lines = split(Head, "\r\n");
    for (size_t LI = 1; LI < Lines.size(); ++LI) {
      std::string_view HeaderLine = Lines[LI];
      size_t Colon = HeaderLine.find(':');
      if (Colon == std::string_view::npos)
        continue;
      std::string HeaderName = toLower(trim(HeaderLine.substr(0, Colon)));
      if (HeaderName == "traceparent") {
        C.Traceparent = std::string(trim(HeaderLine.substr(Colon + 1)));
        continue;
      }
      if (HeaderName != "content-length")
        continue;
      ++Found;
      std::optional<uint64_t> N =
          parseUnsigned(trim(HeaderLine.substr(Colon + 1)));
      if (!N)
        Malformed = true;
      else
        Length = *N;
    }
    if (Found == 0) {
      Resp = respond(Path, 411, "application/json",
                     "{\"error\":\"Content-Length required\"}");
      return ReqAction::Respond;
    }
    if (Found > 1 || Malformed) {
      Resp = respond(Path, 400, "application/json",
                     "{\"error\":\"malformed or duplicate Content-Length\"}");
      return ReqAction::Respond;
    }
    if (Length > Opts.MaxBodyBytes) {
      Resp = respond(Path, 413, "application/json",
                     "{\"error\":\"request body exceeds the limit\"}");
      return ReqAction::Respond;
    }
    C.BodyLen = static_cast<size_t>(Length);
    C.HeadDone = true;
    return ReqAction::NeedBody;
  }

  // On-demand profiler control: POST-only, no body (state changes must
  // not ride on a cacheable GET).
  if (Path == "/debug/profile/start" || Path == "/debug/profile/stop") {
    if (Method != "POST") {
      Resp = respond(Path, 405, "application/json",
                     "{\"error\":\"profiler control is POST-only\"}", 0,
                     "POST");
      return ReqAction::Respond;
    }
    std::string_view Query = Target.size() > Path.size() + 1
                                 ? Target.substr(Path.size() + 1)
                                 : std::string_view();
    int Code = 200;
    std::string Body = profilerControl(Path, Query, Code);
    Resp = respond(Path, Code, "application/json", Body);
    return ReqAction::Respond;
  }

  if (Method != "GET") {
    Resp = respond(Path, 405, "application/json",
                   "{\"error\":\"method not allowed; only /v1/synthesize "
                   "accepts POST\"}",
                   0, "GET");
    return ReqAction::Respond;
  }
  int Code = 200;
  std::string ContentType = "application/json";
  std::string Body = dispatch(Target, Code, ContentType);
  Resp = respond(Path, Code, ContentType, Body);
  return ReqAction::Respond;
}

HttpEndpoint::ReqAction HttpEndpoint::processBody(Conn &C, std::string &Resp) {
  std::string_view Body(C.Buf.data() + C.HeadEnd + 4, C.BodyLen);

  SynthesizeRequest Req;
  std::string Error;
  if (!parseSynthesizeBody(Body, Req, Error)) {
    Resp = respond(C.Path, 400, "application/json",
                   "{\"error\":\"" + escapeJson(Error) + "\"}");
    return ReqAction::Respond;
  }

  std::lock_guard<std::mutex> L(ProvidersM);
  if (!Synthesize) {
    Resp = respond(C.Path, 503, "application/json",
                   "{\"error\":\"no synthesis service registered\"}", 1);
    return ReqAction::Respond;
  }

  // Mint the query's trace context — adopting an inbound W3C
  // traceparent when the client sent one — and pre-allocate the
  // request's root span. Everything downstream (queue task, ladder,
  // pipeline stages) parents under that root; the span itself is
  // emitted by the reply callback once the outcome is known, before the
  // owning tier settles the trace's keep/drop decision.
  QueryContext Ctx;
  if (C.Traceparent.empty() || !parseTraceparent(C.Traceparent, Ctx))
    Ctx = startQueryContext();
  attachTraceBuffer(Ctx);
  uint64_t RootSpan = newSpanId();
  uint64_t InboundParent = Ctx.ParentSpan;
  Ctx.ParentSpan = RootSpan;
  Req.Ctx = Ctx;
  C.TraceparentOut = traceparentHeader(Ctx);

  // Park the connection: the provider answers through the callback from
  // whatever thread completes the query, and the wake pipe nudges the
  // poll loop to write it out. The parked deadline covers the declared
  // budget plus the normal request timeout (or the synthesize ceiling
  // when the request left the budget to the domain default), so a
  // provider that never answers becomes a 504.
  auto D = std::make_shared<DeferredState>();
  C.Deferred = D;
  uint64_t ParkMs = Req.BudgetMs > 0 ? Req.BudgetMs + Opts.RequestTimeoutMs
                                     : Opts.SynthesizeTimeoutMs;
  C.Deadline = clockNow(Opts.Clock) + std::chrono::milliseconds(ParkMs);
  std::weak_ptr<Waker> W = WakeHandle;
  double StartSec = nowSecondsSinceEpoch();
  Synthesize(Req, [D, W, Ctx, RootSpan, InboundParent, StartSec,
                   Domain = Req.Domain](SynthesizeResponse R) {
    // The request's root span, emitted before Ready publishes: the
    // tier that owns the query's record settles the trace only after
    // this callback returns, so the root is always in the buffer by
    // the time the keep/drop decision flushes it.
    SpanRecord S;
    S.SpanId = RootSpan;
    S.ParentId = InboundParent;
    S.Name = "http.synthesize";
    S.StartSeconds = StartSec;
    S.DurationSeconds = nowSecondsSinceEpoch() - StartSec;
    S.Attrs.emplace_back("domain", Domain);
    S.Attrs.emplace_back("code", std::to_string(R.Code));
    emitSpan(Ctx, std::move(S));
    {
      std::lock_guard<std::mutex> L(D->M);
      D->Resp = std::move(R);
    }
    D->Ready.store(true, std::memory_order_release);
    if (std::shared_ptr<Waker> Wk = W.lock())
      Wk->wake();
  });
  return ReqAction::Deferred;
}

std::string HttpEndpoint::dispatch(std::string_view Target, int &Code,
                                   std::string &ContentType) {
  std::string_view Path = Target.substr(0, Target.find('?'));
  std::string_view Query = Target.size() > Path.size()
                               ? Target.substr(Path.size() + 1)
                               : std::string_view();
  Code = 200;
  ContentType = "application/json";

  if (Path == "/metrics") {
    ContentType = "text/plain; version=0.0.4; charset=utf-8";
    std::ostringstream OS;
    writePrometheusText(collectMetrics(), OS);
    return OS.str();
  }

  if (Path == "/debug/traces") {
    size_t Limit = SIZE_MAX;
    std::string NameFilter;
    for (const auto &[K, V] : parseQuery(Query)) {
      if (K == "limit") {
        if (std::optional<uint64_t> N = parseUnsigned(V))
          Limit = static_cast<size_t>(*N);
      } else if (K == "span") {
        NameFilter = V;
      }
    }
    std::ostringstream OS;
    std::shared_ptr<SpanRingSink> Ring = spanRing();
    OS << "{\"spans\":[";
    size_t Count = 0;
    if (Ring) {
      std::vector<SpanRecord> Spans = Ring->snapshot();
      if (!NameFilter.empty()) {
        std::erase_if(Spans, [&](const SpanRecord &S) {
          return S.Name.find(NameFilter) == std::string::npos;
        });
      }
      // ?limit keeps the *newest* N (the snapshot is oldest-first).
      size_t Begin = Spans.size() > Limit ? Spans.size() - Limit : 0;
      for (size_t I = Begin; I < Spans.size(); ++I) {
        if (Count++)
          OS << ",";
        writeSpanJson(Spans[I], OS);
      }
    }
    OS << "],\"count\":" << Count
       << ",\"ring_configured\":" << (Ring ? "true" : "false")
       << ",\"ring_capacity\":" << (Ring ? Ring->capacity() : 0)
       << ",\"overwritten\":" << (Ring ? Ring->overwritten() : 0)
       << ",\"dropped_by_sampling\":" << Tracer::droppedSpans() << "}";
    return OS.str();
  }

  if (Path == "/debug/profile") {
    // Collapsed/folded stacks ("a;b;c 42" lines), the flamegraph input
    // format. 404 until the profiler has captured anything: an empty
    // profile is indistinguishable from a misconfigured one, so say so.
    std::string Folded = profiler().foldedStacks();
    if (Folded.empty()) {
      Code = 404;
      return "{\"error\":\"no profile samples; start with the prof:HZ "
             "entry of DGGT_METRICS or POST /debug/profile/start\"}";
    }
    ContentType = "text/plain; charset=utf-8";
    return Folded;
  }

  if (Path == "/debug/querylog") {
    size_t Limit = SIZE_MAX;
    size_t Slowest = 0;
    std::string DomainF, OutcomeF;
    double MinMs = -1;
    for (const auto &[K, V] : parseQuery(Query)) {
      if (K == "limit") {
        if (std::optional<uint64_t> N = parseUnsigned(V))
          Limit = static_cast<size_t>(*N);
      } else if (K == "domain") {
        DomainF = V;
      } else if (K == "outcome") {
        OutcomeF = V;
      } else if (K == "min_ms") {
        if (std::optional<uint64_t> N = parseUnsigned(V))
          MinMs = static_cast<double>(*N);
      } else if (K == "slowest") {
        if (std::optional<uint64_t> N = parseUnsigned(V))
          Slowest = static_cast<size_t>(*N);
      }
    }
    std::vector<QueryLogRecord> Recs = queryLog().snapshot();
    std::erase_if(Recs, [&](const QueryLogRecord &R) {
      return (!DomainF.empty() && R.Domain != DomainF) ||
             (!OutcomeF.empty() && R.Outcome != OutcomeF) ||
             (MinMs >= 0 && R.TotalMs < MinMs);
    });
    if (Slowest > 0) {
      // Top-N by total latency, slowest first — the "what hurt today"
      // view. Stable so equal-latency records keep ring (time) order.
      std::stable_sort(Recs.begin(), Recs.end(),
                       [](const QueryLogRecord &A, const QueryLogRecord &B) {
                         return A.TotalMs > B.TotalMs;
                       });
      if (Recs.size() > Slowest)
        Recs.resize(Slowest);
    }
    std::ostringstream OS;
    OS << "{\"records\":[";
    // ?limit keeps the *newest* N (the snapshot is oldest-first).
    size_t Begin = Recs.size() > Limit ? Recs.size() - Limit : 0;
    size_t Count = 0;
    for (size_t I = Begin; I < Recs.size(); ++I)
      OS << (Count++ ? "," : "") << queryLogRecordJson(Recs[I]);
    OS << "],\"count\":" << Count << ",\"total\":" << queryLog().total()
       << ",\"overwritten\":" << queryLog().overwritten() << "}";
    return OS.str();
  }

  if (Path.rfind("/debug/query/", 0) == 0) {
    std::string_view Id = Path.substr(sizeof("/debug/query/") - 1);
    // Parse the 32-hex id into the (hi, lo) pair the span ring stamps.
    auto HexVal = [](char Ch) -> int {
      if (Ch >= '0' && Ch <= '9')
        return Ch - '0';
      if (Ch >= 'a' && Ch <= 'f')
        return Ch - 'a' + 10;
      return -1;
    };
    uint64_t Hi = 0, Lo = 0;
    bool IdOk = Id.size() == 32;
    for (size_t I = 0; IdOk && I < Id.size(); ++I) {
      int V = HexVal(Id[I]);
      if (V < 0) {
        IdOk = false;
        break;
      }
      uint64_t &Half = I < 16 ? Hi : Lo;
      Half = (Half << 4) | static_cast<uint64_t>(V);
    }
    std::shared_ptr<const QueryLogRecord> Rec = queryLog().findByTraceId(Id);
    std::ostringstream SpansOS;
    size_t SpanCount = 0;
    if (IdOk) {
      if (std::shared_ptr<SpanRingSink> Ring = spanRing()) {
        for (const SpanRecord &S : Ring->snapshot()) {
          if (S.TraceHi != Hi || S.TraceId != Lo)
            continue;
          if (SpanCount++)
            SpansOS << ",";
          writeSpanJson(S, SpansOS);
        }
      }
    }
    if (!Rec && SpanCount == 0) {
      Code = 404;
      return "{\"error\":\"unknown trace id\"}";
    }
    std::ostringstream OS;
    OS << "{\"trace_id\":\"" << escapeJson(Id) << "\",\"record\":";
    if (Rec)
      OS << queryLogRecordJson(*Rec) << ",\"explain\":" << explainJson(*Rec);
    else
      OS << "null,\"explain\":null";
    OS << ",\"spans\":[" << SpansOS.str() << "],\"span_count\":" << SpanCount
       << "}";
    return OS.str();
  }

  if (Path == "/healthz" || Path == "/readyz") {
    HealthStatus St;
    std::string Detail = "no service registered";
    {
      std::lock_guard<std::mutex> L(ProvidersM);
      if (Health) {
        St = Health();
        Detail = St.Detail;
      }
    }
    bool Pass = Path == "/healthz" ? St.Healthy : St.Ready;
    Code = Pass ? 200 : 503;
    std::ostringstream OS;
    OS << "{\"status\":\"" << (Pass ? "ok" : "unavailable")
       << "\",\"ready\":" << (St.Ready ? "true" : "false")
       << ",\"healthy\":" << (St.Healthy ? "true" : "false")
       << ",\"detail\":\"" << escapeJson(Detail) << "\"}";
    return OS.str();
  }

  if (Path == "/statusz") {
    std::ostringstream OS;
    OS << "{\"build\":{\"version\":\"" << escapeJson(buildVersion())
       << "\",\"git_sha\":\"" << escapeJson(buildGitSha())
       << "\",\"sanitizers\":\"" << escapeJson(buildSanitizers())
       << "\"},\"uptime_seconds\":" << uptimeSeconds()
       << ",\"endpoint\":{\"port\":" << port()
       << ",\"requests_served\":" << requestsServed() << "}";
    // Per-query scratch footprint: the process-wide arena peak plus the
    // p50/p99 of the dggt_arena_high_water_bytes histogram (when any
    // query observed into it yet).
    OS << ",\"arena\":{\"process_high_water_bytes\":"
       << Arena::processHighWater();
    for (const MetricSnapshot &M : registry().snapshot()) {
      if (M.Name != "dggt_arena_high_water_bytes" ||
          M.K != MetricSnapshot::Kind::Histogram || M.Count == 0)
        continue;
      OS << ",\"query_count\":" << M.Count << ",\"p50_bytes\":"
         << static_cast<uint64_t>(
                percentileFromCounts(M.Bounds, M.BucketCounts, 50))
         << ",\"p99_bytes\":"
         << static_cast<uint64_t>(
                percentileFromCounts(M.Bounds, M.BucketCounts, 99));
      break;
    }
    OS << "}";
    OS << ",\"profiler\":{\"running\":"
       << (profiler().running() ? "true" : "false")
       << ",\"hz\":" << profiler().hz()
       << ",\"samples_total\":" << profiler().samplesTotal()
       << ",\"dropped_total\":" << profiler().droppedTotal()
       << ",\"handler_nanos_total\":" << profiler().handlerNanosTotal()
       << ",\"wall_nanos_total\":" << profiler().wallNanosTotal() << "}";
    {
      std::lock_guard<std::mutex> L(ProvidersM);
      if (Status)
        OS << ",\"service\":" << Status();
      else
        OS << ",\"service\":null";
    }
    OS << "}";
    return OS.str();
  }

  Code = 404;
  return "{\"error\":\"not found\",\"routes\":[\"/metrics\",\"/debug/traces\","
         "\"/debug/querylog\",\"/debug/query/<trace-id>\","
         "\"/debug/profile\",\"/debug/profile/start\","
         "\"/debug/profile/stop\",\"/healthz\",\"/readyz\",\"/statusz\"]}";
}

//===----------------------------------------------------------------------===//
// Global endpoint (http:PORT spec wiring)
//===----------------------------------------------------------------------===//

namespace {

struct GlobalEndpoint {
  std::mutex M;
  std::shared_ptr<HttpEndpoint> Ep;
};

GlobalEndpoint &globalEndpoint() {
  // Intentionally leaked, like the registry: service layers may look the
  // endpoint up during static teardown of their owners.
  static GlobalEndpoint *G = new GlobalEndpoint();
  return *G;
}

} // namespace

std::shared_ptr<HttpEndpoint> obs::httpEndpoint() {
  GlobalEndpoint &G = globalEndpoint();
  std::lock_guard<std::mutex> L(G.M);
  return G.Ep;
}

void obs::setHttpEndpoint(std::shared_ptr<HttpEndpoint> Ep) {
  GlobalEndpoint &G = globalEndpoint();
  std::lock_guard<std::mutex> L(G.M);
  G.Ep = std::move(Ep);
}
