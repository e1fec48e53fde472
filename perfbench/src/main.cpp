//===- perfbench/src/main.cpp - The repository benchmark -----------------===//
///
/// \file
/// Runs one named workload against the DGGT pipeline and its serving
/// stack, checks every answer against hand-written ground truth, and
/// prints the metrics as one JSON line (the last line of stdout):
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             [--data DIR] [--spans FILE]
///
/// --trace 0 measures the end-to-end metrics with nothing traced.
/// --trace 1 replays the same inputs, calls each layer's public entry
/// point in turn with a span around every call, derives the per-layer
/// metrics from those spans and the count structs the layers return,
/// and writes the spans to --spans. See perfbench/README.md for the
/// workloads and the definition of every metric.
///
//===----------------------------------------------------------------------===//

#include "Http.h"
#include "Inputs.h"
#include "Spans.h"

#include "domains/Domain.h"
#include "grammar/PathCache.h"
#include "nlp/DependencyParser.h"
#include "nlp/GraphPruner.h"
#include "obs/Cost.h"
#include "obs/HttpEndpoint.h"
#include "obs/Metrics.h"
#include "obs/QueryLog.h"
#include "service/AsyncSynthesisService.h"
#include "support/Arena.h"
#include "synth/dggt/DggtSynthesizer.h"
#include "text/Warmup.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace dggt;
using namespace perfbench;

namespace {

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

enum class Mode { Cold, Zipf, Http };

/// One workload. Every thread it starts (clients plus service workers
/// plus the HTTP poll thread) fits in four cores. zipf_served is not
/// listed in BENCHMARK.json (see README.md) but runs the same way.
struct Spec {
  const char *Name;
  Mode M;
  const char *Domain;     ///< Cold workloads: the dataset replayed.
  uint64_t BudgetMs;      ///< Per-query deadline.
  double OfferedQps;      ///< zipf_served: fixed open-loop arrival rate.
  unsigned Workers;       ///< Service worker threads.
  unsigned Window;        ///< Closed-loop requests in flight.
  double AccuracyFloor;   ///< Cold: today's dataset accuracy.
};

const Spec Specs[] = {
    {"am_cold", Mode::Cold, "ASTMatcher", 2000, 0, 1, 1, 0.900},
    {"te_cold", Mode::Cold, "TextEditing", 2000, 0, 1, 1, 0.965},
    {"zipf_served", Mode::Zipf, nullptr, 300, 1000, 3, 12, 0},
    {"http_served", Mode::Http, nullptr, 300, 0, 1, 1, 0},
};

/// Set-ups per run (at least this many, and for at least
/// SetupMinSeconds); setup_s is their median.
constexpr int SetupMinRepeats = 15;
constexpr double SetupMinSeconds = 0.3;
/// zipf_served: share of --seconds spent in the open-loop phase (the
/// rest is the closed-loop throughput phase).
constexpr double OpenLoopShare = 0.65;
/// zipf_served: untimed process warm-up before the caches are emptied.
constexpr double WarmupSeconds = 0.5;
/// zipf_served: open-loop/closed-loop cycles per run, and the initial
/// cache-fill window its latency figures skip.
constexpr int ZipfCycles = 5;
constexpr double ZipfFillS = 1.0;
/// zipf_served: throughput is the median completion rate over
/// closed-loop slices this long.
constexpr double ThroughputSliceS = 0.35;
/// http_served: size of the working set the client cycles through.
constexpr size_t HttpPrefix = 500;
/// http_served: its figures come from the best slice this long.
constexpr double HttpSliceS = 2.0;
/// Traced runs of the served workloads replay this stream prefix
/// through the layer-by-layer pass.
constexpr size_t LayerPassServedQueries = 200;
/// Self-check bound on bench.unattributed_ms: time inside a traced
/// query that no layer span covers (arena/counter resets, bookkeeping).
constexpr double UnattributedBoundMs = 0.05;
constexpr double UnattributedBoundFrac = 0.05;

struct Args {
  const Spec *W = nullptr;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Data = "perfbench/data";
  std::string Spans;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  std::string Name;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    if (K == "--workload")
      Name = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      A.Seconds = std::atof(V.c_str());
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--data")
      A.Data = V;
    else if (K == "--spans")
      A.Spans = V;
    else
      return false;
  }
  if (Argc % 2 != 1)
    return false;
  for (const Spec &S : Specs)
    if (Name == S.Name)
      A.W = &S;
  return A.W && A.Seconds > 0;
}

//===----------------------------------------------------------------------===//
// Statistics and output
//===----------------------------------------------------------------------===//

/// Exact P-th percentile of raw samples (linear interpolation between
/// the two closest order statistics).
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = P / 100.0 * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double mean(const std::vector<double> &V) {
  return V.empty() ? 0.0
                   : std::accumulate(V.begin(), V.end(), 0.0) /
                         static_cast<double>(V.size());
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

/// What the run prints: the verdict, the counts and the metrics.
struct Output {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  struct Metric {
    std::string Name, Unit;
    double Value;
    size_t Samples;
  };
  std::vector<Metric> Metrics;

  void metric(const std::string &Name, const char *Unit, double Value,
              size_t Samples) {
    Metrics.push_back({Name, Unit, Value, Samples});
  }
  void check(bool Ok, const std::string &What) {
    std::fprintf(stderr, "[perfbench] check %-44s %s\n", What.c_str(),
                 Ok ? "ok" : "FAILED");
    Correct = Correct && Ok;
  }
  void print() const {
    for (const Metric &M : Metrics)
      std::fprintf(stderr, "[perfbench] %-34s %14.6f %-7s (n=%zu)\n",
                   M.Name.c_str(), M.Value, M.Unit.c_str(), M.Samples);
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                Correct ? "true" : "false", Attempted, Failed);
    for (size_t I = 0; I < Metrics.size(); ++I)
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  I ? ", " : "", Metrics[I].Name.c_str(), Metrics[I].Value,
                  Metrics[I].Unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
  }
};

//===----------------------------------------------------------------------===//
// The system under test
//===----------------------------------------------------------------------===//

/// Domains by the input files' domain index, plus the serving stack.
struct World {
  std::vector<std::unique_ptr<Domain>> Domains;
  std::unique_ptr<AsyncSynthesisService> Svc;

  const Domain &domain(uint32_t I) const { return *Domains[I]; }
  uint16_t port() const {
    obs::HttpEndpoint *Ep = Svc ? Svc->service().endpoint() : nullptr;
    return Ep ? Ep->port() : 0;
  }
};

std::unique_ptr<Domain> makeDomain(const std::string &Name) {
  if (Name == "TextEditing")
    return makeTextEditingDomain();
  if (Name == "ASTMatcher")
    return makeAstMatcherDomain();
  return nullptr;
}

/// Builds what the workload serves from: its domains (a cold workload
/// only its dataset's), and for served workloads — or any traced run,
/// whose layer pass calls the service and HTTP entry points — an
/// AsyncSynthesisService with an HTTP endpoint on an ephemeral port.
std::unique_ptr<World> buildWorld(const Spec &W, const Inputs &In,
                                  bool WithService) {
  auto Out = std::make_unique<World>();
  warmupTextTables();
  for (const std::string &Name : In.DomainNames)
    Out->Domains.push_back(W.M != Mode::Cold || Name == W.Domain
                               ? makeDomain(Name)
                               : nullptr);
  if (!WithService)
    return Out;
  AsyncOptions O;
  O.Workers = W.Workers;
  O.QueueCap = 256;
  O.Service.TotalBudgetMs = W.BudgetMs;
  O.Service.HttpPort = 0;
  if (W.M == Mode::Cold) {
    // Cold workloads bypass the shared caches.
    O.Service.PathCacheBytes = 0;
    O.Service.WordCacheBytes = 0;
  }
  Out->Svc = std::make_unique<AsyncSynthesisService>(O);
  for (const auto &D : Out->Domains)
    if (D)
      Out->Svc->addDomain(*D);
  // The endpoint switches the metrics registry on; the cold workloads
  // measure the bare pipeline, the served ones run production-shaped.
  obs::setMetricsEnabled(W.M != Mode::Cold);
  return Out;
}

/// Repeats a full set-up, from nothing to ready-to-serve, at least
/// SetupMinRepeats times and for at least SetupMinSeconds, appending
/// each one's time (s) to \p Times; returns the last World.
std::unique_ptr<World> setUp(const Spec &W, const Inputs &In,
                             bool WithService, std::vector<double> &Times) {
  std::unique_ptr<World> Out;
  double Total = 0;
  for (int I = 0; I < SetupMinRepeats || Total < SetupMinSeconds; ++I) {
    Out.reset();
    Clock::time_point T0 = Clock::now();
    Out = buildWorld(W, In, WithService);
    while (WithService && Out->port() == 0)
      std::this_thread::yield();
    Times.push_back(msBetween(T0, Clock::now()) / 1000.0);
    Total += Times.back();
  }
  return Out;
}

bool expectedOutcome(const PoolEntry &E, bool Ok, const std::string &Expr) {
  return E.expectOk() ? Ok && normalized(Expr) == E.Expected : !Ok;
}

/// Statuses that mean "no answer inside the budget".
bool isFailure(ServiceStatus St) {
  return St == ServiceStatus::DeadlineExceeded ||
         St == ServiceStatus::Overloaded || St == ServiceStatus::Cancelled ||
         St == ServiceStatus::CircuitOpen || St == ServiceStatus::Draining ||
         St == ServiceStatus::UnknownDomain;
}

//===----------------------------------------------------------------------===//
// Work counters
//===----------------------------------------------------------------------===//

/// The exact work one query did, from the public count structs.
struct Work {
  enum Field {
    PathSearches,
    PathCacheHits,
    NodeVisits,
    InEdgeScans,
    BitsetWords,
    MergeCandidates,
    MergeSurvivors,
    ConflictChecks,
    CgtFusionOps,
    ArenaBytes,
    DepEdges,
    Words,
    WordCandidates,
    SynthEdges,
    Paths,
    TruncatedEdges,
    VariantsTried,
    DynNodes,
    Timeouts,
    NumFields
  };
  std::array<uint64_t, NumFields> V{};

  bool operator==(const Work &O) const { return V == O.V; }
  uint64_t operator[](Field F) const { return V[F]; }
};

/// Snapshot after steps 1-6 ran on this thread for \p Q.
Work workOf(const PreparedQuery &Q, const SynthesisResult &R) {
  const obs::CostCounters &C = obs::queryCost();
  Work W;
  W.V = {C.PathSearches,
         C.PathCacheHits,
         C.NodeVisits,
         C.InEdgeScans,
         C.BitsetWordsTouched,
         C.MergeCandidates,
         C.MergeSurvivors,
         C.ConflictChecks,
         C.CgtFusionOps,
         queryArena().bytesUsed(),
         Q.Pruned.edges().size(),
         Q.Pruned.size(),
         0,
         Q.Edges.Edges.size(),
         Q.Edges.totalPaths(),
         0,
         R.Stats.VariantsTried,
         R.Stats.DynNodes,
         R.St == SynthesisResult::Status::Timeout ? 1u : 0u};
  for (const auto &Cands : Q.Words.Candidates)
    W.V[Work::WordCandidates] += Cands.size();
  for (const EdgePaths &E : Q.Edges.Edges)
    W.V[Work::TruncatedEdges] += E.Truncated ? 1 : 0;
  return W;
}

//===----------------------------------------------------------------------===//
// Cold workloads: the paper's own measurement
//===----------------------------------------------------------------------===//

std::vector<const Case *> casesOf(const Inputs &In, const char *Domain) {
  std::vector<const Case *> Out;
  for (const Case &C : In.Cases)
    if (In.DomainNames[C.Domain] == Domain)
      Out.push_back(&C);
  return Out;
}

/// Pass orders of the cold replay: a fresh seeded shuffle per pass.
std::vector<size_t> passOrder(Rng &R, size_t N) {
  std::vector<size_t> Order(N);
  std::iota(Order.begin(), Order.end(), 0);
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[R.nextBelow(I)]);
  return Order;
}

uint64_t orderDigest(uint64_t Seed, size_t N, int Passes) {
  Rng R(Seed);
  uint64_t H = 0xcbf29ce484222325ull;
  for (int P = 0; P < Passes; ++P)
    for (size_t I : passOrder(R, N))
      H = fnv1a(std::to_string(I) + ",", H);
  return H;
}

void runCold(const Spec &W, const Args &A, const Inputs &In, World &Wd,
             Output &Out) {
  std::vector<const Case *> Cases = casesOf(In, W.Domain);
  const Domain &D = Wd.domain(Cases.front()->Domain);
  DggtSynthesizer Dggt;
  Rng R(A.Seed);
  std::vector<std::vector<double>> LatMs(Cases.size());
  std::vector<Work> FirstPass(Cases.size());
  size_t Correct = 0, Mismatches = 0, FirstCorrect = 0;
  int Passes = 0;
  double LastPassS = 0;
  Clock::time_point Start = Clock::now();
  // Whole passes only (a partial pass would sample a different query
  // mix); at least two, so the counters can be compared across passes.
  while (Passes < 2 ||
         msBetween(Start, Clock::now()) / 1000.0 + LastPassS <= A.Seconds) {
    Clock::time_point PassStart = Clock::now();
    for (size_t I : passOrder(R, Cases.size())) {
      const Case &C = *Cases[I];
      Clock::time_point T0 = Clock::now();
      PreparedQuery Q = D.frontEnd().prepare(C.Query);
      Budget B(W.BudgetMs);
      SynthesisResult Res = Dggt.synthesize(Q, B);
      LatMs[I].push_back(msBetween(T0, Clock::now()));
      Work Wk = workOf(Q, Res);
      bool Good = Res.ok() &&
                  normalized(Res.Expression) == normalized(C.GroundTruth);
      Correct += Good;
      ++Out.Attempted;
      Out.Failed += Res.St == SynthesisResult::Status::Timeout;
      if (Passes == 0) {
        FirstPass[I] = Wk;
        FirstCorrect += Good;
      } else if (!(FirstPass[I] == Wk)) {
        ++Mismatches;
      }
    }
    LastPassS = msBetween(PassStart, Clock::now()) / 1000.0;
    ++Passes;
  }
  double Accuracy = ratio(static_cast<double>(Correct),
                          static_cast<double>(Out.Attempted));
  std::fprintf(stderr,
               "[perfbench] %s: %d passes over %zu queries, first-pass "
               "accuracy %zu/%zu\n",
               W.Name, Passes, Cases.size(), FirstCorrect, Cases.size());
  Out.check(orderDigest(A.Seed, Cases.size(), Passes) ==
                orderDigest(A.Seed, Cases.size(), Passes),
            "same seed gives the same stream digest");
  Out.check(Mismatches == 0, "work counters repeat exactly across passes");
  Out.check(Accuracy + 1e-9 >= W.AccuracyFloor,
            "dataset accuracy >= " + std::to_string(W.AccuracyFloor));
  // Every pass repeats identical work (the counters check says so), but
  // the machine's speed drifts by a fifth over tens of seconds. Each
  // query's latency is therefore its fastest pass (best of N), and
  // throughput is the rate one client completes the dataset at those
  // times.
  std::vector<double> BestMs;
  for (const std::vector<double> &V : LatMs)
    BestMs.push_back(*std::min_element(V.begin(), V.end()));
  Out.metric("latency_p50_ms", "ms", percentile(BestMs, 50), Out.Attempted);
  Out.metric("latency_p99_ms", "ms", percentile(BestMs, 99), Out.Attempted);
  Out.metric("throughput_qps", "1/s",
             1000.0 * static_cast<double>(BestMs.size()) /
                 std::accumulate(BestMs.begin(), BestMs.end(), 0.0),
             Out.Attempted);
  Out.metric("accuracy", "ratio", Accuracy, Out.Attempted);
}

//===----------------------------------------------------------------------===//
// Served workloads
//===----------------------------------------------------------------------===//

/// One served request's outcome.
struct Served {
  double LatencyMs = 0;
  double QueueWaitMs = 0;
  ServiceStatus St = ServiceStatus::NoAnswer;
  bool Good = false;
  bool Fallback = false;
  unsigned Retries = 0;
};

/// Tallies shared by both served workloads.
struct ServedTally {
  std::vector<double> LatMs;
  size_t Offered = 0, Good = 0, Ok = 0, Fallback = 0, Retries = 0;
  std::vector<double> QueueWaitMs;

  void add(const Served &S) {
    LatMs.push_back(S.LatencyMs);
    QueueWaitMs.push_back(S.QueueWaitMs);
    ++Offered;
    Good += S.Good;
    Ok += S.St == ServiceStatus::Ok;
    Fallback += S.Fallback;
    Retries += S.Retries;
  }
};

Served servedFrom(const ServiceReport &Rep, const PoolEntry &E,
                  double LatencyMs) {
  Served S;
  S.LatencyMs = LatencyMs;
  S.QueueWaitMs = Rep.QueueWaitMs;
  S.St = Rep.St;
  S.Good = expectedOutcome(E, Rep.ok(), Rep.Result.Expression);
  S.Fallback = Rep.ok() && Rep.AnsweredBy &&
               *Rep.AnsweredBy != ServiceRung::DggtFull;
  for (const RungAttempt &At : Rep.Attempts)
    S.Retries += At.Try > 0;
  return S;
}

struct CacheTotals {
  uint64_t PathHits = 0, PathMisses = 0, PathEvictions = 0;
  uint64_t WordHits = 0, WordMisses = 0;
};

CacheTotals cacheTotals(const World &Wd) {
  CacheTotals T;
  for (const auto &D : Wd.Domains) {
    if (!D)
      continue;
    if (PathCache *P = Wd.Svc->service().pathCache(D->name())) {
      PathCacheStats S = P->stats();
      T.PathHits += S.Hits;
      T.PathMisses += S.Misses;
      T.PathEvictions += S.Evictions;
    }
    if (ApiCandidateCache *C = Wd.Svc->service().wordCache(D->name())) {
      ApiCandidateCacheStats S = C->stats();
      T.WordHits += S.Hits;
      T.WordMisses += S.Misses;
    }
  }
  return T;
}

/// The first \p N stream items for --seed; a second draw must give the
/// same digest (self-check).
std::vector<StreamItem> servedStream(const Inputs &In, const Args &A,
                                     size_t N, Output &Out) {
  std::vector<StreamItem> S = drawStream(In, A.Seed, N);
  uint64_t Digest = streamDigest(In, S);
  std::fprintf(stderr, "[perfbench] stream: %zu queries, digest %016" PRIx64
                       "\n", S.size(), Digest);
  Out.check(Digest == streamDigest(In, drawStream(In, A.Seed, N)),
            "same seed gives the same stream digest");
  return S;
}

/// What a served phase leaves for the traced run's per-layer metrics.
struct ServedPhase {
  ServedTally Tally;
  std::vector<double> SchedLagMs;
  CacheTotals Caches;
  AsyncStats Async;
  size_t Non2xx = 0, HttpRequests = 0;
};

/// Fills \p Ph's cache and async-layer counters with what happened since
/// \p Cache0 and \p Async0 were taken.
void countSince(World &Wd, const CacheTotals &Cache0,
                const AsyncStats &Async0, ServedPhase &Ph) {
  CacheTotals Cache1 = cacheTotals(Wd);
  Ph.Caches.PathHits = Cache1.PathHits - Cache0.PathHits;
  Ph.Caches.PathMisses = Cache1.PathMisses - Cache0.PathMisses;
  Ph.Caches.PathEvictions = Cache1.PathEvictions - Cache0.PathEvictions;
  Ph.Caches.WordHits = Cache1.WordHits - Cache0.WordHits;
  Ph.Caches.WordMisses = Cache1.WordMisses - Cache0.WordMisses;
  AsyncStats Async1 = Wd.Svc->stats();
  Ph.Async.Submitted = Async1.Submitted - Async0.Submitted;
  Ph.Async.Shed = Async1.Shed + Async1.GateRejected - Async0.Shed -
                  Async0.GateRejected;
  Ph.Async.Cancelled = Async1.Cancelled - Async0.Cancelled;
}

/// Completion rate in slice \p K of \p SliceS seconds after \p Start.
double sliceQps(const std::vector<Clock::time_point> &Done,
                Clock::time_point Start, size_t K, double SliceS) {
  size_t N = 0;
  for (Clock::time_point T : Done) {
    double At = msBetween(Start, T) / 1000.0;
    N += At >= static_cast<double>(K) * SliceS &&
         At < static_cast<double>(K + 1) * SliceS;
  }
  return static_cast<double>(N) / SliceS;
}

/// The lowest, over consecutive slices of \p SliceS seconds, of each
/// slice's exact P-th latency percentile (requests binned by completion
/// time).
double bestSlicePercentile(const std::vector<Clock::time_point> &Done,
                           const std::vector<double> &LatMs,
                           Clock::time_point Start, double Seconds,
                           double SliceS, double P) {
  size_t Slices = std::max<size_t>(1, static_cast<size_t>(Seconds / SliceS));
  std::vector<std::vector<double>> Bins(Slices);
  for (size_t I = 0; I < Done.size(); ++I) {
    double At = msBetween(Start, Done[I]) / 1000.0;
    Bins[std::min(static_cast<size_t>(At / SliceS), Slices - 1)].push_back(
        LatMs[I]);
  }
  double Best = 0;
  for (const std::vector<double> &B : Bins)
    if (!B.empty()) {
      double V = percentile(B, P);
      Best = Best == 0 ? V : std::min(Best, V);
    }
  return Best;
}

/// Keeps \p Window requests in flight, cycling through \p Stream, for
/// \p Seconds or \p Count requests; returns each completed request's
/// stream index, outcome and completion time.
struct ClosedLoopRun {
  std::vector<std::pair<size_t, Served>> Results;
  std::vector<Clock::time_point> Done;
  Clock::time_point Start;
  double Seconds = 0;
};

ClosedLoopRun closedLoop(AsyncSynthesisService &Svc, const Inputs &In,
                         const std::vector<StreamItem> &Stream,
                         double Seconds, unsigned Window,
                         size_t Count = SIZE_MAX) {
  ClosedLoopRun Run;
  std::mutex M;
  std::condition_variable Cv;
  size_t InFlight = 0;
  Run.Start = Clock::now();
  Clock::time_point End =
      Run.Start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(Seconds));
  for (size_t N = 0; N < Count && Clock::now() < End; ++N) {
    size_t I = N % Stream.size();
    {
      std::unique_lock<std::mutex> L(M);
      Cv.wait(L, [&] { return InFlight < Window; });
      ++InFlight;
    }
    const PoolEntry &E = In.Pool[Stream[I].Pool];
    Clock::time_point Sent = Clock::now();
    (void)Svc.submit(In.DomainNames[E.Domain], E.Text, SubmitOptions{},
                     [&, I, Sent, Ent = &E](const ServiceReport &Rep) {
                       Clock::time_point Now = Clock::now();
                       Served S = servedFrom(Rep, *Ent, msBetween(Sent, Now));
                       std::lock_guard<std::mutex> L(M);
                       Run.Results.emplace_back(I, S);
                       Run.Done.push_back(Now);
                       --InFlight;
                       Cv.notify_all();
                     });
  }
  std::unique_lock<std::mutex> L(M);
  Cv.wait(L, [&] { return InFlight == 0; });
  Run.Seconds = msBetween(Run.Start, Clock::now()) / 1000.0;
  return Run;
}

void invalidateCaches(const World &Wd) {
  for (const auto &D : Wd.Domains) {
    if (PathCache *P = Wd.Svc->service().pathCache(D->name()))
      P->invalidateAll();
    if (ApiCandidateCache *C = Wd.Svc->service().wordCache(D->name()))
      C->invalidateAll();
  }
}

/// One open-loop episode: Poisson arrivals at \p Qps for the stream
/// slice [First, First + N), each timed from its scheduled send.
std::vector<Served> openLoop(AsyncSynthesisService &Svc, const Inputs &In,
                             const std::vector<StreamItem> &Stream,
                             size_t First, const std::vector<uint64_t> &Sched,
                             SpanLog *Spans, std::vector<double> &LagMs) {
  const size_t N = Sched.size();
  std::vector<Served> Results(N);
  std::atomic<size_t> Done{0};
  Clock::time_point Start = Clock::now();
  for (size_t K = 0; K < N; ++K) {
    size_t I = First + K;
    Clock::time_point Due = Start + std::chrono::nanoseconds(Sched[K]);
    std::this_thread::sleep_until(Due);
    Clock::time_point Sent = Clock::now();
    LagMs.push_back(msBetween(Due, Sent));
    const PoolEntry &E = In.Pool[Stream[I].Pool];
    (void)Svc.submit(
        In.DomainNames[E.Domain], E.Text, SubmitOptions{},
        [&, K, I, Due, Sent, Ent = &E](const ServiceReport &Rep) {
          Clock::time_point End = Clock::now();
          Results[K] = servedFrom(Rep, *Ent, msBetween(Due, End));
          if (Spans) {
            int64_t Root =
                Spans->add("request", Due, End, SpanLog::NoParent, I);
            Spans->add("bench.sched_lag", Due, Sent, Root, I);
            Spans->add("service.queue_wait", Sent,
                       Sent + std::chrono::microseconds(static_cast<int64_t>(
                                  Rep.QueueWaitMs * 1000.0)),
                       Root, I);
            Spans->add("service.ladder",
                       End - std::chrono::microseconds(static_cast<int64_t>(
                                 Rep.TotalSeconds * 1e6)),
                       End, Root, I);
          }
          Done.fetch_add(1, std::memory_order_release);
        });
  }
  while (Done.load(std::memory_order_acquire) < N)
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  return Results;
}

/// zipf_served. An untimed closed-loop pass first warms the process
/// (worker allocator arenas, code pages); then the shared caches are
/// emptied and ZipfCycles cycles run. Each sends open-loop Poisson
/// arrivals at the fixed rate along the stream, every request timed
/// from its scheduled send, and then runs a closed loop with a fixed
/// in-flight window that replays what the open loop has sent so far
/// (cached, after warm-up) for throughput. Interleaving the two phases
/// spreads both over the whole run, so a slow stretch of the machine
/// cannot land on one phase only. Latency skips the requests scheduled
/// in the first ZipfFillS seconds: the cold-start burst that fills the
/// caches is paid once per process, not per request.
void runZipf(const Spec &W, const Args &A, const Inputs &In, World &Wd,
             SpanLog *Spans, Output &Out, ServedPhase &Ph) {
  AsyncSynthesisService &Svc = *Wd.Svc;
  const double OpenS = A.Seconds * OpenLoopShare / ZipfCycles;
  const double ClosedS = A.Seconds * (1 - OpenLoopShare) / ZipfCycles;
  const size_t PerCycle = static_cast<size_t>(std::ceil(W.OfferedQps * OpenS));
  std::vector<StreamItem> Stream =
      servedStream(In, A, PerCycle * ZipfCycles, Out);
  uint64_t Records0 = obs::queryLog().total();

  size_t Sent = closedLoop(Svc, In, Stream, WarmupSeconds, W.Window)
                    .Results.size();
  invalidateCaches(Wd);
  CacheTotals Cache0 = cacheTotals(Wd);
  AsyncStats Async0 = Svc.stats();
  // Scored for accuracy but not timed: the fill window and the
  // closed-loop replays.
  ServedTally Untimed;
  std::vector<double> ClosedQps;
  for (int C = 0; C < ZipfCycles; ++C) {
    size_t First = static_cast<size_t>(C) * PerCycle;
    std::vector<uint64_t> Sched = arrivalsNs(
        A.Seed + static_cast<uint64_t>(C), PerCycle, W.OfferedQps);
    std::vector<Served> Results =
        openLoop(Svc, In, Stream, First, Sched, Spans, Ph.SchedLagMs);
    for (size_t K = 0; K < Results.size(); ++K) {
      ++Out.Attempted;
      Out.Failed += In.Pool[Stream[First + K].Pool].expectOk() &&
                    isFailure(Results[K].St);
      if (C == 0 && static_cast<double>(Sched[K]) < ZipfFillS * 1e9) {
        Untimed.add(Results[K]);
        continue;
      }
      Ph.Tally.add(Results[K]);
    }
    std::vector<StreamItem> SentSoFar(Stream.begin(),
                                      Stream.begin() + First + PerCycle);
    ClosedLoopRun Run = closedLoop(Svc, In, SentSoFar, ClosedS, W.Window);
    for (const auto &[I, S] : Run.Results) {
      ++Out.Attempted;
      Out.Failed += In.Pool[SentSoFar[I].Pool].expectOk() && isFailure(S.St);
      Untimed.add(S);
    }
    for (size_t K = 0; K * ThroughputSliceS + ThroughputSliceS <= Run.Seconds;
         ++K)
      ClosedQps.push_back(sliceQps(Run.Done, Run.Start, K, ThroughputSliceS));
    Sent += PerCycle + Run.Results.size();
  }
  countSince(Wd, Cache0, Async0, Ph);

  // A query's log record is written after its completion callback ran;
  // let the workers finish before counting.
  Svc.drain();
  uint64_t Records = obs::queryLog().total() - Records0;
  Out.check(Records == Sent, "one query-log record per offered query (" +
                                 std::to_string(Records) + "/" +
                                 std::to_string(Sent) + ")");
  Out.metric("latency_p50_ms", "ms", percentile(Ph.Tally.LatMs, 50),
             Ph.Tally.LatMs.size());
  Out.metric("latency_p99_ms", "ms", percentile(Ph.Tally.LatMs, 99),
             Ph.Tally.LatMs.size());
  Out.metric("throughput_qps", "1/s", percentile(ClosedQps, 50),
             ClosedQps.size());
  Out.metric("accuracy", "ratio",
             ratio(static_cast<double>(Ph.Tally.Good + Untimed.Good),
                   static_cast<double>(Ph.Tally.Offered + Untimed.Offered)),
             Ph.Tally.Offered + Untimed.Offered);
}

/// http_served's requests: a fixed working set, the first HttpPrefix
/// queries of the seed-1 stream (they fit the default path cache, and a
/// per-seed draw of this size varies the mix too much), cycled in an
/// order drawn from --seed.
std::vector<StreamItem> httpWorkingSet(const Inputs &In, const Args &A,
                                       Output &Out) {
  Args Fixed = A;
  Fixed.Seed = 1;
  std::vector<StreamItem> Set = servedStream(In, Fixed, HttpPrefix, Out);
  Rng Order(A.Seed);
  for (size_t I = Set.size(); I > 1; --I)
    std::swap(Set[I - 1], Set[Order.nextBelow(I)]);
  return Set;
}

/// http_served: the working set over loopback POST /v1/synthesize. An
/// untimed in-process pass first warms the caches with it; then Window
/// client threads cycle through it closed-loop, one connection per
/// request.
void runHttp(const Spec &W, const Args &A, const Inputs &In, World &Wd,
             SpanLog *Spans, Output &Out, ServedPhase &Ph) {
  const uint16_t Port = Wd.port();
  std::vector<StreamItem> Stream = httpWorkingSet(In, A, Out);
  uint64_t Records0 = obs::queryLog().total();
  size_t Warm =
      closedLoop(*Wd.Svc, In, Stream, 1e9, W.Window, Stream.size())
          .Results.size();

  std::atomic<size_t> Next{0};
  struct Result {
    size_t Index;
    double LatencyMs;
    double GapMs;
    Clock::time_point Done;
    HttpReply Reply;
  };
  std::vector<std::vector<Result>> PerClient(W.Window);
  Clock::time_point Start = Clock::now();
  Clock::time_point End =
      Start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(A.Seconds));
  std::vector<std::thread> Clients;
  for (unsigned C = 0; C < W.Window; ++C)
    Clients.emplace_back([&, C] {
      Clock::time_point Prev = Clock::now();
      while (Clock::now() < End) {
        size_t I = Next.fetch_add(1) % Stream.size();
        const PoolEntry &E = In.Pool[Stream[I].Pool];
        Clock::time_point T0 = Clock::now();
        HttpReply R =
            postSynthesize(Port, In.DomainNames[E.Domain], E.Text, W.BudgetMs);
        Clock::time_point T1 = Clock::now();
        if (Spans)
          Spans->add("obs.http", T0, T1, SpanLog::NoParent, I);
        PerClient[C].push_back(
            {I, msBetween(T0, T1), msBetween(Prev, T0), T1, R});
        Prev = T1;
      }
    });
  for (std::thread &T : Clients)
    T.join();
  double WallS = msBetween(Start, Clock::now()) / 1000.0;
  // A query's log record is written after its reply was sent; let the
  // worker finish before counting.
  Wd.Svc->drain();

  size_t Requests = 0;
  std::vector<Clock::time_point> Done;
  for (const std::vector<Result> &Rs : PerClient)
    for (const Result &R : Rs) {
      const PoolEntry &E = In.Pool[Stream[R.Index].Pool];
      Served S;
      S.LatencyMs = R.LatencyMs;
      bool Ok = R.Reply.Code == 200 && R.Reply.Status == "ok";
      S.St = Ok                    ? ServiceStatus::Ok
             : R.Reply.Code == 200 ? ServiceStatus::NoAnswer
                                   : ServiceStatus::DeadlineExceeded;
      S.Good = expectedOutcome(E, Ok, R.Reply.Codelet);
      Ph.Tally.add(S);
      ++Out.Attempted;
      Out.Failed += E.expectOk() && !Ok && R.Reply.Code != 200;
      Ph.SchedLagMs.push_back(R.GapMs);
      Ph.Non2xx += R.Reply.Code < 200 || R.Reply.Code >= 300;
      Done.push_back(R.Done);
      ++Requests;
    }
  Ph.HttpRequests = Requests;
  // The replies carry no queue wait or ladder trail; the query log does.
  Ph.Tally.QueueWaitMs.clear();
  for (const obs::QueryLogRecord &Rec : obs::queryLog().snapshot()) {
    Ph.Tally.QueueWaitMs.push_back(Rec.QueueWaitMs);
    Ph.Tally.Retries += Rec.Retries;
    Ph.Tally.Fallback += Rec.Outcome == "ok" && Rec.Rung != "dggt-full";
  }
  uint64_t Records = obs::queryLog().total() - Records0;
  Out.check(Records == Warm + Requests,
            "one query-log record per offered query (" +
                std::to_string(Records) + "/" +
                std::to_string(Warm + Requests) + ")");
  // Every slice replays the same prefix several times over, so slices
  // are repeats of one piece of work; like the cold workloads' passes,
  // the best slice is the figure least moved by the machine's drift.
  Out.metric("latency_p50_ms", "ms",
             bestSlicePercentile(Done, Ph.Tally.LatMs, Start, WallS,
                                 HttpSliceS, 50),
             Requests);
  Out.metric("latency_p99_ms", "ms",
             bestSlicePercentile(Done, Ph.Tally.LatMs, Start, WallS,
                                 HttpSliceS, 99),
             Requests);
  std::vector<double> SliceQps;
  for (size_t K = 0; K * HttpSliceS + HttpSliceS <= WallS; ++K)
    SliceQps.push_back(sliceQps(Done, Start, K, HttpSliceS));
  Out.metric("throughput_qps", "1/s",
             *std::max_element(SliceQps.begin(), SliceQps.end()), Requests);
  Out.metric("accuracy", "ratio",
             ratio(static_cast<double>(Ph.Tally.Good),
                   static_cast<double>(Ph.Tally.Offered)),
             Ph.Tally.Offered);
}

//===----------------------------------------------------------------------===//
// Traced run: every layer's entry point in turn, one span per call
//===----------------------------------------------------------------------===//

/// One query of the layer-by-layer pass.
struct LayerInput {
  uint32_t Domain = 0;
  const std::string *Text = nullptr;
};

/// What the layer pass accumulates beside the spans.
struct LayerTally {
  std::vector<Work> Traced;
  std::vector<double> UntracedMs, TracedMs, LadderMs, HttpMinusAsyncMs,
      QueueWaitMs, GapMs;
  size_t Queries = 0, ExprMismatches = 0, CounterMismatches = 0,
         ServiceOk = 0, Fallback = 0, Retries = 0, Non2xx = 0;
  /// Inputs the service and the direct pipeline disagree on.
  std::set<const std::string *> EntryPointMismatches;
};

/// Calls each layer in turn for every input: the direct pipeline
/// untraced (prepare + synthesize, for the overhead and equality
/// checks), then the same stages one entry point at a time under spans
/// (parse, prune, WordToAPI, EdgeToPath, steps 5-6), then the service
/// ladder (SynthesisService::query), the async layer (submit to
/// completion, with its queue wait) and the HTTP data plane.
/// \p UseCaches threads the service's shared caches through the direct
/// calls too (served workloads); each query is prepared once untimed
/// first so every timed call sees the same cache state.
void layerPass(const Spec &W, World &Wd, const Inputs &In,
               const std::vector<LayerInput> &Queries, bool UseCaches,
               SpanLog &Spans, LayerTally &L) {
  DggtSynthesizer Dggt;
  AsyncSynthesisService &Svc = *Wd.Svc;
  const uint16_t Port = Wd.port();
  // The front end exposes its path-search limits only on a prepared
  // query; take them once per domain, untimed.
  std::map<uint32_t, PathSearchLimits> Limits;
  for (const LayerInput &Q : Queries)
    if (!Limits.count(Q.Domain))
      Limits[Q.Domain] = Wd.domain(Q.Domain).frontEnd().prepare(*Q.Text).Limits;
  Clock::time_point PrevEnd = Clock::now();
  for (const LayerInput &Q : Queries) {
    const uint64_t Id = L.Queries++;
    const Domain &D = Wd.domain(Q.Domain);
    const std::string &Name = In.DomainNames[Q.Domain];
    const std::string &Text = *Q.Text;
    const SynthesisFrontEnd &FE = D.frontEnd();
    SharedQueryCaches Caches;
    if (UseCaches) {
      Caches.Paths = Svc.service().pathCache(Name);
      Caches.Words = Svc.service().wordCache(Name);
      (void)FE.prepare(Text, Caches);
    }

    // The direct pipeline untraced, and the same stages one entry point
    // at a time under spans; which goes first alternates per query so
    // neither always runs on warmer processor caches.
    PreparedQuery DQ;
    SynthesisResult DR;
    double DirectMs = 0;
    auto Untraced = [&] {
      Clock::time_point T0 = Clock::now();
      DQ = FE.prepare(Text, Caches);
      Budget DB(W.BudgetMs);
      DR = Dggt.synthesize(DQ, DB);
      DirectMs = msBetween(T0, Clock::now());
    };
    // The arena and cost resets sit where
    // SynthesisFrontEnd::prepareFromGraph puts them.
    PreparedQuery TQ;
    SynthesisResult TR;
    auto Traced = [&] {
      struct Child {
        const char *Name;
        Clock::time_point Start, End;
      };
      std::vector<Child> Children;
      auto Timed = [&](const char *Span, auto &&Fn) {
        Clock::time_point S = Clock::now();
        Fn();
        Children.push_back({Span, S, Clock::now()});
      };
      Clock::time_point Q0 = Clock::now();
      DependencyGraph Raw;
      Timed("nlp.parse", [&] { Raw = parseDependencies(Text); });
      Timed("nlp.prune",
            [&] { TQ.Pruned = pruneQueryGraph(Raw, FE.pruneOptions()); });
      queryArena().reset();
      obs::queryCost() = obs::CostCounters{};
      obs::queryCost().Populated = true;
      TQ.GG = &D.grammarGraph();
      TQ.Doc = &D.document();
      TQ.Limits = Limits.at(Q.Domain);
      Timed("nlu.word_to_api", [&] {
        TQ.Words = FE.matcher().mapGraph(TQ.Pruned, Caches.Words);
      });
      Timed("grammar.edge_to_path", [&] {
        TQ.Edges = buildEdgeToPath(*TQ.GG, *TQ.Doc, TQ.Pruned, TQ.Words,
                                   TQ.Limits, Caches.Paths);
      });
      Timed("dggt.merge", [&] {
        Budget TB(W.BudgetMs);
        TR = Dggt.synthesize(TQ, TB);
      });
      Clock::time_point Q1 = Clock::now();
      L.TracedMs.push_back(msBetween(Q0, Q1));
      int64_t Root = Spans.add("query", Q0, Q1, SpanLog::NoParent, Id);
      for (const Child &C : Children)
        Spans.add(C.Name, C.Start, C.End, Root, Id);
    };
    L.GapMs.push_back(msBetween(PrevEnd, Clock::now()));
    Work DW, TW;
    if (Id % 2 == 0) {
      Untraced();
      DW = workOf(DQ, DR);
      Traced();
      TW = workOf(TQ, TR);
    } else {
      Traced();
      TW = workOf(TQ, TR);
      Untraced();
      DW = workOf(DQ, DR);
    }
    L.UntracedMs.push_back(DirectMs);
    L.Traced.push_back(TW);
    L.ExprMismatches += DR.ok() != TR.ok() || DR.Expression != TR.Expression;
    L.CounterMismatches += !UseCaches && !(DW == TW);

    // Service ladder.
    Clock::time_point S0 = Clock::now();
    ServiceReport SR = Svc.service().query(Name, Text, Budget(W.BudgetMs));
    Clock::time_point S1 = Clock::now();
    Spans.add("service.ladder", S0, S1, SpanLog::NoParent, Id);
    L.LadderMs.push_back(msBetween(S0, S1) - DirectMs);
    if (SR.ok() != DR.ok() ||
        (SR.ok() &&
         normalized(SR.Result.Expression) != normalized(DR.Expression)))
      L.EntryPointMismatches.insert(Q.Text);
    L.ServiceOk += SR.ok();
    L.Fallback +=
        SR.ok() && SR.AnsweredBy && *SR.AnsweredBy != ServiceRung::DggtFull;
    for (const RungAttempt &At : SR.Attempts)
      L.Retries += At.Try > 0;

    // Async layer: submit to completion.
    Clock::time_point A0 = Clock::now();
    ServiceReport AR = Svc.submit(Name, Text).get();
    Clock::time_point A1 = Clock::now();
    int64_t Async = Spans.add("async.request", A0, A1, SpanLog::NoParent, Id);
    Spans.add("service.queue_wait", A0,
              A0 + std::chrono::microseconds(
                       static_cast<int64_t>(AR.QueueWaitMs * 1000.0)),
              Async, Id);
    L.QueueWaitMs.push_back(AR.QueueWaitMs);

    // HTTP data plane.
    Clock::time_point H0 = Clock::now();
    HttpReply HR = postSynthesize(Port, Name, Text, W.BudgetMs);
    Clock::time_point H1 = Clock::now();
    Spans.add("obs.http", H0, H1, SpanLog::NoParent, Id);
    L.HttpMinusAsyncMs.push_back(msBetween(H0, H1) - msBetween(A0, A1));
    L.Non2xx += HR.Code < 200 || HR.Code >= 300;
    PrevEnd = Clock::now();
  }
}

/// service.entry_point_mismatches over the whole pool: the zero-load
/// service answer against the direct pipeline's, with the service's
/// shared caches on both sides.
size_t poolMismatches(const Spec &W, World &Wd, const Inputs &In) {
  DggtSynthesizer Dggt;
  size_t Mismatches = 0;
  for (const PoolEntry &E : In.Pool) {
    const std::string &Name = In.DomainNames[E.Domain];
    SharedQueryCaches Caches{Wd.Svc->service().pathCache(Name),
                             Wd.Svc->service().wordCache(Name)};
    PreparedQuery Q = Wd.domain(E.Domain).frontEnd().prepare(E.Text, Caches);
    Budget B(W.BudgetMs);
    SynthesisResult R = Dggt.synthesize(Q, B);
    ServiceReport SR =
        Wd.Svc->service().query(Name, E.Text, Budget(W.BudgetMs));
    bool Differ = SR.ok() != R.ok() ||
                  (R.ok() && normalized(SR.Result.Expression) !=
                                 normalized(R.Expression));
    if (Differ)
      std::fprintf(stderr,
                   "[perfbench] entry points disagree on \"%s\": direct %s, "
                   "service %s\n",
                   E.Text.c_str(), R.ok() ? R.Expression.c_str() : "(none)",
                   SR.ok() ? SR.Result.Expression.c_str() : "(none)");
    Mismatches += Differ;
  }
  return Mismatches;
}

/// Cold workloads bypass the shared caches; their traced run still
/// measures the cache layer on the same inputs: two untimed passes of
/// steps 1-4 through a fresh PathCache / ApiCandidateCache of the
/// service's default sizes (the first pass fills, the second hits).
CacheTotals cachePasses(const World &Wd,
                        const std::vector<LayerInput> &Queries) {
  ServiceOptions Defaults;
  PathCache Paths("perfbench", Defaults.PathCacheBytes);
  ApiCandidateCache Words("perfbench", Defaults.WordCacheBytes);
  for (int Pass = 0; Pass < 2; ++Pass)
    for (const LayerInput &Q : Queries)
      (void)Wd.domain(Q.Domain).frontEnd().prepare(*Q.Text, {&Paths, &Words});
  PathCacheStats P = Paths.stats();
  ApiCandidateCacheStats C = Words.stats();
  CacheTotals T;
  T.PathHits = P.Hits;
  T.PathMisses = P.Misses;
  T.PathEvictions = P.Evictions;
  T.WordHits = C.Hits;
  T.WordMisses = C.Misses;
  return T;
}

/// The traced run: the workload's own phase (served workloads, spans
/// recorded), then the layer pass, then the per-layer metrics.
void runTraced(const Spec &W, const Args &A, const Inputs &In, World &Wd,
               Output &Out) {
  SpanLog Spans(Clock::now());
  ServedPhase Ph;
  LayerTally L;
  std::vector<LayerInput> Queries;
  CacheTotals Cache0 = cacheTotals(Wd);
  AsyncStats Async0 = Wd.Svc->stats();
  if (W.M == Mode::Cold) {
    std::vector<const Case *> Cases = casesOf(In, W.Domain);
    Rng R(A.Seed);
    for (size_t I : passOrder(R, Cases.size()))
      Queries.push_back({Cases[I]->Domain, &Cases[I]->Query});
    Clock::time_point Start = Clock::now();
    // Whole passes for --seconds (at least one).
    do
      layerPass(W, Wd, In, Queries, /*UseCaches=*/false, Spans, L);
    while (msBetween(Start, Clock::now()) / 1000.0 < A.Seconds);
    countSince(Wd, Cache0, Async0, Ph);
    Ph.Caches = cachePasses(Wd, Queries);
    Out.Attempted += L.Queries;
  } else {
    if (W.M == Mode::Zipf)
      runZipf(W, A, In, Wd, &Spans, Out, Ph);
    else
      runHttp(W, A, In, Wd, &Spans, Out, Ph);
    Out.Metrics.clear();
    if (W.M == Mode::Http)
      countSince(Wd, Cache0, Async0, Ph);
    std::vector<StreamItem> Stream =
        W.M == Mode::Http ? httpWorkingSet(In, A, Out)
                          : drawStream(In, A.Seed, LayerPassServedQueries);
    Stream.resize(LayerPassServedQueries);
    for (const StreamItem &S : Stream)
      Queries.push_back({In.Pool[S.Pool].Domain, &In.Pool[S.Pool].Text});
    layerPass(W, Wd, In, Queries, /*UseCaches=*/true, Spans, L);
  }

  Out.check(L.ExprMismatches == 0,
            "traced and untraced runs give identical expressions");
  if (W.M == Mode::Cold)
    Out.check(L.CounterMismatches == 0,
              "traced and untraced work counters are identical");
  double Unattributed = Spans.meanUnattributedMs("query");
  double Bound = std::max(UnattributedBoundMs,
                          UnattributedBoundFrac * mean(L.TracedMs));
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "bench.unattributed_ms %.4f within %.4f",
                Unattributed, Bound);
  Out.check(Unattributed <= Bound, Buf);
  size_t Mismatches = L.EntryPointMismatches.size();
  if (W.M != Mode::Cold)
    Mismatches = poolMismatches(W, Wd, In);

  auto Sum = [&](Work::Field F) {
    double S = 0;
    for (const Work &Wk : L.Traced)
      S += static_cast<double>(Wk[F]);
    return S;
  };
  const double NQ = static_cast<double>(L.Traced.size());
  const size_t N = L.Traced.size();
  auto SpanMean = [&](const char *Name) {
    return mean(Spans.durationsMs(Name));
  };
  double ArenaMax = 0;
  for (const Work &Wk : L.Traced)
    ArenaMax = std::max(ArenaMax, static_cast<double>(Wk[Work::ArenaBytes]));

  Out.metric("nlp.parse_ms", "ms", SpanMean("nlp.parse"), N);
  Out.metric("nlp.prune_ms", "ms", SpanMean("nlp.prune"), N);
  Out.metric("nlp.dep_edges", "count", Sum(Work::DepEdges) / NQ, N);
  Out.metric("nlu.word_to_api_ms", "ms", SpanMean("nlu.word_to_api"), N);
  Out.metric("nlu.candidates_per_word", "count",
             ratio(Sum(Work::WordCandidates), Sum(Work::Words)), N);
  Out.metric("nlu.word_cache_hit_rate", "ratio",
             ratio(static_cast<double>(Ph.Caches.WordHits),
                   static_cast<double>(Ph.Caches.WordHits +
                                       Ph.Caches.WordMisses)),
             Ph.Caches.WordHits + Ph.Caches.WordMisses);
  Out.metric("grammar.edge_to_path_ms", "ms", SpanMean("grammar.edge_to_path"),
             N);
  Out.metric("grammar.path_searches", "count", Sum(Work::PathSearches) / NQ,
             N);
  Out.metric("grammar.node_visits", "count", Sum(Work::NodeVisits) / NQ, N);
  Out.metric("grammar.in_edge_scans", "count", Sum(Work::InEdgeScans) / NQ, N);
  Out.metric("grammar.bitset_words", "count", Sum(Work::BitsetWords) / NQ, N);
  Out.metric("grammar.paths_per_edge", "count",
             ratio(Sum(Work::Paths), Sum(Work::SynthEdges)), N);
  Out.metric("grammar.truncated_edge_frac", "ratio",
             ratio(Sum(Work::TruncatedEdges), Sum(Work::SynthEdges)), N);
  Out.metric("grammar.path_cache_hit_rate", "ratio",
             ratio(static_cast<double>(Ph.Caches.PathHits),
                   static_cast<double>(Ph.Caches.PathHits +
                                       Ph.Caches.PathMisses)),
             Ph.Caches.PathHits + Ph.Caches.PathMisses);
  Out.metric("grammar.path_cache_evictions", "count",
             static_cast<double>(Ph.Caches.PathEvictions), 1);
  Out.metric("dggt.merge_ms", "ms", SpanMean("dggt.merge"), N);
  Out.metric("dggt.merge_candidates", "count",
             Sum(Work::MergeCandidates) / NQ, N);
  Out.metric("dggt.merge_survivor_ratio", "ratio",
             ratio(Sum(Work::MergeSurvivors), Sum(Work::MergeCandidates)), N);
  Out.metric("dggt.conflict_checks", "count", Sum(Work::ConflictChecks) / NQ,
             N);
  Out.metric("dggt.cgt_fusion_ops", "count", Sum(Work::CgtFusionOps) / NQ, N);
  Out.metric("dggt.variants_tried", "count", Sum(Work::VariantsTried) / NQ, N);
  Out.metric("dggt.dyn_nodes", "count", Sum(Work::DynNodes) / NQ, N);
  Out.metric("dggt.timeouts", "count", Sum(Work::Timeouts), N);
  Out.metric("support.arena_high_water_bytes", "bytes", ArenaMax, N);

  // Served workloads: queueing, ladder outcome and the cache figures
  // come from their own phase; cold workloads from the layer pass.
  const bool Served = W.M != Mode::Cold;
  const std::vector<double> &Waits =
      Served ? Ph.Tally.QueueWaitMs : L.QueueWaitMs;
  Out.metric("service.queue_wait_ms_p50", "ms", percentile(Waits, 50),
             Waits.size());
  Out.metric("service.queue_wait_ms_p99", "ms", percentile(Waits, 99),
             Waits.size());
  Out.metric("service.ladder_ms", "ms", mean(L.LadderMs), L.LadderMs.size());
  Out.metric("service.fallback_frac", "ratio",
             Served ? ratio(static_cast<double>(Ph.Tally.Fallback),
                            static_cast<double>(Ph.Tally.Ok))
                    : ratio(static_cast<double>(L.Fallback),
                            static_cast<double>(L.ServiceOk)),
             Served ? Ph.Tally.Ok : L.ServiceOk);
  Out.metric("service.retries", "count",
             Served ? ratio(static_cast<double>(Ph.Tally.Retries),
                            static_cast<double>(Ph.Tally.Offered))
                    : ratio(static_cast<double>(L.Retries), NQ),
             Served ? Ph.Tally.Offered : N);
  Out.metric("service.shed_frac", "ratio",
             ratio(static_cast<double>(Ph.Async.Shed),
                   static_cast<double>(Ph.Async.Submitted + Ph.Async.Shed)),
             Ph.Async.Submitted + Ph.Async.Shed);
  Out.metric("service.cancelled_frac", "ratio",
             ratio(static_cast<double>(Ph.Async.Cancelled),
                   static_cast<double>(Ph.Async.Submitted)),
             Ph.Async.Submitted);
  Out.metric("service.entry_point_mismatches", "count",
             static_cast<double>(Mismatches),
             Served ? In.Pool.size() : Queries.size());
  Out.metric("obs.http_ms", "ms", mean(L.HttpMinusAsyncMs),
             L.HttpMinusAsyncMs.size());
  Out.metric("obs.http_non2xx_frac", "ratio",
             W.M == Mode::Http
                 ? ratio(static_cast<double>(Ph.Non2xx),
                         static_cast<double>(Ph.HttpRequests))
                 : ratio(static_cast<double>(L.Non2xx), NQ),
             W.M == Mode::Http ? Ph.HttpRequests : N);
  const std::vector<double> &Lag = Served ? Ph.SchedLagMs : L.GapMs;
  Out.metric("bench.sched_lag_ms_p99", "ms", percentile(Lag, 99), Lag.size());
  Out.metric("bench.unattributed_ms", "ms", Unattributed, N);
  Out.metric("bench.tracing_overhead_frac", "ratio",
             percentile(L.TracedMs, 50) / percentile(L.UntracedMs, 50) - 1.0,
             N);

  // Which layer dominates, by mean self time over the traced queries.
  std::fprintf(stderr, "[perfbench] layer means (ms): parse %.4f prune %.4f "
                       "word_to_api %.4f edge_to_path %.4f merge %.4f\n",
               SpanMean("nlp.parse"), SpanMean("nlp.prune"),
               SpanMean("nlu.word_to_api"), SpanMean("grammar.edge_to_path"),
               SpanMean("dggt.merge"));
  if (!A.Spans.empty()) {
    bool Wrote = Spans.write(A.Spans);
    Out.check(Wrote, "spans written to " + A.Spans);
  }
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload am_cold|te_cold|zipf_served|"
                 "http_served --seed N --seconds S --trace 0|1 [--data DIR] "
                 "[--spans FILE]\n");
    return 2;
  }
  Inputs In;
  std::string Error;
  if (!readInputs(A.Data, In, Error)) {
    std::fprintf(stderr, "perfbench: %s\n", Error.c_str());
    return 1;
  }
  const Spec &W = *A.W;
  Output Out;

  std::vector<double> SetupS;
  std::unique_ptr<World> Wd =
      setUp(W, In, W.M != Mode::Cold || A.Trace, SetupS);
  if (A.Trace) {
    runTraced(W, A, In, *Wd, Out);
    Wd.reset();
    Out.print();
    return Out.Correct ? 0 : 1;
  }
  ServedPhase Ph;
  switch (W.M) {
  case Mode::Cold:
    runCold(W, A, In, *Wd, Out);
    break;
  case Mode::Zipf:
    runZipf(W, A, In, *Wd, nullptr, Out, Ph);
    break;
  case Mode::Http:
    runHttp(W, A, In, *Wd, nullptr, Out, Ph);
    break;
  }
  double PeakRssMb = peakRssMb();
  Wd.reset();
  // As many set-ups again after the measurement, so setup_s spans the
  // run instead of only the moment after process start.
  setUp(W, In, /*WithService=*/W.M != Mode::Cold, SetupS);
  Out.metric("setup_s", "s", percentile(SetupS, 50), SetupS.size());
  Out.metric("peak_rss_mb", "MB", PeakRssMb, 1);
  Out.print();
  return Out.Correct ? 0 : 1;
}
