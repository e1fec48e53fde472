//===- bench/throughput.cpp - Async service throughput --------------------===//
//
// Steady-state service throughput: the full mixed TextEditing/ASTMatcher
// evaluation query set, replayed for a fixed number of rounds (a service
// sees a repeating query mix, so steady state is what matters), through
//
//   - the serial SynthesisService, one query at a time, per-domain
//     caches disabled (the pre-async baseline), and
//   - the AsyncSynthesisService worker pool with the shared per-domain
//     PathCache / ApiCandidateCache enabled, driven closed-loop with a
//     bounded in-flight window so queue wait stays well inside the
//     per-query budget.
//
// Both modes run the same queries, and expressions are cross-checked:
// the async+cached results must match the serial ones (cache hits are
// bit-identical by construction; see grammar/PathCache.h).
//
// --json prints one machine-readable line: queries/sec for both modes,
// the speedup, p50/p95 end-to-end and queue-wait latency, and the
// shared-cache hit rates. CI parses it to enforce the >= 2x throughput
// acceptance bound.
//
// --overload MULT switches to the open-loop overload experiment
// instead: capacity is first calibrated closed-loop, then fixed-rate
// arrivals at MULT x capacity are replayed twice against a tight
// per-query budget — once with the static knobs and once with the
// adaptive LoadController — and goodput (queries answered Ok under
// their submission-time deadline, per wall second) is compared. The
// adaptive run should win at saturation because the admission gate
// sheds doomed work at submit() instead of letting it burn queue wait
// and worker time before missing its deadline anyway.
//
//===----------------------------------------------------------------------===//

// --workload runs the accuracy-under-load experiment instead: a seeded
// WorkloadGenerator expands both ground-truth query sets into
// production-shaped traffic (thesaurus-synonym paraphrases, Zipf
// popularity, multi-turn refinement sessions, adversarial near-misses;
// see eval/Workload.h and DESIGN.md §17), every pool entry verified
// against the real pipeline at zero load. The stream is replayed
// open-loop with Poisson arrivals at --load x the calibrated capacity,
// every response is scored against its entry's expected expression
// (near-misses must *fail* cleanly), and the headline metric is
// accuracy-under-load: correct ∧ on-time over offered — what the
// near-real-time claim actually has to hold at saturation, where
// goodput alone can look healthy while the degradation ladder serves
// wrong or shed answers. The run cross-checks the PR 7 query log
// (exactly one wide-event record per replayed query) and exits nonzero
// on a mismatch. Seed plumbing: --seed N or DGGT_WORKLOAD_SEED, echoed
// in the output, same seed ⇒ byte-identical stream (the printed
// stream_digest).

#include "BenchCommon.h"
#include "eval/Workload.h"
#include "grammar/PathCache.h"
#include "nlu/WordToApiMatcher.h"
#include "obs/Metrics.h"
#include "obs/QueryLog.h"
#include "service/AsyncSynthesisService.h"
#include "support/Arena.h"
#include "synth/Expression.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

using namespace dggt;

namespace {

struct WorkItem {
  const char *Domain;
  const std::string *Query;
};

/// The mixed workload: both domains' eval queries interleaved (two
/// TextEditing per ASTMatcher, matching the 200/100 dataset sizes) and
/// replayed \p Rounds times.
std::vector<WorkItem> buildWorkload(const bench::Domains &D, int Rounds,
                                    size_t LimitPerDomain) {
  const std::vector<QueryCase> &TE = D.TextEditing->queries();
  const std::vector<QueryCase> &AM = D.AstMatcher->queries();
  size_t NumTE = std::min(LimitPerDomain, TE.size());
  size_t NumAM = std::min(LimitPerDomain, AM.size());
  std::vector<WorkItem> One;
  size_t ITe = 0, IAm = 0;
  while (ITe < NumTE || IAm < NumAM) {
    for (int K = 0; K < 2 && ITe < NumTE; ++K, ++ITe)
      One.push_back({"TextEditing", &TE[ITe].Query});
    if (IAm < NumAM)
      One.push_back({"ASTMatcher", &AM[IAm++].Query});
  }
  std::vector<WorkItem> Work;
  Work.reserve(One.size() * static_cast<size_t>(Rounds));
  for (int R = 0; R < Rounds; ++R)
    Work.insert(Work.end(), One.begin(), One.end());
  return Work;
}

struct ModeResult {
  double TotalSeconds = 0;
  bench::LatencySummary E2eMs;
  bench::LatencySummary QueueWaitMs;
  std::vector<ServiceReport> Reports;

  double qps() const {
    return TotalSeconds > 0
               ? static_cast<double>(E2eMs.count()) / TotalSeconds
               : 0.0;
  }
};

// The summaries wrap the non-movable obs::Histogram, so results are
// filled in place.
void runSerial(const bench::Domains &D, const std::vector<WorkItem> &Work,
               ModeResult &R) {
  ServiceOptions Opts;
  Opts.PathCacheBytes = 0; // The baseline predates the shared caches.
  Opts.WordCacheBytes = 0;
  SynthesisService S(Opts);
  S.addDomain(*D.TextEditing);
  S.addDomain(*D.AstMatcher);

  R.Reports.reserve(Work.size());
  WallTimer Total;
  for (const WorkItem &W : Work) {
    WallTimer T;
    R.Reports.push_back(S.query(W.Domain, *W.Query));
    R.E2eMs.addSeconds(T.seconds());
  }
  R.TotalSeconds = Total.seconds();
}

void runAsync(const bench::Domains &D, const std::vector<WorkItem> &Work,
              unsigned Workers, long HttpPort, double *PathHitRate,
              double *WordHitRate, ModeResult &R, bool Caches = true) {
  AsyncOptions Opts;
  Opts.Workers = Workers;
  Opts.QueueCap = 0; // The closed-loop window below bounds the queue.
  if (!Caches) {
    Opts.Service.PathCacheBytes = 0;
    Opts.Service.WordCacheBytes = 0;
  }
  if (HttpPort >= 0)
    Opts.Service.HttpPort = static_cast<uint16_t>(HttpPort);
  AsyncSynthesisService S(Opts);
  S.addDomain(*D.TextEditing);
  S.addDomain(*D.AstMatcher);

  // Closed-loop driver: keep a bounded window in flight so queue wait
  // stays far below TotalBudgetMs (an open-loop flood of the whole
  // workload would push tail submissions past their own deadline).
  const size_t Window = Workers * 4;
  struct InFlight {
    size_t Index;
    std::future<ServiceReport> Fut;
    Budget::Clock::time_point Submitted;
  };
  R.Reports.resize(Work.size());
  std::vector<InFlight> Pending;
  Pending.reserve(Window);
  size_t Next = 0, Done = 0;
  WallTimer Total;
  while (Done < Work.size()) {
    while (Next < Work.size() && Pending.size() < Window) {
      const WorkItem &W = Work[Next];
      Budget::Clock::time_point Now = Budget::Clock::now();
      Pending.push_back({Next, S.submit(W.Domain, *W.Query), Now});
      ++Next;
    }
    bool Progress = false;
    for (size_t I = 0; I < Pending.size();) {
      if (Pending[I].Fut.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++I;
        continue;
      }
      double E2e = std::chrono::duration<double>(Budget::Clock::now() -
                                                 Pending[I].Submitted)
                       .count();
      ServiceReport Rep = Pending[I].Fut.get();
      R.E2eMs.addSeconds(E2e);
      // Queue wait is what the async layer adds on top of the service's
      // own processing time.
      R.QueueWaitMs.addMs(std::max(0.0, E2e * 1000.0 - Rep.TotalSeconds * 1000.0));
      R.Reports[Pending[I].Index] = std::move(Rep);
      Pending[I] = std::move(Pending.back());
      Pending.pop_back();
      ++Done;
      Progress = true;
    }
    if (!Progress && Done < Work.size())
      std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  R.TotalSeconds = Total.seconds();

  auto HitRate = [](uint64_t Hits, uint64_t Misses) {
    uint64_t Total = Hits + Misses;
    return Total ? static_cast<double>(Hits) / static_cast<double>(Total)
                 : 0.0;
  };
  uint64_t PH = 0, PM = 0, WH = 0, WM = 0;
  for (const char *Name : {"TextEditing", "ASTMatcher"}) {
    if (const PathCache *C = S.service().pathCache(Name)) {
      PH += C->stats().Hits;
      PM += C->stats().Misses;
    }
    if (const ApiCandidateCache *C = S.service().wordCache(Name)) {
      WH += C->stats().Hits;
      WM += C->stats().Misses;
    }
  }
  *PathHitRate = HitRate(PH, PM);
  *WordHitRate = HitRate(WH, WM);
}

/// One open-loop overload run: fixed-rate arrivals against a tight
/// budget, classified by the service's own submission-time deadline
/// semantics (Ok means the answer landed inside the budget that started
/// ticking at submit()).
struct OverloadOutcome {
  double WallSeconds = 0;
  uint64_t Good = 0;     ///< Status Ok: answered within deadline.
  uint64_t Rejected = 0; ///< Overloaded at submit (shed or gated).
  uint64_t Missed = 0;   ///< DeadlineExceeded (cancelled or ran late).
  uint64_t Other = 0;    ///< NoAnswer/NoCandidates and friends.
  AsyncStats Stats;
  size_t EffQueueCap = 0;
  unsigned EffBatch = 0;

  double goodputQps() const {
    return WallSeconds > 0 ? static_cast<double>(Good) / WallSeconds : 0.0;
  }
};

void runOverload(const bench::Domains &D, const std::vector<WorkItem> &Work,
                 const std::vector<WorkItem> &WarmupRound, unsigned Workers,
                 double OfferedQps, uint64_t BudgetMs, bool Adaptive,
                 double GateOn, double GateOff, OverloadOutcome &R) {
  AsyncOptions Opts;
  Opts.Workers = Workers;
  Opts.QueueCap = 256;
  Opts.Service.TotalBudgetMs = BudgetMs;
  // Shared caches stay off in this experiment: cache warmth would make
  // per-query cost (and so the service's capacity) drift over the run,
  // and the offered rate is calibrated against a fixed capacity. The
  // closed-loop comparison above is where the caches are measured.
  Opts.Service.PathCacheBytes = 0;
  Opts.Service.WordCacheBytes = 0;
  // The per-domain circuit breaker is itself a crude admission
  // controller (consecutive misses trip it, and an open breaker rejects
  // at memcpy speed), which would smear the static-vs-adaptive queue
  // comparison with its own duty cycle. Disable it identically in both
  // modes to isolate what the LoadController adds; in production the
  // two compose.
  Opts.Service.BreakerTripThreshold = 1000000;
  Opts.LoadControl.Enabled = Adaptive;
  // React within a few dozen arrivals; the default 100 ms cadence is
  // tuned for long-lived services, not a seconds-long experiment.
  Opts.LoadControl.TickIntervalMs = 50;
  // Dequeue-time cancellation already drains stale work at memcpy
  // speed, so a deep queue is cheap here and hard shedding mostly
  // discards feasible work; keep the cap floor high and let the
  // per-domain admission gate do the targeted rejection (doomed
  // heavy-domain queries at submit) — that is where the goodput is.
  Opts.LoadControl.MinQueueCap = 128;
  // Wider coalescing starves the heavy domain under saturation (its
  // queued tasks age out while a worker chews the cheap domain's run),
  // so pin the batch at its configured value for this experiment.
  Opts.LoadControl.MaxCoalesceBatch = Opts.CoalesceBatch;
  // Service times are heavy-tailed, so a p50-based wait prediction is
  // optimistic for the tail; gate inside the budget (--gate-on/off).
  Opts.LoadControl.GateOnFraction = GateOn;
  Opts.LoadControl.GateOffFraction = GateOff;
  AsyncSynthesisService S(Opts);
  S.addDomain(*D.TextEditing);
  S.addDomain(*D.AstMatcher);

  // Closed-loop warmup round: brings the process to the steady state
  // the calibration measured and, for the adaptive run, fills the
  // per-domain service-time histograms the admission gate predicts
  // with (a cold gate has no p50 and admits everything). Warmup
  // futures are not classified.
  {
    const size_t Window = static_cast<size_t>(Workers) * 4;
    std::vector<std::future<ServiceReport>> Warm;
    for (size_t I = 0; I < WarmupRound.size();) {
      Warm.clear();
      for (size_t K = 0; K < Window && I < WarmupRound.size(); ++K, ++I)
        Warm.push_back(
            S.submit(WarmupRound[I].Domain, *WarmupRound[I].Query));
      for (std::future<ServiceReport> &F : Warm)
        F.wait();
    }
  }

  // Counters up to here belong to the warmup; report measured-phase
  // deltas only.
  AsyncStats Before = S.stats();

  std::vector<std::future<ServiceReport>> Futures;
  Futures.reserve(Work.size());
  std::chrono::duration<double> Gap(1.0 / OfferedQps);
  Budget::Clock::time_point Start = Budget::Clock::now();
  for (size_t I = 0; I < Work.size(); ++I) {
    // Open loop: arrivals are scheduled by the offered rate alone and
    // never wait on completions — exactly what saturates a service.
    std::this_thread::sleep_until(
        Start + std::chrono::duration_cast<Budget::Clock::duration>(
                    Gap * static_cast<double>(I)));
    Futures.push_back(S.submit(Work[I].Domain, *Work[I].Query));
  }
  for (std::future<ServiceReport> &F : Futures)
    F.wait();
  R.WallSeconds =
      std::chrono::duration<double>(Budget::Clock::now() - Start).count();
  for (std::future<ServiceReport> &F : Futures) {
    ServiceReport Rep = F.get();
    switch (Rep.St) {
    case ServiceStatus::Ok:
      ++R.Good;
      break;
    case ServiceStatus::Overloaded:
      ++R.Rejected;
      break;
    case ServiceStatus::DeadlineExceeded:
      ++R.Missed;
      break;
    default:
      ++R.Other;
      break;
    }
  }
  R.Stats = S.stats();
  R.Stats.Submitted -= Before.Submitted;
  R.Stats.Shed -= Before.Shed;
  R.Stats.GateRejected -= Before.GateRejected;
  R.Stats.Cancelled -= Before.Cancelled;
  R.Stats.Completed -= Before.Completed;
  R.Stats.Coalesced -= Before.Coalesced;
  R.EffQueueCap = S.queueCap();
  R.EffBatch = S.coalesceBatch();
}

/// Offered/correct pair for one slice of the workload replay.
struct WorkloadTally {
  uint64_t Offered = 0;
  uint64_t Correct = 0;

  double accuracy() const {
    return Offered ? static_cast<double>(Correct) / static_cast<double>(Offered)
                   : 0.0;
  }
};

/// One open-loop workload replay, scored per response.
struct WorkloadOutcome {
  double WallSeconds = 0;
  /// Per stream index: 1 if the response was correct ∧ on-time (positive
  /// entries: Ok within deadline with the expected expression;
  /// near-misses: any non-Ok outcome).
  std::vector<uint8_t> Correct;
  /// Per stream index: the ServiceStatus, for the on-time breakdown.
  std::vector<uint8_t> Status;
};

/// Closed-loop pass over the first \p N stream queries; returns the
/// sustained rate (the capacity the open-loop replay is scaled from).
double workloadClosedLoopQps(AsyncSynthesisService &S,
                             const WorkloadGenerator &Gen,
                             const std::vector<WorkloadQuery> &Stream,
                             size_t N, unsigned Workers) {
  const std::vector<WorkloadEntry> &Pool = Gen.pool();
  const size_t Window = static_cast<size_t>(Workers) * 4;
  std::vector<std::future<ServiceReport>> Pending;
  Pending.reserve(Window);
  WallTimer Total;
  for (size_t I = 0; I < N;) {
    Pending.clear();
    for (size_t K = 0; K < Window && I < N; ++K, ++I) {
      const WorkloadEntry &E = Pool[Stream[I].Pool];
      Pending.push_back(S.submit(Gen.domains()[E.DomainIndex]->name(), E.Text));
    }
    for (std::future<ServiceReport> &F : Pending)
      F.wait();
  }
  double Seconds = Total.seconds();
  return Seconds > 0 ? static_cast<double>(N) / Seconds : 0.0;
}

/// Open-loop replay of the whole stream at \p OfferedQps: arrivals follow
/// the generator's deterministic Poisson schedule and never wait on
/// completions; every response is scored in its completion callback.
void runWorkloadReplay(AsyncSynthesisService &S, const WorkloadGenerator &Gen,
                       const std::vector<WorkloadQuery> &Stream,
                       double OfferedQps, WorkloadOutcome &R) {
  const std::vector<WorkloadEntry> &Pool = Gen.pool();
  const size_t N = Stream.size();
  R.Correct.assign(N, 0);
  R.Status.assign(N, 0);
  std::vector<uint64_t> Sched = Gen.arrivalScheduleNs(N, OfferedQps);
  std::atomic<size_t> Done{0};
  Budget::Clock::time_point Start = Budget::Clock::now();
  for (size_t I = 0; I < N; ++I) {
    std::this_thread::sleep_until(Start + std::chrono::nanoseconds(Sched[I]));
    const WorkloadEntry &E = Pool[Stream[I].Pool];
    SubmitOptions SO;
    (void)S.submit(
        Gen.domains()[E.DomainIndex]->name(), E.Text, SO,
        [&R, &Done, I, Ent = &E](const ServiceReport &Rep) {
          // Correct ∧ on-time. Ok carries the submission-time deadline
          // semantics (the answer landed inside the budget that started
          // at submit), so a late answer is already non-Ok here; a
          // near-miss is correct precisely when it did *not* get an
          // expression — shed, gated, deadline-missed and no-answer all
          // count as the clean failure the entry demands.
          bool Ok = Rep.St == ServiceStatus::Ok;
          bool Good =
              Ent->ExpectOk
                  ? (Ok && normalizeExpression(Rep.Result.Expression) ==
                               Ent->Expected)
                  : !Ok;
          R.Correct[I] = Good ? 1 : 0;
          R.Status[I] = static_cast<uint8_t>(Rep.St);
          Done.fetch_add(1, std::memory_order_release);
        });
  }
  while (Done.load(std::memory_order_acquire) < N)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  R.WallSeconds =
      std::chrono::duration<double>(Budget::Clock::now() - Start).count();
}

/// Expressions must agree wherever both modes produced an answer; a
/// nonzero count means the caches or the pool changed semantics.
size_t countMismatches(const ModeResult &Serial, const ModeResult &Async) {
  size_t Mismatches = 0;
  for (size_t I = 0; I < Serial.Reports.size(); ++I) {
    const ServiceReport &A = Serial.Reports[I];
    const ServiceReport &B = Async.Reports[I];
    if (A.ok() && B.ok() && A.Result.Expression != B.Result.Expression)
      ++Mismatches;
  }
  return Mismatches;
}

} // namespace

int main(int argc, char **argv) {
  bool Json = false;
  unsigned Workers = 4;
  int Rounds = 3;
  size_t Limit = static_cast<size_t>(-1);
  long HttpPort = -1;
  double Overload = 0; // 0 = the closed-loop serial/async comparison.
  uint64_t BudgetMs = 300;
  double GateOn = 0.8, GateOff = 0.6;
  bool WorkloadMode = false;
  size_t WorkloadQueries = 100000;
  uint64_t WorkloadSeed = 0; // 0 = DGGT_WORKLOAD_SEED or the default.
  double LoadMult = 1.0;
  for (int I = 1; I < argc; ++I) {
    std::string_view Arg = argv[I];
    if (Arg == "--json")
      Json = true;
    else if (Arg == "--workload")
      // Accuracy-under-load experiment: generated production-shaped
      // traffic replayed open-loop, every response scored.
      WorkloadMode = true;
    else if (Arg == "--queries" && I + 1 < argc)
      WorkloadQueries = static_cast<size_t>(std::atoll(argv[++I]));
    else if (Arg == "--seed" && I + 1 < argc)
      WorkloadSeed = std::strtoull(argv[++I], nullptr, 10);
    else if (Arg == "--load" && I + 1 < argc)
      // Offered rate as a multiple of the calibrated capacity.
      LoadMult = std::atof(argv[++I]);
    else if (Arg == "--workers" && I + 1 < argc)
      Workers = static_cast<unsigned>(std::atoi(argv[++I]));
    else if (Arg == "--rounds" && I + 1 < argc)
      Rounds = std::atoi(argv[++I]);
    else if (Arg == "--limit" && I + 1 < argc)
      Limit = static_cast<size_t>(std::atoll(argv[++I]));
    else if (Arg == "--http-port" && I + 1 < argc)
      // Live introspection of the async run: scrape /metrics or /statusz
      // while the bench is hot (0 = ephemeral port, announced on stdout).
      HttpPort = std::atol(argv[++I]);
    else if (Arg == "--overload" && I + 1 < argc)
      // Open-loop overload experiment: arrivals at MULT x calibrated
      // capacity, static knobs vs the adaptive LoadController.
      Overload = std::atof(argv[++I]);
    else if (Arg == "--budget-ms" && I + 1 < argc)
      // Per-query budget for the overload experiment only.
      BudgetMs = static_cast<uint64_t>(std::atoll(argv[++I]));
    else if (Arg == "--gate-on" && I + 1 < argc)
      // Admission-gate close/open thresholds as budget fractions, for
      // the overload experiment's adaptive run.
      GateOn = std::atof(argv[++I]);
    else if (Arg == "--gate-off" && I + 1 < argc)
      GateOff = std::atof(argv[++I]);
    else {
      std::fprintf(stderr,
                   "usage: %s [--json] [--workers N] [--rounds N] "
                   "[--limit QUERIES_PER_DOMAIN] [--http-port PORT] "
                   "[--workload [--queries N] [--seed N] [--load MULT] "
                   "[--budget-ms N]] "
                   "[--overload MULT [--budget-ms N] [--gate-on F] "
                   "[--gate-off F]]\n",
                   argv[0]);
      return 2;
    }
  }
  if (Overload < 0 || (Overload > 0 && Overload < 0.1)) {
    std::fprintf(stderr, "--overload multiplier must be >= 0.1\n");
    return 2;
  }
  if (HttpPort > 65535) {
    std::fprintf(stderr, "--http-port must be 0..65535\n");
    return 2;
  }

  if (WorkloadMode && (WorkloadQueries == 0 || LoadMult < 0.1)) {
    std::fprintf(stderr,
                 "--workload needs --queries >= 1 and --load >= 0.1\n");
    return 2;
  }

  bench::Domains D;
  std::vector<WorkItem> Work = buildWorkload(D, Rounds, Limit);

  if (WorkloadMode) {
    const uint64_t Seed =
        WorkloadSeed != 0 ? WorkloadSeed : workloadSeedFromEnv(1);
    // The querylog cross-check needs the wide-event pipeline hot, and
    // the replay is meant to be production-shaped anyway.
    obs::setMetricsEnabled(true);

    WorkloadOptions WO;
    WO.Seed = Seed;
    if (Limit != static_cast<size_t>(-1))
      WO.LimitPerDomain = Limit;
    std::fprintf(stderr,
                 "[bench] workload: seed %llu, building zero-load-verified "
                 "pool (both domains)...\n",
                 static_cast<unsigned long long>(Seed));
    WorkloadGenerator Gen(D.all(), WO);
    const WorkloadPoolStats &PS = Gen.poolStats();
    if (Gen.pool().empty()) {
      std::fprintf(stderr, "[bench] workload: empty verified pool\n");
      return 1;
    }
    std::vector<dggt::WorkloadQuery> Stream = Gen.stream(WorkloadQueries);
    uint64_t Digest = Gen.streamDigest(Stream);
    std::fprintf(stderr,
                 "[bench] workload: pool %zu (canonical %zu, synonym %zu, "
                 "refinement %zu, near-miss %zu; dropped %zu/%zu/%zu), "
                 "stream digest %016llx\n",
                 PS.total(), PS.Canonical, PS.Synonym, PS.Refinement,
                 PS.NearMiss, PS.DroppedCanonical, PS.DroppedMutants,
                 PS.DroppedNearMisses, static_cast<unsigned long long>(Digest));

    AsyncOptions Opts;
    Opts.Workers = Workers;
    Opts.QueueCap = 256;
    Opts.Service.TotalBudgetMs = BudgetMs;
    AsyncSynthesisService S(Opts);
    S.addDomain(*D.TextEditing);
    S.addDomain(*D.AstMatcher);

    // Capacity calibration: a warm closed-loop pass (parser tables,
    // shared caches, allocator reach steady state), then a measured one.
    size_t CalibN =
        std::min(Stream.size(), std::max<size_t>(Gen.pool().size(), 200));
    std::fprintf(stderr, "[bench] workload: calibrating capacity...\n");
    (void)workloadClosedLoopQps(S, Gen, Stream, CalibN, Workers);
    double CapacityQps = workloadClosedLoopQps(S, Gen, Stream, CalibN, Workers);
    if (CapacityQps <= 0) {
      std::fprintf(stderr, "[bench] workload: calibration produced 0 qps\n");
      return 1;
    }
    double OfferedQps = CapacityQps * LoadMult;
    std::fprintf(stderr,
                 "[bench] workload: capacity %.1f q/s, replaying %zu queries "
                 "open-loop at %.1f q/s (%.2fx), budget %llu ms...\n",
                 CapacityQps, Stream.size(), OfferedQps, LoadMult,
                 static_cast<unsigned long long>(BudgetMs));

    // Count query-log records from the measured phase only (calibration
    // wrote its own); the ring is a bounded window but total() counts
    // every record written.
    obs::queryLog().resetForTest();
    obs::queryLog().configureRing(4096);
    uint64_t Records0 = obs::queryLog().total();

    WorkloadOutcome R;
    runWorkloadReplay(S, Gen, Stream, OfferedQps, R);
    uint64_t Records = obs::queryLog().total() - Records0;
    bool RecordsOk = Records == Stream.size();

    // Aggregate the per-response verdicts.
    WorkloadTally Overall;
    std::vector<WorkloadTally> PerDomain(Gen.domains().size());
    WorkloadTally PerKind[4];
    uint64_t OnTimeOk = 0;
    const std::vector<WorkloadEntry> &Pool = Gen.pool();
    for (size_t I = 0; I < Stream.size(); ++I) {
      const WorkloadEntry &E = Pool[Stream[I].Pool];
      ++Overall.Offered;
      ++PerDomain[E.DomainIndex].Offered;
      ++PerKind[static_cast<size_t>(E.Kind)].Offered;
      if (R.Correct[I]) {
        ++Overall.Correct;
        ++PerDomain[E.DomainIndex].Correct;
        ++PerKind[static_cast<size_t>(E.Kind)].Correct;
      }
      if (static_cast<ServiceStatus>(R.Status[I]) == ServiceStatus::Ok)
        ++OnTimeOk;
    }
    double GoodputQps = R.WallSeconds > 0
                            ? static_cast<double>(Overall.Correct) /
                                  R.WallSeconds
                            : 0.0;

    if (Json) {
      std::printf("{\"bench\":\"throughput_workload\",\"queries\":%zu,"
                  "\"seed\":%llu,\"stream_digest\":\"%016llx\","
                  "\"workers\":%u,\"load_multiplier\":%.2f,"
                  "\"capacity_qps\":%.2f,\"offered_qps\":%.2f,"
                  "\"budget_ms\":%llu,\"wall_s\":%.3f,",
                  Stream.size(), static_cast<unsigned long long>(Seed),
                  static_cast<unsigned long long>(Digest), Workers, LoadMult,
                  CapacityQps, OfferedQps,
                  static_cast<unsigned long long>(BudgetMs), R.WallSeconds);
      std::printf("\"pool\":{\"canonical\":%zu,\"synonym\":%zu,"
                  "\"refinement\":%zu,\"near_miss\":%zu,"
                  "\"dropped_canonical\":%zu,\"dropped_mutants\":%zu,"
                  "\"dropped_near_misses\":%zu},",
                  PS.Canonical, PS.Synonym, PS.Refinement, PS.NearMiss,
                  PS.DroppedCanonical, PS.DroppedMutants,
                  PS.DroppedNearMisses);
      auto PrintTally = [](const WorkloadTally &T) {
        std::printf("{\"offered\":%llu,\"correct\":%llu,\"accuracy\":%.4f}",
                    static_cast<unsigned long long>(T.Offered),
                    static_cast<unsigned long long>(T.Correct), T.accuracy());
      };
      std::printf("\"accuracy_under_load\":{\"offered\":%llu,"
                  "\"correct\":%llu,\"accuracy\":%.4f,\"on_time_ok\":%llu,"
                  "\"goodput_qps\":%.2f,\"domains\":{",
                  static_cast<unsigned long long>(Overall.Offered),
                  static_cast<unsigned long long>(Overall.Correct),
                  Overall.accuracy(),
                  static_cast<unsigned long long>(OnTimeOk), GoodputQps);
      for (size_t DI = 0; DI < PerDomain.size(); ++DI) {
        std::printf("%s\"%s\":", DI ? "," : "",
                    Gen.domains()[DI]->name().c_str());
        PrintTally(PerDomain[DI]);
      }
      std::printf("},\"kinds\":{");
      for (size_t K = 0; K < 4; ++K) {
        std::printf("%s\"%s\":", K ? "," : "",
                    std::string(workloadKindName(
                                    static_cast<WorkloadKind>(K)))
                        .c_str());
        PrintTally(PerKind[K]);
      }
      std::printf("}},\"querylog\":{\"records\":%llu,\"offered\":%zu,"
                  "\"match\":%s}}\n",
                  static_cast<unsigned long long>(Records), Stream.size(),
                  RecordsOk ? "true" : "false");
    } else {
      bench::banner("Accuracy under load: generated production-shaped "
                    "traffic, open-loop replay",
                    "correct ∧ on-time over offered; eval/Workload.h");
      std::printf("seed %llu   stream digest %016llx   %zu queries at "
                  "%.1f q/s (%.2fx of %.1f q/s capacity), budget %llu ms\n",
                  static_cast<unsigned long long>(Seed),
                  static_cast<unsigned long long>(Digest), Stream.size(),
                  OfferedQps, LoadMult, CapacityQps,
                  static_cast<unsigned long long>(BudgetMs));
      std::printf("pool: %zu entries (canonical %zu, synonym %zu, "
                  "refinement %zu, near-miss %zu; dropped %zu canonical, "
                  "%zu mutants, %zu near-misses)\n",
                  PS.total(), PS.Canonical, PS.Synonym, PS.Refinement,
                  PS.NearMiss, PS.DroppedCanonical, PS.DroppedMutants,
                  PS.DroppedNearMisses);
      std::printf("accuracy under load: %.4f (%llu/%llu correct ∧ on-time, "
                  "%llu answered Ok, goodput %.1f q/s, wall %.1f s)\n",
                  Overall.accuracy(),
                  static_cast<unsigned long long>(Overall.Correct),
                  static_cast<unsigned long long>(Overall.Offered),
                  static_cast<unsigned long long>(OnTimeOk), GoodputQps,
                  R.WallSeconds);
      for (size_t DI = 0; DI < PerDomain.size(); ++DI)
        std::printf("  %-12s offered %7llu   correct %7llu   accuracy %.4f\n",
                    Gen.domains()[DI]->name().c_str(),
                    static_cast<unsigned long long>(PerDomain[DI].Offered),
                    static_cast<unsigned long long>(PerDomain[DI].Correct),
                    PerDomain[DI].accuracy());
      for (size_t K = 0; K < 4; ++K)
        std::printf("  %-12s offered %7llu   correct %7llu   accuracy %.4f\n",
                    std::string(workloadKindName(static_cast<WorkloadKind>(K)))
                        .c_str(),
                    static_cast<unsigned long long>(PerKind[K].Offered),
                    static_cast<unsigned long long>(PerKind[K].Correct),
                    PerKind[K].accuracy());
      std::printf("query log: %llu records for %zu offered queries (%s)\n",
                  static_cast<unsigned long long>(Records), Stream.size(),
                  RecordsOk ? "match" : "MISMATCH");
    }
    if (!RecordsOk)
      std::fprintf(stderr,
                   "[bench] FAIL: query log != one record per replayed query "
                   "(%llu records, want %zu)\n",
                   static_cast<unsigned long long>(Records), Stream.size());
    return RecordsOk ? 0 : 1;
  }

  if (Overload > 0) {
    // The overload experiment replays the heavy domain only: admission
    // control earns its keep when per-query service time is comparable
    // to the budget (a doomed query then burns a worker for a budget's
    // worth of time before missing). The cheap TextEditing mix dilutes
    // that regime — its queries are discarded or completed for almost
    // nothing either way.
    const std::vector<QueryCase> &AM = D.AstMatcher->queries();
    size_t NumAM = std::min(Limit, AM.size());
    std::vector<WorkItem> Heavy;
    Heavy.reserve(NumAM * static_cast<size_t>(Rounds));
    for (int R = 0; R < Rounds; ++R)
      for (size_t I = 0; I < NumAM; ++I)
        Heavy.push_back({"ASTMatcher", &AM[I].Query});
    Work = std::move(Heavy);

    // Calibrate sustainable capacity with a warm closed-loop pass over
    // one workload round (static knobs, default generous budget), then
    // offer MULT x that rate open-loop against the tight budget.
    std::fprintf(stderr, "[bench] overload: calibrating capacity...\n");
    std::vector<WorkItem> Calib(Work.begin(),
                                Work.begin() + static_cast<long>(NumAM));
    double PH = 0, WH = 0;
    {
      // Warm the toolchain (lazy parser tables, allocator) so the
      // measured pass reflects steady state, not first-touch costs.
      ModeResult Warm;
      runAsync(D, Calib, Workers, /*HttpPort=*/-1, &PH, &WH, Warm,
               /*Caches=*/false);
    }
    ModeResult Cap;
    runAsync(D, Calib, Workers, /*HttpPort=*/-1, &PH, &WH, Cap,
             /*Caches=*/false);
    double CapacityQps = Cap.qps();
    double OfferedQps = CapacityQps * Overload;
    if (CapacityQps <= 0) {
      std::fprintf(stderr, "[bench] overload: calibration produced 0 qps\n");
      return 1;
    }
    std::fprintf(stderr,
                 "[bench] overload: capacity %.1f q/s, offering %.1f q/s "
                 "(%.1fx) with a %llu ms budget, static knobs first...\n",
                 CapacityQps, OfferedQps, Overload,
                 static_cast<unsigned long long>(BudgetMs));
    OverloadOutcome Static;
    runOverload(D, Work, Calib, Workers, OfferedQps, BudgetMs,
                /*Adaptive=*/false, GateOn, GateOff, Static);
    std::fprintf(stderr, "[bench] overload: adaptive controller...\n");
    OverloadOutcome Adaptive;
    runOverload(D, Work, Calib, Workers, OfferedQps, BudgetMs,
                /*Adaptive=*/true, GateOn, GateOff, Adaptive);
    double Gain = Static.goodputQps() > 0
                      ? Adaptive.goodputQps() / Static.goodputQps()
                      : 0.0;

    if (Json) {
      auto PrintMode = [](const char *Name, const OverloadOutcome &O) {
        std::printf(
            "\"%s\":{\"goodput_qps\":%.2f,\"wall_s\":%.3f,\"ok\":%llu,"
            "\"rejected\":%llu,\"deadline_exceeded\":%llu,\"other\":%llu,"
            "\"shed\":%llu,\"gate_rejected\":%llu,\"cancelled\":%llu,"
            "\"queue_cap\":%zu,\"coalesce_batch\":%u}",
            Name, O.goodputQps(), O.WallSeconds,
            static_cast<unsigned long long>(O.Good),
            static_cast<unsigned long long>(O.Rejected),
            static_cast<unsigned long long>(O.Missed),
            static_cast<unsigned long long>(O.Other),
            static_cast<unsigned long long>(O.Stats.Shed),
            static_cast<unsigned long long>(O.Stats.GateRejected),
            static_cast<unsigned long long>(O.Stats.Cancelled), O.EffQueueCap,
            O.EffBatch);
      };
      std::printf("{\"bench\":\"throughput_overload\",\"multiplier\":%.2f,"
                  "\"capacity_qps\":%.2f,\"offered_qps\":%.2f,"
                  "\"budget_ms\":%llu,\"queries\":%zu,\"workers\":%u,",
                  Overload, CapacityQps, OfferedQps,
                  static_cast<unsigned long long>(BudgetMs), Work.size(),
                  Workers);
      PrintMode("static", Static);
      std::printf(",");
      PrintMode("adaptive", Adaptive);
      std::printf(",\"goodput_gain\":%.2f}\n", Gain);
      return 0;
    }

    bench::banner("Overload goodput: static knobs vs adaptive load control",
                  "deadline-aware admission under open-loop saturation");
    std::printf("capacity %.1f q/s, offered %.1f q/s (%.1fx), budget %llu ms, "
                "%zu queries\n",
                CapacityQps, OfferedQps, Overload,
                static_cast<unsigned long long>(BudgetMs), Work.size());
    auto PrintMode = [](const char *Name, const OverloadOutcome &O) {
      std::printf("%-8s goodput %7.1f q/s   ok %5llu   rejected %5llu "
                  "(shed %llu, gated %llu)   missed %5llu   cancelled %llu   "
                  "cap %zu   batch %u\n",
                  Name, O.goodputQps(),
                  static_cast<unsigned long long>(O.Good),
                  static_cast<unsigned long long>(O.Rejected),
                  static_cast<unsigned long long>(O.Stats.Shed),
                  static_cast<unsigned long long>(O.Stats.GateRejected),
                  static_cast<unsigned long long>(O.Missed),
                  static_cast<unsigned long long>(O.Stats.Cancelled),
                  O.EffQueueCap, O.EffBatch);
    };
    PrintMode("static", Static);
    PrintMode("adaptive", Adaptive);
    std::printf("goodput gain (adaptive / static): %.2fx\n", Gain);
    return 0;
  }

  std::fprintf(stderr,
               "[bench] throughput: %zu queries (%d rounds), serial "
               "baseline first...\n",
               Work.size(), Rounds);
  // Visit counts ride the batched path-search counters; arena high-water
  // is the per-worker scratch footprint (both new wide-event fields).
  obs::setMetricsEnabled(true);
  obs::Counter &VisitCounter =
      obs::registry().counter("dggt_pathsearch_visits_total");
  uint64_t Visits0 = VisitCounter.value();
  ModeResult Serial;
  runSerial(D, Work, Serial);
  std::fprintf(stderr, "[bench] throughput: async, %u workers...\n", Workers);
  double PathHitRate = 0, WordHitRate = 0;
  ModeResult Async;
  runAsync(D, Work, Workers, HttpPort, &PathHitRate, &WordHitRate, Async);
  uint64_t PathSearchVisits = VisitCounter.value() - Visits0;
  uint64_t ArenaHighWater = Arena::processHighWater();
  size_t Mismatches = countMismatches(Serial, Async);
  double Speedup = Serial.qps() > 0 ? Async.qps() / Serial.qps() : 0.0;

  if (Json) {
    std::printf(
        "{\"bench\":\"throughput\",\"queries\":%zu,\"rounds\":%d,"
        "\"workers\":%u,"
        "\"serial\":{\"qps\":%.2f,\"total_s\":%.3f,"
        "\"e2e_ms\":{\"p50\":%.3f,\"p95\":%.3f}},"
        "\"async\":{\"qps\":%.2f,\"total_s\":%.3f,"
        "\"e2e_ms\":{\"p50\":%.3f,\"p95\":%.3f},"
        "\"queue_wait_ms\":{\"p50\":%.3f,\"p95\":%.3f}},"
        "\"speedup\":%.2f,"
        "\"path_cache_hit_rate\":%.3f,\"word_cache_hit_rate\":%.3f,"
        "\"path_search_visits\":%llu,\"arena_high_water_bytes\":%llu,"
        "\"expression_mismatches\":%zu}\n",
        Work.size(), Rounds, Workers, Serial.qps(), Serial.TotalSeconds,
        Serial.E2eMs.p50Ms(), Serial.E2eMs.histogram().percentile(95),
        Async.qps(), Async.TotalSeconds, Async.E2eMs.p50Ms(),
        Async.E2eMs.histogram().percentile(95), Async.QueueWaitMs.p50Ms(),
        Async.QueueWaitMs.histogram().percentile(95), Speedup, PathHitRate,
        WordHitRate, static_cast<unsigned long long>(PathSearchVisits),
        static_cast<unsigned long long>(ArenaHighWater), Mismatches);
    return Mismatches == 0 ? 0 : 1;
  }

  bench::banner("Service throughput: serial baseline vs pooled async with "
                "shared caches",
                "the near-real-time service claim, Sections VI-VII");
  std::printf("queries: %zu (%d rounds over the mixed eval set)\n",
              Work.size(), Rounds);
  std::printf("serial (1 thread, caches off): %7.1f q/s   p50 %6.2f ms   "
              "p95 %6.2f ms\n",
              Serial.qps(), Serial.E2eMs.p50Ms(),
              Serial.E2eMs.histogram().percentile(95));
  std::printf("async (%u workers, caches on): %7.1f q/s   p50 %6.2f ms   "
              "p95 %6.2f ms\n",
              Workers, Async.qps(), Async.E2eMs.p50Ms(),
              Async.E2eMs.histogram().percentile(95));
  std::printf("queue wait:                    p50 %6.2f ms   p95 %6.2f ms\n",
              Async.QueueWaitMs.p50Ms(),
              Async.QueueWaitMs.histogram().percentile(95));
  std::printf("speedup: %.2fx   path-cache hit rate: %.1f%%   word-cache "
              "hit rate: %.1f%%\n",
              Speedup, PathHitRate * 100.0, WordHitRate * 100.0);
  std::printf("path-search visits: %llu   arena high-water: %llu bytes\n",
              static_cast<unsigned long long>(PathSearchVisits),
              static_cast<unsigned long long>(ArenaHighWater));
  std::printf("expression mismatches (serial vs async): %zu\n", Mismatches);
  return Mismatches == 0 ? 0 : 1;
}
