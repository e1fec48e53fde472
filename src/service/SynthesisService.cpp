//===- service/SynthesisService.cpp - Resilient query front door ----------===//

#include "service/SynthesisService.h"

#include "grammar/PathCache.h"
#include "obs/Export.h"
#include "obs/HttpEndpoint.h"
#include "obs/Metrics.h"
#include "obs/QueryLog.h"
#include "support/Arena.h"
#include "support/FaultInjection.h"
#include "synth/EdgeToPath.h"
#include "text/Warmup.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <sstream>
#include <thread>

using namespace dggt;

std::string_view dggt::serviceStatusName(ServiceStatus St) {
  switch (St) {
  case ServiceStatus::Ok:
    return "ok";
  case ServiceStatus::NoCandidates:
    return "no-candidates";
  case ServiceStatus::NoAnswer:
    return "no-answer";
  case ServiceStatus::DeadlineExceeded:
    return "deadline-exceeded";
  case ServiceStatus::CircuitOpen:
    return "circuit-open";
  case ServiceStatus::UnknownDomain:
    return "unknown-domain";
  case ServiceStatus::Overloaded:
    return "overloaded";
  case ServiceStatus::Cancelled:
    return "cancelled";
  case ServiceStatus::Draining:
    return "draining";
  }
  return "unknown";
}

int dggt::httpStatusFor(ServiceStatus St) {
  switch (St) {
  case ServiceStatus::Ok:
  case ServiceStatus::NoCandidates:
  case ServiceStatus::NoAnswer:
    // The query *ran*; "no codelet found" is an answer, not a transport
    // failure — the JSON status field distinguishes the three.
    return 200;
  case ServiceStatus::DeadlineExceeded:
    return 504;
  case ServiceStatus::CircuitOpen:
  case ServiceStatus::Draining:
  case ServiceStatus::Cancelled:
    // Temporarily unable / shard going away: safe to retry elsewhere.
    return 503;
  case ServiceStatus::UnknownDomain:
    return 404;
  case ServiceStatus::Overloaded:
    return 429;
  }
  return 500;
}

std::string dggt::serviceReportJson(const ServiceReport &Rep,
                                    std::string_view Domain) {
  std::ostringstream OS;
  OS << "{\"status\":\"" << serviceStatusName(Rep.St) << "\",\"domain\":\""
     << obs::escapeJson(Domain) << "\"";
  if (Rep.ok()) {
    OS << ",\"codelet\":\"" << obs::escapeJson(Rep.Result.Expression)
       << "\",\"cgt_size\":" << Rep.Result.CgtSize;
  }
  if (Rep.AnsweredBy)
    OS << ",\"answered_by\":\"" << rungName(*Rep.AnsweredBy) << "\"";
  OS << ",\"attempts\":[";
  for (size_t I = 0; I < Rep.Attempts.size(); ++I) {
    const RungAttempt &A = Rep.Attempts[I];
    if (I)
      OS << ",";
    OS << "{\"rung\":\"" << rungName(A.Rung) << "\",\"status\":\""
       << attemptStatusName(A.St) << "\",\"try\":" << A.Try
       << ",\"ms\":" << A.Seconds * 1000.0
       << ",\"remaining_ms\":" << A.RemainingMs << "}";
  }
  OS << "],\"total_ms\":" << Rep.TotalSeconds * 1000.0 << "}";
  return OS.str();
}

std::string_view dggt::rungName(ServiceRung R) {
  switch (R) {
  case ServiceRung::DggtFull:
    return "dggt-full";
  case ServiceRung::DggtTight:
    return "dggt-tight";
  case ServiceRung::Hisyn:
    return "hisyn";
  }
  return "unknown";
}

std::string_view dggt::breakerStateName(SynthesisService::BreakerState St) {
  switch (St) {
  case SynthesisService::BreakerState::Closed:
    return "closed";
  case SynthesisService::BreakerState::Open:
    return "open";
  case SynthesisService::BreakerState::HalfOpen:
    return "half-open";
  }
  return "unknown";
}

std::string_view dggt::attemptStatusName(AttemptStatus St) {
  switch (St) {
  case AttemptStatus::Success:
    return "success";
  case AttemptStatus::Timeout:
    return "timeout";
  case AttemptStatus::NoCandidates:
    return "no-candidates";
  case AttemptStatus::NoValidTree:
    return "no-valid-tree";
  case AttemptStatus::TransientFault:
    return "transient-fault";
  }
  return "unknown";
}

namespace {

AttemptStatus toAttemptStatus(SynthesisResult::Status St) {
  switch (St) {
  case SynthesisResult::Status::Success:
    return AttemptStatus::Success;
  case SynthesisResult::Status::Timeout:
    return AttemptStatus::Timeout;
  case SynthesisResult::Status::NoCandidates:
    return AttemptStatus::NoCandidates;
  case SynthesisResult::Status::NoValidTree:
    return AttemptStatus::NoValidTree;
  }
  return AttemptStatus::NoValidTree;
}

/// Per-rung latency histogram, cached across queries (the rung set is
/// closed, so one static array covers it).
obs::Histogram &rungLatencyMs(ServiceRung R) {
  static obs::Histogram *H[3] = {
      &obs::registry().histogram("dggt_service_rung_latency_ms",
                                 {{"rung", "dggt-full"}}),
      &obs::registry().histogram("dggt_service_rung_latency_ms",
                                 {{"rung", "dggt-tight"}}),
      &obs::registry().histogram("dggt_service_rung_latency_ms",
                                 {{"rung", "hisyn"}}),
  };
  return *H[static_cast<size_t>(R)];
}

} // namespace

ServiceOptions ServiceOptions::resolvedFor(std::string_view DomainName) const {
  ServiceOptions R = *this;
  auto It = Overrides.find(DomainName);
  if (It == Overrides.end())
    return R;
  const DomainOverrides &O = It->second;
  if (O.TotalBudgetMs)
    R.TotalBudgetMs = *O.TotalBudgetMs;
  if (O.RungBudgetFraction)
    R.RungBudgetFraction = *O.RungBudgetFraction;
  if (O.MaxRetriesPerRung)
    R.MaxRetriesPerRung = *O.MaxRetriesPerRung;
  if (O.RetryBackoffMs)
    R.RetryBackoffMs = *O.RetryBackoffMs;
  if (O.TightLimits)
    R.TightLimits = *O.TightLimits;
  if (O.EnableHisynFallback)
    R.EnableHisynFallback = *O.EnableHisynFallback;
  if (O.BreakerTripThreshold)
    R.BreakerTripThreshold = *O.BreakerTripThreshold;
  if (O.BreakerCooldownMs)
    R.BreakerCooldownMs = *O.BreakerCooldownMs;
  if (O.PathCacheBytes)
    R.PathCacheBytes = *O.PathCacheBytes;
  if (O.WordCacheBytes)
    R.WordCacheBytes = *O.WordCacheBytes;
  if (O.AdmissionGate)
    R.AdmissionGate = *O.AdmissionGate;
  return R;
}

/// Per-domain state: the domain itself plus its circuit breaker. The
/// breaker is the classic three-state machine: Closed counts consecutive
/// deadline misses, Open sheds every query until a cooldown elapses,
/// then exactly one probe is admitted (half-open); the probe's outcome
/// closes or re-opens the circuit.
struct SynthesisService::DomainState {
  const Domain *D = nullptr;
  std::string Name;
  /// Base options with this domain's overrides applied (addDomain time).
  ServiceOptions Resolved;
  /// Per-domain query latency, created eagerly so the series exists in
  /// exports even before the first query.
  obs::Histogram *QueryLatencyMs = nullptr;

  /// Cross-query memos shared by every query against this domain (null
  /// when disabled by a zero byte budget). Both are thread-safe; worker
  /// threads of the async layer hit them concurrently.
  std::unique_ptr<PathCache> Paths;
  std::unique_ptr<ApiCandidateCache> Words;

  mutable std::mutex M;
  unsigned ConsecutiveTimeouts = 0;
  bool Open = false;
  bool ProbeInFlight = false;
  Budget::Clock::time_point OpenedAt{};

  enum class Admission { Admit, Probe, Reject };

  /// Counts a breaker state transition (\p To in {"open", "half-open",
  /// "closed"}). Transitions are rare, so the registry lookup is fine.
  void countTransition(const char *To) const {
    if (!obs::metricsEnabled())
      return;
    obs::registry()
        .counter("dggt_service_breaker_transitions_total",
                 {{"domain", Name}, {"to", To}})
        .inc();
  }

  Admission admit() {
    std::lock_guard<std::mutex> L(M);
    if (!Open)
      return Admission::Admit;
    if (!ProbeInFlight &&
        Budget::Clock::now() - OpenedAt >=
            std::chrono::milliseconds(Resolved.BreakerCooldownMs)) {
      ProbeInFlight = true;
      countTransition("half-open");
      return Admission::Probe;
    }
    return Admission::Reject;
  }

  /// Settles an admitted query's outcome. Only deadline misses count as
  /// breaker failures: fast deterministic negatives (NoAnswer,
  /// NoCandidates) prove the service is healthy.
  void settle(bool WasProbe, bool DeadlineMiss) {
    std::lock_guard<std::mutex> L(M);
    if (WasProbe)
      ProbeInFlight = false;
    if (!DeadlineMiss) {
      ConsecutiveTimeouts = 0;
      if (Open)
        countTransition("closed");
      Open = false;
      return;
    }
    if (WasProbe || ++ConsecutiveTimeouts >= Resolved.BreakerTripThreshold) {
      // A tripping first failure and a failed half-open probe both land
      // here; either way the circuit is (re-)opened.
      countTransition("open");
      Open = true;
      OpenedAt = Budget::Clock::now();
      ConsecutiveTimeouts = 0;
    }
  }

  BreakerState state() const {
    std::lock_guard<std::mutex> L(M);
    if (!Open)
      return BreakerState::Closed;
    if (ProbeInFlight ||
        Budget::Clock::now() - OpenedAt >=
            std::chrono::milliseconds(Resolved.BreakerCooldownMs))
      return BreakerState::HalfOpen;
    return BreakerState::Open;
  }
};

SynthesisService::SynthesisService(ServiceOptions Opts)
    : Opts(std::move(Opts)) {
  // Environment-driven exporter wiring (DGGT_METRICS); idempotent and a
  // no-op when the variable is unset.
  obs::applyEnvSpec();
  if (this->Opts.EnableMetrics)
    obs::setMetricsEnabled(true);
  if (this->Opts.Trace)
    obs::Tracer::instance().setSink(this->Opts.Trace);
  // Build the text layer's lazy lookup tables now, on this thread, so
  // worker threads added by the async layer only ever read them.
  warmupTextTables();

  // Live introspection: own an endpoint when asked for one, otherwise
  // join the global spec-configured endpoint if there is one. Last
  // registered service wins the providers (one service per process is
  // the normal shape); the destructor deregisters.
  if (this->Opts.HttpPort) {
    obs::HttpEndpoint::Options HO;
    HO.Port = *this->Opts.HttpPort;
    HO.Announce = true;
    auto Ep = std::make_shared<obs::HttpEndpoint>(HO);
    std::string Error;
    if (Ep->start(Error)) {
      Endpoint = std::move(Ep);
      // A service that asked for a metrics endpoint wants live metrics.
      obs::setMetricsEnabled(true);
    } else {
      std::fprintf(stderr, "[service] http endpoint on port %u failed: %s\n",
                   static_cast<unsigned>(*this->Opts.HttpPort),
                   Error.c_str());
    }
  } else {
    Endpoint = obs::httpEndpoint();
  }
  if (Endpoint) {
    HealthReg = Endpoint->setHealthProvider([this] { return healthStatus(); });
    StatusReg = Endpoint->setStatusProvider([this] { return statusJson(); });
  }
}

SynthesisService::~SynthesisService() {
  // Quiesce the provider callbacks before members go away: the clears
  // synchronize with any in-flight invocation on the server thread.
  // Token-matched, so if a newer service has since taken over the shared
  // endpoint ("last registered wins") this is a no-op and its providers
  // stay live.
  if (Endpoint) {
    Endpoint->clearHealthProvider(HealthReg);
    Endpoint->clearStatusProvider(StatusReg);
  }
}

void SynthesisService::addDomain(const Domain &D) {
  auto DS = std::make_unique<DomainState>();
  DS->D = &D;
  DS->Name = D.name();
  DS->Resolved = Opts.resolvedFor(DS->Name);
  DS->QueryLatencyMs = &obs::registry().histogram(
      "dggt_service_query_latency_ms", {{"domain", DS->Name}});
  if (DS->Resolved.PathCacheBytes > 0)
    DS->Paths =
        std::make_unique<PathCache>(DS->Name, DS->Resolved.PathCacheBytes);
  if (DS->Resolved.WordCacheBytes > 0)
    DS->Words = std::make_unique<ApiCandidateCache>(
        DS->Name, DS->Resolved.WordCacheBytes);
  std::unique_lock<std::shared_mutex> L(DomainsM);
  Domains[D.name()] = std::move(DS);
}

SynthesisService::DomainState *
SynthesisService::findDomain(std::string_view Name) const {
  std::shared_lock<std::shared_mutex> L(DomainsM);
  auto It = Domains.find(Name);
  return It == Domains.end() ? nullptr : It->second.get();
}

std::vector<std::string> SynthesisService::domainNames() const {
  std::shared_lock<std::shared_mutex> L(DomainsM);
  std::vector<std::string> Names;
  Names.reserve(Domains.size());
  for (const auto &[Name, DS] : Domains)
    Names.push_back(Name);
  return Names;
}

obs::HealthStatus SynthesisService::healthStatus() const {
  obs::HealthStatus St;
  std::vector<std::string> OpenDomains;
  size_t NumDomains = 0;
  {
    std::shared_lock<std::shared_mutex> L(DomainsM);
    NumDomains = Domains.size();
    for (const auto &[Name, DS] : Domains)
      if (DS->state() == BreakerState::Open)
        OpenDomains.push_back(Name);
  }
  St.Ready = warmupComplete() && NumDomains > 0;
  St.Healthy = OpenDomains.empty();
  std::ostringstream OS;
  OS << NumDomains << " domain(s)";
  if (!St.Ready)
    OS << (NumDomains == 0 ? "; no domain registered" : "; warmup pending");
  if (!St.Healthy) {
    OS << "; breaker open:";
    for (const std::string &Name : OpenDomains)
      OS << " " << Name;
  }
  St.Detail = OS.str();
  return St;
}

std::string SynthesisService::statusJson() const {
  std::ostringstream OS;
  OS << "{\"domains\":{";
  bool First = true;
  std::shared_lock<std::shared_mutex> L(DomainsM);
  for (const auto &[Name, DS] : Domains) {
    if (!First)
      OS << ",";
    First = false;
    OS << "\"" << obs::escapeJson(Name) << "\":{\"breaker\":\""
       << breakerStateName(DS->state()) << "\",\"budget_ms\":"
       << DS->Resolved.TotalBudgetMs;
    auto WriteCache = [&OS](const char *Key, uint64_t Hits, uint64_t Misses,
                            uint64_t Evictions, uint64_t Bytes,
                            uint64_t Budget, uint64_t Entries,
                            double HitRate) {
      OS << ",\"" << Key << "\":{\"hits\":" << Hits
         << ",\"misses\":" << Misses << ",\"evictions\":" << Evictions
         << ",\"hit_rate\":" << HitRate << ",\"bytes\":" << Bytes
         << ",\"budget_bytes\":" << Budget << ",\"entries\":" << Entries
         << "}";
    };
    if (DS->Paths) {
      PathCacheStats PS = DS->Paths->stats();
      WriteCache("path_cache", PS.Hits, PS.Misses, PS.Evictions, PS.Bytes,
                 DS->Paths->byteBudget(), PS.Entries, PS.hitRate());
    } else {
      OS << ",\"path_cache\":null";
    }
    if (DS->Words) {
      ApiCandidateCacheStats WS = DS->Words->stats();
      WriteCache("word_cache", WS.Hits, WS.Misses, WS.Evictions, WS.Bytes,
                 DS->Words->byteBudget(), WS.Entries, WS.hitRate());
    } else {
      OS << ",\"word_cache\":null";
    }
    OS << "}";
  }
  OS << "}}";
  return OS.str();
}

SynthesisService::BreakerState
SynthesisService::breakerState(std::string_view Name) const {
  DomainState *DS = findDomain(Name);
  return DS ? DS->state() : BreakerState::Closed;
}

const ServiceOptions &
SynthesisService::optionsFor(std::string_view Name) const {
  DomainState *DS = findDomain(Name);
  return DS ? DS->Resolved : Opts;
}

PathCache *SynthesisService::pathCache(std::string_view Name) const {
  DomainState *DS = findDomain(Name);
  return DS ? DS->Paths.get() : nullptr;
}

ApiCandidateCache *SynthesisService::wordCache(std::string_view Name) const {
  DomainState *DS = findDomain(Name);
  return DS ? DS->Words.get() : nullptr;
}

ServiceReport SynthesisService::query(std::string_view DomainName,
                                      std::string_view QueryText) {
  return query(DomainName, QueryText,
               Budget(optionsFor(DomainName).TotalBudgetMs));
}

ServiceReport SynthesisService::query(std::string_view DomainName,
                                      std::string_view QueryText,
                                      Budget Total) {
  ServiceReport Rep;
  WallTimer Timer;
  obs::ScopedSpan QSpan("service.query");
  if (QSpan.active()) {
    QSpan.attr("domain", DomainName);
    QSpan.attr("query", obs::sanitizeQueryText(QueryText));
  }

  DomainState *DS = findDomain(DomainName);
  // Flipped once the pipeline ran for *this* query; guards the cost
  // snapshot so a rejected query never inherits the thread-local cost
  // vector of the previous query on this worker thread.
  bool PipelineRan = false;
  auto Finish = [&](ServiceStatus St) -> ServiceReport & {
    Rep.St = St;
    Rep.TotalSeconds = Timer.seconds();
    if (PipelineRan) {
      Rep.Cost = obs::queryCost();
      // The arena is reset at the pipeline's query boundary and only
      // grows until the next query on this thread, so bytesUsed() here
      // *is* this query's high-water scratch footprint.
      Rep.Cost.ArenaHighWaterBytes = queryArena().bytesUsed();
    }
    if (QSpan.active()) {
      QSpan.attr("status", serviceStatusName(St));
      if (Rep.AnsweredBy)
        QSpan.attr("answered_by", rungName(*Rep.AnsweredBy));
    }
    if (obs::metricsEnabled()) {
      obs::registry()
          .counter("dggt_service_queries_total",
                   {{"domain", std::string(DomainName)},
                    {"status", std::string(serviceStatusName(St))}})
          .inc();
      if (DS) {
        // Attach the query's trace id as an OpenMetrics exemplar so a
        // scrape can jump from a bad latency bucket to the full trace.
        // currentQueryContext() sees the context this thread adopted (or
        // the live span tree); invalid when nothing is traced.
        obs::QueryContext Ctx = obs::currentQueryContext();
        if (Ctx.valid())
          DS->QueryLatencyMs->observe(Rep.TotalSeconds * 1000.0,
                                      Ctx.traceIdHex());
        else
          DS->QueryLatencyMs->observe(Rep.TotalSeconds * 1000.0);
        if (PipelineRan) {
          // Per-query arena high water, with the trace id as exemplar so
          // a fat bucket links straight to the query that caused it.
          // Byte-scaled bounds (1 KiB .. 16 MiB), not the default
          // latency buckets.
          static obs::Histogram &ArenaH = obs::registry().histogram(
              "dggt_arena_high_water_bytes", {},
              {1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0,
               4194304.0, 16777216.0});
          double Bytes =
              static_cast<double>(Rep.Cost.ArenaHighWaterBytes);
          if (Ctx.valid())
            ArenaH.observe(Bytes, Ctx.traceIdHex());
          else
            ArenaH.observe(Bytes);
        }
      }
    }
    return Rep;
  };

  if (!DS)
    return Finish(ServiceStatus::UnknownDomain);
  const ServiceOptions &DOpts = DS->Resolved;

  DomainState::Admission A = DS->admit();
  if (A == DomainState::Admission::Reject)
    return Finish(ServiceStatus::CircuitOpen);
  bool Probe = A == DomainState::Admission::Probe;

  SharedQueryCaches Caches{DS->Paths.get(), DS->Words.get()};
  PreparedQuery Full = DS->D->frontEnd().prepare(QueryText, Caches);
  PipelineRan = true;
  for (size_t I = 0; I < 4; ++I)
    Rep.StageMs[I] = Full.StageMs[I];
  Rep.PathCacheHit = Full.PathCacheHit;
  Rep.WordCacheHit = Full.WordCacheHit;

  if (!Full.allWordsMapped()) {
    // No rung changes the word-to-API mapping: fail fast, keep the whole
    // remaining budget for queries that can be answered.
    DS->settle(Probe, /*DeadlineMiss=*/false);
    return Finish(ServiceStatus::NoCandidates);
  }

  std::vector<ServiceRung> Ladder{ServiceRung::DggtFull,
                                  ServiceRung::DggtTight};
  if (DOpts.EnableHisynFallback)
    Ladder.push_back(ServiceRung::Hisyn);

  // The tightened query reuses steps 1-3 (parse, prune, WordToAPI) and
  // only redoes the path search under the tightened caps, lazily, so the
  // happy path never pays for it.
  std::optional<PreparedQuery> TightQ;

  AttemptStatus Last = AttemptStatus::NoValidTree;
  bool BudgetRanOut = false;

  for (size_t RI = 0; RI < Ladder.size(); ++RI) {
    ServiceRung Rung = Ladder[RI];
    uint64_t Left = Total.remainingMs();
    if (Left == 0) {
      BudgetRanOut = true;
      break;
    }
    bool FinalRung = RI + 1 == Ladder.size();
    uint64_t RungMs =
        FinalRung ? 0 // child(0): the whole remainder.
                  : std::max<uint64_t>(
                        1, static_cast<uint64_t>(
                               static_cast<double>(Left) *
                               DOpts.RungBudgetFraction));

    const PreparedQuery *Q = &Full;
    if (Rung == ServiceRung::DggtTight) {
      if (!TightQ) {
        TightQ = Full;
        TightQ->Limits = DOpts.TightLimits;
        TightQ->Edges = buildEdgeToPath(*Full.GG, *Full.Doc, Full.Pruned,
                                        Full.Words, DOpts.TightLimits,
                                        DS->Paths.get());
      }
      Q = &*TightQ;
    }

    for (unsigned Try = 0; Try <= DOpts.MaxRetriesPerRung; ++Try) {
      if (Try > 0) {
        if (obs::metricsEnabled())
          obs::registry()
              .counter("dggt_service_retries_total",
                       {{"rung", std::string(rungName(Rung))}})
              .inc();
        uint64_t BackoffMs = std::min(DOpts.RetryBackoffMs << (Try - 1),
                                      Total.remainingMs());
        if (BackoffMs > 0)
          std::this_thread::sleep_for(std::chrono::milliseconds(BackoffMs));
      }
      WallTimer AttemptTimer;
      obs::ScopedSpan ASpan("service.rung");
      if (ASpan.active()) {
        ASpan.attr("rung", rungName(Rung));
        ASpan.attr("try", static_cast<uint64_t>(Try));
      }
      auto RecordAttempt = [&](AttemptStatus St) {
        double Seconds = AttemptTimer.seconds();
        Rep.Attempts.push_back(
            {Rung, St, Seconds, Try, Total.remainingMs()});
        if (ASpan.active())
          ASpan.attr("status", attemptStatusName(St));
        if (obs::metricsEnabled()) {
          rungLatencyMs(Rung).observe(Seconds * 1000.0);
          obs::registry()
              .counter("dggt_service_rung_attempts_total",
                       {{"rung", std::string(rungName(Rung))},
                        {"status", std::string(attemptStatusName(St))}})
              .inc();
        }
      };
      if (faultFires(faults::ServiceTransient)) {
        Last = AttemptStatus::TransientFault;
        RecordAttempt(Last);
        continue; // Retry the same rung (bounded by MaxRetriesPerRung).
      }
      Budget RungBudget = Total.child(RungMs);
      SynthesisResult R = Rung == ServiceRung::Hisyn
                              ? Hisyn.synthesize(*Q, RungBudget)
                              : Dggt.synthesize(*Q, RungBudget);
      Last = toAttemptStatus(R.St);
      RecordAttempt(Last);

      if (R.ok()) {
        Rep.Result = std::move(R);
        Rep.AnsweredBy = Rung;
        DS->settle(Probe, /*DeadlineMiss=*/false);
        return Finish(ServiceStatus::Ok);
      }
      // A completed search that found no valid tree is the answer: a
      // lower rung only searches less. Only a timeout degrades.
      if (Last == AttemptStatus::NoCandidates ||
          Last == AttemptStatus::NoValidTree) {
        DS->settle(Probe, /*DeadlineMiss=*/false);
        return Finish(Last == AttemptStatus::NoCandidates
                          ? ServiceStatus::NoCandidates
                          : ServiceStatus::NoAnswer);
      }
      // A timeout is not transient: degrade to the next rung instead of
      // burning budget on a retry of the same work.
      break;
    }
  }

  // No rung answered. The outcome is a deadline miss when time actually
  // ran out (or the final rung itself timed out); a ladder whose rungs
  // all spent their transient-fault retries is a definitive no-answer.
  bool DeadlineMiss = BudgetRanOut || Last == AttemptStatus::Timeout;
  DS->settle(Probe, DeadlineMiss);
  return Finish(DeadlineMiss ? ServiceStatus::DeadlineExceeded
                             : ServiceStatus::NoAnswer);
}
