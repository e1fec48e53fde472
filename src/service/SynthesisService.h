//===- service/SynthesisService.h - Resilient query front door ---*- C++ -*-===//
///
/// \file
/// The production front door of the synthesis library: a thread-safe
/// service that owns the registered domains and runs every query through
/// a degradation ladder under one total deadline, so a pathological query
/// degrades predictably instead of eating the whole interactive budget
/// (the paper's Section VII-B1 discipline, promoted from per-run harness
/// code to a service contract). The ladder rungs are:
///
///   1. DGGT at the domain's full PathSearchLimits,
///   2. DGGT at tightened limits (smaller path/visit caps: less complete,
///      but bounded work),
///   3. the HISyn baseline (algorithm-diverse: a DGGT-specific failure
///      does not take the service down),
///   4. a structured error — never a crash, never an unbounded overrun.
///
/// Each rung gets a child budget split off the query's total budget
/// (Budget::child), transient faults are retried with bounded backoff,
/// and a per-domain circuit breaker sheds load after consecutive
/// deadline misses, half-opening on a probe after a cooldown (the
/// retry/outlier patterns of proxy data planes, scaled to one process).
/// The returned ServiceReport carries the full attempt trail for
/// observability. See DESIGN.md "Failure model and degradation ladder".
///
//===----------------------------------------------------------------------===//

#ifndef DGGT_SERVICE_SYNTHESISSERVICE_H
#define DGGT_SERVICE_SYNTHESISSERVICE_H

#include "domains/Domain.h"
#include "obs/Cost.h"
#include "obs/Trace.h"
#include "synth/Synthesizer.h"
#include "synth/dggt/DggtSynthesizer.h"
#include "synth/hisyn/HisynSynthesizer.h"

#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

namespace dggt {

class ApiCandidateCache;
class PathCache;

namespace obs {
class HttpEndpoint;
struct HealthStatus;
} // namespace obs

/// Terminal status of one service query.
enum class ServiceStatus {
  Ok,               ///< Some rung produced a codelet.
  NoCandidates,     ///< A word matched no API; no rung can remap words,
                    ///< so the query fails fast before the ladder runs.
  NoAnswer,         ///< A rung completed without a valid tree (final: a
                    ///< lower rung only searches less), or every rung
                    ///< exhausted its transient-fault retries.
  DeadlineExceeded, ///< The total budget ran out, or the final rung
                    ///< itself timed out.
  CircuitOpen,      ///< Admission control rejected the query outright.
  UnknownDomain,    ///< No domain registered under that name.
  Overloaded,       ///< Shed before running: the async layer's submission
                    ///< queue was full (backpressure).
  Cancelled,        ///< Cancelled by the caller (a hedged sibling won, or
                    ///< a drain deadline overtook the queued work) before
                    ///< the ladder produced an answer.
  Draining,         ///< Rejected at submit: the worker is draining and no
                    ///< longer admits queries (retry on another shard).
};

/// Short name of \p St ("ok", "deadline-exceeded", ...).
std::string_view serviceStatusName(ServiceStatus St);

/// The data-plane failure matrix: the HTTP status code POST
/// /v1/synthesize answers for a query that ended in \p St. Terminal
/// outcomes (Ok, NoAnswer, NoCandidates) are 200 — the JSON body carries
/// the synthesis status; transport-level rejections map to retryable
/// codes (429/503/504). See DESIGN.md §13.
int httpStatusFor(ServiceStatus St);

/// Rungs of the degradation ladder, tried in declaration order.
enum class ServiceRung {
  DggtFull,  ///< DGGT at the domain's full limits.
  DggtTight, ///< DGGT at ServiceOptions::TightLimits.
  Hisyn,     ///< Exhaustive baseline fallback.
};

/// Short name of \p R ("dggt-full", "dggt-tight", "hisyn").
std::string_view rungName(ServiceRung R);

/// How one rung attempt ended.
enum class AttemptStatus {
  Success,
  Timeout,        ///< The rung's child budget expired.
  NoCandidates,
  NoValidTree,
  TransientFault, ///< Injected transient failure (faults::ServiceTransient);
                  ///< retried with backoff up to MaxRetriesPerRung.
};

/// Short name of \p St ("success", "transient-fault", ...).
std::string_view attemptStatusName(AttemptStatus St);

/// One entry of the attempt trail.
struct RungAttempt {
  ServiceRung Rung = ServiceRung::DggtFull;
  AttemptStatus St = AttemptStatus::NoValidTree;
  double Seconds = 0; ///< Wall clock of this attempt alone.
  unsigned Try = 0;   ///< 0 on the first attempt at the rung, 1+ retries.
  /// Total budget left (ms) when this attempt *finished* — the headroom
  /// the remaining rungs had to work with. Reconstructs the budget decay
  /// from the trail alone.
  uint64_t RemainingMs = 0;
};

/// Everything the service reports about one query.
struct ServiceReport {
  ServiceStatus St = ServiceStatus::NoAnswer;
  /// The winning rung's synthesis result (meaningful when ok()).
  SynthesisResult Result;
  /// Which rung answered (unset unless ok()).
  std::optional<ServiceRung> AnsweredBy;
  /// Chronological attempt trail across rungs and retries.
  std::vector<RungAttempt> Attempts;
  /// Total wall clock including preparation and backoff sleeps.
  double TotalSeconds = 0;

  /// Submit-to-start queue wait (ms); stamped by the async layer, 0 for
  /// direct query() calls.
  double QueueWaitMs = 0;
  /// Winning attempt's pipeline stage latencies in the fixed order
  /// {parse, prune, word_to_api, edge_to_path} (obs::QueryStageNames).
  double StageMs[4] = {0, 0, 0, 0};
  /// Best-effort shared-cache attribution of the winning attempt (see
  /// PreparedQuery).
  bool PathCacheHit = false;
  bool WordCacheHit = false;
  /// DP-core cost vector accumulated while this query ran its pipeline
  /// (DESIGN.md §16). Unpopulated when the query never reached the
  /// pipeline (unknown domain, open breaker).
  obs::CostCounters Cost;

  bool ok() const { return St == ServiceStatus::Ok; }
};

/// Serializes \p Rep as the /v1/synthesize response body: status,
/// codelet (when ok), the chronological attempt trail with per-rung
/// latency and remaining-budget metadata, and total latency. \p Domain
/// is echoed back for log correlation.
std::string serviceReportJson(const ServiceReport &Rep,
                              std::string_view Domain);

/// Service tuning knobs.
struct ServiceOptions {
  /// Per-domain overrides of the base options. Unset fields inherit the
  /// base value; resolution happens once at addDomain() time.
  struct DomainOverrides {
    std::optional<uint64_t> TotalBudgetMs;
    std::optional<double> RungBudgetFraction;
    std::optional<unsigned> MaxRetriesPerRung;
    std::optional<uint64_t> RetryBackoffMs;
    std::optional<PathSearchLimits> TightLimits;
    std::optional<bool> EnableHisynFallback;
    std::optional<unsigned> BreakerTripThreshold;
    std::optional<uint64_t> BreakerCooldownMs;
    std::optional<uint64_t> PathCacheBytes;
    std::optional<uint64_t> WordCacheBytes;
    std::optional<bool> AdmissionGate;
  };

  /// Total per-query deadline (the interactive budget).
  uint64_t TotalBudgetMs = 2000;
  /// Share of the *remaining* budget granted to each non-final rung; the
  /// final rung always gets everything left.
  double RungBudgetFraction = 0.5;
  /// Retries per rung for transient faults (0 disables retrying).
  unsigned MaxRetriesPerRung = 1;
  /// Backoff before retry k is RetryBackoffMs << (k-1), capped by the
  /// remaining total budget.
  uint64_t RetryBackoffMs = 2;
  /// Tightened limits for the second rung.
  PathSearchLimits TightLimits{/*MaxPathNodes=*/12, /*MaxPaths=*/64,
                               /*MaxVisits=*/20000};
  /// Whether the HISyn rung is in the ladder.
  bool EnableHisynFallback = true;
  /// Consecutive deadline-exceeded queries that trip the breaker.
  unsigned BreakerTripThreshold = 3;
  /// How long the breaker stays open before admitting a half-open probe.
  uint64_t BreakerCooldownMs = 250;
  /// Byte budget of the per-domain path-search memo (see PathCache);
  /// 0 disables it. Hits are bit-identical to re-searching, so this is
  /// purely a speed/memory trade.
  uint64_t PathCacheBytes = 4ull << 20;
  /// Byte budget of the per-domain WordToAPI candidate memo; 0 disables.
  uint64_t WordCacheBytes = 1ull << 20;
  /// Whether the async layer's deadline-aware admission gate may reject
  /// this domain's queries at submit (see service/LoadController.h; only
  /// consulted when the load controller is enabled). A latency-tolerant
  /// batch domain can opt out per-domain and queue through spikes.
  bool AdmissionGate = true;

  /// Per-domain overrides, keyed by domain name. A latency-tolerant batch
  /// domain can run with a bigger budget and no HISyn fallback while an
  /// interactive domain keeps the tight defaults, all in one service.
  std::map<std::string, DomainOverrides, std::less<>> Overrides;

  /// Turns the global metrics switch on at service construction (the
  /// DGGT_METRICS environment spec can do the same without a rebuild; see
  /// obs/Export.h).
  bool EnableMetrics = false;
  /// Trace sink installed at service construction (e.g. an
  /// obs::JsonLinesTraceSink). Installing a sink enables tracing.
  std::shared_ptr<obs::TraceSink> Trace;
  /// When set, the service owns a live introspection endpoint on
  /// 127.0.0.1:<HttpPort> (0 = ephemeral; see obs/HttpEndpoint.h) and
  /// registers its health/status providers on it. Implies metrics
  /// collection, so /metrics has content. The `http:PORT` DGGT_METRICS
  /// entry is the no-rebuild equivalent (a process-global endpoint the
  /// service also registers on).
  std::optional<uint16_t> HttpPort;

  /// Returns a copy with the overrides for \p DomainName applied (base
  /// values where no override is set).
  ServiceOptions resolvedFor(std::string_view DomainName) const;
};

/// Thread-safe synthesis front door over one or more domains.
///
/// query() may be called concurrently from any number of threads once
/// all domains are registered; addDomain() is part of single-threaded
/// setup and must not race with query().
class SynthesisService {
public:
  enum class BreakerState { Closed, Open, HalfOpen };

  explicit SynthesisService(ServiceOptions Opts = {});
  ~SynthesisService();

  SynthesisService(const SynthesisService &) = delete;
  SynthesisService &operator=(const SynthesisService &) = delete;

  /// Registers \p D under D.name(). The domain must outlive the service.
  void addDomain(const Domain &D);

  /// True if a domain is registered under \p DomainName.
  bool hasDomain(std::string_view DomainName) const {
    return findDomain(DomainName) != nullptr;
  }

  /// Runs \p QueryText through the ladder against domain \p DomainName
  /// under the domain's own TotalBudgetMs.
  ServiceReport query(std::string_view DomainName,
                      std::string_view QueryText);

  /// Same, under a caller-supplied total budget. The async layer uses
  /// this to fix a query's deadline at *submission* time
  /// (Budget::until), so time spent queued counts against the budget.
  ServiceReport query(std::string_view DomainName, std::string_view QueryText,
                      Budget Total);

  /// The per-domain caches (null for unknown domains or when disabled by
  /// a zero byte budget). Exposed for hit-rate reporting (bench, tests)
  /// and for explicit invalidation after a domain's grammar or document
  /// changes.
  PathCache *pathCache(std::string_view DomainName) const;
  ApiCandidateCache *wordCache(std::string_view DomainName) const;

  /// Current breaker state of \p DomainName (Closed for unknown names).
  BreakerState breakerState(std::string_view DomainName) const;

  /// Registered domain names, sorted (the map order).
  std::vector<std::string> domainNames() const;

  /// One JSON object describing live service state: per-domain breaker
  /// rung and cache hit rates / byte usage. The introspection endpoint's
  /// /statusz is built from this (AsyncSynthesisService::statusJson()
  /// wraps it with queue and shed state).
  std::string statusJson() const;

  /// Liveness/readiness as /healthz//readyz report it: Ready once text
  /// warmup completed and a domain is registered, Healthy while no
  /// domain breaker is open.
  obs::HealthStatus healthStatus() const;

  /// The introspection endpoint this service registered its providers
  /// on: the owned one (ServiceOptions::HttpPort), else the global
  /// spec-configured one, else null.
  obs::HttpEndpoint *endpoint() const { return Endpoint.get(); }

  const ServiceOptions &options() const { return Opts; }

  /// Effective options for \p DomainName: the base options with the
  /// domain's overrides applied. Returns the base options for unknown
  /// names.
  const ServiceOptions &optionsFor(std::string_view DomainName) const;

private:
  struct DomainState;

  DomainState *findDomain(std::string_view Name) const;

  ServiceOptions Opts;
  DggtSynthesizer Dggt;
  HisynSynthesizer Hisyn;
  /// Guards the map itself (addDomain writes; queries and the endpoint
  /// thread read). DomainState objects are stable once inserted — the
  /// shared lock is only held for the lookup, never across a query.
  mutable std::shared_mutex DomainsM;
  std::map<std::string, std::unique_ptr<DomainState>, std::less<>> Domains;
  /// Endpoint the providers were registered on (kept alive; cleared in
  /// the destructor so the server thread never calls a dead service).
  std::shared_ptr<obs::HttpEndpoint> Endpoint;
  /// Registration tokens for the providers above; the destructor's
  /// token-matched clear is a no-op if a newer owner replaced them.
  uint64_t HealthReg = 0;
  uint64_t StatusReg = 0;
};

/// Short name of \p St ("closed", "open", "half-open").
std::string_view breakerStateName(SynthesisService::BreakerState St);

} // namespace dggt

#endif // DGGT_SERVICE_SYNTHESISSERVICE_H
