//===- service/AsyncSynthesisService.h - Pooled query scheduler -*- C++ -*-===//
///
/// \file
/// The concurrency layer over SynthesisService: submit() enqueues a
/// query onto a bounded, per-domain-keyed worker pool and returns a
/// std::future<ServiceReport> immediately. The layer adds exactly three
/// behaviours on top of the serial service — everything else (ladder,
/// breaker, budgets, caches) stays in SynthesisService, so an async
/// result is bit-identical to the serial result of the same query:
///
///   1. *Backpressure.* The submission queue holds at most QueueCap
///      tasks; submit() on a full queue sheds immediately with an
///      Overloaded report (a ready future, never a blocked caller).
///
///   2. *Submission-time deadlines.* A query's TotalBudgetMs deadline is
///      fixed when it is accepted, not when a worker picks it up, so
///      queue wait burns the query's own budget. A worker that dequeues
///      a task already past its deadline cancels it without running the
///      ladder (DeadlineExceeded, empty attempt trail) — under overload
///      the pool drains stale work at memcpy speed instead of running
///      doomed queries.
///
///   3. *Domain coalescing.* Tasks are keyed by domain, and the pool
///      prefers to keep a worker on one domain's queue (see ThreadPool),
///      so consecutive queries share that domain's warm PathCache /
///      ApiCandidateCache working set.
///
/// With AsyncOptions::LoadControl enabled a fourth behaviour appears:
/// *adaptive load control*. A LoadController periodically re-derives the
/// effective queue cap and coalesce batch from the measured queue-wait
/// histogram, and a deadline-aware admission gate rejects a query at
/// submit() (immediate Overloaded) when `p95 queue wait + the domain's
/// p50 service time` already exceeds its budget — failing fast instead
/// of cancelling after the wait. See service/LoadController.h for the
/// control law; off by default, the static knobs then behave exactly as
/// before.
///
/// The layer is also the *network-facing* synthesis engine: at
/// construction it registers a SynthesizeProvider on the wrapped
/// service's introspection endpoint, so POST /v1/synthesize submits
/// here and answers through the endpoint's deferred-reply path (see
/// obs/HttpEndpoint.h). The callback-taking submit() overload carries a
/// per-query budget override and the request's trace context.
///
/// beginDrain() starts a graceful shutdown window: new submissions are
/// rejected with ServiceStatus::Draining, /readyz flips to 503 so a
/// load balancer stops picking this process, queued work past the drain
/// deadline is cancelled instead of run, and running work has its
/// budget clipped to the deadline. Destruction still drains fully:
/// every accepted future completes before the destructor returns. The
/// wrapped SynthesisService is owned and can be inspected (service())
/// for breaker state and cache stats.
///
//===----------------------------------------------------------------------===//

#ifndef DGGT_SERVICE_ASYNCSYNTHESISSERVICE_H
#define DGGT_SERVICE_ASYNCSYNTHESISSERVICE_H

#include "service/LoadController.h"
#include "service/SynthesisService.h"
#include "support/ThreadPool.h"

#include <future>
#include <map>

namespace dggt {

/// Tuning of the async layer. Service carries the wrapped service's own
/// options (budgets, ladder, caches).
struct AsyncOptions {
  ServiceOptions Service;
  /// Worker threads (0 = hardware concurrency).
  unsigned Workers = 4;
  /// Queued-but-not-started cap; a full queue sheds new submissions with
  /// ServiceStatus::Overloaded. 0 means unbounded (no shedding). With
  /// the load controller enabled this is the *initial* cap; the live one
  /// adapts (see queueCap()).
  size_t QueueCap = 256;
  /// Consecutive same-domain tasks a worker runs before rotating; the
  /// initial value when the load controller is enabled.
  unsigned CoalesceBatch = 8;
  /// Adaptive load control: derive the effective cap/batch from the
  /// observed queue-wait histogram and gate doomed work at submit (see
  /// service/LoadController.h). Off by default — the static knobs above
  /// then behave exactly as before.
  LoadControlOptions LoadControl;
  /// Time source for deadlines, wait accounting and controller ticks;
  /// null = real steady clock. Tests inject a VirtualClock.
  const ClockSource *Clock = nullptr;
};

/// Monotonic counters of the async layer (relaxed snapshots).
struct AsyncStats {
  uint64_t Submitted = 0;    ///< Accepted onto the queue.
  uint64_t Shed = 0;         ///< Rejected at submit() by the queue cap.
  uint64_t GateRejected = 0; ///< Rejected at submit() by the admission
                             ///< gate (predicted deadline miss).
  uint64_t Cancelled = 0;    ///< Dequeued past deadline, past the drain
                             ///< deadline, or with a set cancel token;
                             ///< not run.
  uint64_t Completed = 0;    ///< Futures fulfilled by a worker run.
  uint64_t Coalesced = 0;    ///< Tasks run by staying on the same domain.
  uint64_t DrainRejected = 0; ///< Rejected at submit() while draining.
};

/// Per-submission knobs of the callback-taking submit() overload.
struct SubmitOptions {
  /// Per-query total budget; 0 = the domain's configured TotalBudgetMs.
  /// The data plane threads the request's budget_ms through here.
  uint64_t BudgetMs = 0;
  /// Trace context of the originating query (HttpEndpoint → here). The
  /// worker adopts it so `async.task` and every pipeline span parent
  /// under the submitting query's span instead of starting an orphan
  /// tree. Invalid (default) = this submit *is* the query's root:
  /// the layer mints a context and owns the query-log record; a valid
  /// context with Ctx.Recorded unset is claimed here, and one already
  /// marked Recorded is logged by whichever caller claimed it.
  obs::QueryContext Ctx;
};

/// Thread-safe asynchronous front door; see file comment.
class AsyncSynthesisService {
public:
  explicit AsyncSynthesisService(AsyncOptions Opts = {});
  /// Drains the queue (every accepted future completes), then joins.
  ~AsyncSynthesisService();

  AsyncSynthesisService(const AsyncSynthesisService &) = delete;
  AsyncSynthesisService &operator=(const AsyncSynthesisService &) = delete;

  /// Registers \p D on the wrapped service. Single-threaded setup only;
  /// must happen before the first submit().
  void addDomain(const Domain &D);

  /// Completion callback of the extended submit(); invoked exactly once
  /// — synchronously for immediate rejections (unknown domain, shed,
  /// gate, draining), from the worker thread otherwise.
  using Callback = std::function<void(const ServiceReport &)>;

  /// Enqueues the query and returns its future. Always returns a valid
  /// future: on shed (queue full) or unknown domain it is already
  /// satisfied with an Overloaded / UnknownDomain report.
  std::future<ServiceReport> submit(std::string_view DomainName,
                                    std::string_view QueryText);

  /// Same, with per-submission options and an optional completion
  /// callback (the asynchronous consumer — the data plane — gets its
  /// answer without parking a thread on the future).
  std::future<ServiceReport> submit(std::string_view DomainName,
                                    std::string_view QueryText,
                                    const SubmitOptions &SO, Callback Done);

  /// Starts a graceful drain: from now on submit() rejects immediately
  /// with ServiceStatus::Draining, /readyz (via the endpoint health
  /// provider) reports 503 so load balancers stop sending traffic, and
  /// \p GraceMs from now queued-but-unstarted work is cancelled instead
  /// of run (work dequeued inside the grace window still runs, with its
  /// budget clipped to the drain deadline). Idempotent; there is no
  /// un-drain — this precedes destruction.
  void beginDrain(uint64_t GraceMs);
  bool draining() const {
    return DrainFlag.load(std::memory_order_acquire);
  }
  /// True once draining and no queued or running work remains (the
  /// "safe to destroy" signal a supervisor polls).
  bool drainComplete() const {
    return draining() && Pool.queueDepth() == 0 && Pool.running() == 0;
  }

  /// The wrapped serial service (breaker state, cache stats, options).
  SynthesisService &service() { return Svc; }
  const SynthesisService &service() const { return Svc; }

  /// Tasks accepted but not yet started.
  size_t queueDepth() const { return Pool.queueDepth(); }
  /// Tasks currently executing on the pool.
  size_t runningTasks() const { return Pool.running(); }
  unsigned workers() const { return Pool.workers(); }

  /// Live effective limits (equal to the configured statics until the
  /// load controller moves them).
  size_t queueCap() const { return Pool.queueCap(); }
  unsigned coalesceBatch() const { return Pool.coalesceBatch(); }

  /// The adaptive controller, or null when LoadControl.Enabled is false.
  LoadController *loadController() { return Controller.get(); }
  const LoadController *loadController() const { return Controller.get(); }

  AsyncStats stats() const;

  /// One JSON object for the introspection endpoint's /statusz: queue
  /// depth/cap, worker and shed/cancel counters, wrapped around the
  /// serial service's per-domain status. Registered automatically on
  /// the service's endpoint at construction (replacing the plain
  /// SynthesisService provider with this richer one).
  std::string statusJson() const;

  /// Blocks until every task accepted so far has finished (tests/bench).
  void drain() { Pool.drain(); }

private:
  /// Per-domain load state: an always-on service-time histogram feeding
  /// the gate's p50 prediction, the domain's gate hysteresis latch, and
  /// its resolved budget/opt-out. Written only during single-threaded
  /// addDomain() setup; read concurrently afterwards.
  struct DomainLoad {
    obs::Histogram ServiceMs{obs::Histogram::defaultLatencyBucketsMs()};
    std::atomic<bool> Gated{false};
    uint64_t BudgetMs = 0;
    bool GateEnabled = true;
  };

  /// Builds the controller's measured-state snapshot (wait percentiles
  /// over the tick interval, depth, shed/cancel totals, breaker count).
  LoadSample sampleLoad();
  DomainLoad *loadFor(std::string_view DomainName);

  AsyncOptions Opts;
  SynthesisService Svc;
  ThreadPool Pool;
  std::unique_ptr<LoadController> Controller;

  /// Always-on queue-wait histogram (the registry twin is gated on the
  /// global metrics switch; the controller must see waits regardless).
  obs::Histogram QueueWaitMs{obs::Histogram::defaultLatencyBucketsMs()};
  /// Previous wait-bucket snapshot for interval percentiles, and the
  /// guard serializing sample construction across overlapping ticks.
  std::vector<uint64_t> PrevWaitCounts;
  std::mutex SampleM;

  std::map<std::string, std::unique_ptr<DomainLoad>, std::less<>> Loads;
  /// Tightest registered per-query budget (the controller's reference).
  uint64_t RefBudgetMs = 0;

  std::atomic<uint64_t> Cancelled{0};
  std::atomic<uint64_t> Completed{0};
  std::atomic<uint64_t> GateRejected{0};
  std::atomic<uint64_t> DrainRejected{0};

  /// Drain state: the flag gates admission, the deadline (clock ticks
  /// since epoch; 0 = none) bounds how long accepted work may still run.
  std::atomic<bool> DrainFlag{false};
  std::atomic<int64_t> DrainDeadlineTicks{0};

  /// Tokens of our /statusz, /healthz and /v1/synthesize registrations
  /// on the wrapped service's endpoint; the destructor's token-matched
  /// clears cannot wipe a newer owner's providers.
  uint64_t StatusReg = 0;
  uint64_t HealthReg = 0;
  uint64_t SynthesizeReg = 0;
};

} // namespace dggt

#endif // DGGT_SERVICE_ASYNCSYNTHESISSERVICE_H
