//===- service/AsyncSynthesisService.cpp - Pooled query scheduler ---------===//

#include "service/AsyncSynthesisService.h"

#include "obs/HttpEndpoint.h"
#include "obs/Metrics.h"
#include "obs/QueryLog.h"
#include "obs/Trace.h"

#include <chrono>
#include <sstream>
#include <thread>
#include <utility>

using namespace dggt;

namespace {

/// Async-layer instruments, resolved once (registry references are
/// stable for the process lifetime).
struct AsyncInstruments {
  obs::Gauge &QueueDepth;
  obs::Counter &Submitted, &Shed, &Cancelled;
  obs::Histogram &QueueWaitMs;

  static AsyncInstruments &get() {
    static AsyncInstruments I{
        obs::registry().gauge("dggt_async_queue_depth"),
        obs::registry().counter("dggt_async_submitted_total"),
        obs::registry().counter("dggt_async_shed_total"),
        obs::registry().counter("dggt_async_cancelled_total"),
        obs::registry().histogram("dggt_async_queue_wait_ms"),
    };
    return I;
  }
};

/// Load-controller instruments: the decision trail a dashboard watches
/// to see the knobs move.
struct LoadInstruments {
  obs::Gauge &QueueCap, &CoalesceBatch, &WaitP95Ms, &GatedDomains;
  obs::Counter &Ticks, &CapGrows, &CapShrinks, &GateRejected;

  static LoadInstruments &get() {
    static LoadInstruments I{
        obs::registry().gauge("dggt_load_queue_cap"),
        obs::registry().gauge("dggt_load_coalesce_batch"),
        obs::registry().gauge("dggt_load_wait_p95_ms"),
        obs::registry().gauge("dggt_load_gated_domains"),
        obs::registry().counter("dggt_load_ticks_total"),
        obs::registry().counter("dggt_load_cap_grow_total"),
        obs::registry().counter("dggt_load_cap_shrink_total"),
        obs::registry().counter("dggt_load_gate_rejected_total"),
    };
    return I;
  }
};

ServiceReport immediateReport(ServiceStatus St) {
  ServiceReport Rep;
  Rep.St = St;
  return Rep;
}

/// Emits the wide-event query-log record for a query this layer owns
/// (no caller above claimed it) and settles the trace's tail-sampling
/// decision. Called *after* the completion callback, so by the time the
/// buffered spans flush the endpoint's root span is already among them.
/// finishQueryTrace runs unconditionally — the trace buffer must be
/// settled exactly once per query — while the record itself is gated on
/// the global metrics switch like every other instrument.
void recordOwnedQuery(const obs::QueryContext &Ctx, std::string_view Domain,
                      std::string_view Query, const ServiceReport &Rep,
                      const char *Gate, uint64_t BudgetMs) {
  double TotalMs = Rep.TotalSeconds * 1000.0;
  bool Kept = obs::finishQueryTrace(Ctx, TotalMs, httpStatusFor(Rep.St) < 400);
  if (!obs::metricsEnabled())
    return;
  obs::QueryLogRecord R;
  R.TraceId = Ctx.traceIdHex();
  R.Domain = std::string(Domain);
  R.Query = obs::sanitizeQueryText(Query);
  R.Outcome = std::string(serviceStatusName(Rep.St));
  if (Rep.AnsweredBy)
    R.Rung = std::string(rungName(*Rep.AnsweredBy));
  R.Gate = Gate;
  R.Attempts = Rep.Attempts.size();
  for (const RungAttempt &A : Rep.Attempts)
    if (A.Try > 0)
      ++R.Retries;
  R.QueueWaitMs = Rep.QueueWaitMs;
  R.StageMs = Rep.StageMs;
  R.TotalMs = TotalMs;
  R.PathCacheHit = Rep.PathCacheHit;
  R.WordCacheHit = Rep.WordCacheHit;
  R.Cost = Rep.Cost;
  R.BudgetMs = BudgetMs;
  R.TraceKept = Kept;
  obs::queryLog().record(std::move(R));
}

} // namespace

AsyncSynthesisService::AsyncSynthesisService(AsyncOptions O)
    : Opts(O), Svc(std::move(O.Service)),
      Pool(ThreadPool::Options{Opts.Workers, Opts.QueueCap,
                               Opts.CoalesceBatch, Opts.Clock}) {
  if (Opts.LoadControl.Enabled)
    Controller = std::make_unique<LoadController>(
        Opts.LoadControl, Opts.QueueCap, Opts.CoalesceBatch, Opts.Clock);
  // Upgrade the endpoint's /statusz to the async view (queue depth, shed
  // counts) and its health to the drain-aware answer, and register as
  // the POST /v1/synthesize engine: the data plane parks the connection
  // and we answer through the deferred-reply callback when the worker
  // finishes.
  if (obs::HttpEndpoint *Ep = Svc.endpoint()) {
    StatusReg = Ep->setStatusProvider([this] { return statusJson(); });
    HealthReg = Ep->setHealthProvider([this] {
      obs::HealthStatus St = Svc.healthStatus();
      if (draining()) {
        St.Ready = false;
        St.Detail = St.Detail.empty() ? "draining" : St.Detail + "; draining";
      }
      return St;
    });
    SynthesizeReg = Ep->setSynthesizeProvider(
        [this](const obs::SynthesizeRequest &Q,
               obs::HttpEndpoint::SynthesizeReply Reply) {
          SubmitOptions SO;
          SO.BudgetMs = Q.BudgetMs;
          SO.Ctx = Q.Ctx;
          submit(Q.Domain, Q.Query, SO,
                 [Reply = std::move(Reply),
                  Domain = Q.Domain](const ServiceReport &Rep) {
                   obs::SynthesizeResponse R;
                   R.Code = httpStatusFor(Rep.St);
                   // Shed and transient unavailability are the client's
                   // cue to retry.
                   if (R.Code == 429 || R.Code == 503)
                     R.RetryAfterSeconds = 1;
                   R.Body = serviceReportJson(Rep, Domain);
                   Reply(std::move(R));
                 });
        });
  }
}

AsyncSynthesisService::~AsyncSynthesisService() {
  // Drop our providers before the pool (and then Svc) shut down; the
  // token-matched clears synchronize with any in-flight render and are
  // no-ops if a newer owner has replaced the registrations.
  if (obs::HttpEndpoint *Ep = Svc.endpoint()) {
    Ep->clearStatusProvider(StatusReg);
    Ep->clearHealthProvider(HealthReg);
    Ep->clearSynthesizeProvider(SynthesizeReg);
  }
}

void AsyncSynthesisService::beginDrain(uint64_t GraceMs) {
  Budget::Clock::time_point Deadline =
      clockNow(Opts.Clock) + std::chrono::milliseconds(GraceMs);
  DrainDeadlineTicks.store(Deadline.time_since_epoch().count(),
                           std::memory_order_release);
  DrainFlag.store(true, std::memory_order_release);
}

void AsyncSynthesisService::addDomain(const Domain &D) {
  Svc.addDomain(D);
  auto DL = std::make_unique<DomainLoad>();
  const ServiceOptions &Resolved = Svc.optionsFor(D.name());
  DL->BudgetMs = Resolved.TotalBudgetMs;
  DL->GateEnabled = Resolved.AdmissionGate;
  // The controller's wait waters scale against the tightest registered
  // budget: the domain with the least headroom is the one a congested
  // queue dooms first.
  if (DL->BudgetMs != 0 && (RefBudgetMs == 0 || DL->BudgetMs < RefBudgetMs))
    RefBudgetMs = DL->BudgetMs;
  Loads[D.name()] = std::move(DL);
}

AsyncSynthesisService::DomainLoad *
AsyncSynthesisService::loadFor(std::string_view DomainName) {
  auto It = Loads.find(DomainName);
  return It == Loads.end() ? nullptr : It->second.get();
}

LoadSample AsyncSynthesisService::sampleLoad() {
  LoadSample S;
  {
    std::lock_guard<std::mutex> L(SampleM);
    LoadController::sampleWaitInterval(QueueWaitMs, PrevWaitCounts, S);
  }
  S.QueueDepth = Pool.queueDepth();
  S.ShedTotal = Pool.stats().Rejected;
  S.CancelledTotal = Cancelled.load(std::memory_order_relaxed);
  for (const auto &[Name, DL] : Loads)
    if (Svc.breakerState(Name) == SynthesisService::BreakerState::Open)
      ++S.OpenBreakers;
  S.BudgetMs = RefBudgetMs;

  // Little's-law lead indicator. The interval histogram only shows the
  // waits of tasks that already *finished* waiting, which lags a fast
  // congestion onset by a full queue's worth of time — exactly the
  // tasks the gate exists to reject. Current depth times the measured
  // per-task service p50, divided by the real parallelism, predicts the
  // wait a task admitted now would see; report whichever signal is
  // worse so the gate reacts to onsets the histogram has not seen yet.
  if (S.QueueDepth > 0) {
    std::vector<uint64_t> SvcCounts;
    for (const auto &[Name, DL] : Loads) {
      std::vector<uint64_t> C = DL->ServiceMs.bucketSnapshot();
      if (SvcCounts.empty())
        SvcCounts.assign(C.size(), 0);
      for (size_t I = 0; I < C.size(); ++I)
        SvcCounts[I] += C[I];
    }
    double SvcP50 = obs::percentileFromCounts(
        obs::Histogram::defaultLatencyBucketsMs(), SvcCounts, 50.0);
    unsigned HW = std::thread::hardware_concurrency();
    unsigned Par = std::max(1u, HW ? std::min(Pool.workers(), HW)
                                   : Pool.workers());
    double LeadMs =
        static_cast<double>(S.QueueDepth) * SvcP50 / static_cast<double>(Par);
    S.WaitP95Ms = std::max(S.WaitP95Ms, LeadMs);
  }
  return S;
}

std::future<ServiceReport>
AsyncSynthesisService::submit(std::string_view DomainName,
                              std::string_view QueryText) {
  return submit(DomainName, QueryText, SubmitOptions(), nullptr);
}

std::future<ServiceReport>
AsyncSynthesisService::submit(std::string_view DomainName,
                              std::string_view QueryText,
                              const SubmitOptions &SO, Callback Done) {
  AsyncInstruments &M = AsyncInstruments::get();

  // Claim the query-log record. An invalid context means this submit
  // *is* the query's root (direct API use, nothing above us), so mint
  // one; a valid-but-unrecorded context (the endpoint's) is claimed
  // here; one already marked Recorded belongs to the caller that claimed
  // it. Every path below — including the immediate rejections — emits
  // exactly one record when this layer owns it.
  obs::QueryContext Ctx = SO.Ctx;
  if (!Ctx.valid())
    Ctx = obs::startQueryContext();
  const bool OwnsRecord = !Ctx.Recorded;
  Ctx.Recorded = true;

  // Immediate rejections satisfy the future *and* the callback before
  // returning, so a callback-driven caller (the data plane) never
  // needs to also poll the future.
  auto Reject = [&](ServiceStatus St, const char *Gate) {
    std::promise<ServiceReport> Immediate;
    ServiceReport Rep = immediateReport(St);
    if (Done)
      Done(Rep);
    if (OwnsRecord)
      recordOwnedQuery(Ctx, DomainName, QueryText, Rep, Gate, SO.BudgetMs);
    Immediate.set_value(std::move(Rep));
    return Immediate.get_future();
  };

  // Resolve the domain up front: an unknown name fails immediately (no
  // queue slot burned), and a known one pins its deadline *now* so queue
  // wait counts against the query's own budget.
  DomainLoad *DL = loadFor(DomainName);
  if (!DL || !Svc.hasDomain(DomainName))
    return Reject(ServiceStatus::UnknownDomain, "unknown-domain");

  // Draining: stop admission first, before any controller bookkeeping —
  // a departing worker must not accept work it may have to cancel.
  if (draining()) {
    DrainRejected.fetch_add(1, std::memory_order_relaxed);
    return Reject(ServiceStatus::Draining, "drain");
  }

  // Controller tick before admission, so this submission is judged
  // against fresh targets (at most one submitter per interval pays for
  // the sampling; everyone else costs one atomic load).
  if (Controller) {
    if (auto D = Controller->maybeTick([this] { return sampleLoad(); })) {
      Pool.setQueueCap(D->QueueCap);
      Pool.setCoalesceBatch(D->CoalesceBatch);
      if (obs::metricsEnabled()) {
        LoadInstruments &LM = LoadInstruments::get();
        LM.QueueCap.set(static_cast<int64_t>(D->QueueCap));
        LM.CoalesceBatch.set(D->CoalesceBatch);
        LM.WaitP95Ms.set(static_cast<int64_t>(Controller->waitP95Ms()));
        int64_t Gated = 0;
        for (const auto &[Name, L] : Loads)
          if (L->Gated.load(std::memory_order_relaxed))
            ++Gated;
        LM.GatedDomains.set(Gated);
        LM.Ticks.inc();
        if (D->CapGrew)
          LM.CapGrows.inc();
        if (D->CapShrank)
          LM.CapShrinks.inc();
      }
    }
  }

  // Deadline-aware admission: when the measured p95 queue wait plus the
  // domain's tail service time (GateServicePercentile, default p90 — p50
  // was optimistic for heavy-tailed domains) already exceeds the query's
  // budget, the queue would only carry it to a cancellation — reject now
  // instead.
  if (Controller && DL->GateEnabled &&
      !Controller->admit(
          DL->ServiceMs.percentile(Opts.LoadControl.GateServicePercentile),
          DL->BudgetMs, DL->Gated)) {
    GateRejected.fetch_add(1, std::memory_order_relaxed);
    if (obs::metricsEnabled()) {
      LoadInstruments::get().GateRejected.inc();
      obs::registry()
          .counter("dggt_service_queries_total",
                   {{"domain", std::string(DomainName)},
                    {"status",
                     std::string(serviceStatusName(ServiceStatus::Overloaded))}})
          .inc();
    }
    return Reject(ServiceStatus::Overloaded, "gate");
  }

  auto Task = std::make_shared<std::packaged_task<ServiceReport()>>();

  uint64_t BudgetMs = SO.BudgetMs != 0 ? SO.BudgetMs : DL->BudgetMs;
  Budget::Clock::time_point Deadline =
      clockNow(Opts.Clock) + std::chrono::milliseconds(BudgetMs);
  bool Limited = BudgetMs != 0;
  Budget::Clock::time_point Enqueued = clockNow(Opts.Clock);

  std::string Domain(DomainName);
  std::string Query(QueryText);
  *Task = std::packaged_task<ServiceReport()>(
      [this, DL, Domain = std::move(Domain), Query = std::move(Query),
       Deadline, Limited, Enqueued, Done, Ctx, OwnsRecord,
       BudgetMs]() -> ServiceReport {
        AsyncInstruments &M = AsyncInstruments::get();
        double WaitMs = std::chrono::duration<double, std::milli>(
                            clockNow(Opts.Clock) - Enqueued)
                            .count();
        M.QueueDepth.set(static_cast<int64_t>(Pool.queueDepth()));
        QueueWaitMs.observe(WaitMs);
        if (obs::metricsEnabled())
          M.QueueWaitMs.observe(WaitMs);

        // Adopt the query's trace context for everything this worker
        // runs: async.task and the whole ladder/pipeline span tree
        // parent under the submitting query instead of starting orphan
        // roots on this pool thread.
        obs::ScopedQueryContext CtxGuard(Ctx);

        auto Finish = [&](ServiceReport Rep) {
          Rep.QueueWaitMs = WaitMs;
          if (Done)
            Done(Rep);
          if (OwnsRecord)
            recordOwnedQuery(Ctx, Domain, Query, Rep, "admitted", BudgetMs);
          return Rep;
        };

        // Cancellation of queued-past-deadline work: the budget the
        // ladder would get is already spent, so report the miss without
        // running anything. The empty attempt trail distinguishes a
        // cancelled query from one that timed out mid-ladder.
        if (Limited && clockNow(Opts.Clock) >= Deadline) {
          Cancelled.fetch_add(1, std::memory_order_relaxed);
          M.Cancelled.inc();
          ServiceReport Rep = immediateReport(ServiceStatus::DeadlineExceeded);
          Rep.TotalSeconds = WaitMs / 1000.0;
          return Finish(std::move(Rep));
        }

        // Drain-deadline clipping: work dequeued past the drain deadline
        // is cancelled (the worker is leaving; a retrying caller moves
        // the query elsewhere), work inside the window runs with its
        // budget cut to the deadline so the drain actually converges.
        Budget::Clock::time_point Eff = Deadline;
        bool Lim = Limited;
        int64_t DD = DrainDeadlineTicks.load(std::memory_order_acquire);
        if (DrainFlag.load(std::memory_order_acquire) && DD != 0) {
          Budget::Clock::time_point DTp{Budget::Clock::duration(DD)};
          if (clockNow(Opts.Clock) >= DTp) {
            Cancelled.fetch_add(1, std::memory_order_relaxed);
            M.Cancelled.inc();
            ServiceReport Rep = immediateReport(ServiceStatus::Cancelled);
            Rep.TotalSeconds = WaitMs / 1000.0;
            return Finish(std::move(Rep));
          }
          if (!Lim || DTp < Eff) {
            Eff = DTp;
            Lim = true;
          }
        }

        obs::ScopedSpan Span("async.task");
        if (Span.active()) {
          Span.attr("domain", Domain);
          Span.attr("queue_wait_ms", WaitMs);
        }
        Budget Total = Lim ? Budget::until(Eff, Opts.Clock) : Budget();
        ServiceReport Rep = Svc.query(Domain, Query, Total);
        // Feed the gate's service-time prior from real runs only (a
        // cancelled task's 0-second "service" would teach the gate that
        // doomed work is fast).
        DL->ServiceMs.observe(Rep.TotalSeconds * 1000.0);
        Completed.fetch_add(1, std::memory_order_relaxed);
        return Finish(std::move(Rep));
      });
  std::future<ServiceReport> Fut = Task->get_future();

  if (!Pool.trySubmit(DomainName, [Task] { (*Task)(); })) {
    M.Shed.inc();
    if (obs::metricsEnabled())
      obs::registry()
          .counter("dggt_service_queries_total",
                   {{"domain", std::string(DomainName)},
                    {"status",
                     std::string(serviceStatusName(ServiceStatus::Overloaded))}})
          .inc();
    // The packaged task was never run (its copy of Done with it), so
    // satisfy the caller through the immediate-rejection path.
    return Reject(ServiceStatus::Overloaded, "shed");
  }

  M.Submitted.inc();
  M.QueueDepth.set(static_cast<int64_t>(Pool.queueDepth()));
  return Fut;
}

AsyncStats AsyncSynthesisService::stats() const {
  ThreadPool::Stats P = Pool.stats();
  AsyncStats St;
  St.Submitted = P.Submitted;
  St.Shed = P.Rejected;
  St.GateRejected = GateRejected.load(std::memory_order_relaxed);
  St.Cancelled = Cancelled.load(std::memory_order_relaxed);
  St.Completed = Completed.load(std::memory_order_relaxed);
  St.Coalesced = P.Coalesced;
  St.DrainRejected = DrainRejected.load(std::memory_order_relaxed);
  return St;
}

std::string AsyncSynthesisService::statusJson() const {
  AsyncStats St = stats();
  std::ostringstream OS;
  // queue_cap / coalesce_batch report the *effective* limits: equal to
  // the configured statics until the load controller moves them.
  OS << "{\"workers\":" << workers() << ",\"queue_depth\":" << queueDepth()
     << ",\"queue_cap\":" << queueCap()
     << ",\"running\":" << runningTasks()
     << ",\"coalesce_batch\":" << coalesceBatch()
     << ",\"submitted\":" << St.Submitted << ",\"shed\":" << St.Shed
     << ",\"gate_rejected\":" << St.GateRejected
     << ",\"cancelled\":" << St.Cancelled
     << ",\"completed\":" << St.Completed
     << ",\"coalesced\":" << St.Coalesced
     << ",\"draining\":" << (draining() ? "true" : "false")
     << ",\"drain_rejected\":" << St.DrainRejected << ",\"load_control\":{";
  if (Controller) {
    LoadController::Stats CS = Controller->stats();
    size_t Gated = 0;
    for (const auto &[Name, L] : Loads)
      if (L->Gated.load(std::memory_order_relaxed))
        ++Gated;
    OS << "\"enabled\":true,\"wait_p95_ms\":" << Controller->waitP95Ms()
       << ",\"wait_p50_ms\":" << Controller->waitP50Ms()
       << ",\"ticks\":" << CS.Ticks << ",\"cap_grows\":" << CS.CapGrows
       << ",\"cap_shrinks\":" << CS.CapShrinks
       << ",\"gated_domains\":" << Gated;
  } else {
    OS << "\"enabled\":false";
  }
  OS << "},\"serial\":" << Svc.statusJson() << "}";
  return OS.str();
}
