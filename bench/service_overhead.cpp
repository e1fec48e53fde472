//===- bench/service_overhead.cpp - Service front-door overhead -----------===//
//
// google-benchmark comparison of raw synthesizer calls against the same
// queries routed through the SynthesisService, plus the two paths that
// must stay cheap under overload: the unarmed fault-point check in the
// hot loops and the circuit breaker's shed path. The service wrapper
// (budget splitting, breaker bookkeeping, report assembly) must cost
// microseconds against a synthesis that costs milliseconds.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "obs/Metrics.h"
#include "service/SynthesisService.h"
#include "support/FaultInjection.h"
#include "synth/dggt/DggtSynthesizer.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

using namespace dggt;

namespace {

const char *Query = "sort all lines";

const Domain &textEditing() {
  static std::unique_ptr<Domain> D = makeTextEditingDomain();
  return *D;
}

void BM_RawDggtSynthesis(benchmark::State &State) {
  const Domain &D = textEditing();
  DggtSynthesizer S;
  for (auto _ : State) {
    PreparedQuery Q = D.frontEnd().prepare(Query);
    Budget B(2000);
    benchmark::DoNotOptimize(S.synthesize(Q, B));
  }
}
BENCHMARK(BM_RawDggtSynthesis);

void BM_ServiceQuery(benchmark::State &State) {
  static SynthesisService &Service = []() -> SynthesisService & {
    static SynthesisService S;
    S.addDomain(textEditing());
    return S;
  }();
  for (auto _ : State)
    benchmark::DoNotOptimize(Service.query("TextEditing", Query));
}
BENCHMARK(BM_ServiceQuery);

void BM_UnarmedFaultPoint(benchmark::State &State) {
  // The per-iteration cost every hot loop pays for injectability.
  for (auto _ : State)
    benchmark::DoNotOptimize(faultFires(faults::DggtMerge));
}
BENCHMARK(BM_UnarmedFaultPoint);

void BM_BreakerShedPath(benchmark::State &State) {
  // An open breaker must shed load at memory speed: this is the
  // service's behaviour under overload.
  ServiceOptions Opts;
  Opts.TotalBudgetMs = 50;
  Opts.BreakerTripThreshold = 1;
  Opts.BreakerCooldownMs = 3600000; // Stay open for the whole run.
  static SynthesisService *Service = nullptr;
  if (State.thread_index() == 0 && Service == nullptr) {
    Service = new SynthesisService(Opts);
    Service->addDomain(textEditing());
    FaultInjector::instance().armAlways(faults::DggtMerge);
    FaultInjector::instance().armAlways(faults::HisynEnumerate);
    (void)Service->query("TextEditing", Query); // Trip the breaker.
    FaultInjector::instance().reset();
  }
  for (auto _ : State)
    benchmark::DoNotOptimize(Service->query("TextEditing", Query));
}
BENCHMARK(BM_BreakerShedPath);

/// --json mode: one machine-readable line comparing raw synthesis against
/// the service front door, summarized through the shared bench histogram.
/// CI parses this to enforce the "< 2% overhead with metrics disabled"
/// budget without scraping google-benchmark's human output.
int runJson() {
  const Domain &D = textEditing();
  DggtSynthesizer Raw;
  SynthesisService Service;
  Service.addDomain(D);

  constexpr int Warmup = 5;
  constexpr int Iters = 40;
  bench::LatencySummary RawMs, ServiceMs;
  for (int I = 0; I < Warmup + Iters; ++I) {
    WallTimer T;
    PreparedQuery Q = D.frontEnd().prepare(Query);
    Budget B(2000);
    benchmark::DoNotOptimize(Raw.synthesize(Q, B));
    if (I >= Warmup)
      RawMs.addSeconds(T.seconds());
  }
  for (int I = 0; I < Warmup + Iters; ++I) {
    WallTimer T;
    benchmark::DoNotOptimize(Service.query("TextEditing", Query));
    if (I >= Warmup)
      ServiceMs.addSeconds(T.seconds());
  }

  double OverheadPct =
      RawMs.meanMs() > 0
          ? (ServiceMs.meanMs() - RawMs.meanMs()) / RawMs.meanMs() * 100.0
          : 0.0;
  std::printf("{\"bench\":\"service_overhead\",\"iters\":%d,"
              "\"metrics_enabled\":%s,"
              "\"raw_ms\":{\"mean\":%.4f,\"p50\":%.4f,\"p90\":%.4f,"
              "\"p99\":%.4f},"
              "\"service_ms\":{\"mean\":%.4f,\"p50\":%.4f,\"p90\":%.4f,"
              "\"p99\":%.4f},"
              "\"overhead_pct\":%.2f}\n",
              Iters, obs::metricsEnabled() ? "true" : "false",
              RawMs.meanMs(), RawMs.p50Ms(), RawMs.p90Ms(), RawMs.p99Ms(),
              ServiceMs.meanMs(), ServiceMs.p50Ms(), ServiceMs.p90Ms(),
              ServiceMs.p99Ms(), OverheadPct);
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  bool Json = false;
  std::vector<char *> Args;
  for (int I = 0; I < argc; ++I) {
    if (std::string_view(argv[I]) == "--json")
      Json = true;
    else
      Args.push_back(argv[I]);
  }
  if (Json)
    return runJson();
  int ArgC = static_cast<int>(Args.size());
  benchmark::Initialize(&ArgC, Args.data());
  if (benchmark::ReportUnrecognizedArguments(ArgC, Args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
