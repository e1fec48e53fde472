//===- bench/BenchCommon.h - Shared bench-harness helpers ---------*- C++ -*-===//
///
/// \file
/// Helpers shared by the table/figure reproduction binaries: domain
/// construction, full-dataset runs for both synthesizers, and header
/// printing. Every binary prints the paper row/series it regenerates and
/// the corresponding measured values.
///
//===----------------------------------------------------------------------===//

#ifndef DGGT_BENCH_BENCHCOMMON_H
#define DGGT_BENCH_BENCHCOMMON_H

#include "domains/Domain.h"
#include "eval/Distribution.h"
#include "eval/Harness.h"
#include "eval/Metrics.h"
#include "support/Table.h"
#include "synth/dggt/DggtSynthesizer.h"
#include "synth/hisyn/HisynSynthesizer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

namespace dggt::bench {

/// Latency summary over a set of timed runs. It keeps every sample, so
/// its percentiles are measured values (nearest rank), not estimates
/// interpolated inside histogram buckets.
class LatencySummary {
public:
  LatencySummary() = default;
  explicit LatencySummary(const std::vector<CaseOutcome> &Outcomes) {
    for (const CaseOutcome &O : Outcomes)
      addSeconds(O.Seconds);
  }

  void addSeconds(double Seconds) { addMs(Seconds * 1000.0); }
  void addMs(double Ms) { SamplesMs.push_back(Ms); }

  uint64_t count() const { return SamplesMs.size(); }
  double meanMs() const {
    return SamplesMs.empty()
               ? 0.0
               : std::accumulate(SamplesMs.begin(), SamplesMs.end(), 0.0) /
                     static_cast<double>(count());
  }
  double p50Ms() const { return percentileMs(50); }
  double p90Ms() const { return percentileMs(90); }
  double p95Ms() const { return percentileMs(95); }
  double p99Ms() const { return percentileMs(99); }

  /// Nearest-rank P-th percentile (P in (0, 100]): the smallest sample
  /// with at least P% of the samples at or below it; 0 when empty.
  double percentileMs(double P) const {
    if (SamplesMs.empty())
      return 0.0;
    std::vector<double> Sorted = SamplesMs;
    size_t Rank = static_cast<size_t>(
        std::ceil(P / 100.0 * static_cast<double>(Sorted.size())));
    size_t K = std::clamp<size_t>(Rank, 1, Sorted.size()) - 1;
    std::nth_element(Sorted.begin(), Sorted.begin() + static_cast<long>(K),
                     Sorted.end());
    return Sorted[K];
  }

private:
  std::vector<double> SamplesMs;
};

/// Both evaluation domains, built once.
struct Domains {
  std::unique_ptr<Domain> TextEditing = makeTextEditingDomain();
  std::unique_ptr<Domain> AstMatcher = makeAstMatcherDomain();

  std::vector<const Domain *> all() const {
    return {TextEditing.get(), AstMatcher.get()};
  }
};

/// Dataset outcomes for one domain under both synthesizers.
struct DomainRun {
  const Domain *D = nullptr;
  std::vector<CaseOutcome> Hisyn;
  std::vector<CaseOutcome> Dggt;
  double TimeoutSeconds = 0;
};

/// Runs both synthesizers over \p D's full dataset under the harness
/// timeout, with a one-line progress note to stderr.
inline DomainRun runDomain(const Domain &D) {
  DomainRun Run;
  Run.D = &D;
  EvalHarness H(D, harnessTimeoutMs());
  Run.TimeoutSeconds = H.timeoutSeconds();
  HisynSynthesizer Hisyn;
  DggtSynthesizer Dggt;
  std::fprintf(stderr, "[bench] %s: running HISyn over %zu queries...\n",
               D.name().c_str(), D.queries().size());
  Run.Hisyn = H.runAll(Hisyn);
  std::fprintf(stderr, "[bench] %s: running DGGT over %zu queries...\n",
               D.name().c_str(), D.queries().size());
  Run.Dggt = H.runAll(Dggt);
  return Run;
}

/// Prints the standard bench banner.
inline void banner(const char *What, const char *PaperRef) {
  std::printf("==============================================================="
              "=\n%s\n(reproduces %s; timeout %llu ms, override with "
              "DGGT_TIMEOUT_MS)\n"
              "================================================================"
              "\n",
              What, PaperRef,
              static_cast<unsigned long long>(harnessTimeoutMs()));
}

} // namespace dggt::bench

#endif // DGGT_BENCH_BENCHCOMMON_H
