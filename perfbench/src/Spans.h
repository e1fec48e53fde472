//===- perfbench/src/Spans.h - In-memory span log ---------------*- C++ -*-===//
///
/// \file
/// The traced run's span store: one record per timed call into a layer
/// (name, start, end, parent span, query id), kept in memory while the
/// run measures and written as JSON lines when it ends. Spans are
/// recorded from the benchmark's own code around each layer's public
/// entry point; the program itself is not instrumented.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

class SpanLog {
public:
  static constexpr int64_t NoParent = -1;

  explicit SpanLog(Clock::time_point Epoch) : Epoch(Epoch) {}

  /// Records a finished span; returns its id (for children). Safe from
  /// any thread.
  int64_t add(const char *Name, Clock::time_point Start, Clock::time_point End,
              int64_t Parent, uint64_t Query) {
    std::lock_guard<std::mutex> L(M);
    Spans.push_back({Name, ns(Start), ns(End), Parent, Query});
    return static_cast<int64_t>(Spans.size() - 1);
  }

  /// Durations (ms) of every span named \p Name.
  std::vector<double> durationsMs(const std::string &Name) const {
    std::lock_guard<std::mutex> L(M);
    std::vector<double> Out;
    for (const Span &S : Spans)
      if (Name == S.Name)
        Out.push_back(static_cast<double>(S.EndNs - S.StartNs) / 1e6);
    return Out;
  }

  /// Mean over root spans named \p Root of (root duration minus the
  /// summed durations of its direct children): time inside the root
  /// that no child layer accounts for.
  double meanUnattributedMs(const std::string &Root) const {
    std::lock_guard<std::mutex> L(M);
    std::vector<int64_t> Covered(Spans.size(), 0);
    for (const Span &S : Spans)
      if (S.Parent != NoParent)
        Covered[static_cast<size_t>(S.Parent)] += S.EndNs - S.StartNs;
    double Sum = 0;
    size_t N = 0;
    for (size_t I = 0; I < Spans.size(); ++I)
      if (Root == Spans[I].Name) {
        Sum += static_cast<double>(Spans[I].EndNs - Spans[I].StartNs -
                                   Covered[I]) /
               1e6;
        ++N;
      }
    return N ? Sum / static_cast<double>(N) : 0.0;
  }

  /// Writes one JSON object per span to \p Path.
  bool write(const std::string &Path) const;

private:
  struct Span {
    const char *Name;
    int64_t StartNs;
    int64_t EndNs;
    int64_t Parent;
    uint64_t Query;
  };
  int64_t ns(Clock::time_point T) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(T - Epoch)
        .count();
  }

  Clock::time_point Epoch;
  mutable std::mutex M;
  std::vector<Span> Spans;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
