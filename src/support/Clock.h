//===- support/Clock.h - Injectable monotonic time source -------*- C++ -*-===//
///
/// \file
/// A tiny seam between "what time is it" and everything that schedules
/// on time: budgets, submission-time deadlines and queue-wait
/// accounting. Production code reads the real std::chrono::steady_clock
/// through steadyClock(); tests inject a VirtualClock and advance it by
/// hand, so every deadline is reproducible without sleeps or wall-time
/// flakiness.
///
/// The interface is deliberately minimal — one now() — because the
/// consumers only ever *compare* instants and *add* durations. A null
/// ClockSource pointer everywhere means "the real steady clock", so the
/// seam costs production code one branch and no allocation.
///
//===----------------------------------------------------------------------===//

#ifndef DGGT_SUPPORT_CLOCK_H
#define DGGT_SUPPORT_CLOCK_H

#include <atomic>
#include <chrono>
#include <cstdint>

namespace dggt {

/// Monotonic time source. Implementations must be thread-safe: now() is
/// called concurrently from workers, submitters and controller ticks.
class ClockSource {
public:
  using TimePoint = std::chrono::steady_clock::time_point;
  using Duration = std::chrono::steady_clock::duration;

  virtual ~ClockSource();
  virtual TimePoint now() const = 0;
};

/// The real steady clock; stateless, so one shared instance suffices.
class SteadyClockSource final : public ClockSource {
public:
  TimePoint now() const override { return std::chrono::steady_clock::now(); }
};

/// The process-wide real clock instance (what a null ClockSource* means).
const ClockSource &steadyClock();

/// Reads \p Clk, or the real steady clock when \p Clk is null. The
/// convention every clock-threaded consumer follows.
inline ClockSource::TimePoint clockNow(const ClockSource *Clk) {
  return Clk ? Clk->now() : std::chrono::steady_clock::now();
}

/// A manually advanced clock for deterministic tests: time moves only
/// when the test says so. Starts at an arbitrary nonzero epoch so
/// subtracting a default-constructed time_point never underflows.
class VirtualClock final : public ClockSource {
public:
  VirtualClock() : Ticks(startEpoch().time_since_epoch().count()) {}

  TimePoint now() const override {
    return TimePoint(Duration(Ticks.load(std::memory_order_acquire)));
  }

  /// Moves time forward; concurrent readers see the jump atomically.
  void advance(Duration D) {
    Ticks.fetch_add(D.count(), std::memory_order_acq_rel);
  }
  void advanceMs(uint64_t Ms) {
    advance(std::chrono::duration_cast<Duration>(
        std::chrono::milliseconds(Ms)));
  }

private:
  static TimePoint startEpoch() {
    return TimePoint(std::chrono::duration_cast<Duration>(
        std::chrono::hours(1)));
  }

  std::atomic<Duration::rep> Ticks;
};

} // namespace dggt

#endif // DGGT_SUPPORT_CLOCK_H
