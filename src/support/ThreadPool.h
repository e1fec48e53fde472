//===- support/ThreadPool.h - Keyed worker pool -----------------*- C++ -*-===//
///
/// \file
/// A fixed-size worker pool over a bounded, *keyed* submission queue.
/// Every task carries a key (the service layer uses the domain name);
/// tasks of one key run in FIFO order, and a worker that just ran a task
/// for key K keeps draining K's queue for up to Options::CoalesceBatch
/// tasks before rotating to another key. This per-key coalescing is what
/// makes shared per-domain state (the path and word caches, the
/// domain's grammar graph) stay warm under mixed traffic: consecutive
/// queries against the same domain hit the same caches back to back
/// instead of interleaving with other domains' working sets.
///
/// Fairness across keys is round-robin over a ready list, so one
/// flooding key cannot starve the others for longer than a batch.
/// Capacity is enforced at submission (trySubmit() returns false when
/// the queue is full) — the caller owns the shed policy; the pool never
/// drops an accepted task. Destruction drains: accepted tasks all run
/// before the workers exit, so future-style completions are never lost.
///
//===----------------------------------------------------------------------===//

#ifndef DGGT_SUPPORT_THREADPOOL_H
#define DGGT_SUPPORT_THREADPOOL_H

#include "support/Clock.h"

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

namespace dggt {

/// Fixed-size worker pool with a bounded keyed queue and per-key
/// coalescing. Thread-safe; trySubmit() may be called from any thread,
/// including from inside a running task.
class ThreadPool {
public:
  struct Options {
    /// Worker threads; 0 means std::thread::hardware_concurrency()
    /// (itself clamped to at least 1).
    unsigned Workers = 0;
    /// Maximum queued-but-not-started tasks; 0 means unbounded.
    size_t QueueCap = 0;
    /// How many consecutive tasks of one key a worker drains before
    /// rotating to the next ready key (>= 1).
    unsigned CoalesceBatch = 8;
    /// Time source for queue-wait accounting; null = the real steady
    /// clock. Must outlive the pool (tests inject a VirtualClock).
    const ClockSource *Clock = nullptr;
  };

  /// Monotonic pool counters (relaxed snapshots; exact once idle).
  struct Stats {
    uint64_t Submitted = 0; ///< Tasks accepted by trySubmit().
    uint64_t Rejected = 0;  ///< trySubmit() calls refused by the cap.
    uint64_t Ran = 0;       ///< Tasks completed by a worker.
    uint64_t Coalesced = 0; ///< Tasks run by staying on the same key.
    /// Total submit-to-dequeue wait (microseconds) over every started
    /// task; WaitUsTotal / Ran is the mean queue wait.
    uint64_t WaitUsTotal = 0;
  };

  ThreadPool() : ThreadPool(Options()) {}
  explicit ThreadPool(Options O);
  /// Drains the queue, then joins every worker.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Enqueues \p Fn under \p Key. Returns false — without queuing — when
  /// the pool is shutting down or the queue is at capacity; the caller
  /// decides what shedding means.
  bool trySubmit(std::string_view Key, std::function<void()> Fn);

  /// Process-wide hook that may rewrap every submitted task (e.g. to
  /// capture the submitter's trace context and restore it in the
  /// worker). The pool itself has no observability dependency; the obs
  /// layer installs its wrapper at static-init time. The wrapper runs on
  /// the *submitting* thread, outside the pool lock, and must return a
  /// callable that runs the original task exactly once. Null disables.
  using TaskWrapper = std::function<void()> (*)(std::function<void()>);
  static void setTaskWrapper(TaskWrapper W);

  /// Tasks accepted but not yet started.
  size_t queueDepth() const;

  /// Tasks currently executing (0..workers()). With queueDepth() this is
  /// the live load picture a status endpoint wants.
  size_t running() const;

  unsigned workers() const { return static_cast<unsigned>(Threads.size()); }

  /// Limits fixed at construction (the batch clamped to at least 1).
  size_t queueCap() const { return Opts.QueueCap; }
  unsigned coalesceBatch() const { return Opts.CoalesceBatch; }

  Stats stats() const;

  /// Blocks until every task accepted so far has finished (tests).
  void drain();

private:
  void workerLoop();

  /// One queued task plus its submission instant (wait accounting).
  struct QueuedTask {
    std::function<void()> Fn;
    ClockSource::TimePoint Enqueued;
  };

  Options Opts;
  mutable std::mutex M;
  std::condition_variable WorkReady;
  std::condition_variable Idle;
  /// FIFO per key; erased keys are kept (few domains, stable pointers).
  std::unordered_map<std::string, std::deque<QueuedTask>> Queues;
  /// Keys that may have work; may hold stale duplicates (workers skip
  /// entries whose queue turned out empty). Invariant: the number of
  /// entries is always >= the number of queued tasks, so a worker that
  /// sees Size > 0 always finds a task by scanning this list.
  std::deque<std::string> Ready;
  size_t Size = 0;     ///< Queued-but-not-started tasks.
  size_t Running = 0;  ///< Tasks currently executing.
  bool Stopping = false;
  Stats Counts;
  std::vector<std::thread> Threads;
};

} // namespace dggt

#endif // DGGT_SUPPORT_THREADPOOL_H
