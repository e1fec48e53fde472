//===- support/ThreadPool.cpp - Keyed worker pool -------------------------===//

#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>

using namespace dggt;

namespace {
std::atomic<ThreadPool::TaskWrapper> GlobalTaskWrapper{nullptr};
} // namespace

void ThreadPool::setTaskWrapper(TaskWrapper W) {
  GlobalTaskWrapper.store(W, std::memory_order_release);
}

ThreadPool::ThreadPool(Options O) : Opts(O) {
  if (Opts.Workers == 0)
    Opts.Workers = std::max(1u, std::thread::hardware_concurrency());
  Opts.CoalesceBatch = std::max(1u, Opts.CoalesceBatch);
  Threads.reserve(Opts.Workers);
  for (unsigned I = 0; I < Opts.Workers; ++I)
    Threads.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> L(M);
    Stopping = true;
  }
  WorkReady.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

bool ThreadPool::trySubmit(std::string_view Key, std::function<void()> Fn) {
  if (TaskWrapper W = GlobalTaskWrapper.load(std::memory_order_acquire))
    Fn = W(std::move(Fn));
  {
    std::lock_guard<std::mutex> L(M);
    if (Stopping || (Opts.QueueCap != 0 && Size >= Opts.QueueCap)) {
      ++Counts.Rejected;
      return false;
    }
    std::string K(Key);
    Queues[K].push_back({std::move(Fn), clockNow(Opts.Clock)});
    Ready.push_back(std::move(K));
    ++Size;
    ++Counts.Submitted;
  }
  WorkReady.notify_one();
  return true;
}

size_t ThreadPool::queueDepth() const {
  std::lock_guard<std::mutex> L(M);
  return Size;
}

size_t ThreadPool::running() const {
  std::lock_guard<std::mutex> L(M);
  return Running;
}

ThreadPool::Stats ThreadPool::stats() const {
  std::lock_guard<std::mutex> L(M);
  return Counts;
}

void ThreadPool::drain() {
  std::unique_lock<std::mutex> L(M);
  Idle.wait(L, [this] { return Size == 0 && Running == 0; });
}

void ThreadPool::workerLoop() {
  // Per-worker coalescing state: the key of the last task this worker
  // ran and how many tasks in a row it has taken from that key.
  std::string LastKey;
  unsigned Batch = 0;

  std::unique_lock<std::mutex> L(M);
  for (;;) {
    WorkReady.wait(L, [this] { return Stopping || Size > 0; });
    if (Size == 0) {
      if (Stopping)
        return; // Drained: Stopping with an empty queue.
      continue;
    }

    // Prefer the key we are already on (warm caches) up to the batch
    // cap; then rotate to the next ready key for fairness.
    std::deque<QueuedTask> *Q = nullptr;
    bool Coalesced = false;
    if (!LastKey.empty() && Batch < Opts.CoalesceBatch) {
      auto It = Queues.find(LastKey);
      if (It != Queues.end() && !It->second.empty()) {
        Q = &It->second;
        Coalesced = true;
      }
    }
    while (!Q && !Ready.empty()) {
      std::string K = std::move(Ready.front());
      Ready.pop_front();
      auto It = Queues.find(K);
      if (It != Queues.end() && !It->second.empty()) {
        LastKey = std::move(K);
        Batch = 0;
        Q = &It->second;
      }
      // Stale entry (its task was coalesced away): keep scanning. The
      // entries >= tasks invariant guarantees a hit while Size > 0.
    }
    if (!Q)
      continue;

    QueuedTask Task = std::move(Q->front());
    Q->pop_front();
    --Size;
    ++Running;
    ++Batch;
    if (Coalesced)
      ++Counts.Coalesced;
    Counts.WaitUsTotal += static_cast<uint64_t>(std::max<int64_t>(
        0, std::chrono::duration_cast<std::chrono::microseconds>(
               clockNow(Opts.Clock) - Task.Enqueued)
               .count()));

    L.unlock();
    Task.Fn();
    L.lock();

    ++Counts.Ran;
    --Running;
    if (Size == 0 && Running == 0)
      Idle.notify_all();
  }
}
