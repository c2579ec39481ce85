// Real-thread baseline implementations: Mutex (per-item condvar
// signaling) and BP (signal on buffer full) — the two classic shapes the
// paper's Section III study measures, here as actual threads so the
// thread-host PBPL has like-for-like competition.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "pcpc/common/latency_recorder.hpp"
#include "pcpc/common/stats.hpp"
#include "pcpc/common/types.hpp"
#include "pcpc/fault/fault_injector.hpp"
#include "pcpc/queue/handoff.hpp"

namespace pcpc::runtime {

using BaselineClock = std::chrono::steady_clock;

/// Counters of a thread-baseline run.  Each pair accumulates its own
/// shard under its own lock; stats() merges the shards on demand.
struct ThreadBaselineStats {
  std::uint64_t items = 0;
  std::uint64_t invocations = 0;
  std::uint64_t consumer_wakeups = 0;  ///< times a consumer thread blocked and woke
  std::int64_t consumer_cpu_ns = 0;
  OnlineStats batch_sizes;
  LatencyRecorder latency_s;

  /// Folds another shard into this one (exact: counters add, the batch
  /// and latency distributions merge losslessly).
  void merge(const ThreadBaselineStats& other) {
    items += other.items;
    invocations += other.invocations;
    consumer_wakeups += other.consumer_wakeups;
    consumer_cpu_ns += other.consumer_cpu_ns;
    batch_sizes.merge(other.batch_sizes);
    latency_s.merge(other.latency_s);
  }
};

/// How the producer signals the consumer.
enum class SignalPolicy {
  PerItem,   ///< Mutex/Sem style: notify on every item
  OnFull,    ///< BP style: notify only when the buffer reaches capacity
  Periodic,  ///< SPBP style: the consumer wakes on its own timer
};

/// A set of producer-consumer pairs on real threads.  Each pair owns a
/// fixed-capacity hand-off, a condvar and one consumer thread.
class ThreadBaseline {
 public:
  /// `period` is used only by SignalPolicy::Periodic.  `injector`, when
  /// non-null, must outlive the baseline; it injects producer stalls and
  /// bursts and slow-consumer handler delays so the baselines face the
  /// same chaos the PBPL host does.  `backend` selects the hand-off
  /// queue: the SPSC ring under the pair lock (the mutex backend), or a
  /// lock-free ring whose pushes bypass the pair lock (BackendKind::SpscRing then
  /// requires one producer thread per pair; MpscSeg accepts any number).
  ThreadBaseline(std::size_t pairs, std::size_t buffer_capacity, SignalPolicy policy,
                 SimDuration period = milliseconds(10),
                 fault::FaultInjector* injector = nullptr,
                 queue::BackendKind backend = queue::BackendKind::Mutex);
  ~ThreadBaseline();

  ThreadBaseline(const ThreadBaseline&) = delete;
  ThreadBaseline& operator=(const ThreadBaseline&) = delete;

  /// Producer side; thread-safe per pair.  Blocks while the buffer is
  /// full (classic bounded-buffer backpressure).
  void produce(std::size_t pair);

  /// Stops and joins consumers, draining leftovers.  Idempotent.
  void stop();

  /// Counters; call after stop() for a consistent snapshot.  Merges the
  /// per-pair stats shards (no global stats lock exists).
  ThreadBaselineStats stats() const;

 private:
  struct Pair {
    std::size_t index = 0;
    std::mutex mutex;
    std::condition_variable consumer_cv;
    std::condition_variable producer_cv;
    std::unique_ptr<queue::Handoff<BaselineClock::time_point>> buffer;
    std::thread thread;
    /// This pair's stats shard, guarded by `mutex`.
    ThreadBaselineStats stats;
  };

  void consumer_loop(Pair& pair);
  void drain_locked(Pair& pair, std::unique_lock<std::mutex>& lock);

  const std::size_t capacity_;
  const SignalPolicy policy_;
  const SimDuration period_;
  fault::FaultInjector* injector_ = nullptr;
  std::atomic<bool> running_{true};
  std::vector<std::unique_ptr<Pair>> pairs_;
};

}  // namespace pcpc::runtime
