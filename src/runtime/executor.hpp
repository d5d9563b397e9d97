// Bounded work-stealing executor (docs/PERF.md "Enactment scaling").
//
// Runs N one-shot tasks — the rank bodies of one Runtime::run_collect
// wave, or a mapping-stage parallel-for — on a fixed pool of worker
// threads sized to hardware concurrency, instead of one OS thread per
// task. Task indices are seeded round-robin into per-worker deques;
// an idle worker first drains the front of its own deque (ascending
// index order, which matches how rank programs consume each other's
// messages), then steals from the back of a victim's.
//
// Rank bodies block: on mailbox receives, collectives and lock-service
// waits. A bounded pool would deadlock the moment every worker parks
// while undispatched tasks still hold the messages they are waiting
// for. The executor therefore installs itself as the thread's
// blocking::Observer while a task body runs: when the body parks inside
// CondVar, on_block() gives the worker's execution slot away — a parked
// spare thread is woken, or a fresh one is spawned, whenever unclaimed
// tasks remain and fewer than pool_size threads are runnable (the
// tokio/Go "blocking thread" escalation). When the wait returns the
// thread finishes its task as a temporary surplus runner and then
// retires: it parks as a spare (up to pool_size parked spares are kept
// for reuse) or exits. Persistent threads are thus bounded by
// 2 * pool_size regardless of N, and the peak live-thread count by
// pool_size + concurrently-blocked tasks + parked spares.
//
// Determinism: the executor adds no ordering of its own. Each task runs
// start-to-finish on one thread, so thread-local contracts (TraceContext
// tracks, virtual clocks, metrics shard slots) behave exactly as on a
// dedicated thread, and Runtime sorts collected failures by rank.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/blocking.hpp"
#include "common/error.hpp"
#include "common/sync.hpp"
#include "common/types.hpp"

namespace cods {

/// Counters describing one WorkStealingExecutor::run() (Runtime fills
/// the same struct for kSimulate's single scheduler thread).
struct ExecutorStats {
  i32 pool_size = 0;      ///< execution-slot cap (runnable threads)
  i32 total_spawned = 0;  ///< OS threads created over the run
  i32 peak_live = 0;      ///< max threads existing at once (incl. spares)
  i32 peak_blocked = 0;   ///< max task bodies parked in waits at once
  i32 escalations = 0;    ///< blocked workers that handed their slot on
  i32 spare_reuses = 0;   ///< escalations served by waking a parked spare
  i32 steals = 0;         ///< tasks taken from another worker's deque
};

class WorkStealingExecutor final : public blocking::Observer {
 public:
  /// `pool_size` caps concurrently-runnable threads; <= 0 selects
  /// default_pool_size(). The pool is per-run: threads are spawned by
  /// run() and joined before it returns.
  explicit WorkStealingExecutor(i32 pool_size = 0);
  ~WorkStealingExecutor() override;
  WorkStealingExecutor(const WorkStealingExecutor&) = delete;
  WorkStealingExecutor& operator=(const WorkStealingExecutor&) = delete;

  /// Runs body(0) .. body(ntasks - 1) to completion and returns. The
  /// body must contain its own exceptions (Runtime's rank wrapper does);
  /// an exception that does escape is rethrown here after the pool
  /// drains. Not reentrant: one run() at a time per executor.
  void run(i32 ntasks, const std::function<void(i32)>& body);

  const ExecutorStats& stats() const { return stats_; }
  i32 pool_size() const { return pool_size_; }

  /// max(2, std::thread::hardware_concurrency()).
  static i32 default_pool_size();

  // blocking::Observer — called by CondVar on worker threads while a
  // task body parks. on_block() may run under arbitrary caller locks,
  // so it only touches atomics and the leaf lock runtime.exec.state.
  void on_block() override;
  void on_unblock() override;

 private:
  /// One work-stealing deque. Owners pop the front (ascending seeded
  /// order), thieves pop the back.
  struct Slot {
    Mutex mutex{"runtime.exec.deque"};
    std::deque<i32> tasks CODS_GUARDED_BY(mutex);
  };

  void worker_loop(i32 slot);
  /// Claims the next task for `slot` (own front, then victims' backs);
  /// -1 when every task has been claimed.
  i32 next_task(i32 slot);
  void run_task(i32 task);
  /// Hands a blocked worker's slot to a spare: wakes a parked thread or
  /// spawns a new one.
  void escalate();
  void spawn_locked(i32 slot) CODS_REQUIRES(state_mutex_);
  /// Called by a surplus runner after finishing a task: parks as a spare
  /// (returns true to keep working after a wake-up) or retires for good.
  bool park_or_retire();

  const i32 pool_size_;
  i32 ntasks_ = 0;
  const std::function<void(i32)>* body_ = nullptr;
  std::vector<Slot> slots_;

  std::atomic<i32> claimed_{0};    ///< tasks popped from deques
  std::atomic<i32> completed_{0};  ///< task bodies returned
  std::atomic<i32> runnable_{0};   ///< threads executing or scanning
  std::atomic<i32> blocked_{0};    ///< task bodies parked in waits
  std::atomic<i32> live_{0};       ///< threads spawned and not yet exited

  mutable Mutex state_mutex_{"runtime.exec.state"};
  CondVar state_cv_;  ///< signals done to run(), wake-ups to spares
  // codslint-allow(blocking): the pool's own threads (kPooled exec mode)
  std::vector<std::thread> threads_ CODS_GUARDED_BY(state_mutex_);
  i32 spares_parked_ CODS_GUARDED_BY(state_mutex_) = 0;
  i32 spare_wakeups_ CODS_GUARDED_BY(state_mutex_) = 0;
  bool shutdown_ CODS_GUARDED_BY(state_mutex_) = false;
  std::exception_ptr escaped_ CODS_GUARDED_BY(state_mutex_);
  i32 next_spawn_slot_ CODS_GUARDED_BY(state_mutex_) = 0;

  ExecutorStats stats_;  ///< peaks maintained via the atomics below
  std::atomic<i32> peak_live_{0};
  std::atomic<i32> peak_blocked_{0};
  std::atomic<i32> escalations_{0};
  std::atomic<i32> spare_reuses_{0};
  std::atomic<i32> steals_{0};
  std::atomic<i32> total_spawned_{0};
};

}  // namespace cods
