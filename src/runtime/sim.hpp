// Discrete-event rank enactment for ExecMode::kSimulate (docs/SIMULATION.md).
//
// SimEngine runs every rank body of one run_collect() as a cooperative
// fiber on the calling OS thread, scheduled by a central event queue
// keyed by virtual timestamp. On x86-64 a switch saves only the
// callee-saved registers and FP control words and makes no syscall;
// other ISAs switch through glibc ucontext. Every fiber runs on one
// shared stack; a parked fiber's live frames are stored as a delta
// against the first park at the same depth, in a slot of the engine's
// park slab (runtime/park_slab.hpp), and rebuilt on resume, so nothing
// may point into a parked fiber's stack.
// A fiber's virtual time is the modelled time its TaskClock accumulated —
// the same per-operation costs the live modes charge — so event order
// follows the cost model, not the host scheduler. Blocking never parks
// the thread: every CondVar wait, Mutex acquisition and notification in
// src/ diverts through the thread-local blocking::SimHook this engine
// installs (common/blocking.hpp), suspending the calling fiber until the
// matching wakeup event. Transports, byte ledgers, fault injection,
// traces and health heartbeats therefore run byte-for-byte unchanged; the
// golden-trace and equivalence suites pin simulate-mode output to
// kPooled's exactly.
//
// Timed waits (mailbox receives, space/lock-service waits bounded by
// RetryPolicy::op_timeout) become virtual deadlines that fire only at
// quiescence — when no fiber is runnable — mirroring live execution
// where a timeout can only win once its wakeup is never coming. A
// quiescent state with no pending deadline is a genuine deadlock; the
// engine breaks it deterministically by cancelling every blocked fiber
// (their waits throw cods::Error, unwinding the rank like any failed
// operation).
#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace cods {

/// How deep the parks of one or more runs were: the bytes of the shared
/// stack each park saved, and what its delta held.
struct ParkDepths {
  /// (depth in bytes, parks at that depth), by depth. A run parks at a
  /// few distinct depths, so this stays a few entries long.
  std::vector<std::pair<u32, u64>> bins;
  u64 total_bytes = 0;   ///< park depths, summed over every park
  u64 stored_bytes = 0;  ///< delta bytes held, summed over every park
  u64 max_bytes = 0;     ///< the deepest park

  /// One park `bytes` deep whose delta held `stored` bytes.
  void add(std::size_t bytes, std::size_t stored);
  void merge(const ParkDepths& other);
  u64 parks() const;
  /// The smallest depth that at least a fraction `q` of the parks do not
  /// exceed; 0 when nothing parked.
  u64 percentile(double q) const;
};

/// Accounting of one SimEngine::run(): the discrete-event counterpart of
/// ExecutorStats (runtime/executor.hpp).
struct SimStats {
  i32 fibers = 0;         ///< rank fibers created (== the rank count)
  u64 switches = 0;       ///< fiber context switches (in + out)
  u64 notifies = 0;       ///< cv notifications routed through the hook
  u64 timeouts = 0;       ///< waits resolved by a virtual deadline
  u64 mutex_waits = 0;    ///< contended Mutex acquisitions (fiber parked)
  u64 cancellations = 0;  ///< fibers unwound to break a deadlock
  i32 peak_blocked = 0;   ///< max fibers simultaneously suspended
  i32 stacks = 0;  ///< peak co-resident started fibers (pooled LiveFibers)
  double final_vtime = 0.0;  ///< largest virtual clock any fiber reached
  /// Fiber stack memory: the shared stack, the per-depth templates and
  /// the park slab's peak bytes (the chunks that held parked fibers'
  /// stack deltas).
  u64 arena_bytes = 0;
  u64 peak_rss_bytes = 0;  ///< process peak RSS after the run (high-water
                           ///< mark over the process lifetime, not per-run)
  u64 ready_rebuilds = 0;  ///< calendar-queue bucket rebuilds
  ParkDepths park_depths;  ///< depth and delta bytes per park
};

/// Single-threaded discrete-event executor with the same run(n, body)
/// surface as WorkStealingExecutor. One instance enacts one task set;
/// stats() describes the most recent run. Bodies must funnel all
/// blocking through CondVar/Mutex (common/sync.hpp) — true of every
/// transport and service in src/ — and must not spin-poll without
/// blocking, since fibers are never preempted.
class SimEngine {
 public:
  /// Runs bodies 0..ntasks-1 to completion on the calling thread.
  /// Rethrows the lowest-index escaped exception after the run drains
  /// (run_collect's rank wrapper catches per-rank, so engine-driven
  /// enactments never rethrow here).
  void run(i32 ntasks, const std::function<void(i32)>& body);

  const SimStats& stats() const { return stats_; }

  /// Bytes of the one guard-paged stack every fiber runs on. A parked
  /// fiber keeps a copy of only its live part (a rank parks ~1.5 KiB
  /// deep), so this bounds how deep a rank may recurse, not what a rank
  /// costs.
  static constexpr i64 kDefaultStackBytes = 96 * 1024;

 private:
  SimStats stats_;
};

}  // namespace cods
