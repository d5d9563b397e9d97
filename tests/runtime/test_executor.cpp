// Work-stealing executor tests (docs/PERF.md "Enactment scaling"): task
// coverage, bounded thread counts, blocking-aware escalation under
// mailbox receives, collectives and lock-service waits, and failure
// ordering identical to the kSimulate dispatch.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "core/lock_service.hpp"
#include "runtime/executor.hpp"
#include "runtime/runtime.hpp"

namespace cods {
namespace {

#if defined(__SANITIZE_THREAD__)
constexpr bool kTsan = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kTsan = true;
#else
constexpr bool kTsan = false;
#endif
#else
constexpr bool kTsan = false;
#endif

/// Instrumentation slows every wait; scale the rank count down under
/// TSan so the stress case stays inside the suite's time budget.
constexpr i32 kStressRanks = kTsan ? 512 : 4096;

TEST(Executor, RunsEveryTaskExactlyOnce) {
  WorkStealingExecutor executor(4);
  const i32 n = 1000;
  std::vector<std::atomic<i32>> hits(static_cast<size_t>(n));
  executor.run(n, [&](i32 task) {
    hits[static_cast<size_t>(task)].fetch_add(1);
  });
  for (i32 t = 0; t < n; ++t) EXPECT_EQ(hits[static_cast<size_t>(t)].load(), 1);
  const ExecutorStats& stats = executor.stats();
  EXPECT_EQ(stats.pool_size, 4);
  // Nothing blocked, so the pool never grew beyond its cap.
  EXPECT_EQ(stats.total_spawned, 4);
  EXPECT_LE(stats.peak_live, 4);
  EXPECT_EQ(stats.peak_blocked, 0);
  EXPECT_EQ(stats.escalations, 0);
}

TEST(Executor, RethrowsAnEscapedException) {
  WorkStealingExecutor executor(2);
  EXPECT_THROW(executor.run(8,
                            [&](i32 task) {
                              if (task == 5) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

TEST(Executor, EscalationSurvivesAllTasksRendezvousing) {
  // Every task parks until all n have arrived: with a pool of 4 this
  // deadlocks unless each blocking task hands its execution slot to a
  // newly spawned (or re-used) thread. This is the liveness contract
  // collectives rely on.
  WorkStealingExecutor executor(4);
  const i32 n = 64;
  Mutex mutex{"test.rendezvous"};
  CondVar cv;
  i32 arrived = 0;
  executor.run(n, [&](i32) {
    MutexLock lock(mutex);
    ++arrived;
    if (arrived == n) cv.notify_all();
    while (arrived < n) cv.wait(lock);
  });
  const ExecutorStats& stats = executor.stats();
  EXPECT_GE(stats.peak_blocked, n - executor.pool_size());
  EXPECT_GE(stats.peak_live, n);  // all ranks necessarily co-resident
  EXPECT_GE(stats.escalations, n - executor.pool_size());
}

TEST(Executor, DefaultPoolSizeTracksHardware) {
  EXPECT_GE(WorkStealingExecutor::default_pool_size(), 2);
  WorkStealingExecutor executor;  // <= 0 selects the default
  EXPECT_EQ(executor.pool_size(), WorkStealingExecutor::default_pool_size());
}

/// Placement helper: `n` ranks over as few 64-core nodes as needed.
std::vector<CoreLoc> grid_placement(const Cluster& cluster, i32 n) {
  std::vector<CoreLoc> placement;
  for (i32 r = 0; r < n; ++r) {
    placement.push_back(CoreLoc{r / cluster.cores_per_node(),
                                r % cluster.cores_per_node()});
  }
  return placement;
}

TEST(PooledRuntime, StressGroupPipelineKeepsThreadCountBounded) {
  // kStressRanks ranks in rings of 8: each rank sends to its successor
  // (buffered, never blocks) and then blocks receiving from its
  // predecessor — thousands of mailbox waits funnelled through the
  // escalation path, while the round-robin deques keep rank dispatch
  // near-in-order so the live-thread count stays a small multiple of the
  // pool instead of one thread per rank.
  const i32 n = kStressRanks;
  Cluster cluster(ClusterSpec{.num_nodes = (n + 63) / 64,
                              .cores_per_node = 64});
  Metrics metrics;
  HybridDart dart(cluster, metrics);
  Runtime runtime(dart);
  runtime.set_exec_mode(ExecMode::kPooled);
  runtime.set_exec_pool_size(8);
  std::atomic<i64> checksum{0};
  const auto failures =
      runtime.run_collect(grid_placement(cluster, n), [&](RankCtx& ctx) {
        const i32 r = ctx.global_rank;
        const i32 group = r / 8;
        const i32 next = group * 8 + (r + 1) % 8;
        const i32 prev = group * 8 + (r + 7) % 8;
        ctx.world.send_value<i32>(next, /*tag=*/group, r);
        const i32 got = ctx.world.recv_value<i32>(prev, /*tag=*/group);
        checksum.fetch_add(got);
      });
  EXPECT_TRUE(failures.empty());
  EXPECT_EQ(checksum.load(), static_cast<i64>(n) * (n - 1) / 2);

  const ExecutorStats& stats = runtime.last_exec_stats();
  EXPECT_EQ(stats.pool_size, 8);
  // Structural invariant: live threads = runnable (pool cap, plus woken
  // blockers briefly finishing their task before they retire) + blocked
  // + parked spares (<= pool).
  EXPECT_LE(stats.peak_live, 4 * stats.pool_size + 2 * stats.peak_blocked);
  // The point of the executor: nowhere near one thread per rank.
  EXPECT_LT(stats.peak_live, n / 4);
  EXPECT_GT(stats.escalations, 0);
}

TEST(PooledRuntime, CollectivesAndLockServiceWaitsComplete) {
  // World split + barriers + allreduce force all ranks co-resident (a
  // split is a world collective), and a named write lock adds
  // lock-service waits: with a pool of 4 this only terminates because
  // every parked rank escalates. Checks the results, not just liveness.
  const i32 n = 96;
  Cluster cluster(ClusterSpec{.num_nodes = 2, .cores_per_node = 48});
  Metrics metrics;
  HybridDart dart(cluster, metrics);
  Runtime runtime(dart);
  runtime.set_exec_mode(ExecMode::kPooled);
  runtime.set_exec_pool_size(4);
  LockService locks;
  i64 protected_counter = 0;  // guarded by the lock service, not a mutex
  std::vector<i64> group_sums(static_cast<size_t>(n / 8), 0);
  const auto failures =
      runtime.run_collect(grid_placement(cluster, n), [&](RankCtx& ctx) {
        const i32 r = ctx.global_rank;
        Comm group = ctx.world.split(r / 8, r % 8);
        EXPECT_TRUE(group.valid());
        group.barrier();
        const i64 sum = group.allreduce_sum(static_cast<i64>(r));
        if (group.rank() == 0) {
          group_sums[static_cast<size_t>(r / 8)] = sum;
        }
        const Endpoint who{cluster.global_core(ctx.loc), ctx.loc};
        {
          WriteLock guard(locks, "stress.shared", who);
          ++protected_counter;
        }
        group.barrier();
      });
  EXPECT_TRUE(failures.empty());
  EXPECT_EQ(protected_counter, n);
  for (i32 g = 0; g < n / 8; ++g) {
    i64 expected = 0;
    for (i32 r = g * 8; r < (g + 1) * 8; ++r) expected += r;
    EXPECT_EQ(group_sums[static_cast<size_t>(g)], expected) << "group " << g;
  }
  const ExecutorStats& stats = runtime.last_exec_stats();
  EXPECT_GE(stats.peak_live, n);  // collectives require co-residency
  EXPECT_GT(stats.peak_blocked, 0);
  EXPECT_GT(stats.escalations, 0);
}

std::vector<RankFailure> run_failing_ranks(ExecMode mode) {
  Cluster cluster(ClusterSpec{.num_nodes = 2, .cores_per_node = 32});
  Metrics metrics;
  HybridDart dart(cluster, metrics);
  Runtime runtime(dart);
  runtime.set_exec_mode(mode);
  runtime.set_exec_pool_size(4);
  return runtime.run_collect(grid_placement(cluster, 64), [&](RankCtx& ctx) {
    if (ctx.global_rank % 7 == 3) {
      throw std::runtime_error("rank " + std::to_string(ctx.global_rank));
    }
  });
}

TEST(PooledRuntime, FailureOrderingMatchesSimulate) {
  const auto pooled = run_failing_ranks(ExecMode::kPooled);
  const auto sim = run_failing_ranks(ExecMode::kSimulate);
  ASSERT_EQ(pooled.size(), sim.size());
  ASSERT_FALSE(pooled.empty());
  for (size_t i = 0; i < pooled.size(); ++i) {
    EXPECT_EQ(pooled[i].global_rank, sim[i].global_rank);
    std::string pooled_what;
    std::string sim_what;
    try {
      std::rethrow_exception(pooled[i].error);
    } catch (const std::exception& e) {
      pooled_what = e.what();
    }
    try {
      std::rethrow_exception(sim[i].error);
    } catch (const std::exception& e) {
      sim_what = e.what();
    }
    EXPECT_EQ(pooled_what, sim_what);
  }
}

TEST(PooledRuntime, StatsDescribeTheLastDispatch) {
  // run_collect has two dispatches, and the last one owns both stats
  // records: non-blocking ranks stay on the capped pool (never a thread
  // per rank), and a pooled run zeroes the preceding simulate SimStats.
  Cluster cluster(ClusterSpec{.num_nodes = 1, .cores_per_node = 16});
  Metrics metrics;
  HybridDart dart(cluster, metrics);
  Runtime runtime(dart);
  runtime.set_exec_pool_size(4);
  const auto placement = grid_placement(cluster, 16);
  const auto noop = [](RankCtx&) {};

  runtime.set_exec_mode(ExecMode::kSimulate);
  EXPECT_TRUE(runtime.run_collect(placement, noop).empty());
  EXPECT_EQ(runtime.last_sim_stats().fibers, 16);
  EXPECT_EQ(runtime.last_exec_stats().total_spawned, 0);
  EXPECT_EQ(runtime.last_exec_stats().peak_live, 1);

  runtime.set_exec_mode(ExecMode::kPooled);
  EXPECT_TRUE(runtime.run_collect(placement, noop).empty());
  EXPECT_EQ(runtime.last_sim_stats().fibers, 0);
  const ExecutorStats& stats = runtime.last_exec_stats();
  EXPECT_EQ(stats.pool_size, 4);
  EXPECT_EQ(stats.total_spawned, 4);
  EXPECT_LE(stats.peak_live, 4);
  EXPECT_EQ(stats.escalations, 0);
}

}  // namespace
}  // namespace cods
