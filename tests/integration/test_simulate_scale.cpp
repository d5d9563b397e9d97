// Simulate-mode scale smoke (docs/SIMULATION.md): the discrete-event
// engine's reason to exist is enacting rank counts no thread-based mode
// can touch. These tests drive 65,536 ranks — 64x the pooled stress
// ceiling — through the runtime and through a full workflow on one OS
// thread, asserting the CPU-time budget stays in single-digit seconds
// and that stack recycling keeps fiber memory bounded by co-residency,
// not by the rank count. ctest-labeled "slow" (exclude with `ctest -LE
// slow` in a quick local loop).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "apps/synthetic.hpp"
#include "runtime/runtime.hpp"
#include "workflow/engine.hpp"

namespace cods {
namespace {

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#if defined(NDEBUG)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

/// Instrumented and unoptimized builds pay a large constant per fiber
/// switch; scale the rank count down and skip the wall-clock bound
/// there so the smoke stays meaningful without timing flakes. The
/// Release CI job runs the full 65,536 ranks against the 10s budget.
constexpr i32 kScaleRanks = (kSanitized || !kOptimized) ? 16384 : 65536;
constexpr bool kTimed = !kSanitized && kOptimized;

/// Process CPU seconds, not wall seconds: the budget assertions guard
/// against the event loop degenerating (an O(n^2) slip multiplies CPU
/// work), and CPU time stays stable when a loaded CI host steals cycles
/// or a cold page cache inflates the wall clock.
double cpu_seconds_since(std::clock_t start) {
  return static_cast<double>(std::clock() - start) / CLOCKS_PER_SEC;
}

TEST(SimulateScale, RuntimeEnactsRingsOfSixtyFourKRanks) {
  const i32 n = kScaleRanks;
  Cluster cluster(ClusterSpec{.num_nodes = n / 64, .cores_per_node = 64});
  Metrics metrics;
  HybridDart dart(cluster, metrics);
  Runtime runtime(dart);
  runtime.set_exec_mode(ExecMode::kSimulate);
  std::vector<CoreLoc> placement;
  placement.reserve(static_cast<size_t>(n));
  for (i32 r = 0; r < n; ++r) placement.push_back(cluster.core_loc(r));

  const std::clock_t start = std::clock();
  i64 checksum = 0;  // single-threaded under kSimulate: no atomics needed
  const auto failures = runtime.run_collect(placement, [&](RankCtx& ctx) {
    const i32 r = ctx.global_rank;
    const i32 group = r / 8;
    const i32 next = group * 8 + (r + 1) % 8;
    const i32 prev = group * 8 + (r + 7) % 8;
    ctx.world.send_value<i32>(next, /*tag=*/group, r);
    checksum += ctx.world.recv_value<i32>(prev, /*tag=*/group);
  });
  const double elapsed = cpu_seconds_since(start);

  EXPECT_TRUE(failures.empty());
  EXPECT_EQ(checksum, static_cast<i64>(n) * (n - 1) / 2);
  const SimStats& stats = runtime.last_sim_stats();
  EXPECT_EQ(stats.fibers, n);
  EXPECT_EQ(runtime.last_exec_stats().total_spawned, 0);  // zero threads
  // Stack recycling: only co-resident fibers hold stacks. Each ring's
  // leader blocks until its group-7 runs, and resumed fibers carry a
  // later virtual time than fresh ones, so co-residency peaks at one
  // leader per group plus the running fiber — not at 6 GiB of 96 KiB
  // stacks, one per rank.
  EXPECT_LE(stats.stacks, n / 8 + 1);
  EXPECT_GE(stats.switches, static_cast<u64>(n));
  if (kTimed) {
    EXPECT_LT(elapsed, 10.0) << n << " ranks took " << elapsed << "s";
  }
}

TEST(SimulateScale, WorkflowEnactsSixtyFourKTaskWave) {
  // A full engine pass — mapping, placement, space puts, DHT
  // registration — over a producer app with one task per core.
  const i32 n = kScaleRanks;
  const i64 side = (n == 65536) ? 256 : 128;
  Cluster cluster(ClusterSpec{.num_nodes = static_cast<i32>(n / 64),
                              .cores_per_node = 64});
  Metrics metrics;
  WorkflowServer server(cluster, metrics, Box{{0, 0}, {side - 1, side - 1}});
  AppSpec producer;
  producer.app_id = 1;
  producer.name = "producer";
  producer.dec = blocked({side, side}, {static_cast<i32>(side),
                                        static_cast<i32>(side)});
  server.register_app(
      producer,
      make_pattern_producer({{"field"}, 1, /*sequential=*/true, 1}));
  DagSpec dag;
  dag.add_app(1);

  WorkflowOptions options;
  options.strategy = MappingStrategy::kRoundRobin;  // mapping stays O(n)
  options.exec_mode = ExecMode::kSimulate;

  const std::clock_t start = std::clock();
  server.run(dag, options);
  const double elapsed = cpu_seconds_since(start);

  EXPECT_EQ(server.space().stored_bytes(),
            static_cast<u64>(side) * static_cast<u64>(side) * 8u);
  ASSERT_EQ(server.wave_reports().size(), 1u);
  EXPECT_EQ(server.placement(1).all().size(), static_cast<size_t>(n));
  if (kTimed) {
    EXPECT_LT(elapsed, 10.0) << n << " tasks took " << elapsed << "s";
  }
}

/// The committed bench ledger pins the peak-RSS budget the scale smoke
/// enforces (bench/fig16_weak_scaling.cpp writes it; see
/// docs/SIMULATION.md "Scaling to 1M ranks"). Returns 0 when the file
/// or key is missing so the test can skip rather than invent a bound.
u64 rss_budget_from_bench_ledger() {
  std::ifstream in(std::string(CODS_REPO_ROOT) + "/BENCH_simulate.json");
  if (!in) return 0;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  const std::string key = "\"rss_budget_bytes_per_rank\":";
  const std::size_t at = text.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(text.c_str() + at + key.size(), nullptr, 10);
}

TEST(SimulateScale, QuarterMillionRankWaveStaysInRssBudget) {
  // The Release-job regression guard for the 1M-rank work: a 262,144-
  // rank producer wave (side=512) must finish inside a CPU-time budget
  // AND inside the committed bytes-per-rank peak-RSS budget. Each
  // discovered gtest runs as its own process, so getrusage's process
  // high-water mark here is this wave's footprint, not a neighbor's.
  // Instrumented/debug builds scale down and skip both bounds — fixed
  // costs then dominate bytes/rank and the numbers mean nothing.
  const i32 n = kTimed ? 262144 : 16384;
  const i64 side = kTimed ? 512 : 128;
  Cluster cluster(ClusterSpec{.num_nodes = static_cast<i32>(n / 64),
                              .cores_per_node = 64});
  Metrics metrics;
  WorkflowServer server(cluster, metrics, Box{{0, 0}, {side - 1, side - 1}});
  AppSpec producer;
  producer.app_id = 1;
  producer.name = "producer";
  producer.dec = blocked({side, side}, {static_cast<i32>(side),
                                        static_cast<i32>(side)});
  server.register_app(
      producer,
      make_pattern_producer({{"field"}, 1, /*sequential=*/true, 1}));
  DagSpec dag;
  dag.add_app(1);

  WorkflowOptions options;
  options.strategy = MappingStrategy::kRoundRobin;
  options.exec_mode = ExecMode::kSimulate;

  const std::clock_t start = std::clock();
  server.run(dag, options);
  const double elapsed = cpu_seconds_since(start);

  const SimStats& sim = server.last_sim_stats();
  EXPECT_EQ(sim.fibers, n);
  EXPECT_EQ(server.placement(1).all().size(), static_cast<size_t>(n));
  if (kTimed) {
    EXPECT_LT(elapsed, 30.0) << n << " ranks took " << elapsed << "s";
    const u64 budget = rss_budget_from_bench_ledger();
    ASSERT_GT(budget, 0u) << "BENCH_simulate.json lost its "
                             "rss_budget_bytes_per_rank key";
    ASSERT_GT(sim.peak_rss_bytes, 0u);
    const u64 per_rank = sim.peak_rss_bytes / static_cast<u64>(n);
    EXPECT_LE(per_rank, budget)
        << "peak RSS " << sim.peak_rss_bytes << " B over " << n
        << " ranks = " << per_rank << " B/rank; budget " << budget;
  }
}

}  // namespace
}  // namespace cods
