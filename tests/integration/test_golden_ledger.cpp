// Golden byte-ledger regressions (docs/PERF.md): the client
// communication-schedule cache must be *accounting-invariant*. A
// scaled-down version of the paper's Fig. 12 sequential coupling runs with
// the cache on and off; the per-app payload ByteCounters, verified cell
// contents and injected-fault replay traces must be identical. Only
// control-plane traffic may shrink (a schedule-cache hit skips the DHT
// query RPCs).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "apps/synthetic.hpp"
#include "workflow/engine.hpp"

#include "support/apps.hpp"

namespace cods {
namespace {

using testing::make_app;


/// Ledger snapshot of one workflow run: everything that must be invariant
/// under the schedule cache.
struct Ledger {
  ByteCounters inter[4];  ///< per app id 0..3, kInterApp
  ByteCounters intra[4];  ///< per app id 0..3, kIntraApp
  u64 mismatches = 0;
  u64 cache_hits = 0;  ///< gets answered by the schedule cache
  ByteCounters control;  ///< kControl total (may differ: smaller with cache)
  std::string fault_trace;
  u64 retries = 0;

  void capture(const Metrics& m) {
    for (i32 app = 0; app < 4; ++app) {
      inter[app] = m.counters(app, TrafficClass::kInterApp);
      intra[app] = m.counters(app, TrafficClass::kIntraApp);
    }
    control = m.total(TrafficClass::kControl);
    retries = m.total_count("fault.retries");
  }
};

void expect_payload_identical(const Ledger& on, const Ledger& off) {
  for (i32 app = 0; app < 4; ++app) {
    EXPECT_EQ(on.inter[app], off.inter[app]) << "kInterApp app " << app;
    EXPECT_EQ(on.intra[app], off.intra[app]) << "kIntraApp app " << app;
  }
  EXPECT_EQ(on.mismatches, 0u);
  EXPECT_EQ(off.mismatches, 0u);
}

/// Per-run tallies the reader ranks add to concurrently.
struct ReadTally {
  std::atomic<u64> mismatches{0};
  std::atomic<u64> cache_hits{0};
};

// ---------------------------------------------------------------------------
// Fig. 12 shape: sequential coupling where the consumer re-reads every
// version's region twice — the iterative pattern the schedule cache
// serves. Toggling the cache must change only control-plane traffic.
// ---------------------------------------------------------------------------

AppFn make_double_reader(std::string var, i32 nversions, u64 seed,
                         bool schedule_cache,
                         std::shared_ptr<ReadTally> tally) {
  return [var = std::move(var), nversions, seed, schedule_cache,
          tally](AppCtx& ctx) {
    ctx.cods->set_schedule_cache_enabled(schedule_cache);
    for (i32 v = 0; v < nversions; ++v) {
      for (const Box& box : ctx.my_boxes()) {
        std::vector<std::byte> out(box_bytes(box, 8));
        for (int repeat = 0; repeat < 2; ++repeat) {
          if (ctx.cods->get_seq(var, v, box, out, 8).cache_hit) {
            ++tally->cache_hits;
          }
          tally->mismatches +=
              verify_pattern(out, box, 8, seed + static_cast<u64>(v));
        }
      }
    }
  };
}

Ledger run_sequential_shape(bool schedule_cache, FaultInjector* injector) {
  Cluster cluster(ClusterSpec{.num_nodes = 4, .cores_per_node = 4});
  Metrics metrics;
  WorkflowServer server(cluster, metrics, Box{{0, 0}, {15, 15}});
  auto tally = std::make_shared<ReadTally>();
  server.register_app(
      make_app(1, "climate", {16, 16}, {4, 2}),
      make_pattern_producer({{"t_sfc"}, 2, /*sequential=*/true, 21}));
  server.register_app(
      make_app(2, "post", {16, 16}, {2, 2}),
      make_double_reader("t_sfc", 2, 21, schedule_cache, tally),
      /*consumes_var=*/"t_sfc");
  DagSpec dag;
  dag.add_app(1);
  dag.add_app(2);
  dag.add_dependency(1, 2);

  WorkflowOptions options;
  if (injector != nullptr) {
    options.fault = injector;
    options.retry.max_retries = 50;
    options.retry.op_timeout = std::chrono::seconds(2);
  }
  server.run(dag, options);

  Ledger ledger;
  ledger.capture(metrics);
  ledger.mismatches = tally->mismatches.load();
  ledger.cache_hits = tally->cache_hits.load();
  if (injector != nullptr) ledger.fault_trace = injector->trace_string();
  return ledger;
}

TEST(GoldenLedger, ScheduleCacheInvariantSequentialCoupling) {
  const Ledger off = run_sequential_shape(false, nullptr);
  const Ledger on = run_sequential_shape(true, nullptr);
  expect_payload_identical(on, off);
  EXPECT_EQ(off.cache_hits, 0u);
  EXPECT_GT(on.cache_hits, 0u);
  // A hit skips the query round-trips: strictly less control traffic, but
  // never more — and the payload above stayed byte-identical.
  EXPECT_LT(on.control.transfers, off.control.transfers);
  EXPECT_LE(on.control.net_bytes + on.control.shm_bytes,
            off.control.net_bytes + off.control.shm_bytes);
}

TEST(GoldenLedger, FaultReplayInvariantUnderOptimisations) {
  // Transient-only spec (no crash schedules: those key on the global wave
  // op counter, which legitimately shifts when cache hits skip RPCs).
  // Transfer/send decisions key on per-(site, actor) op counts, so the
  // replay trace must be identical with the schedule cache on and off.
  FaultSpec spec;
  spec.seed = 17;
  spec.p_transfer = 0.05;
  spec.p_send = 0.05;
  spec.p_rpc = 0.0;

  FaultInjector injector_off(spec);
  const Ledger off = run_sequential_shape(false, &injector_off);
  FaultInjector injector_on(spec);
  const Ledger on = run_sequential_shape(true, &injector_on);

  expect_payload_identical(on, off);
  EXPECT_FALSE(off.fault_trace.empty());
  EXPECT_EQ(on.fault_trace, off.fault_trace);
  EXPECT_EQ(on.retries, off.retries);
  EXPECT_GT(on.cache_hits, 0u);
}

}  // namespace
}  // namespace cods
