// Golden-trace regressions (docs/TRACING.md): a traced workflow run is a
// deterministic function of the workload and seed — running the same
// scenario twice must produce a bit-identical Chrome export — and the
// span stream's byte ledger reconciles exactly against the TransferLog
// journal and the Metrics registry recorded by the same run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <tuple>

#include "apps/synthetic.hpp"
#include "trace/critical_path.hpp"
#include "trace/export.hpp"
#include "workflow/engine.hpp"

#include "support/apps.hpp"

namespace cods {
namespace {

using testing::make_app;


struct TracedRun {
  std::vector<TraceSpan> spans;
  std::string json;
  std::vector<TransferRecord> journal;
  ByteCounters inter[3];  ///< metrics per app id 0..2, kInterApp
  ByteCounters intra[3];
  u64 mismatches = 0;
};

/// Fig. 12 shape, scaled down: producer wave then consumer wave,
/// sequentially coupled through put_seq/get_seq.
TracedRun run_sequential_shape(u64 seed, TraceRecorder* shared = nullptr,
                               ExecMode exec_mode = ExecMode::kPooled) {
  Cluster cluster(ClusterSpec{.num_nodes = 3, .cores_per_node = 4});
  Metrics metrics;
  WorkflowServer server(cluster, metrics, Box{{0, 0}, {15, 15}});
  auto mismatches = std::make_shared<std::atomic<u64>>(0);
  server.register_app(
      make_app(1, "sim", {16, 16}, {2, 2}),
      make_pattern_producer({{"field"}, 2, /*sequential=*/true, seed}));
  server.register_app(
      make_app(2, "analysis", {16, 16}, {2, 1}),
      make_pattern_consumer(
          {{"field"}, 2, /*sequential=*/true, seed, mismatches, nullptr}),
      /*consumes_var=*/"field");
  DagSpec dag;
  dag.add_app(1);
  dag.add_app(2);
  dag.add_dependency(1, 2);

  TraceRecorder local;
  TraceRecorder& trace = shared != nullptr ? *shared : local;
  TransferLog log(1 << 18);
  WorkflowOptions options;
  options.seed = seed;
  options.trace = &trace;
  options.transfer_log = &log;
  options.exec_mode = exec_mode;
  server.run(dag, options);

  TracedRun out;
  out.spans = trace.snapshot();
  out.json = to_chrome_trace(out.spans);
  out.journal = log.snapshot();
  for (i32 app = 0; app < 3; ++app) {
    out.inter[app] = metrics.counters(app, TrafficClass::kInterApp);
    out.intra[app] = metrics.counters(app, TrafficClass::kIntraApp);
  }
  out.mismatches = mismatches->load();
  return out;
}

/// Fig. 8 shape: producer and consumer bundled into one concurrent wave,
/// coupled through put_cont/get_cont.
TracedRun run_bundle_shape(u64 seed, ExecMode exec_mode = ExecMode::kPooled) {
  Cluster cluster(ClusterSpec{.num_nodes = 3, .cores_per_node = 4});
  Metrics metrics;
  WorkflowServer server(cluster, metrics, Box{{0, 0}, {15, 15}});
  auto mismatches = std::make_shared<std::atomic<u64>>(0);
  server.register_app(
      make_app(1, "sim", {16, 16}, {2, 2}),
      make_pattern_producer({{"field"}, 2, /*sequential=*/false, seed}));
  server.register_app(
      make_app(2, "viz", {16, 16}, {2, 1}),
      make_pattern_consumer(
          {{"field"}, 2, /*sequential=*/false, seed, mismatches, nullptr}));
  DagSpec dag;
  dag.add_app(1);
  dag.add_app(2);
  dag.add_bundle({1, 2});

  TraceRecorder trace;
  TransferLog log(1 << 18);
  WorkflowOptions options;
  options.seed = seed;
  options.trace = &trace;
  options.transfer_log = &log;
  options.exec_mode = exec_mode;
  server.run(dag, options);

  TracedRun out;
  out.spans = trace.snapshot();
  out.json = to_chrome_trace(out.spans);
  out.journal = log.snapshot();
  for (i32 app = 0; app < 3; ++app) {
    out.inter[app] = metrics.counters(app, TrafficClass::kInterApp);
    out.intra[app] = metrics.counters(app, TrafficClass::kIntraApp);
  }
  out.mismatches = mismatches->load();
  return out;
}

TEST(GoldenTrace, SequentialShapeExportIsBitIdentical) {
  const TracedRun a = run_sequential_shape(7);
  const TracedRun b = run_sequential_shape(7);
  EXPECT_EQ(a.mismatches, 0u);
  EXPECT_EQ(b.mismatches, 0u);
  ASSERT_FALSE(a.spans.empty());
  EXPECT_EQ(a.spans.size(), b.spans.size());
  EXPECT_EQ(a.json, b.json);  // byte-identical across runs
}

TEST(GoldenTrace, BundleShapeExportIsBitIdentical) {
  const TracedRun a = run_bundle_shape(11);
  const TracedRun b = run_bundle_shape(11);
  EXPECT_EQ(a.mismatches, 0u);
  EXPECT_EQ(a.json, b.json);
}

/// The journal is appended concurrently, so its order is scheduling
/// noise in both modes; compare it as a sorted multiset.
std::vector<TransferRecord> normalized(std::vector<TransferRecord> journal) {
  std::sort(journal.begin(), journal.end(),
            [](const TransferRecord& a, const TransferRecord& b) {
              return std::tie(a.src.node, a.src.core, a.dst.node, a.dst.core,
                              a.bytes, a.via_network, a.cls, a.app_id,
                              a.model_time) <
                     std::tie(b.src.node, b.src.core, b.dst.node, b.dst.core,
                              b.bytes, b.via_network, b.cls, b.app_id,
                              b.model_time);
            });
  return journal;
}

void expect_same_run(const TracedRun& pooled, const TracedRun& sim) {
  EXPECT_EQ(pooled.mismatches, 0u);
  EXPECT_EQ(sim.mismatches, 0u);
  ASSERT_FALSE(pooled.spans.empty());
  // Span ids and virtual clocks are keyed by (wave, attempt, rank)
  // tracks, never by threads, so the Chrome export must be bit-identical
  // whether ranks ran on the bounded pool or as fibers on one thread.
  EXPECT_EQ(pooled.json, sim.json);
  const auto pooled_journal = normalized(pooled.journal);
  const auto sim_journal = normalized(sim.journal);
  ASSERT_EQ(pooled_journal.size(), sim_journal.size());
  for (size_t i = 0; i < pooled_journal.size(); ++i) {
    const TransferRecord& p = pooled_journal[i];
    const TransferRecord& q = sim_journal[i];
    EXPECT_EQ(p.src.node, q.src.node);
    EXPECT_EQ(p.src.core, q.src.core);
    EXPECT_EQ(p.dst.node, q.dst.node);
    EXPECT_EQ(p.dst.core, q.dst.core);
    EXPECT_EQ(p.bytes, q.bytes);
    EXPECT_EQ(p.via_network, q.via_network);
    EXPECT_EQ(p.app_id, q.app_id);
  }
  for (i32 app = 0; app < 3; ++app) {
    EXPECT_EQ(pooled.inter[app].shm_bytes, sim.inter[app].shm_bytes);
    EXPECT_EQ(pooled.inter[app].net_bytes, sim.inter[app].net_bytes);
    EXPECT_EQ(pooled.intra[app].shm_bytes, sim.intra[app].shm_bytes);
    EXPECT_EQ(pooled.intra[app].net_bytes, sim.intra[app].net_bytes);
  }
}

// Cross-mode pin: the pooled run is the reference, and the discrete-event
// simulate mode must reproduce its export byte for byte.
TEST(GoldenTrace, SequentialShapeIdenticalAcrossExecModes) {
  expect_same_run(run_sequential_shape(21, nullptr, ExecMode::kPooled),
                  run_sequential_shape(21, nullptr, ExecMode::kSimulate));
}

TEST(GoldenTrace, BundleShapeIdenticalAcrossExecModes) {
  expect_same_run(run_bundle_shape(23, ExecMode::kPooled),
                  run_bundle_shape(23, ExecMode::kSimulate));
}

TEST(GoldenTrace, LedgerReconcilesExactlyWithTransferLog) {
  const TracedRun run = run_sequential_shape(13);
  ASSERT_FALSE(run.journal.empty());
  EXPECT_EQ(reconcile_with_transfer_log(run.spans, run.journal), "");

  const TracedRun bundle = run_bundle_shape(13);
  ASSERT_FALSE(bundle.journal.empty());
  EXPECT_EQ(reconcile_with_transfer_log(bundle.spans, bundle.journal), "");
}

TEST(GoldenTrace, PayloadBytesMatchMetricsRegistry) {
  const TracedRun run = run_sequential_shape(5);
  const TraceAnalysis analysis = analyze_trace(run.spans);
  ASSERT_FALSE(analysis.waves.empty());
  // Per-app payload rows summed over waves must equal the always-on
  // Metrics registry: the trace is a per-operation refinement of the same
  // accounting, not a parallel bookkeeping that can drift.
  u64 inter_shm[3] = {0, 0, 0};
  u64 inter_net[3] = {0, 0, 0};
  u64 intra_shm[3] = {0, 0, 0};
  u64 intra_net[3] = {0, 0, 0};
  for (const WaveBreakdown& wave : analysis.waves) {
    for (const WaveAppBytes& app : wave.apps) {
      if (app.app_id < 0 || app.app_id > 2) continue;
      inter_shm[app.app_id] += app.inter_shm;
      inter_net[app.app_id] += app.inter_net;
      intra_shm[app.app_id] += app.intra_shm;
      intra_net[app.app_id] += app.intra_net;
    }
  }
  for (i32 app = 1; app <= 2; ++app) {
    EXPECT_EQ(inter_shm[app], run.inter[app].shm_bytes) << "app " << app;
    EXPECT_EQ(inter_net[app], run.inter[app].net_bytes) << "app " << app;
    EXPECT_EQ(intra_shm[app], run.intra[app].shm_bytes) << "app " << app;
    EXPECT_EQ(intra_net[app], run.intra[app].net_bytes) << "app " << app;
  }
}

TEST(GoldenTrace, WavesMatchTheDag) {
  const TracedRun run = run_sequential_shape(3);
  const TraceAnalysis analysis = analyze_trace(run.spans);
  ASSERT_EQ(analysis.waves.size(), 2u);  // producer wave, consumer wave
  EXPECT_EQ(analysis.waves[0].wave_index, 0u);
  EXPECT_EQ(analysis.waves[1].wave_index, 1u);
  EXPECT_NE(analysis.waves[0].critical_task, 0u);
  EXPECT_NE(analysis.waves[1].critical_task, 0u);
  EXPECT_GT(analysis.total_time, 0.0);
  // The consumer wave moved the coupled field: its per-app rows include
  // inter-app bytes for app 2.
  bool consumer_moved_data = false;
  for (const WaveAppBytes& app : analysis.waves[1].apps) {
    if (app.app_id == 2 && app.inter_shm + app.inter_net > 0) {
      consumer_moved_data = true;
    }
  }
  EXPECT_TRUE(consumer_moved_data);
  EXPECT_FALSE(analysis.report().empty());
}

TEST(GoldenTrace, SharedRecorderAcrossRunsNeverReusesIds) {
  TraceRecorder shared;
  (void)run_sequential_shape(9, &shared);
  const size_t after_first = shared.span_count();
  const TracedRun second = run_sequential_shape(9, &shared);
  EXPECT_GT(second.spans.size(), after_first);
  std::set<u64> ids;
  for (const TraceSpan& s : second.spans) {
    EXPECT_TRUE(ids.insert(s.id).second) << "span id reused: " << s.id;
  }
}

TEST(GoldenTrace, UntracedRunRecordsNothing) {
  // Without a recorder the workload still journals transfers; with no
  // TraceContext installed anywhere, instrumentation must stay silent.
  Cluster cluster(ClusterSpec{.num_nodes = 2, .cores_per_node = 4});
  Metrics metrics;
  WorkflowServer server(cluster, metrics, Box{{0, 0}, {7, 7}});
  auto mismatches = std::make_shared<std::atomic<u64>>(0);
  server.register_app(
      make_app(1, "sim", {8, 8}, {2, 1}),
      make_pattern_producer({{"field"}, 1, /*sequential=*/true, 2}));
  server.register_app(
      make_app(2, "post", {8, 8}, {1, 1}),
      make_pattern_consumer(
          {{"field"}, 1, /*sequential=*/true, 2, mismatches, nullptr}),
      /*consumes_var=*/"field");
  DagSpec dag;
  dag.add_app(1);
  dag.add_app(2);
  dag.add_dependency(1, 2);
  TransferLog log;
  WorkflowOptions options;
  options.transfer_log = &log;
  server.run(dag, options);
  EXPECT_EQ(mismatches->load(), 0u);
  EXPECT_GT(log.size(), 0u);
}

}  // namespace
}  // namespace cods
