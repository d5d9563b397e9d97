// End-to-end fault-injection tests (docs/FAULT_MODEL.md): transient faults
// are retried transparently, a node crash mid-wave triggers checkpoint
// restore + re-mapping + re-execution, and identical fault specs replay to
// identical traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <tuple>

#include "apps/synthetic.hpp"
#include "workflow/engine.hpp"

#include "support/apps.hpp"

namespace cods {
namespace {

using testing::make_app;


RetryPolicy fast_retry() {
  RetryPolicy retry;
  retry.max_retries = 50;  // transients essentially never exhaust
  retry.op_timeout = std::chrono::seconds(2);
  return retry;
}

/// Sequential producer -> consumer workflow under one fault spec.
/// Returns observables for determinism comparison.
struct RunResult {
  u64 mismatches = 0;
  std::string trace;
  u64 retries = 0;
  u64 failovers = 0;
  u64 recovery_bytes = 0;
  u64 net_bytes = 0;
  std::vector<WaveReport> reports;
};

RunResult run_sequential_workflow(const FaultSpec& spec) {
  Cluster cluster(ClusterSpec{.num_nodes = 4, .cores_per_node = 4});
  Metrics metrics;
  WorkflowServer server(cluster, metrics, Box{{0, 0}, {15, 15}});
  auto mismatches = std::make_shared<std::atomic<u64>>(0);
  server.register_app(make_app(1, "producer", {16, 16}, {4, 2}),
                      make_pattern_producer({{"field"}, 1, true, 11}));
  server.register_app(
      make_app(2, "consumer", {16, 16}, {2, 2}),
      make_pattern_consumer({{"field"}, 1, true, 11, mismatches, nullptr}),
      /*consumes_var=*/"field");
  DagSpec dag;
  dag.add_app(1);
  dag.add_app(2);
  dag.add_dependency(1, 2);

  FaultInjector injector(spec);
  WorkflowOptions options;
  options.fault = &injector;
  options.retry = fast_retry();
  server.run(dag, options);

  RunResult result;
  result.mismatches = mismatches->load();
  result.trace = injector.trace_string();
  result.retries = metrics.total_count("fault.retries");
  result.failovers = metrics.total_count("fault.failovers");
  result.recovery_bytes = metrics.total_count("fault.recovery_bytes");
  result.net_bytes = metrics.total_net_bytes();
  result.reports = server.wave_reports();
  return result;
}

TEST(FaultRecovery, TransientFaultsRetriedToCompletion) {
  FaultSpec spec;
  spec.seed = 3;
  spec.p_transfer = 0.05;
  spec.p_rpc = 0.05;
  spec.p_send = 0.05;
  const RunResult r = run_sequential_workflow(spec);
  EXPECT_EQ(r.mismatches, 0u);
  EXPECT_GT(r.retries, 0u);  // faults did happen...
  ASSERT_EQ(r.reports.size(), 2u);
  for (const WaveReport& report : r.reports) {
    EXPECT_EQ(report.attempts, 1);  // ...but no wave had to be re-run
    EXPECT_TRUE(report.failed_nodes.empty());
  }
}

TEST(FaultRecovery, NodeCrashMidWaveRecovers) {
  // Node 1 (half of the producer's stored data) dies at the start of the
  // consumer wave: the engine must drop it, restore its objects from the
  // wave-entry checkpoint onto survivors, re-map and re-execute — and the
  // consumer must still see byte-correct data.
  FaultSpec spec;
  spec.seed = 5;
  spec.crashes.push_back(NodeCrash{/*wave=*/1, /*node=*/1, /*after_ops=*/0});
  const RunResult r = run_sequential_workflow(spec);
  EXPECT_EQ(r.mismatches, 0u);
  ASSERT_EQ(r.reports.size(), 2u);
  EXPECT_EQ(r.reports[0].attempts, 1);  // producer wave was clean

  const WaveReport& wave1 = r.reports[1];
  EXPECT_EQ(wave1.attempts, 2);
  EXPECT_EQ(wave1.failed_nodes, (std::vector<i32>{1}));
  EXPECT_GT(wave1.failed_tasks, 0);
  EXPECT_GT(wave1.reexecuted_tasks, 0);
  // Producer data: 16x16 cells x 8 bytes, half of it homed on node 1.
  EXPECT_EQ(wave1.recovered_bytes, 16u * 16u * 8u / 2u);
  EXPECT_EQ(r.failovers, 1u);
  EXPECT_EQ(r.recovery_bytes, wave1.recovered_bytes);
}

TEST(FaultRecovery, CrashInFirstWaveReproducesLostPuts) {
  // The producer's own wave is hit: tasks on the dead node never stored
  // their regions, so the engine re-executes the producer on survivors and
  // the consumer wave must still find full coverage.
  FaultSpec spec;
  spec.seed = 9;
  spec.crashes.push_back(NodeCrash{/*wave=*/0, /*node=*/0, /*after_ops=*/0});
  const RunResult r = run_sequential_workflow(spec);
  EXPECT_EQ(r.mismatches, 0u);
  ASSERT_EQ(r.reports.size(), 2u);
  EXPECT_EQ(r.reports[0].attempts, 2);
  EXPECT_EQ(r.reports[0].failed_nodes, (std::vector<i32>{0}));
  EXPECT_GT(r.reports[0].reexecuted_tasks, 0);
  EXPECT_EQ(r.reports[1].attempts, 1);
}

TEST(FaultRecovery, IdenticalSpecReplaysIdentically) {
  // The replay acceptance criterion: same {seed, fault spec} => identical
  // failure/retry/recovery trace and identical traffic, run to run.
  FaultSpec spec;
  spec.seed = 17;
  spec.p_transfer = 0.03;
  spec.p_send = 0.03;
  spec.crashes.push_back(NodeCrash{/*wave=*/1, /*node=*/1, /*after_ops=*/0});
  const RunResult a = run_sequential_workflow(spec);
  const RunResult b = run_sequential_workflow(spec);
  EXPECT_EQ(a.mismatches, 0u);
  EXPECT_EQ(b.mismatches, 0u);
  EXPECT_FALSE(a.trace.empty());
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_EQ(a.recovery_bytes, b.recovery_bytes);
  EXPECT_EQ(a.net_bytes, b.net_bytes);
}

TEST(FaultRecovery, FaultFreeRunIsByteIdenticalToNoInjector) {
  // Zero-overhead-off acceptance at the engine level: attaching an
  // injector whose schedule is empty must not change a single byte of
  // accounted traffic.
  const RunResult with_inactive = run_sequential_workflow(FaultSpec{});
  EXPECT_EQ(with_inactive.mismatches, 0u);
  EXPECT_EQ(with_inactive.retries, 0u);
  EXPECT_TRUE(with_inactive.trace.empty());

  Cluster cluster(ClusterSpec{.num_nodes = 4, .cores_per_node = 4});
  Metrics metrics;
  WorkflowServer server(cluster, metrics, Box{{0, 0}, {15, 15}});
  auto mismatches = std::make_shared<std::atomic<u64>>(0);
  server.register_app(make_app(1, "producer", {16, 16}, {4, 2}),
                      make_pattern_producer({{"field"}, 1, true, 11}));
  server.register_app(
      make_app(2, "consumer", {16, 16}, {2, 2}),
      make_pattern_consumer({{"field"}, 1, true, 11, mismatches, nullptr}),
      "field");
  DagSpec dag;
  dag.add_app(1);
  dag.add_app(2);
  dag.add_dependency(1, 2);
  server.run(dag);  // no injector at all
  EXPECT_EQ(mismatches->load(), 0u);
  EXPECT_EQ(metrics.total_net_bytes(), with_inactive.net_bytes);
}

TEST(FaultRecovery, UnrecoverableWhenAllNodesNeededDie) {
  // Recovery budget: with max_wave_attempts = 1, a node crash is terminal
  // and the original task error surfaces.
  Cluster cluster(ClusterSpec{.num_nodes = 4, .cores_per_node = 4});
  Metrics metrics;
  WorkflowServer server(cluster, metrics, Box{{0, 0}, {15, 15}});
  auto mismatches = std::make_shared<std::atomic<u64>>(0);
  server.register_app(make_app(1, "producer", {16, 16}, {4, 2}),
                      make_pattern_producer({{"field"}, 1, true, 11}));
  server.register_app(
      make_app(2, "consumer", {16, 16}, {2, 2}),
      make_pattern_consumer({{"field"}, 1, true, 11, mismatches, nullptr}),
      "field");
  DagSpec dag;
  dag.add_app(1);
  dag.add_app(2);
  dag.add_dependency(1, 2);

  FaultSpec spec;
  spec.crashes.push_back(NodeCrash{/*wave=*/1, /*node=*/1, /*after_ops=*/0});
  FaultInjector injector(spec);
  WorkflowOptions options;
  options.fault = &injector;
  options.retry = fast_retry();
  options.retry.max_wave_attempts = 1;
  EXPECT_THROW(server.run(dag, options), Error);
}

/// The vmpi send path under transient faults: a 2x2 heat stencil, whose
/// payload traffic is all sends (its halo exchanges, plus the engine's
/// communicator split as app 0). The replay tests above only
/// compare two runs with each other; this pins absolute values, so a
/// changed fault actor, backoff jitter key, traffic class or flow
/// direction on the send path shows up as a literal mismatch.
struct SendPin {
  std::string trace;
  u64 retries = 0;
  u64 exhausted = 0;
  double backoff = 0.0;
  ByteCounters intra;
  size_t journal_records = 0;
  std::string journal;  ///< sorted canonical lines (the multiset)
};

SendPin run_send_faults(ExecMode mode) {
  Cluster cluster(ClusterSpec{.num_nodes = 2, .cores_per_node = 2});
  Metrics metrics;
  WorkflowServer server(cluster, metrics, Box{{0, 0}, {15, 15}});
  server.register_app(make_app(1, "stencil", {16, 16}, {2, 2}),
                      make_stencil_simulation({"temperature", 2, 0.1}));
  DagSpec dag;
  dag.add_app(1);
  FaultSpec spec;
  spec.seed = 23;
  spec.p_send = 0.3;
  FaultInjector injector(spec);
  TransferLog journal;
  WorkflowOptions options;
  options.fault = &injector;
  options.retry = fast_retry();
  options.transfer_log = &journal;
  options.exec_mode = mode;
  server.run(dag, options);

  SendPin pin;
  pin.trace = injector.trace_string();
  pin.retries = metrics.total_count("fault.retries");
  pin.exhausted = metrics.total_count("fault.exhausted");
  for (const i32 app : {0, 1}) pin.backoff += metrics.time(app, "fault.backoff");
  pin.intra = metrics.total(TrafficClass::kIntraApp);
  std::vector<std::string> lines;
  for (const TransferRecord& r : journal.snapshot()) {
    char line[128];
    std::snprintf(line, sizeof(line), "%d:%d>%d:%d %llu %d %d %d %a\n",
                  r.src.node, r.src.core, r.dst.node, r.dst.core,
                  static_cast<unsigned long long>(r.bytes),
                  static_cast<int>(r.via_network), static_cast<int>(r.cls),
                  r.app_id, r.model_time);
    lines.emplace_back(line);
  }
  std::sort(lines.begin(), lines.end());
  pin.journal_records = lines.size();
  for (const std::string& line : lines) pin.journal += line;
  return pin;
}

u64 fnv1a(const std::string& text) {
  u64 h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(FaultRecovery, SendPathFaultAccountingIsPinned) {
  for (const ExecMode mode : {ExecMode::kSimulate, ExecMode::kPooled}) {
    const SendPin pin = run_send_faults(mode);
    EXPECT_EQ(pin.trace,
              "wave 0 transient send actor 0 op 1\n"
              "wave 0 transient send actor 0 op 3\n"
              "wave 0 transient send actor 0 op 8\n"
              "wave 0 transient send actor 0 op 10\n"
              "wave 0 transient send actor 0 op 11\n"
              "wave 0 transient send actor 0 op 12\n"
              "wave 0 transient send actor 0 op 14\n"
              "wave 0 transient send actor 1 op 1\n"
              "wave 0 transient send actor 1 op 3\n"
              "wave 0 transient send actor 1 op 7\n"
              "wave 0 transient send actor 2 op 2\n"
              "wave 0 transient send actor 2 op 6\n"
              "wave 0 transient send actor 3 op 1\n");
    EXPECT_EQ(pin.retries, 13u);
    EXPECT_EQ(pin.exhausted, 0u);
    // Metrics shards sum in thread order under kPooled: equal to the
    // last bits only up to summation order.
    EXPECT_DOUBLE_EQ(pin.backoff, 0.001865956743362439);
    EXPECT_EQ(pin.intra, (ByteCounters{888, 788, 34}));
    EXPECT_EQ(pin.journal_records, 34u);
    EXPECT_EQ(fnv1a(pin.journal), 10996028992080168340ull) << pin.journal;
  }
}

TEST(FaultRecovery, LaterRunWithoutInjectorIsFaultFree) {
  // The injector and the journal belong to one run(): a later run with
  // default options on the same server must neither inject faults nor
  // keep journaling into the earlier run's log.
  Cluster cluster(ClusterSpec{.num_nodes = 4, .cores_per_node = 4});
  Metrics metrics;
  WorkflowServer server(cluster, metrics, Box{{0, 0}, {15, 15}});
  auto mismatches = std::make_shared<std::atomic<u64>>(0);
  DagSpec first;
  DagSpec second;
  for (const auto& [producer, var, dag] :
       {std::tuple{1, "field", &first}, std::tuple{3, "field2", &second}}) {
    server.register_app(make_app(producer, {16, 16}, {4, 2}),
                        make_pattern_producer({{var}, 1, true, 11}));
    server.register_app(
        make_app(producer + 1, {16, 16}, {2, 2}),
        make_pattern_consumer({{var}, 1, true, 11, mismatches, nullptr}),
        var);
    dag->add_app(producer);
    dag->add_app(producer + 1);
    dag->add_dependency(producer, producer + 1);
  }

  FaultSpec spec;
  spec.seed = 3;
  spec.p_transfer = 0.3;
  spec.p_rpc = 0.3;
  spec.p_send = 0.3;
  FaultInjector injector(spec);
  TransferLog journal;
  WorkflowOptions options;
  options.fault = &injector;
  options.retry = fast_retry();
  options.transfer_log = &journal;
  server.run(first, options);
  const u64 retries = metrics.total_count("fault.retries");
  const size_t faults = injector.trace().size();
  const size_t journaled = journal.size();
  ASSERT_GT(retries, 0u);
  ASSERT_GT(journaled, 0u);

  server.run(second);
  EXPECT_EQ(mismatches->load(), 0u);
  EXPECT_EQ(injector.trace().size(), faults);
  EXPECT_EQ(metrics.total_count("fault.retries"), retries);
  EXPECT_EQ(journal.size(), journaled);
}
}  // namespace
}  // namespace cods
