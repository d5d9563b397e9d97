// Microbenchmarks (google-benchmark) for the framework's hot paths:
// Hilbert encode/decode, box->span decomposition, M x N redistribution
// volume computation, batch pricing in the cost model, multilevel
// partitioning of grids and of the paper's coupling bundles, whole
// modelled scenarios, live CoDS put/get, DHT owner lookups, and the
// Chrome trace export, trace analysis and wfgen oracles.
#include <benchmark/benchmark.h>

#include "core/cods.hpp"
#include "core/dht.hpp"
#include "geometry/redistribution.hpp"
#include "partition/partitioner.hpp"
#include "platform/cost_model.hpp"
#include "sfc/curve.hpp"
#include "trace/critical_path.hpp"
#include "trace/export.hpp"
#include "paper_config.hpp"
#include "wfgen/enact.hpp"
#include "wfgen/oracle.hpp"
#include "wfgen/wfgen.hpp"
#include "workflow/mapping.hpp"
#include "workflow/scenario.hpp"

namespace {

using namespace cods;

void BM_HilbertEncode3D(benchmark::State& state) {
  const SfcCurve curve(CurveKind::kHilbert, 3, 10);
  u64 i = 0;
  for (auto _ : state) {
    const Point p{static_cast<i64>(i % 1024),
                  static_cast<i64>((i * 7) % 1024),
                  static_cast<i64>((i * 13) % 1024)};
    benchmark::DoNotOptimize(curve.encode(p));
    ++i;
  }
}
BENCHMARK(BM_HilbertEncode3D);

void BM_HilbertDecode3D(benchmark::State& state) {
  const SfcCurve curve(CurveKind::kHilbert, 3, 10);
  u64 i = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve.decode(i % curve.size()));
    i = i * 2862933555777941757ULL + 3037000493ULL;
  }
}
BENCHMARK(BM_HilbertDecode3D);

// Argument: min_side_log2. 0 is the exact decomposition the runtime DHT
// uses; 7 (bits - 3) is the granularity of the modelled DHT's owner
// lookups in run_modeled_scenario.
void BM_BoxSpans(benchmark::State& state) {
  const SfcCurve curve(CurveKind::kHilbert, 3, 10);
  const Box query{{100, 200, 300}, {227, 327, 427}};
  const int granularity = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(box_spans(curve, query, granularity));
  }
}
BENCHMARK(BM_BoxSpans)->Arg(0)->Arg(7)->Unit(benchmark::kMicrosecond);

// CodsDht::owner_nodes on the live put/get path. Argument 0: the
// sim_weak perfbench rung, aligned 2x2-cell producer boxes on the 512^2
// Hilbert grid over 5,462 nodes (65,536 ranks on 12-core nodes); 1: a
// wfgen-sized block of a 20^3 domain (32^3 grid) over 6 nodes.
void BM_DhtOwnerNodes(benchmark::State& state) {
  const bool weak = state.range(0) == 0;
  const Cluster cluster(ClusterSpec{.num_nodes = weak ? 5462 : 6,
                                    .cores_per_node = 12});
  const CodsDht dht(cluster, weak ? SfcCurve(CurveKind::kHilbert, 2, 9)
                                  : SfcCurve(CurveKind::kHilbert, 3, 5));
  std::vector<Box> boxes;
  if (weak) {
    for (i64 y = 0; y < 512; y += 2) {
      for (i64 x = 0; x < 512; x += 2) {
        boxes.push_back(Box{{y, x}, {y + 1, x + 1}});
      }
    }
  } else {
    boxes.push_back(Box{{5, 0, 10}, {14, 9, 19}});
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dht.owner_nodes(boxes[i]));
    if (++i == boxes.size()) i = 0;
  }
  state.SetLabel(weak ? "sim_weak 2x2 on 512^2, 5462 nodes"
                      : "wfgen 10^3 on 32^3, 6 nodes");
}
BENCHMARK(BM_DhtOwnerNodes)->Arg(0)->Arg(1);

// The Fig. 16 base rung's concurrent coupling with a cyclic consumer:
// 512 blocked producer tasks -> 64 element-cyclic consumer tasks on
// 12-core nodes, so every consumer pulls from every producer and each
// (src node, dst node) pair carries on the order of a hundred flows.
void BM_BatchTimeRepeatedPairs(benchmark::State& state) {
  const Decomposition src({1024, 1024, 1024}, {8, 8, 8}, Dist::kBlocked);
  const Decomposition dst({1024, 1024, 1024}, {4, 4, 4}, Dist::kCyclic);
  const Cluster cluster(ClusterSpec{.num_nodes = 48, .cores_per_node = 12});
  const auto loc = [](i32 task) { return CoreLoc{task / 12, task % 12}; };
  std::vector<Flow> flows;
  for (const TransferVolume& t : redistribution_volumes(src, dst)) {
    flows.push_back(Flow{loc(t.src_rank), loc(src.ntasks() + t.dst_rank),
                         t.cells * 8});
  }
  const CostModel model(cluster);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.batch_time(flows));
  }
  state.SetLabel(std::to_string(flows.size()) + " flows");
}
BENCHMARK(BM_BatchTimeRepeatedPairs)->Unit(benchmark::kMicrosecond);

void BM_RedistributionVolumes(benchmark::State& state) {
  const i32 scale = static_cast<i32>(state.range(0));
  const Decomposition src({1024, 1024, 1024}, {scale, 8, 8}, Dist::kBlocked);
  const Decomposition dst({1024, 1024, 1024}, {scale / 2, 4, 4},
                          Dist::kBlocked);
  for (auto _ : state) {
    benchmark::DoNotOptimize(redistribution_volumes(src, dst));
  }
  state.SetLabel(std::to_string(src.ntasks()) + "->" +
                 std::to_string(dst.ntasks()) + " tasks");
}
BENCHMARK(BM_RedistributionVolumes)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMicrosecond);

void BM_KwayPartition(benchmark::State& state) {
  const i32 side = static_cast<i32>(state.range(0));
  std::vector<std::tuple<i32, i32, i64>> edges;
  for (i32 y = 0; y < side; ++y) {
    for (i32 x = 0; x < side; ++x) {
      const i32 v = y * side + x;
      if (x + 1 < side) edges.emplace_back(v, v + 1, 1);
      if (y + 1 < side) edges.emplace_back(v, v + side, 1);
    }
  }
  const Graph g = Graph::from_edges(side * side, edges);
  PartitionOptions options;
  options.max_part_weight = 12;
  const i32 nparts = (g.nvtx + 11) / 12;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kway_partition(g, nparts, options));
  }
  state.SetLabel(std::to_string(g.nvtx) + " vertices");
}
BENCHMARK(BM_KwayPartition)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);

// The server-side mapping's partition of a coupling bundle on 12-core
// nodes. Argument 0: Fig. 8 CAP1 (8x8x8 blocked) -> CAP2 (4x4x4 cyclic),
// a dense graph; 1: the Fig. 16 x8 rung, CAP1 (16^3 blocked) -> CAP2 (8^3
// blocked), 4,608 tasks on 384 nodes.
void BM_PartitionBundle(benchmark::State& state) {
  const bool x8 = state.range(0) == 1;
  const std::vector<i64> extents =
      x8 ? std::vector<i64>{2048, 2048, 2048}
         : std::vector<i64>{1024, 1024, 1024};
  auto app = [&extents](i32 id, i32 side, Dist dist) {
    AppSpec spec;
    spec.app_id = id;
    spec.dec = Decomposition(extents, {side, side, side}, dist, 64);
    spec.elem_size = 8;
    return spec;
  };
  const Graph g = bundle_comm_graph(
      {app(1, x8 ? 16 : 8, Dist::kBlocked),
       app(2, x8 ? 8 : 4, x8 ? Dist::kBlocked : Dist::kCyclic)});
  PartitionOptions options;
  options.max_part_weight = 12;
  const i32 nparts = (g.nvtx + 11) / 12;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kway_partition(g, nparts, options));
  }
  state.SetLabel(std::string(x8 ? "fig16 x8 blocked" : "fig08 cyclic") + ", " +
                 std::to_string(g.nvtx) + " vertices");
}
BENCHMARK(BM_PartitionBundle)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// One run_modeled_scenario: placement, redistribution, retrieve pricing,
// DHT lookups and halo accounting. Argument 0: the sequential SAP1
// blocked -> SAP2 + SAP3 cyclic scenario under client-side data-centric
// mapping (262,144 coupled volumes); 1: the Fig. 16 x8 sequential rung
// (4,096 -> 1,024 + 3,072 tasks, blocked).
void BM_ModeledScenario(benchmark::State& state) {
  ScenarioConfig config;
  if (state.range(0) == 0) {
    config = bench::sequential_scenario(MappingStrategy::kDataCentric,
                                        Dist::kBlocked, Dist::kCyclic);
  } else {
    const bench::ScalePoint point = bench::weak_scaling_ladder()[3];
    config.apps = {bench::app(1, "SAP1", point.extents, point.producer_layout),
                   bench::app(2, "SAP2", point.extents, point.sap2_layout),
                   bench::app(3, "SAP3", point.extents, point.sap3_layout)};
    config.couplings = {{1, 2}, {1, 3}};
    config.sequential = true;
    config.strategy = MappingStrategy::kDataCentric;
    config.cluster = bench::cluster_for_cores(config.apps[0].ntasks());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_modeled_scenario(config));
  }
  state.SetLabel(state.range(0) == 0 ? "sap blocked -> cyclic, dc"
                                     : "fig16.sap.x8");
}
BENCHMARK(BM_ModeledScenario)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_CodsPutGetRoundTrip(benchmark::State& state) {
  Cluster cluster(ClusterSpec{.num_nodes = 4, .cores_per_node = 4});
  Metrics metrics;
  CodsSpace space(cluster, metrics, Box{{0, 0, 0}, {63, 63, 63}});
  CodsClient producer(space, Endpoint{0, {0, 0}}, 1);
  CodsClient consumer(space, Endpoint{8, {2, 0}}, 2);
  const Box box{{0, 0, 0}, {31, 31, 31}};
  std::vector<std::byte> data(box_bytes(box, 8));
  std::vector<std::byte> out(box_bytes(box, 8));
  i32 version = 0;
  for (auto _ : state) {
    producer.put_seq("bench", version, box, data, 8);
    consumer.get_seq("bench", version, box, out, 8);
    space.retire("bench", version);
    ++version;
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(data.size()));
}
BENCHMARK(BM_CodsPutGetRoundTrip)->Unit(benchmark::kMicrosecond);

/// wfgen seeds 1-20 enacted under kSimulate, as the wfgen_faults
/// perfbench workload enacts them; built once, shared by the trace
/// benches below.
struct EnactedScenario {
  wfgen::ScenarioSpec spec;
  wfgen::EnactResult run;
};

const std::vector<EnactedScenario>& wfgen_runs() {
  static const std::vector<EnactedScenario> runs = [] {
    std::vector<EnactedScenario> out;
    for (u64 seed = 1; seed <= 20; ++seed) {
      wfgen::ScenarioSpec spec = wfgen::generate(seed);
      wfgen::EnactResult run =
          wfgen::enact(spec, {.mode = ExecMode::kSimulate});
      out.push_back({std::move(spec), std::move(run)});
    }
    return out;
  }();
  return runs;
}

// to_chrome_trace over the span streams of wfgen seeds 1-20.
void BM_ChromeExport(benchmark::State& state) {
  const auto& runs = wfgen_runs();
  i64 bytes = 0;
  i64 spans = 0;
  for (auto _ : state) {
    for (const EnactedScenario& s : runs) {
      std::string json = to_chrome_trace(s.run.spans);
      benchmark::DoNotOptimize(json);
      bytes += static_cast<i64>(json.size());
      spans += static_cast<i64>(s.run.spans.size());
    }
  }
  state.SetBytesProcessed(bytes);
  state.SetItemsProcessed(spans);
}
BENCHMARK(BM_ChromeExport)->Unit(benchmark::kMillisecond);

// analyze_trace over the same span streams.
void BM_AnalyzeTrace(benchmark::State& state) {
  const auto& runs = wfgen_runs();
  i64 spans = 0;
  for (auto _ : state) {
    for (const EnactedScenario& s : runs) {
      TraceAnalysis analysis = analyze_trace(s.run.spans);
      benchmark::DoNotOptimize(analysis);
      spans += static_cast<i64>(s.run.spans.size());
    }
  }
  state.SetItemsProcessed(spans);
}
BENCHMARK(BM_AnalyzeTrace)->Unit(benchmark::kMillisecond);

// The full wfgen oracle suite over the same enacted scenarios.
void BM_CheckOracles(benchmark::State& state) {
  const auto& runs = wfgen_runs();
  i64 spans = 0;
  for (auto _ : state) {
    for (const EnactedScenario& s : runs) {
      wfgen::OracleReport report = wfgen::check_oracles(s.spec, s.run);
      if (!report.ok()) {
        state.SkipWithError(report.to_string().c_str());
        return;
      }
      spans += static_cast<i64>(s.run.spans.size());
    }
  }
  state.SetItemsProcessed(spans);
}
BENCHMARK(BM_CheckOracles)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
