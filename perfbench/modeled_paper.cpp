// modeled_paper: run_modeled_scenario over the paper's configurations —
// CAP1 512 -> CAP2 64 and SAP1 512 -> SAP2 128 + SAP3 384, each with all
// six distribution pairs under round-robin and data-centric mapping, plus
// the Fig. 16 ladder up to 8192/1024 cores. Only mapping, the partitioner,
// geometry redistribution, DHT routing and the cost model run here: no
// threads, fibers or buffers, so a runtime optimisation must leave this
// workload unchanged. Its outputs are the figure tables, pinned bit for
// bit. A step is one scenario.
//
// The traced run also replays the stages inside each scenario (comm
// graph, partitioning, client placement, redistribution) on the same
// inputs, in a phase of their own, to split the scenario's time.
#include <set>

#include "geometry/redistribution.hpp"
#include "paper_config.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using namespace cods;

struct NamedScenario {
  std::string name;
  ScenarioConfig config;
};

const char* dist_key(Dist dist) {
  switch (dist) {
    case Dist::kBlocked: return "blocked";
    case Dist::kCyclic: return "cyclic";
    case Dist::kBlockCyclic: return "blockcyclic";
  }
  return "unknown";
}

std::vector<NamedScenario> paper_scenarios(bool smoke) {
  const std::vector<std::pair<Dist, Dist>> patterns = {
      {Dist::kBlocked, Dist::kBlocked},
      {Dist::kCyclic, Dist::kCyclic},
      {Dist::kBlockCyclic, Dist::kBlockCyclic},
      {Dist::kBlocked, Dist::kCyclic},
      {Dist::kBlocked, Dist::kBlockCyclic},
      {Dist::kCyclic, Dist::kBlockCyclic},
  };
  std::vector<NamedScenario> out;
  for (const auto& [pd, cd] : patterns) {
    if (smoke && out.size() >= 4) break;
    const std::string pair =
        std::string(dist_key(pd)) + "-" + dist_key(cd);
    for (const MappingStrategy strategy :
         {MappingStrategy::kRoundRobin, MappingStrategy::kDataCentric}) {
      const std::string mapping =
          strategy == MappingStrategy::kRoundRobin ? "rr" : "dc";
      out.push_back({"cap." + pair + "." + mapping,
                     bench::concurrent_scenario(strategy, pd, cd)});
      out.push_back({"sap." + pair + "." + mapping,
                     bench::sequential_scenario(strategy, pd, cd)});
    }
  }
  for (const bench::ScalePoint& point : bench::weak_scaling_ladder()) {
    if (smoke && point.factor > 2) break;
    const std::string scale = "x" + std::to_string(point.factor);
    ScenarioConfig cc;
    cc.apps = {bench::app(1, "CAP1", point.extents, point.producer_layout),
               bench::app(2, "CAP2", point.extents, point.cap2_layout)};
    cc.couplings = {{1, 2}};
    cc.sequential = false;
    cc.strategy = MappingStrategy::kDataCentric;
    cc.cluster = bench::cluster_for_cores(cc.apps[0].ntasks() +
                                          cc.apps[1].ntasks());
    out.push_back({"fig16.cap." + scale, cc});

    ScenarioConfig sc;
    sc.apps = {bench::app(1, "SAP1", point.extents, point.producer_layout),
               bench::app(2, "SAP2", point.extents, point.sap2_layout),
               bench::app(3, "SAP3", point.extents, point.sap3_layout)};
    sc.couplings = {{1, 2}, {1, 3}};
    sc.sequential = true;
    sc.strategy = MappingStrategy::kDataCentric;
    sc.cluster = bench::cluster_for_cores(sc.apps[0].ntasks());
    out.push_back({"fig16.sap." + scale, sc});
  }
  return out;
}

const AppSpec& find_app(const ScenarioConfig& config, i32 app_id) {
  for (const AppSpec& app : config.apps) {
    if (app.app_id == app_id) return app;
  }
  throw Error("unknown app id " + std::to_string(app_id));
}

class ModeledPaper final : public Workload {
 public:
  explicit ModeledPaper(const Config& config) : smoke_(config.smoke) {}

  Recorder::Clock clock() const override { return Recorder::Clock::kTimeline; }

  void setup() override {
    scenarios_ = paper_scenarios(smoke_);
    results_.assign(scenarios_.size(), ScenarioResult{});
    errors_.assign(scenarios_.size(), std::string());
    marks_.reserve(scenarios_.size() + 1);
  }

  void run() override {
    marks_.push_back(mark_now());
    for (size_t i = 0; i < scenarios_.size(); ++i) {
      try {
        Span span(kMainRank, kScenario);
        results_[i] = run_modeled_scenario(scenarios_[i].config);
      } catch (const std::exception& e) {
        errors_[i] = e.what();
      }
      marks_.push_back(mark_now());
    }
  }

  void collect(const Pins& pins, Batch& batch) override {
    batch.marks = marks_;
    for (size_t i = 0; i < scenarios_.size(); ++i) {
      ++batch.attempted;
      if (!errors_[i].empty()) {
        batch.fail(1, scenarios_[i].name + ": " + errors_[i]);
        continue;
      }
      const ScenarioResult& result = results_[i];
      Outputs out;
      const std::string& name = scenarios_[i].name;
      out.add(name + ".cut_bytes", static_cast<i64>(result.comm_graph_cut_bytes));
      for (const auto& [id, report] : result.apps) {
        const std::string p = name + ".app" + std::to_string(id) + ".";
        out.add(p + "inter_net_bytes", report.inter_net_bytes);
        out.add(p + "inter_shm_bytes", report.inter_shm_bytes);
        out.add(p + "intra_net_bytes", report.intra_net_bytes);
        out.add(p + "intra_shm_bytes", report.intra_shm_bytes);
        out.add(p + "staging_net_bytes", report.staging_net_bytes);
        out.add(p + "retrieve_time", report.retrieve_time);
        out.add(p + "dht_queries", static_cast<i64>(report.dht_queries));
        batch.layer["dht.queries"] += static_cast<double>(report.dht_queries);
      }
      batch.check(pins, name + ".", out, 1);
    }
    if (batch.traced) replay_stages(batch);
  }

 private:
  /// Re-runs the stages of every scenario on its inputs under spans, in a
  /// phase of its own, and checks they agree with the scenario's result.
  void replay_stages(Batch& batch) {
    recorder().begin_phase(Recorder::Clock::kTimeline);
    u64 transfers = 0;
    i64 cut = 0;
    std::vector<std::string> disagree;
    for (size_t i = 0; i < scenarios_.size(); ++i) {
      const ScenarioConfig& config = scenarios_[i].config;
      const Cluster cluster(config.cluster);
      if (config.strategy == MappingStrategy::kDataCentric &&
          !config.sequential) {
        Graph graph;
        {
          Span span(kMainRank, kCommGraph);
          graph = bundle_comm_graph(config.apps);
        }
        const i32 cores = cluster.cores_per_node();
        PartitionOptions options;
        options.max_part_weight = cores;
        options.seed = config.seed;
        PartitionResult partition;
        {
          Span span(kMainRank, kPartitionPlace);
          partition =
              kway_partition(graph, (graph.nvtx + cores - 1) / cores, options);
        }
        cut += partition.edge_cut;
        if (partition.edge_cut != results_[i].comm_graph_cut_bytes) {
          disagree.push_back(scenarios_[i].name + " edge cut");
        }
      }
      if (config.strategy == MappingStrategy::kDataCentric &&
          config.sequential) {
        std::set<i32> consumer_ids;
        for (const CouplingEdge& e : config.couplings) {
          consumer_ids.insert(e.consumer);
        }
        std::vector<AppSpec> producers;
        std::vector<AppSpec> consumers;
        for (const AppSpec& app : config.apps) {
          (consumer_ids.contains(app.app_id) ? consumers : producers)
              .push_back(app);
        }
        Placement placement;
        {
          Span span(kMainRank, kClientPlace);
          const Placement produced = round_robin_placement(cluster, producers);
          std::set<i32> nodes;
          for (const auto& [task, loc] : produced.all()) nodes.insert(loc.node);
          std::vector<std::vector<NodeBytes>> per_app;
          for (const AppSpec& consumer : consumers) {
            std::vector<NodeBytes> bytes(
                static_cast<size_t>(consumer.ntasks()));
            for (const CouplingEdge& edge : config.couplings) {
              if (edge.consumer != consumer.app_id) continue;
              const auto part = consumer_node_bytes(
                  find_app(config, edge.producer), produced, consumer);
              for (size_t r = 0; r < part.size(); ++r) {
                for (const auto& [node, b] : part[r]) bytes[r][node] += b;
              }
            }
            per_app.push_back(std::move(bytes));
          }
          placement = client_data_centric_placement(
              cluster, consumers, per_app,
              std::vector<i32>(nodes.begin(), nodes.end()));
        }
        for (const AppSpec& consumer : consumers) {
          for (i32 r = 0; r < consumer.ntasks(); ++r) {
            const TaskId task{consumer.app_id, r};
            const CoreLoc a = placement.loc(task);
            const CoreLoc b = results_[i].placements.at(consumer.app_id).loc(task);
            if (a.node != b.node || a.core != b.core) {
              disagree.push_back(scenarios_[i].name + " client placement");
              r = consumer.ntasks();
            }
          }
        }
      }
      for (const CouplingEdge& edge : config.couplings) {
        Span span(kMainRank, kRedistribution);
        transfers += redistribution_volumes(find_app(config, edge.producer).dec,
                                            find_app(config, edge.consumer).dec)
                         .size();
      }
    }
    const PhaseTotals stages = recorder().end_phase();
    for (const std::string& what : disagree) {
      batch.fail(1, "stage replay disagrees with the scenario: " + what);
    }
    batch.layer["workflow.comm_graph.busy_s"] += stages.kinds[kCommGraph].busy;
    batch.layer["partition.place.busy_s"] += stages.kinds[kPartitionPlace].busy;
    batch.layer["workflow.client_place.busy_s"] +=
        stages.kinds[kClientPlace].busy;
    batch.layer["geometry.redistribution.busy_s"] +=
        stages.kinds[kRedistribution].busy;
    batch.layer["geometry.transfers"] += static_cast<double>(transfers);
    batch.layer["partition.cut_bytes"] += static_cast<double>(cut);
  }

  bool smoke_;
  std::vector<NamedScenario> scenarios_;
  std::vector<ScenarioResult> results_;
  std::vector<std::string> errors_;
  std::vector<Mark> marks_;  ///< before the first scenario, after each
};

}  // namespace

std::unique_ptr<Workload> make_modeled_paper(const Config& config) {
  return std::make_unique<ModeledPaper>(config);
}

}  // namespace perfbench
