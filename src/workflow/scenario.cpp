#include "workflow/scenario.hpp"

#include <algorithm>
#include <set>

#include "geometry/halo.hpp"
#include "geometry/redistribution.hpp"

namespace cods {

namespace {

const AppSpec& find_app(const ScenarioConfig& config, i32 app_id) {
  for (const AppSpec& app : config.apps) {
    if (app.app_id == app_id) return app;
  }
  fail("unknown app id in coupling: " + std::to_string(app_id));
}

/// Apps that only produce (no incoming coupling).
std::vector<AppSpec> producer_apps(const ScenarioConfig& config) {
  std::set<i32> consumers;
  for (const CouplingEdge& e : config.couplings) consumers.insert(e.consumer);
  std::vector<AppSpec> out;
  for (const AppSpec& app : config.apps) {
    if (!consumers.contains(app.app_id)) out.push_back(app);
  }
  return out;
}

std::vector<AppSpec> consumer_apps(const ScenarioConfig& config) {
  std::set<i32> consumers;
  for (const CouplingEdge& e : config.couplings) consumers.insert(e.consumer);
  std::vector<AppSpec> out;
  for (const AppSpec& app : config.apps) {
    if (consumers.contains(app.app_id)) out.push_back(app);
  }
  return out;
}

}  // namespace

u64 ScenarioResult::total_inter_net() const {
  u64 total = 0;
  for (const auto& [id, report] : apps) total += report.inter_net_bytes;
  return total;
}

u64 ScenarioResult::total_intra_net() const {
  u64 total = 0;
  for (const auto& [id, report] : apps) total += report.intra_net_bytes;
  return total;
}

ScenarioResult run_modeled_scenario(const ScenarioConfig& config) {
  CODS_REQUIRE(!config.apps.empty(), "scenario needs applications");
  const bool staging = config.sharing == SharingMode::kStagingArea;
  CODS_REQUIRE(!staging || config.staging_nodes >= 1,
               "staging mode needs staging_nodes >= 1");
  // Staging mode appends dedicated nodes after the compute nodes; all
  // mapping strategies operate on the compute prefix only.
  ClusterSpec spec = config.cluster;
  const i32 first_staging_node = spec.num_nodes;
  if (staging) spec.num_nodes += config.staging_nodes;
  const Cluster cluster(spec);
  const CostModel model(cluster, config.cost);
  ScenarioResult result;

  const auto producers = producer_apps(config);
  const auto consumers = consumer_apps(config);

  // Each coupled pair's producer -> consumer volumes, computed once and
  // shared by the bundle graph, the client node bytes and the flows.
  CoupledVolumes volumes;
  for (const CouplingEdge& edge : config.couplings) {
    const std::pair key{edge.producer, edge.consumer};
    if (volumes.contains(key)) continue;
    volumes.emplace(
        key, redistribution_volumes(find_app(config, edge.producer).dec,
                                    find_app(config, edge.consumer).dec));
  }

  // ----- Placement -----
  if (!config.sequential) {
    // Concurrent bundle: all apps scheduled together.
    if (config.strategy == MappingStrategy::kRoundRobin) {
      const Placement all = round_robin_placement(cluster, config.apps);
      for (const AppSpec& app : config.apps) {
        Placement p;
        for (i32 r = 0; r < app.ntasks(); ++r) {
          p.assign(TaskId{app.app_id, r}, all.loc(TaskId{app.app_id, r}));
        }
        result.placements[app.app_id] = std::move(p);
      }
    } else {
      const ServerMappingResult server =
          server_data_centric_placement(cluster, config.apps, volumes,
                                        config.seed);
      result.comm_graph_cut_bytes = server.edge_cut_bytes;
      for (const AppSpec& app : config.apps) {
        Placement p;
        for (i32 r = 0; r < app.ntasks(); ++r) {
          p.assign(TaskId{app.app_id, r},
                   server.placement.loc(TaskId{app.app_id, r}));
        }
        result.placements[app.app_id] = std::move(p);
      }
    }
  } else {
    // Sequential: producers run first (block placement from core 0); the
    // consumers are later launched on the same set of nodes.
    const Placement prod_placement = round_robin_placement(cluster, producers);
    std::set<i32> prod_nodes;
    for (const AppSpec& app : producers) {
      Placement p;
      for (i32 r = 0; r < app.ntasks(); ++r) {
        const CoreLoc loc = prod_placement.loc(TaskId{app.app_id, r});
        p.assign(TaskId{app.app_id, r}, loc);
        prod_nodes.insert(loc.node);
      }
      result.placements[app.app_id] = std::move(p);
    }
    if (config.strategy == MappingStrategy::kRoundRobin) {
      const Placement cons_placement =
          round_robin_placement(cluster, consumers);
      for (const AppSpec& app : consumers) {
        Placement p;
        for (i32 r = 0; r < app.ntasks(); ++r) {
          p.assign(TaskId{app.app_id, r},
                   cons_placement.loc(TaskId{app.app_id, r}));
        }
        result.placements[app.app_id] = std::move(p);
      }
    } else {
      // Client-side data-centric mapping against stored data locations.
      std::vector<std::vector<NodeBytes>> per_app;
      for (const AppSpec& consumer : consumers) {
        std::vector<NodeBytes> bytes(static_cast<size_t>(consumer.ntasks()));
        for (const CouplingEdge& edge : config.couplings) {
          if (edge.consumer != consumer.app_id) continue;
          const AppSpec& producer = find_app(config, edge.producer);
          const auto part = consumer_node_bytes(
              volumes.at({producer.app_id, consumer.app_id}), producer,
              result.placements.at(producer.app_id), consumer);
          for (i32 r = 0; r < consumer.ntasks(); ++r) {
            for (const auto& [node, b] : part[static_cast<size_t>(r)]) {
              bytes[static_cast<size_t>(r)][node] += b;
            }
          }
        }
        per_app.push_back(std::move(bytes));
      }
      const std::vector<i32> allowed(prod_nodes.begin(), prod_nodes.end());
      const Placement cons_placement = client_data_centric_placement(
          cluster, consumers, per_app, allowed);
      for (const AppSpec& app : consumers) {
        Placement p;
        for (i32 r = 0; r < app.ntasks(); ++r) {
          p.assign(TaskId{app.app_id, r},
                   cons_placement.loc(TaskId{app.app_id, r}));
        }
        result.placements[app.app_id] = std::move(p);
      }
    }
  }

  // ----- Inter-application coupled-data flows -----
  // In staging mode every coupled region is hashed (SFC interval ownership)
  // onto a staging node: the producer ships it there first, the consumer
  // pulls it from there — two movements, never in-node.
  std::optional<SfcCurve> staging_curve;
  u64 staging_stride = 0;
  if (staging) {
    const Box domain = config.apps.front().dec.domain_box();
    i64 max_extent = 1;
    for (int d = 0; d < domain.ndim(); ++d) {
      max_extent = std::max(max_extent, domain.extent(d));
    }
    staging_curve.emplace(CurveKind::kHilbert, domain.ndim(),
                          SfcCurve::bits_for_extent(max_extent));
    staging_stride =
        (staging_curve->size() + static_cast<u64>(config.staging_nodes) - 1) /
        static_cast<u64>(config.staging_nodes);
  }
  auto staging_node_for = [&](const Decomposition& dec, i32 rank) -> i32 {
    // Hash the producer task's region anchor onto the staging interval map.
    const Point g = dec.rank_to_grid(rank);
    Point anchor = Point::zeros(dec.ndim());
    for (int d = 0; d < dec.ndim(); ++d) {
      const auto segs = dec.owned_segments_dim(d, static_cast<i32>(g[d]), 0,
                                               dec.dim(d).extent - 1);
      anchor[d] = segs.empty() ? 0 : segs.front().first;
    }
    const u64 index = staging_curve->encode(anchor);
    const i32 offset =
        static_cast<i32>(std::min<u64>(index / staging_stride,
                                       static_cast<u64>(config.staging_nodes) - 1));
    return first_staging_node + offset;
  };

  std::map<i32, std::vector<Flow>> consumer_flows;
  {
    std::map<i32, size_t> flow_count;
    for (const CouplingEdge& edge : config.couplings) {
      flow_count[edge.consumer] +=
          volumes.at({edge.producer, edge.consumer}).size();
    }
    for (const auto& [app_id, count] : flow_count) {
      consumer_flows[app_id].reserve(count);
    }
  }
  for (const CouplingEdge& edge : config.couplings) {
    const AppSpec& producer = find_app(config, edge.producer);
    const AppSpec& consumer = find_app(config, edge.consumer);
    const u64 elem = consumer.elem_size;
    const Placement& pp = result.placements.at(producer.app_id);
    const Placement& cp = result.placements.at(consumer.app_id);
    AppReport& report = result.apps[consumer.app_id];
    auto& flows = consumer_flows[consumer.app_id];
    CODS_REQUIRE(edge.fields >= 1, "coupling needs at least one field");
    for (const TransferVolume& t :
         volumes.at({producer.app_id, consumer.app_id})) {
      CoreLoc src = pp.loc(TaskId{producer.app_id, t.src_rank});
      if (config.sequential) src.core = 0;  // node storage service
      const CoreLoc dst = cp.loc(TaskId{consumer.app_id, t.dst_rank});
      const u64 bytes = t.cells * elem * static_cast<u64>(edge.fields);
      if (staging) {
        const CoreLoc stage{staging_node_for(producer.dec, t.src_rank), 0};
        // Leg 1: producer -> staging (paid at put time, always network
        // since staging nodes are dedicated).
        report.staging_net_bytes += bytes;
        // Leg 2: staging -> consumer (the retrieval the figures measure).
        report.inter_net_bytes += bytes;
        flows.push_back(Flow{stage, dst, bytes});
        continue;
      }
      if (src.node == dst.node) {
        report.inter_shm_bytes += bytes;
      } else {
        report.inter_net_bytes += bytes;
      }
      flows.push_back(Flow{src, dst, bytes});
    }
  }
  volumes.clear();  // the flows were their last user

  // ----- Retrieve times (consumers pull concurrently; concurrent consumer
  // apps contend with each other: paper Fig. 11/16) -----
  std::optional<CodsDht> dht;
  if (config.sequential) {
    // Build the DHT index geometry to count contacted cores per query.
    const Box domain = config.apps.front().dec.domain_box();
    i64 max_extent = 1;
    for (int d = 0; d < domain.ndim(); ++d) {
      max_extent = std::max(max_extent, domain.extent(d));
    }
    const int bits = SfcCurve::bits_for_extent(max_extent);
    dht.emplace(cluster, SfcCurve(CurveKind::kHilbert, domain.ndim(), bits),
                /*granularity_log2=*/std::max(0, bits - 3));
  }
  for (const AppSpec& consumer : consumers) {
    AppReport& report = result.apps[consumer.app_id];
    std::vector<Flow> background;
    for (const auto& [app_id, flows] : consumer_flows) {
      if (app_id == consumer.app_id) continue;
      background.insert(background.end(), flows.begin(), flows.end());
    }
    report.retrieve_time = model.batch_time_with_background(
        consumer_flows[consumer.app_id], background);
    if (dht) {
      // Every consumer task queries the DHT cores covering its region; the
      // busiest DHT core serializes its share of the lookups.
      i64 queries = 0;
      std::map<i32, i64> per_core;
      for (i32 r = 0; r < consumer.ntasks(); ++r) {
        // One lookup per task over the bounding box of its owned region
        // (for cyclic layouts the bounding box spans the domain, which is
        // exactly the fan-out such queries incur).
        const Point g = consumer.dec.rank_to_grid(r);
        Box bound;
        bound.lb = Point::zeros(consumer.dec.ndim());
        bound.ub = Point::zeros(consumer.dec.ndim());
        bool empty = false;
        for (int d = 0; d < consumer.dec.ndim(); ++d) {
          const auto segs = consumer.dec.owned_segments_dim(
              d, static_cast<i32>(g[d]), 0, consumer.dec.dim(d).extent - 1);
          if (segs.empty()) {
            empty = true;
            break;
          }
          bound.lb[d] = segs.front().first;
          bound.ub[d] = segs.back().second;
        }
        if (empty) continue;
        for (i32 node : dht->owner_nodes(bound)) {
          ++queries;
          ++per_core[node];
        }
      }
      report.dht_queries = queries;
      i64 busiest = 0;
      for (const auto& [node, count] : per_core) {
        busiest = std::max(busiest, count);
      }
      report.retrieve_time +=
          static_cast<double>(busiest) *
          model.rpc_time(CoreLoc{0, 0}, CoreLoc{cluster.num_nodes() - 1, 0});
    }
  }

  // ----- Intra-application halo exchange -----
  for (const AppSpec& app : config.apps) {
    AppReport& report = result.apps[app.app_id];
    const Placement& placement = result.placements.at(app.app_id);
    for (const TransferVolume& t :
         halo_volumes(blocked_view(app.dec), config.ghost_width)) {
      const CoreLoc a = placement.loc(TaskId{app.app_id, t.src_rank});
      const CoreLoc b = placement.loc(TaskId{app.app_id, t.dst_rank});
      const u64 bytes = t.cells * app.elem_size;
      if (a.node == b.node) {
        report.intra_shm_bytes += bytes;
      } else {
        report.intra_net_bytes += bytes;
      }
    }
  }

  return result;
}

}  // namespace cods
