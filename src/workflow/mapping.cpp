#include "workflow/mapping.hpp"

#include <algorithm>
#include <numeric>

#include "geometry/redistribution.hpp"

namespace cods {

std::string to_string(MappingStrategy strategy) {
  switch (strategy) {
    case MappingStrategy::kRoundRobin: return "round-robin";
    case MappingStrategy::kDataCentric: return "data-centric";
  }
  return "?";
}

void Placement::assign(const TaskId& task, const CoreLoc& loc) {
  CODS_REQUIRE(loc.valid(), "invalid core location");
  CODS_REQUIRE(task.rank >= 0, "task rank must be non-negative");
  auto it = std::lower_bound(
      apps_.begin(), apps_.end(), task.app_id,
      [](const AppSlots& a, i32 app_id) { return a.app_id < app_id; });
  if (it == apps_.end() || it->app_id != task.app_id) {
    it = apps_.insert(it, AppSlots{task.app_id, {}});
  }
  auto& by_rank = it->by_rank;
  const auto rank = static_cast<size_t>(task.rank);
  if (rank >= by_rank.size()) by_rank.resize(rank + 1);
  CODS_REQUIRE(!by_rank[rank].valid(), "task already placed");
  by_rank[rank] = loc;
  ++size_;
}

const CoreLoc* Placement::find(const TaskId& task) const {
  const auto it = std::lower_bound(
      apps_.begin(), apps_.end(), task.app_id,
      [](const AppSlots& a, i32 app_id) { return a.app_id < app_id; });
  if (it == apps_.end() || it->app_id != task.app_id || task.rank < 0 ||
      static_cast<size_t>(task.rank) >= it->by_rank.size()) {
    return nullptr;
  }
  const CoreLoc& loc = it->by_rank[static_cast<size_t>(task.rank)];
  return loc.valid() ? &loc : nullptr;
}

const CoreLoc& Placement::loc(const TaskId& task) const {
  const CoreLoc* loc = find(task);
  CODS_CHECK(loc != nullptr, "task not placed");
  return *loc;
}

bool Placement::has(const TaskId& task) const { return find(task) != nullptr; }

Placement::const_iterator::const_iterator(const Placement* placement,
                                          size_t app, size_t rank)
    : placement_(placement), app_(app), rank_(rank) {
  skip_unplaced();
}

void Placement::const_iterator::skip_unplaced() {
  const auto& apps = placement_->apps_;
  while (app_ < apps.size()) {
    const auto& by_rank = apps[app_].by_rank;
    while (rank_ < by_rank.size() && !by_rank[rank_].valid()) ++rank_;
    if (rank_ < by_rank.size()) return;
    ++app_;
    rank_ = 0;
  }
}

Placement::const_iterator::value_type Placement::const_iterator::operator*()
    const {
  const AppSlots& app = placement_->apps_[app_];
  return {TaskId{app.app_id, static_cast<i32>(rank_)}, app.by_rank[rank_]};
}

Placement::const_iterator& Placement::const_iterator::operator++() {
  ++rank_;
  skip_unplaced();
  return *this;
}

bool operator==(const Placement& a, const Placement& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

std::map<i32, i32> Placement::node_occupancy() const {
  std::map<i32, i32> occupancy;
  for (const auto& [task, loc] : *this) ++occupancy[loc.node];
  return occupancy;
}

bool Placement::valid(const Cluster& cluster) const {
  const i32 cores = cluster.cores_per_node();
  std::vector<bool> taken(static_cast<size_t>(cluster.total_cores()));
  for (const auto& [task, loc] : *this) {
    if (loc.node < 0 || loc.node >= cluster.num_nodes()) return false;
    if (loc.core < 0 || loc.core >= cores) return false;
    const auto core = static_cast<size_t>(loc.node * cores + loc.core);
    if (taken[core]) return false;
    taken[core] = true;
  }
  return true;
}

Placement round_robin_placement(const Cluster& cluster,
                                const std::vector<AppSpec>& apps,
                                i32 first_core,
                                const std::vector<i32>& allowed_nodes) {
  std::vector<i32> nodes = allowed_nodes;
  if (nodes.empty()) {
    nodes.resize(static_cast<size_t>(cluster.num_nodes()));
    std::iota(nodes.begin(), nodes.end(), 0);
  }
  for (i32 node : nodes) {
    CODS_REQUIRE(node >= 0 && node < cluster.num_nodes(),
                 "node id outside the cluster");
  }
  const i32 cores = cluster.cores_per_node();
  const i32 capacity = static_cast<i32>(nodes.size()) * cores;
  Placement placement;
  i32 core = first_core;
  for (const AppSpec& app : apps) {
    for (i32 rank = 0; rank < app.ntasks(); ++rank) {
      CODS_REQUIRE(core < capacity, "not enough cores for the bundle");
      placement.assign(
          TaskId{app.app_id, rank},
          CoreLoc{nodes[static_cast<size_t>(core / cores)], core % cores});
      ++core;
    }
  }
  return placement;
}

Graph bundle_comm_graph(const std::vector<AppSpec>& apps) {
  return bundle_comm_graph(apps, CoupledVolumes{});
}

Graph bundle_comm_graph(const std::vector<AppSpec>& apps,
                        const CoupledVolumes& known) {
  i32 total = 0;
  std::map<i32, i32> base;  // app id -> first vertex
  for (const AppSpec& app : apps) {
    base[app.app_id] = total;
    total += app.ntasks();
  }
  std::vector<std::tuple<i32, i32, i64>> edges;
  for (size_t a = 0; a < apps.size(); ++a) {
    for (size_t b = a + 1; b < apps.size(); ++b) {
      const AppSpec& src = apps[a];
      const AppSpec& dst = apps[b];
      const u64 elem = std::max(src.elem_size, dst.elem_size);
      const i32 src_base = base[src.app_id];
      const i32 dst_base = base[dst.app_id];
      const auto it = known.find({src.app_id, dst.app_id});
      std::vector<TransferVolume> computed;
      if (it == known.end()) {
        computed = redistribution_volumes(src.dec, dst.dec);
      }
      const auto& volumes = it == known.end() ? computed : it->second;
      edges.reserve(edges.size() + volumes.size());
      for (const TransferVolume& t : volumes) {
        edges.emplace_back(src_base + t.src_rank, dst_base + t.dst_rank,
                           static_cast<i64>(t.cells * elem));
      }
    }
  }
  return Graph::from_edges(total, edges);
}

ServerMappingResult server_data_centric_placement(
    const Cluster& cluster, const std::vector<AppSpec>& apps, u64 seed,
    std::vector<i32> nodes) {
  return server_data_centric_placement(cluster, apps, CoupledVolumes{}, seed,
                                       std::move(nodes));
}

ServerMappingResult server_data_centric_placement(
    const Cluster& cluster, const std::vector<AppSpec>& apps,
    const CoupledVolumes& known, u64 seed, std::vector<i32> nodes) {
  const Graph graph = bundle_comm_graph(apps, known);
  const i32 cores = cluster.cores_per_node();
  const i32 nparts = (graph.nvtx + cores - 1) / cores;
  if (nodes.empty()) {
    nodes.resize(static_cast<size_t>(nparts));
    std::iota(nodes.begin(), nodes.end(), 0);
  }
  CODS_REQUIRE(static_cast<i32>(nodes.size()) >= nparts,
               "not enough nodes for the bundle");
  for (i32 node : nodes) {
    CODS_REQUIRE(node >= 0 && node < cluster.num_nodes(),
                 "node id outside the cluster");
  }

  PartitionOptions options;
  options.max_part_weight = cores;
  options.seed = seed;
  const PartitionResult partition = kway_partition(graph, nparts, options);

  // Distribute each group's tasks over the node's cores round-robin
  // (paper §IV-B).
  ServerMappingResult result;
  std::vector<i32> next_core(static_cast<size_t>(nparts), 0);
  std::vector<char> node_used(static_cast<size_t>(cluster.num_nodes()), 0);
  i32 vertex = 0;
  for (const AppSpec& app : apps) {
    for (i32 rank = 0; rank < app.ntasks(); ++rank, ++vertex) {
      const i32 part = partition.part[static_cast<size_t>(vertex)];
      const i32 core = next_core[static_cast<size_t>(part)]++;
      CODS_CHECK(core < cores, "partition exceeded node capacity");
      const i32 node = nodes[static_cast<size_t>(part)];
      result.placement.assign(TaskId{app.app_id, rank}, CoreLoc{node, core});
      if (node_used[static_cast<size_t>(node)] == 0) {
        node_used[static_cast<size_t>(node)] = 1;
        ++result.nodes_used;
      }
    }
  }
  result.edge_cut_bytes = partition.edge_cut;
  return result;
}

std::vector<NodeBytes> consumer_node_bytes(const AppSpec& producer,
                                           const Placement& producer_placement,
                                           const AppSpec& consumer) {
  return consumer_node_bytes(redistribution_volumes(producer.dec, consumer.dec),
                             producer, producer_placement, consumer);
}

std::vector<NodeBytes> consumer_node_bytes(
    const std::vector<TransferVolume>& volumes, const AppSpec& producer,
    const Placement& producer_placement, const AppSpec& consumer) {
  std::vector<NodeBytes> out(static_cast<size_t>(consumer.ntasks()));
  const u64 elem = consumer.elem_size;
  // Volumes arrive grouped by source rank. A run of volumes from one
  // producer node is summed per consumer rank in a dense marker, so each
  // rank's map is updated once per run, not once per volume. A rank is
  // listed on its first volume of the run, so a zero-byte volume still
  // enters its node in the map.
  std::vector<u64> run_bytes(out.size(), 0);
  std::vector<i32> run_ranks;
  i32 run_src = -1;
  i32 run_node = -1;
  const auto flush = [&] {
    for (const i32 r : run_ranks) {
      const auto rank = static_cast<size_t>(r);
      out[rank][run_node] += run_bytes[rank];
      run_bytes[rank] = 0;
    }
    run_ranks.clear();
  };
  for (const TransferVolume& t : volumes) {
    if (t.src_rank != run_src) {
      run_src = t.src_rank;
      const i32 node =
          producer_placement.loc(TaskId{producer.app_id, t.src_rank}).node;
      if (node != run_node) {
        flush();
        run_node = node;
      }
    }
    const auto rank = static_cast<size_t>(t.dst_rank);
    if (run_bytes[rank] == 0) run_ranks.push_back(t.dst_rank);
    run_bytes[rank] += t.cells * elem;
  }
  flush();
  return out;
}

Placement client_data_centric_placement(
    const Cluster& cluster, const std::vector<AppSpec>& consumers,
    const std::vector<std::vector<NodeBytes>>& per_app_node_bytes,
    const std::vector<i32>& allowed_nodes) {
  CODS_REQUIRE(consumers.size() == per_app_node_bytes.size(),
               "per-app node bytes size mismatch");
  CODS_REQUIRE(!allowed_nodes.empty(), "no nodes in the allocation");
  std::map<i32, i32> used;  // node -> cores taken
  for (i32 node : allowed_nodes) {
    CODS_REQUIRE(node >= 0 && node < cluster.num_nodes(),
                 "node id outside the cluster");
    used[node] = 0;
  }
  const i32 cores = cluster.cores_per_node();
  Placement placement;
  for (size_t a = 0; a < consumers.size(); ++a) {
    const AppSpec& app = consumers[a];
    CODS_REQUIRE(static_cast<i32>(per_app_node_bytes[a].size()) ==
                     app.ntasks(),
                 "node bytes must cover every consumer task");
    for (i32 rank = 0; rank < app.ntasks(); ++rank) {
      const NodeBytes& bytes = per_app_node_bytes[a][static_cast<size_t>(rank)];
      // Candidates sorted by local bytes descending.
      std::vector<std::pair<u64, i32>> candidates;
      for (const auto& [node, b] : bytes) {
        if (used.contains(node)) candidates.emplace_back(b, node);
      }
      std::sort(candidates.begin(), candidates.end(),
                [](const auto& x, const auto& y) {
                  return x.first != y.first ? x.first > y.first
                                            : x.second < y.second;
                });
      i32 chosen = -1;
      for (const auto& [b, node] : candidates) {
        if (used[node] < cores) {
          chosen = node;
          break;
        }
      }
      if (chosen < 0) {
        // No data-local node has room: least-loaded allowed node.
        for (const auto& [node, count] : used) {
          if (count >= cores) continue;
          if (chosen < 0 || count < used[chosen]) chosen = node;
        }
      }
      CODS_CHECK(chosen >= 0, "allocation has no free cores left");
      placement.assign(TaskId{app.app_id, rank},
                       CoreLoc{chosen, used[chosen]++});
    }
  }
  return placement;
}

}  // namespace cods
