#include "workflow/scenario.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <set>
#include <span>

#include "common/flat_table.hpp"
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

/// Copies each of `apps`' tasks from `all` into a placement of its own.
void split_by_app(const Placement& all, const std::vector<AppSpec>& apps,
                  std::map<i32, Placement>& out) {
  for (const AppSpec& app : apps) {
    Placement& placement = out[app.app_id];
    for (i32 r = 0; r < app.ntasks(); ++r) {
      const TaskId task{app.app_id, r};
      placement.assign(task, all.loc(task));
    }
  }
}

/// The node of each of `app`'s ranks.
std::vector<i32> rank_nodes(const Placement& placement, const AppSpec& app) {
  std::vector<i32> nodes(static_cast<size_t>(app.ntasks()));
  for (i32 r = 0; r < app.ntasks(); ++r) {
    nodes[static_cast<size_t>(r)] = placement.loc(TaskId{app.app_id, r}).node;
  }
  return nodes;
}

i64 max_extent(const Box& domain) {
  i64 extent = 1;
  for (int d = 0; d < domain.ndim(); ++d) {
    extent = std::max(extent, domain.extent(d));
  }
  return extent;
}

/// One consumer's coupled bytes summed per (src node, dst node) pair, in
/// first-seen order. Sums are u64, so they do not depend on the order
/// the bytes arrive in.
struct NodePairSums {
  struct KeyHash {
    u64 operator()(u64 key) const { return mix64(key); }
  };
  FlatTable<u64, u32, KeyHash> index;  ///< (src, dst) -> position in pairs
  std::vector<NodePairBytes> pairs;

  void add(i32 src, i32 dst, u64 bytes) {
    const u64 key =
        (u64{static_cast<u32>(src)} << 32) | static_cast<u32>(dst);
    const u32 at = *index.insert(key, static_cast<u32>(pairs.size())).first;
    if (at == pairs.size()) pairs.push_back(NodePairBytes{src, dst});
    pairs[at].bytes += bytes;
  }
};

/// Calls `visit` with the DHT lookup box of each of `dec`'s ranks that
/// owns cells, in rank order: the bounding box of its owned region (for
/// cyclic layouts it spans the domain, which is exactly the fan-out such
/// queries incur). A box is the product of per-dimension [first, last]
/// owned cells, so each process coordinate's segments are listed once.
template <typename Visit>
void for_each_lookup_box(const Decomposition& dec, Visit visit) {
  std::array<std::vector<Segment>, kMaxDims> bounds;
  for (int d = 0; d < dec.ndim(); ++d) {
    const DimSpec& spec = dec.dim(d);
    for (i32 p = 0; p < spec.nprocs; ++p) {
      const auto segs = dec.owned_segments_dim(d, p, 0, spec.extent - 1);
      bounds[static_cast<size_t>(d)].push_back(
          segs.empty() ? Segment{1, 0}
                       : Segment{segs.front().first, segs.back().second});
    }
  }
  Box bound(Point::zeros(dec.ndim()), Point::zeros(dec.ndim()));
  for (i32 rank = 0; rank < dec.ntasks(); ++rank) {
    const Point g = dec.rank_to_grid(rank);
    for (int d = 0; d < dec.ndim(); ++d) {
      const Segment& b = bounds[static_cast<size_t>(d)][static_cast<size_t>(g[d])];
      bound.lb[d] = b.first;
      bound.ub[d] = b.second;
    }
    if (bound.valid()) visit(bound);
  }
}

/// CodsDht::owner_nodes, looked up once per coarse box. A query's owners
/// depend only on the query's coarse cells, query >> granularity (see
/// box_spans), so the tasks whose lookup boxes cover the same coarse
/// cells share one lookup. Coarse coordinates of boxes inside the grid
/// are below 2^(bits - granularity), which packs a coarse box into one
/// u64 key.
class OwnerMemo {
 public:
  explicit OwnerMemo(const CodsDht& dht)
      : dht_(&dht),
        shift_(dht.granularity_log2()),
        level_bits_(dht.curve().bits() - dht.granularity_log2()) {
    CODS_REQUIRE(2 * dht.curve().ndim() * level_bits_ <= 64,
                 "coarse boxes do not fit a 64-bit key");
  }

  /// The entry of `query`'s coarse box, for a query inside the curve's
  /// grid. Entries are numbered from 0 in first-seen order.
  u32 entry(const Box& query) {
    u64 key = 0;
    for (int d = 0; d < query.ndim(); ++d) {
      for (const i64 c : {query.lb[d], query.ub[d]}) {
        const u64 coarse = static_cast<u64>(c >> shift_);
        CODS_CHECK(c >= 0 && coarse >> level_bits_ == 0,
                   "lookup box outside the curve's grid");
        key = (key << level_bits_) | coarse;
      }
    }
    const auto [entry, inserted] =
        index_.insert(key, static_cast<u32>(spans_.size()));
    if (inserted) {
      const std::vector<i32> nodes = dht_->owner_nodes(query);
      spans_.push_back({nodes_.size(), nodes.size()});
      nodes_.insert(nodes_.end(), nodes.begin(), nodes.end());
    }
    return *entry;
  }

  /// owner_nodes of the queries with this entry.
  std::span<const i32> owners(u32 entry) const {
    const auto [at, count] = spans_[entry];
    return {nodes_.data() + at, count};
  }

 private:
  struct KeyHash {
    u64 operator()(u64 key) const { return mix64(key); }
  };
  const CodsDht* dht_;
  int shift_;
  int level_bits_;
  FlatTable<u64, u32, KeyHash> index_;  ///< coarse box -> spans_ entry
  std::vector<std::pair<size_t, size_t>> spans_;  ///< (offset, count)
  std::vector<i32> nodes_;  ///< the owner lists, back to back
};

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
      split_by_app(round_robin_placement(cluster, config.apps), config.apps,
                   result.placements);
    } else {
      const ServerMappingResult server =
          server_data_centric_placement(cluster, config.apps, volumes,
                                        config.seed);
      result.comm_graph_cut_bytes = server.edge_cut_bytes;
      split_by_app(server.placement, config.apps, result.placements);
    }
  } else {
    // Sequential: producers run first (block placement from core 0); the
    // consumers are later launched on the same set of nodes.
    const Placement prod_placement = round_robin_placement(cluster, producers);
    split_by_app(prod_placement, producers, result.placements);
    std::vector<bool> hosts_producer(static_cast<size_t>(cluster.num_nodes()));
    for (const auto& [task, loc] : prod_placement.all()) {
      hosts_producer[static_cast<size_t>(loc.node)] = true;
    }
    if (config.strategy == MappingStrategy::kRoundRobin) {
      split_by_app(round_robin_placement(cluster, consumers), consumers,
                   result.placements);
    } else {
      // Client-side data-centric mapping against stored data locations.
      std::vector<std::vector<NodeBytes>> per_app;
      for (const AppSpec& consumer : consumers) {
        std::vector<NodeBytes> bytes;
        for (const CouplingEdge& edge : config.couplings) {
          if (edge.consumer != consumer.app_id) continue;
          const AppSpec& producer = find_app(config, edge.producer);
          auto part = consumer_node_bytes(
              volumes.at({producer.app_id, consumer.app_id}), producer,
              result.placements.at(producer.app_id), consumer);
          if (bytes.empty()) {
            bytes = std::move(part);
            continue;
          }
          for (i32 r = 0; r < consumer.ntasks(); ++r) {
            for (const auto& [node, b] : part[static_cast<size_t>(r)]) {
              bytes[static_cast<size_t>(r)][node] += b;
            }
          }
        }
        per_app.push_back(std::move(bytes));
      }
      std::vector<i32> allowed;  // the producers' nodes, ascending
      for (i32 node = 0; node < cluster.num_nodes(); ++node) {
        if (hosts_producer[static_cast<size_t>(node)]) allowed.push_back(node);
      }
      split_by_app(client_data_centric_placement(cluster, consumers, per_app,
                                                 allowed),
                   consumers, result.placements);
    }
  }

  // Each app's node per rank, read once from its placement.
  std::map<i32, std::vector<i32>> nodes_of;
  for (const AppSpec& app : config.apps) {
    nodes_of.emplace(app.app_id,
                     rank_nodes(result.placements.at(app.app_id), app));
  }

  // ----- Inter-application coupled-data flows -----
  // In staging mode every coupled region is hashed (SFC interval ownership)
  // onto a staging node: the producer ships it there first, the consumer
  // pulls it from there — two movements, never in-node.
  std::optional<SfcCurve> staging_curve;
  u64 staging_stride = 0;
  if (staging) {
    const Box domain = config.apps.front().dec.domain_box();
    staging_curve.emplace(CurveKind::kHilbert, domain.ndim(),
                          SfcCurve::bits_for_extent(max_extent(domain)));
    staging_stride =
        (staging_curve->size() + static_cast<u64>(config.staging_nodes) - 1) /
        static_cast<u64>(config.staging_nodes);
  }
  // The staging node of each producer rank: its region's anchor hashed
  // onto the staging interval map.
  auto staging_nodes_of = [&](const Decomposition& dec) {
    std::vector<i32> nodes(static_cast<size_t>(dec.ntasks()));
    for (i32 rank = 0; rank < dec.ntasks(); ++rank) {
      const Point g = dec.rank_to_grid(rank);
      Point anchor = Point::zeros(dec.ndim());
      for (int d = 0; d < dec.ndim(); ++d) {
        const auto segs = dec.owned_segments_dim(d, static_cast<i32>(g[d]), 0,
                                                 dec.dim(d).extent - 1);
        anchor[d] = segs.empty() ? 0 : segs.front().first;
      }
      const u64 index = staging_curve->encode(anchor);
      const i32 offset = static_cast<i32>(std::min<u64>(
          index / staging_stride, static_cast<u64>(config.staging_nodes) - 1));
      nodes[static_cast<size_t>(rank)] = first_staging_node + offset;
    }
    return nodes;
  };

  // The retrieve model prices node resources only, so each consumer's
  // coupled bytes are summed per (src node, dst node) pair as they are
  // counted. Volumes arrive grouped by source rank: a run of volumes from
  // one source node is summed per destination node in a dense marker, and
  // each run is flushed to the consumer's pair table once per destination.
  std::map<i32, NodePairSums> pair_sums;  ///< per consumer app id
  {
    std::vector<u64> run_bytes(static_cast<size_t>(cluster.num_nodes()), 0);
    std::vector<i32> run_dsts;
    u64 coupled_bytes = 0;
    for (const CouplingEdge& edge : config.couplings) {
      const AppSpec& producer = find_app(config, edge.producer);
      const AppSpec& consumer = find_app(config, edge.consumer);
      CODS_REQUIRE(edge.fields >= 1, "coupling needs at least one field");
      const u64 scale = consumer.elem_size * static_cast<u64>(edge.fields);
      // Sequentially stored data is served by the storage service on its
      // producer's node, so co-located, a producer rank's node is its
      // source whether the coupling is concurrent or sequential.
      const std::vector<i32> staged =
          staging ? staging_nodes_of(producer.dec) : std::vector<i32>{};
      const std::vector<i32>& src_nodes =
          staging ? staged : nodes_of.at(producer.app_id);
      const std::vector<i32>& dst_nodes = nodes_of.at(consumer.app_id);
      AppReport& report = result.apps[consumer.app_id];
      NodePairSums& sums = pair_sums[consumer.app_id];
      i32 run_src = -1;
      const auto flush = [&] {
        for (const i32 dst : run_dsts) {
          u64& bytes = run_bytes[static_cast<size_t>(dst)];
          // Staging: leg 1, producer -> staging, is paid at put time and
          // always crosses the network (staging nodes are dedicated); leg
          // 2, staging -> consumer, is the retrieval the figures measure.
          if (staging) report.staging_net_bytes += bytes;
          if (run_src == dst) {
            report.inter_shm_bytes += bytes;
          } else {
            report.inter_net_bytes += bytes;
          }
          sums.add(run_src, dst, bytes);
          bytes = 0;
        }
        run_dsts.clear();
      };
      for (const TransferVolume& t :
           volumes.at({producer.app_id, consumer.app_id})) {
        const i32 src = src_nodes[static_cast<size_t>(t.src_rank)];
        if (src != run_src) {
          flush();
          run_src = src;
        }
        const u64 bytes = t.cells * scale;
        // Every consumer's batch is priced against all the others, so
        // the model's exactness bound applies to the scenario's total.
        CODS_REQUIRE(bytes < CostModel::kExactBytes - coupled_bytes,
                     "batch moves 2^53 bytes or more; loads would round");
        coupled_bytes += bytes;
        if (bytes == 0) continue;
        const i32 dst = dst_nodes[static_cast<size_t>(t.dst_rank)];
        if (run_bytes[static_cast<size_t>(dst)] == 0) run_dsts.push_back(dst);
        run_bytes[static_cast<size_t>(dst)] += bytes;
      }
      flush();
    }
  }
  volumes.clear();  // the pair sums were their last user

  // ----- Retrieve times (consumers pull concurrently; concurrent consumer
  // apps contend with each other: paper Fig. 11/16) -----
  // The consumers' pair lists are laid out around a ring, L0 .. Ln-1
  // L0 .. Ln-2, so consumer k's background, Lk+1 .. Lk-1, is the one
  // range after its own list.
  std::vector<NodePairBytes> ring;
  std::vector<size_t> ring_at;  ///< where each consumer's list starts
  for (const AppSpec& consumer : consumers) {
    const std::vector<NodePairBytes>& pairs = pair_sums[consumer.app_id].pairs;
    ring_at.push_back(ring.size());
    ring.insert(ring.end(), pairs.begin(), pairs.end());
  }
  pair_sums.clear();
  const size_t lap_size = ring.size();
  if (!ring_at.empty()) {
    ring.resize(lap_size + ring_at.back());
    std::copy_n(ring.begin(), ring_at.back(), ring.begin() + lap_size);
  }

  std::optional<CodsDht> dht;
  if (config.sequential) {
    // Build the DHT index geometry to count contacted cores per query.
    const Box domain = config.apps.front().dec.domain_box();
    const int bits = SfcCurve::bits_for_extent(max_extent(domain));
    dht.emplace(cluster, SfcCurve(CurveKind::kHilbert, domain.ndim(), bits),
                /*granularity_log2=*/std::max(0, bits - 3));
  }
  std::optional<OwnerMemo> owners;
  if (dht) owners.emplace(*dht);
  std::vector<i64> hits;  ///< per memo entry: this consumer's lookups
  std::vector<i64> per_node;
  for (size_t k = 0; k < consumers.size(); ++k) {
    const AppSpec& consumer = consumers[k];
    AppReport& report = result.apps[consumer.app_id];
    const std::span<const NodePairBytes> lap(ring.data() + ring_at[k],
                                             lap_size);
    const size_t own =
        (k + 1 < ring_at.size() ? ring_at[k + 1] : lap_size) - ring_at[k];
    report.retrieve_time =
        model.batch_time_of_pairs(lap.first(own), lap.subspan(own));
    if (owners) {
      // Every consumer task queries the DHT cores covering its region; the
      // busiest DHT core serializes its share of the lookups. Tasks with
      // the same coarse lookup box contact the same cores, so lookups are
      // counted per memo entry first.
      hits.clear();
      for_each_lookup_box(consumer.dec, [&](const Box& bound) {
        const u32 entry = owners->entry(bound);
        if (entry >= hits.size()) hits.resize(entry + 1, 0);
        ++hits[entry];
      });
      i64 queries = 0;
      per_node.assign(static_cast<size_t>(cluster.num_nodes()), 0);
      for (u32 entry = 0; entry < hits.size(); ++entry) {
        if (hits[entry] == 0) continue;
        const std::span<const i32> nodes = owners->owners(entry);
        queries += hits[entry] * static_cast<i64>(nodes.size());
        for (const i32 node : nodes) {
          per_node[static_cast<size_t>(node)] += hits[entry];
        }
      }
      report.dht_queries = queries;
      const i64 busiest = *std::max_element(per_node.begin(), per_node.end());
      report.retrieve_time +=
          static_cast<double>(busiest) *
          model.rpc_time(CoreLoc{0, 0}, CoreLoc{cluster.num_nodes() - 1, 0});
    }
  }

  // ----- Intra-application halo exchange -----
  for (const AppSpec& app : config.apps) {
    AppReport& report = result.apps[app.app_id];
    const std::vector<i32>& nodes = nodes_of.at(app.app_id);
    for (const TransferVolume& t :
         halo_volumes(blocked_view(app.dec), config.ghost_width)) {
      const u64 bytes = t.cells * app.elem_size;
      if (nodes[static_cast<size_t>(t.src_rank)] ==
          nodes[static_cast<size_t>(t.dst_rank)]) {
        report.intra_shm_bytes += bytes;
      } else {
        report.intra_net_bytes += bytes;
      }
    }
  }

  return result;
}

}  // namespace cods
