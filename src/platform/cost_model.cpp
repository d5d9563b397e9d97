#include "platform/cost_model.hpp"

#include <algorithm>
#include <tuple>

#include "common/flat_table.hpp"

namespace cods {

namespace fabric {

CostParams seastar2() { return CostParams{}; }

CostParams gemini() {
  CostParams params;
  params.link_bw = 2.9e10;   // ~29 GB/s per link
  params.nic_bw = 6.0e9;     // ~6 GB/s injection
  params.hop_latency = 1e-6;
  params.net_latency = 1.5e-6;
  params.shm_bw = 8.0e9;
  return params;
}

CostParams modern_hpc() {
  CostParams params;
  params.link_bw = 5.0e10;
  params.nic_bw = 1.2e10;    // ~100 Gbps
  params.hop_latency = 2e-7;
  params.net_latency = 1e-6;
  params.shm_bw = 2.0e10;    // DDR5-era streaming
  params.shm_latency = 2e-7;
  return params;
}

}  // namespace fabric

double CostModel::flow_time(const Flow& flow) const {
  if (flow.bytes == 0) return 0.0;
  const double bytes = static_cast<double>(flow.bytes);
  if (flow.src.node == flow.dst.node) {
    return params_.shm_latency + bytes / params_.shm_bw;
  }
  const i32 hops = cluster_->hops(flow.src.node, flow.dst.node);
  const double wire_bw = std::min(params_.link_bw, params_.nic_bw);
  return params_.net_latency + hops * params_.hop_latency + bytes / wire_bw;
}

namespace {

/// Per-resource load sums of one batch, indexed by dense resource id (link
/// id, or node id for NICs and memory buses). Entries are reset through
/// the list of ids the previous batch touched, so a batch costs no
/// allocation once the arrays have grown to the largest cluster seen.
struct LoadTable {
  std::vector<double> load;
  std::vector<u8> flags;  ///< kTouched | kPrimary
  std::vector<u32> touched;

  static constexpr u8 kTouched = 1;
  static constexpr u8 kPrimary = 2;

  /// Zeroes the previous batch's entries and sizes the table for `n` ids.
  void reset(size_t n) {
    for (const u32 id : touched) {
      load[id] = 0.0;
      flags[id] = 0;
    }
    touched.clear();
    if (load.size() < n) {
      load.resize(n, 0.0);
      flags.resize(n, 0);
    }
  }

  void add(size_t id, double bytes, bool primary) {
    if (flags[id] == 0) touched.push_back(static_cast<u32>(id));
    flags[id] |= kTouched | (primary ? kPrimary : 0);
    load[id] += bytes;
  }

  /// Largest load / bandwidth over the resources a primary flow touches.
  double bottleneck(double bandwidth) const {
    double worst = 0.0;
    for (const u32 id : touched) {
      if ((flags[id] & kPrimary) == 0) continue;
      worst = std::max(worst, load[id] / bandwidth);
    }
    return worst;
  }
};

/// Network bytes of one batch summed per (src node, dst node) pair. The
/// pairs sit in a dense vector in first-seen order, and the table maps a
/// pair's key to its position there, so iteration never depends on hash
/// order. Sums are u64: exact, and independent of flow order.
struct PairLoads {
  struct Pair {
    i32 src = 0;
    i32 dst = 0;
    u64 bytes = 0;
    bool primary = false;  ///< some flow of the pair is primary
  };
  struct KeyHash {
    u64 operator()(u64 key) const { return mix64(key); }
  };

  using Index = FlatTable<u64, u32, KeyHash>;

  Index index;
  std::vector<Pair> pairs;

  void reset() {
    index.clear();
    pairs.clear();
  }

  void add(i32 src, i32 dst, u64 bytes, bool primary) {
    const u64 key =
        (u64{static_cast<u32>(src)} << 32) | static_cast<u32>(dst);
    const u32* at = index.find(key);
    Pair& pair = at != nullptr ? pairs[*at] : insert(key, src, dst);
    pair.bytes += bytes;
    pair.primary |= primary;
  }

  /// A pair's first bytes. Kept out of line: a batch carries many flows
  /// per pair, so the probe that finds the pair is the hot path, and
  /// without the insertion it is small enough to inline into both
  /// entries' loops.
  [[gnu::noinline]] Pair& insert(u64 key, i32 src, i32 dst) {
    index.insert(key, static_cast<u32>(pairs.size()));
    return pairs.emplace_back(Pair{src, dst});
  }
};

/// One batch's loads on the calling thread. Both batch entries add their
/// traffic here and then price it with price_batch.
///
/// A batch is priced once per pull on the simulate hot path (10^5+ calls
/// per enacted wave) and once per consumer in every modelled scenario, so
/// the scratch is thread-local and dense: one array per resource kind,
/// indexed by link or node id. Link ids name torus positions, which may
/// outnumber the nodes, so the link array spans the whole torus. Network
/// bytes are first summed per (src, dst) node pair, so each distinct pair
/// is routed once however many flows or pair entries it carries.
struct BatchLoads {
  LoadTable links;
  LoadTable nics;
  LoadTable shm;
  PairLoads net;
  std::vector<u64> route;
  u64 total_bytes = 0;
  bool primary_shm = false;

  /// The calling thread's scratch, emptied and sized for `cluster`.
  static BatchLoads& begin(const Cluster& cluster) {
    static thread_local BatchLoads loads;
    loads.links.reset(cluster.link_count());
    loads.nics.reset(static_cast<size_t>(cluster.num_nodes()));
    loads.shm.reset(static_cast<size_t>(cluster.num_nodes()));
    loads.net.reset();
    loads.total_bytes = 0;
    loads.primary_shm = false;
    return loads;
  }

  /// Adds each entry of `list`, whose `nodes(entry)` gives {src node,
  /// dst node, bytes}. The running total stays in a local in the loop:
  /// the load tables' stores could alias a member, which would reload it
  /// for every entry.
  template <typename List, typename Nodes>
  void add(const List& list, bool primary, Nodes nodes) {
    u64 total = total_bytes;
    bool any_shm = false;
    for (const auto& entry : list) {
      const auto [src, dst, bytes] = nodes(entry);
      if (bytes == 0) continue;
      CODS_REQUIRE(bytes < CostModel::kExactBytes - total,
                   "batch moves 2^53 bytes or more; loads would round");
      total += bytes;
      if (src == dst) {
        any_shm = true;
        shm.add(static_cast<size_t>(src), static_cast<double>(bytes),
                primary);
        continue;
      }
      net.add(src, dst, bytes, primary);
    }
    total_bytes = total;
    primary_shm |= primary && any_shm;
  }
};

/// Routes each network pair of `loads` once onto its NICs and links and
/// prices the batch: the largest load / bandwidth over the resources some
/// primary traffic touches, plus the primary traffic's latency.
///
/// Every load is a sum of integer byte counts below 2^53, which double
/// adds exactly in any order, and a max over the sums does not depend on
/// the order it visits them, so the result is bit-identical to summing
/// each resource flow by flow, however the bytes were grouped into pairs.
/// route.size() is the hop count by construction (shortest steps per
/// dimension).
double price_batch(const Cluster& cluster, const CostParams& params,
                   BatchLoads& loads) {
  i32 max_hops = 0;
  bool primary_net = false;
  for (const PairLoads::Pair& pair : loads.net.pairs) {
    const double bytes = static_cast<double>(pair.bytes);
    primary_net |= pair.primary;
    loads.nics.add(static_cast<size_t>(pair.src), bytes, pair.primary);
    loads.nics.add(static_cast<size_t>(pair.dst), bytes, pair.primary);
    cluster.route_links(pair.src, pair.dst, loads.route);
    if (pair.primary) {
      max_hops = std::max(max_hops, static_cast<i32>(loads.route.size()));
    }
    for (const u64 link : loads.route) {
      loads.links.add(static_cast<size_t>(link), bytes, pair.primary);
    }
  }
  const double bottleneck =
      std::max({loads.links.bottleneck(params.link_bw),
                loads.nics.bottleneck(params.nic_bw),
                loads.shm.bottleneck(params.shm_bw)});
  double latency = 0.0;
  if (primary_net) {
    latency = params.net_latency + max_hops * params.hop_latency;
  } else if (loads.primary_shm) {
    latency = params.shm_latency;
  }
  return bottleneck + latency;
}

}  // namespace

double CostModel::batch_time(const std::vector<Flow>& flows) const {
  if (flows.empty()) return 0.0;
  const auto nodes = [](const Flow& f) {
    return std::tuple{f.src.node, f.dst.node, f.bytes};
  };
  BatchLoads& loads = BatchLoads::begin(*cluster_);
  loads.add(flows, /*primary=*/true, nodes);
  return price_batch(*cluster_, params_, loads);
}

double CostModel::batch_time_of_pairs(
    std::span<const NodePairBytes> primary,
    std::span<const NodePairBytes> background) const {
  if (primary.empty()) return 0.0;
  const auto nodes = [](const NodePairBytes& p) {
    return std::tuple{p.src, p.dst, p.bytes};
  };
  BatchLoads& loads = BatchLoads::begin(*cluster_);
  loads.add(primary, /*primary=*/true, nodes);
  loads.add(background, /*primary=*/false, nodes);
  return price_batch(*cluster_, params_, loads);
}

double CostModel::rpc_time(const CoreLoc& src, const CoreLoc& dst,
                           u64 count) const {
  if (count == 0) return 0.0;
  Flow f{src, dst, static_cast<u64>(params_.rpc_bytes)};
  return static_cast<double>(count) * 2.0 * flow_time(f);  // round trip
}

}  // namespace cods
