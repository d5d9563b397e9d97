#include "platform/cost_model.hpp"

#include <algorithm>

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

double CostModel::batch_time(const std::vector<Flow>& flows) const {
  return batch_time_with_background(flows, {});
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

  /// The scratch is sized for this many pairs when a thread first prices
  /// a batch, which covers every batch of the paper's configurations
  /// (at most 2,209 pairs). Grown on demand from a few pairs instead, it
  /// raised the peak RSS of the perfbench modeled_paper workload by
  /// 0.8 MiB, through where its reallocations landed on the heap. A
  /// batch with more pairs grows it, and the next call releases it.
  static constexpr size_t kKeepPairs = 4096;

  using Index = FlatTable<u64, u32, KeyHash>;

  Index index{2 * kKeepPairs};
  std::vector<Pair> pairs;

  PairLoads() { pairs.reserve(kKeepPairs); }

  void reset() {
    if (pairs.capacity() > kKeepPairs) {
      *this = PairLoads();
    } else {
      index.clear();
      pairs.clear();
    }
  }

  void add(i32 src, i32 dst, u64 bytes, bool primary) {
    const u64 key =
        (u64{static_cast<u32>(src)} << 32) | static_cast<u32>(dst);
    const u32 at = *index.insert(key, static_cast<u32>(pairs.size())).first;
    if (at == pairs.size()) pairs.push_back(Pair{src, dst});
    Pair& pair = pairs[at];
    pair.bytes += bytes;
    pair.primary |= primary;
  }
};

/// Integer byte sums below 2^53 convert to double exactly, so a load
/// summed per pair equals the same load summed flow by flow in double.
constexpr u64 kExactBytes = u64{1} << 53;

}  // namespace

double CostModel::batch_time_with_background(
    const std::vector<Flow>& primary, const std::vector<Flow>& background) const {
  if (primary.empty()) return 0.0;
  // Accumulate loads over primary + background, but remember which
  // resources the primary flows touch: only those bound the result.
  //
  // This runs once per pull batch on the simulate hot path (10^5+ calls
  // per enacted wave) and once per consumer in every modelled scenario,
  // so the scratch is thread-local and dense: one array per resource
  // kind, indexed by link or node id. Link ids name torus positions,
  // which may outnumber the nodes, so the link array spans the whole
  // torus. Network flows are first summed per (src, dst) node pair, so
  // each distinct pair is routed once however many flows it carries.
  // Every load is a sum of integer byte counts below 2^53, which double
  // adds exactly in any order, and a max over the sums does not depend on
  // the order it visits them, so the result is bit-identical to summing
  // each resource flow by flow. route.size() is the hop count by
  // construction (shortest steps per dimension).
  static thread_local LoadTable links;
  static thread_local LoadTable nics;
  static thread_local LoadTable shm;
  static thread_local PairLoads net;
  static thread_local std::vector<u64> route;
  links.reset(cluster_->link_count());
  nics.reset(static_cast<size_t>(cluster_->num_nodes()));
  shm.reset(static_cast<size_t>(cluster_->num_nodes()));
  net.reset();
  u64 total_bytes = 0;
  bool primary_shm = false;
  const auto add_flows = [&](const std::vector<Flow>& flows, bool is_primary) {
    for (const Flow& f : flows) {
      if (f.bytes == 0) continue;
      CODS_REQUIRE(f.bytes < kExactBytes - total_bytes,
                   "batch moves 2^53 bytes or more; loads would round");
      total_bytes += f.bytes;
      if (f.src.node == f.dst.node) {
        primary_shm |= is_primary;
        shm.add(static_cast<size_t>(f.src.node), static_cast<double>(f.bytes),
                is_primary);
        continue;
      }
      net.add(f.src.node, f.dst.node, f.bytes, is_primary);
    }
  };
  add_flows(primary, /*is_primary=*/true);
  add_flows(background, /*is_primary=*/false);
  i32 max_hops = 0;
  bool primary_net = false;
  for (const PairLoads::Pair& pair : net.pairs) {
    const double bytes = static_cast<double>(pair.bytes);
    primary_net |= pair.primary;
    nics.add(static_cast<size_t>(pair.src), bytes, pair.primary);
    nics.add(static_cast<size_t>(pair.dst), bytes, pair.primary);
    cluster_->route_links(pair.src, pair.dst, route);
    if (pair.primary) {
      max_hops = std::max(max_hops, static_cast<i32>(route.size()));
    }
    for (const u64 link : route) {
      links.add(static_cast<size_t>(link), bytes, pair.primary);
    }
  }
  const double bottleneck =
      std::max({links.bottleneck(params_.link_bw),
                nics.bottleneck(params_.nic_bw),
                shm.bottleneck(params_.shm_bw)});
  double latency = 0.0;
  if (primary_net) {
    latency = params_.net_latency + max_hops * params_.hop_latency;
  } else if (primary_shm) {
    latency = params_.shm_latency;
  }
  return bottleneck + latency;
}

double CostModel::rpc_time(const CoreLoc& src, const CoreLoc& dst,
                           u64 count) const {
  if (count == 0) return 0.0;
  Flow f{src, dst, static_cast<u64>(params_.rpc_bytes)};
  return static_cast<double>(count) * 2.0 * flow_time(f);  // round trip
}

}  // namespace cods
