#include "platform/cost_model.hpp"

#include <algorithm>

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

}  // namespace

double CostModel::batch_time_with_background(
    const std::vector<Flow>& primary, const std::vector<Flow>& background) const {
  if (primary.empty()) return 0.0;
  // Accumulate loads over primary + background, but remember which
  // resources the primary flows touch: only those bound the result.
  //
  // This runs once per pull batch on the simulate hot path (10^5+ calls
  // per enacted wave), so the scratch is thread-local and dense: one
  // array per resource kind, indexed by link or node id. Link ids name
  // torus positions, which may outnumber the nodes, so the link array
  // spans the whole torus. Each resource's load is summed in flow order
  // (primary flows, then background), and a max over the sums does not
  // depend on the order it visits them, so the result is bit-identical
  // to any other evaluation that sums per resource in flow order.
  // route.size() is the hop count by construction (shortest steps per
  // dimension).
  static thread_local LoadTable links;
  static thread_local LoadTable nics;
  static thread_local LoadTable shm;
  static thread_local std::vector<u64> route;
  links.reset(cluster_->link_count());
  nics.reset(static_cast<size_t>(cluster_->num_nodes()));
  shm.reset(static_cast<size_t>(cluster_->num_nodes()));
  i32 max_hops = 0;
  bool primary_net = false;
  bool primary_shm = false;
  const auto add_flows = [&](const std::vector<Flow>& flows, bool is_primary) {
    for (const Flow& f : flows) {
      if (f.bytes == 0) continue;
      const double bytes = static_cast<double>(f.bytes);
      if (f.src.node == f.dst.node) {
        primary_shm |= is_primary;
        shm.add(static_cast<size_t>(f.src.node), bytes, is_primary);
        continue;
      }
      primary_net |= is_primary;
      nics.add(static_cast<size_t>(f.src.node), bytes, is_primary);
      nics.add(static_cast<size_t>(f.dst.node), bytes, is_primary);
      cluster_->route_links(f.src.node, f.dst.node, route);
      if (is_primary) {
        max_hops = std::max(max_hops, static_cast<i32>(route.size()));
      }
      for (const u64 link : route) {
        links.add(static_cast<size_t>(link), bytes, is_primary);
      }
    }
  };
  add_flows(primary, /*is_primary=*/true);
  add_flows(background, /*is_primary=*/false);
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
