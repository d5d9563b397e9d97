// Transfer-time model for the virtual cluster. Reproduces the *shape* of the
// paper's timing results: shared-memory transfers are an order of magnitude
// faster than network transfers, and concurrent network flows contend on
// shared torus links and node NICs (the effect behind Fig. 16's mild growth).
//
// A batch of flows (all started together, receiver-driven pull) completes in
//   T = max_resource(load / bandwidth) + max_flow(hops) * per_hop_latency
// where resources are: each directed torus link on a flow's dimension-order
// route, each endpoint NIC (injection/ejection), and each node's memory bus
// for intra-node (shared-memory) flows.
#pragma once

#include <span>
#include <vector>

#include "platform/cluster.hpp"

namespace cods {

/// Fabric and memory-system parameters. Defaults approximate a Cray XT5:
/// SeaStar2+ ~2 GB/s injection, ~9.6 GB/s links, microsecond-scale latency;
/// intra-node shared memory ~6 GB/s effective with sub-microsecond latency.
struct CostParams {
  double link_bw = 9.6e9;    ///< bytes/s per directed torus link
  double nic_bw = 2.0e9;     ///< bytes/s injection/ejection per node
  double hop_latency = 2e-6;  ///< seconds per network hop
  double net_latency = 5e-6;  ///< fixed per-transfer network setup cost
  double shm_bw = 6.0e9;     ///< bytes/s node-local memory streaming
  double shm_latency = 5e-7;  ///< seconds per shared-memory transfer
  double rpc_bytes = 256;    ///< modelled size of one RPC/query message
};

/// Named fabric presets for sensitivity studies. The paper's motivation —
/// a growing gap between on-chip sharing and off-chip transfers — shows up
/// directly: the slower the fabric relative to memory, the bigger the
/// data-centric mapping win.
namespace fabric {

/// Cray SeaStar2+ (Jaguar XT5, the paper's testbed). Same as the defaults.
CostParams seastar2();

/// Cray Gemini (XE6/XK7 generation): ~3x the injection bandwidth,
/// lower latency.
CostParams gemini();

/// A modern 100 Gbps-class fabric with near-memory-speed links.
CostParams modern_hpc();

}  // namespace fabric

/// One data movement between two cores.
struct Flow {
  CoreLoc src;
  CoreLoc dst;
  u64 bytes = 0;
};

/// Bytes a batch moves from node `src` to node `dst`, summed over the
/// flows between their cores. src == dst is a shared-memory transfer on
/// that node.
struct NodePairBytes {
  i32 src = 0;
  i32 dst = 0;
  u64 bytes = 0;
};

/// Estimates completion times for flow batches on a given cluster.
class CostModel {
 public:
  /// A batch's nonzero bytes must total less than this: below 2^53 every
  /// partial load sum is an integer that double holds exactly.
  static constexpr u64 kExactBytes = u64{1} << 53;

  CostModel(const Cluster& cluster, CostParams params = {})
      : cluster_(&cluster), params_(params) {}

  const CostParams& params() const { return params_; }

  /// Time for a single isolated flow.
  double flow_time(const Flow& flow) const;

  /// Completion time of a batch of concurrent flows (receiver-driven pull:
  /// all requests issued together, transfer pipeline saturates the
  /// bottleneck resource).
  double batch_time(const std::vector<Flow>& flows) const;

  /// Completion time of `primary` traffic while `background` traffic
  /// contends for the same links/NICs (e.g. two consumer applications
  /// pulling simultaneously in the sequential coupling scenario), both
  /// given as bytes per node pair. Only resources actually used by a
  /// primary pair bound the result, but their load includes the
  /// background traffic. A pair may appear in both lists and more than
  /// once in either. With an empty background, the per-pair sums of a
  /// flow list price bit for bit as batch_time prices the flows.
  double batch_time_of_pairs(std::span<const NodePairBytes> primary,
                             std::span<const NodePairBytes> background) const;

  /// Time for `count` small RPC round-trips between two cores (DHT queries).
  double rpc_time(const CoreLoc& src, const CoreLoc& dst, u64 count = 1) const;

 private:
  const Cluster* cluster_;
  CostParams params_;
};

}  // namespace cods
