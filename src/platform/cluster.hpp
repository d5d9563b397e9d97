// Virtual multicore cluster: the Jaguar Cray XT5 stand-in. Nodes have a
// fixed core count; nodes are arranged in a 3-D torus (SeaStar2+-like).
// All placement and byte-accounting decisions in the framework resolve
// through this model.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace cods {

/// A computation task: one process of one parallel application
/// (paper: "computation task, i.e. process in an MPI program").
struct TaskId {
  i32 app_id = 0;
  i32 rank = 0;

  friend bool operator==(const TaskId& a, const TaskId& b) {
    return a.app_id == b.app_id && a.rank == b.rank;
  }
  friend auto operator<=>(const TaskId& a, const TaskId& b) = default;
};

/// A processor core location within the cluster.
struct CoreLoc {
  i32 node = -1;
  i32 core = -1;

  bool valid() const { return node >= 0 && core >= 0; }
  friend bool operator==(const CoreLoc& a, const CoreLoc& b) = default;
};

/// Static description of the machine.
struct ClusterSpec {
  i32 num_nodes = 1;
  i32 cores_per_node = 12;  // Jaguar XT5: dual hex-core Opterons

  /// 3-D torus shape; {0,0,0} means "derive a near-cubic factorization
  /// of num_nodes automatically".
  std::array<i32, 3> torus = {0, 0, 0};

  i32 total_cores() const { return num_nodes * cores_per_node; }
};

/// The cluster instance: resolves cores <-> nodes and torus coordinates.
class Cluster {
 public:
  explicit Cluster(ClusterSpec spec);

  const ClusterSpec& spec() const { return spec_; }
  i32 num_nodes() const { return spec_.num_nodes; }
  i32 cores_per_node() const { return spec_.cores_per_node; }
  i32 total_cores() const { return spec_.total_cores(); }

  /// Global core id <-> (node, core) mapping. Cores are numbered
  /// node-major: global = node * cores_per_node + core.
  CoreLoc core_loc(i32 global_core) const;
  i32 global_core(const CoreLoc& loc) const;

  /// Torus coordinate of a node (nodes laid out row-major in the torus;
  /// ids beyond the full torus volume are rejected at construction).
  std::array<i32, 3> torus_coord(i32 node) const;
  const std::array<i32, 3>& torus_dims() const { return torus_dims_; }

  /// Shortest-path hop count between two nodes on the wrap-around torus.
  i32 hops(i32 node_a, i32 node_b) const;

  /// Directed links (dimension-order route) from node_a to node_b; each
  /// link is identified by (torus position, dim, direction sign packed as
  /// 0/1). Used by the contention model to accumulate per-link loads.
  /// Written into `links` (cleared first) so a hot caller can reuse one
  /// buffer.
  void route_links(i32 node_a, i32 node_b, std::vector<u64>& links) const;

  /// Number of distinct link ids: 6 per torus position. The torus volume
  /// may exceed the node count, and routes pass through positions that
  /// hold no node, so link ids range over the whole torus.
  size_t link_count() const {
    return 6 * static_cast<size_t>(torus_dims_[0]) *
           static_cast<size_t>(torus_dims_[1]) *
           static_cast<size_t>(torus_dims_[2]);
  }

  std::string to_string() const;

 private:
  ClusterSpec spec_;
  std::array<i32, 3> torus_dims_{};
};

}  // namespace cods
