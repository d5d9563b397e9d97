// Task-mapping strategies (paper §III-A, §IV-B):
//
//   round-robin        — the baseline used by standard MPI job launchers:
//                        each application's tasks fill consecutive cores,
//                        so coupled applications land on disjoint node sets
//                        and every coupling byte crosses the network.
//   server data-centric— for a bundle of concurrently coupled applications:
//                        build the inter-application communication graph
//                        (vertices = tasks, edge weight = coupled bytes),
//                        partition it into node-sized groups with the
//                        multilevel partitioner, map groups to nodes.
//   client data-centric— for sequentially coupled applications: each
//                        consumer task is dispatched to the node holding
//                        the largest share of its required data (from the
//                        Data Lookup service or, equivalently, the producer
//                        placement), subject to per-node core capacity.
#pragma once

#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "geometry/redistribution.hpp"
#include "partition/partitioner.hpp"
#include "platform/cluster.hpp"
#include "workflow/dag.hpp"

namespace cods {

/// Which mapping the workflow engine applies (benchmarks also drive the
/// individual strategy functions directly).
enum class MappingStrategy { kRoundRobin, kDataCentric };

std::string to_string(MappingStrategy strategy);

/// Task -> core assignment for one scheduling wave: per app (ascending
/// app id), a vector of core locations indexed by task rank, so lookups
/// are O(1) in the rank and the per-task bookkeeping allocates nothing.
/// Iteration visits the placed tasks in (app_id, rank) order.
class Placement {
 public:
  void assign(const TaskId& task, const CoreLoc& loc);
  const CoreLoc& loc(const TaskId& task) const;
  bool has(const TaskId& task) const;
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Forward iteration over (task, loc) pairs in (app_id, rank) order.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::pair<TaskId, CoreLoc>;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = value_type;

    const_iterator() = default;
    value_type operator*() const;
    const_iterator& operator++();
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.app_ == b.app_ && a.rank_ == b.rank_;
    }

   private:
    friend class Placement;
    const_iterator(const Placement* placement, size_t app, size_t rank);
    void skip_unplaced();
    const Placement* placement_ = nullptr;
    size_t app_ = 0;
    size_t rank_ = 0;
  };
  const_iterator begin() const { return const_iterator(this, 0, 0); }
  const_iterator end() const { return const_iterator(this, apps_.size(), 0); }
  /// The placement itself, as a range of (task, loc) pairs.
  const Placement& all() const { return *this; }

  /// Tasks per node (capacity accounting).
  std::map<i32, i32> node_occupancy() const;

  /// True iff no core hosts two tasks and every node is within capacity.
  bool valid(const Cluster& cluster) const;

  /// Same tasks on the same cores.
  friend bool operator==(const Placement& a, const Placement& b);

 private:
  struct AppSlots {
    i32 app_id = 0;
    std::vector<CoreLoc> by_rank;  ///< CoreLoc{} (invalid) = unplaced
  };
  const CoreLoc* find(const TaskId& task) const;

  std::vector<AppSlots> apps_;  ///< ascending app_id
  size_t size_ = 0;
};

/// Baseline: tasks of each app placed on consecutive cores starting at
/// `first_core`, app after app (standard launcher behaviour). A non-empty
/// `allowed_nodes` restricts placement to those nodes' cores, in the given
/// order (used by the engine to route around failed nodes).
Placement round_robin_placement(const Cluster& cluster,
                                const std::vector<AppSpec>& apps,
                                i32 first_core = 0,
                                const std::vector<i32>& allowed_nodes = {});

/// Inter-application communication graph of a bundle: one vertex per task
/// (apps concatenated in the given order), one edge per non-zero coupled
/// data overlap, weighted in bytes.
Graph bundle_comm_graph(const std::vector<AppSpec>& apps);

/// Transfer volumes a caller already computed, keyed by (src app id, dst
/// app id): the redistribution_volumes(src.dec, dst.dec) of that pair.
using CoupledVolumes =
    std::map<std::pair<i32, i32>, std::vector<TransferVolume>>;

/// The same graph, taking each app pair's volumes from `known` when it
/// holds them.
Graph bundle_comm_graph(const std::vector<AppSpec>& apps,
                        const CoupledVolumes& known);

struct ServerMappingResult {
  Placement placement;
  i64 edge_cut_bytes = 0;  ///< coupled bytes forced across nodes
  i32 nodes_used = 0;
};

/// Server-side data-centric mapping of a bundle of concurrently coupled
/// applications onto `nodes` (defaults to nodes 0..ceil(tasks/cores)-1).
ServerMappingResult server_data_centric_placement(
    const Cluster& cluster, const std::vector<AppSpec>& apps, u64 seed = 1,
    std::vector<i32> nodes = {});

/// The same mapping, building the bundle graph with `known` volumes.
ServerMappingResult server_data_centric_placement(
    const Cluster& cluster, const std::vector<AppSpec>& apps,
    const CoupledVolumes& known, u64 seed, std::vector<i32> nodes = {});

/// Per-consumer-task data histogram: node id -> bytes of the task's
/// required region stored on that node.
using NodeBytes = std::map<i32, u64>;

/// Computes each consumer task's NodeBytes analytically from the producer's
/// decomposition and placement. `storage_at_node_service` selects where
/// sequentially stored data lives: true = the producer task's node (put_seq
/// stores locally); the returned map is keyed by consumer rank.
std::vector<NodeBytes> consumer_node_bytes(const AppSpec& producer,
                                           const Placement& producer_placement,
                                           const AppSpec& consumer);

/// The same histograms from the producer -> consumer `volumes`.
std::vector<NodeBytes> consumer_node_bytes(
    const std::vector<TransferVolume>& volumes, const AppSpec& producer,
    const Placement& producer_placement, const AppSpec& consumer);

/// Greedy locality placement: tasks (in order) go to the allowed node with
/// the most local bytes that still has a free core; ties and fallbacks go
/// to the least-loaded allowed node. This is the decentralized client-side
/// strategy — each execution client independently picks the best node for
/// its assigned task.
Placement client_data_centric_placement(
    const Cluster& cluster, const std::vector<AppSpec>& consumers,
    const std::vector<std::vector<NodeBytes>>& per_app_node_bytes,
    const std::vector<i32>& allowed_nodes);

}  // namespace cods
