// Multilevel k-way graph partitioning with one uniform hard capacity per
// part — the from-scratch METIS stand-in used by server-side data-centric
// task mapping, where every part is a node with the same core count.
//
// Pipeline (classic multilevel scheme):
//   1. Coarsening: heavy-edge matching collapses strongly-communicating
//      vertex pairs (respecting the capacity so coarse vertices stay
//      placeable), until the graph is small.
//   2. Initial partitioning: greedy graph growing — grow k regions from
//      spread-out seeds, always extending the current region along its
//      heaviest frontier edge up to an even share of the total weight.
//   3. Uncoarsening: project the partition back level by level, running
//      boundary (FM-style) refinement passes that move vertices to the
//      neighbouring part with maximal gain, subject to capacity.
// A final repair pass guarantees no part exceeds `max_part_weight`.
#pragma once

#include "partition/graph.hpp"

namespace cods {

struct PartitionOptions {
  /// Hard upper bound on the vertex weight of every part
  /// (task mapping: cores per node). 0 = ceil(total/nparts).
  i64 max_part_weight = 0;
  u64 seed = 1;  ///< deterministic RNG seed
};

struct PartitionResult {
  std::vector<i32> part;  ///< part id per vertex, in [0, nparts)
  i64 edge_cut = 0;
  i64 max_weight = 0;     ///< heaviest part weight actually produced
};

/// Partitions `g` into `nparts` parts. Throws if the capacity makes the
/// instance infeasible (total weight > nparts * max_part_weight, or one
/// vertex heavier than max_part_weight) or an edge weight is negative.
PartitionResult kway_partition(const Graph& g, i32 nparts,
                               PartitionOptions options = {});

/// True iff `part` is a valid assignment respecting the capacity.
bool partition_valid(const Graph& g, std::span<const i32> part, i32 nparts,
                     i64 max_part_weight);

}  // namespace cods
