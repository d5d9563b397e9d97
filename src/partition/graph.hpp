// Undirected weighted graphs in CSR form, used for the inter-application
// communication graphs that drive server-side data-centric task mapping
// (paper §IV-B: vertices = computation tasks, edges = coupled-data volume).
#pragma once

#include <span>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace cods {

/// CSR adjacency with vertex and edge weights. Every undirected edge is
/// stored twice (once per endpoint), with equal weights.
struct Graph {
  i32 nvtx = 0;
  std::vector<i64> xadj;    ///< size nvtx + 1
  std::vector<i32> adjncy;  ///< neighbour vertex ids
  std::vector<i64> adjwgt;  ///< edge weights, parallel to adjncy
  std::vector<i64> vwgt;    ///< vertex weights, size nvtx

  /// Builds a graph from an edge list: each row ascending by neighbour,
  /// parallel edges (either orientation) merged by summing weights,
  /// self-loops and zero-weight edges dropped. Vertex weights default to 1.
  static Graph from_edges(i32 nvtx,
                          const std::vector<std::tuple<i32, i32, i64>>& edges,
                          std::vector<i64> vertex_weights = {});

  i64 degree(i32 v) const { return xadj[static_cast<size_t>(v) + 1] -
                                   xadj[static_cast<size_t>(v)]; }

  i64 total_vertex_weight() const;
  i64 total_edge_weight() const;  ///< each undirected edge counted once

  /// Sum of weights of edges whose endpoints lie in different parts.
  i64 edge_cut(std::span<const i32> part) const;

  /// Structural invariants (sorted CSR not required; symmetry is).
  void validate() const;
};

}  // namespace cods
