#include "partition/graph.hpp"

#include <algorithm>

namespace cods {

Graph Graph::from_edges(i32 nvtx,
                        const std::vector<std::tuple<i32, i32, i64>>& edges,
                        std::vector<i64> vertex_weights) {
  CODS_REQUIRE(nvtx >= 0, "vertex count must be non-negative");
  // Bucket both directions of every kept edge by source (a counting sort).
  std::vector<i64> start(static_cast<size_t>(nvtx) + 1, 0);
  for (const auto& [u, v, w] : edges) {
    CODS_REQUIRE(u >= 0 && u < nvtx && v >= 0 && v < nvtx,
                 "edge endpoint out of range");
    CODS_REQUIRE(w >= 0, "edge weight must be non-negative");
    if (u == v || w == 0) continue;
    ++start[static_cast<size_t>(u) + 1];
    ++start[static_cast<size_t>(v) + 1];
  }
  Graph g;
  g.nvtx = nvtx;
  if (vertex_weights.empty()) {
    g.vwgt.assign(static_cast<size_t>(nvtx), 1);
  } else {
    CODS_REQUIRE(static_cast<i32>(vertex_weights.size()) == nvtx,
                 "vertex weight size mismatch");
    g.vwgt = std::move(vertex_weights);
  }
  for (i32 v = 0; v < nvtx; ++v) {
    start[static_cast<size_t>(v) + 1] += start[static_cast<size_t>(v)];
  }
  std::vector<std::pair<i32, i64>> bucket(
      static_cast<size_t>(start.back()));
  std::vector<i64> fill(start.begin(), start.end() - 1);
  for (const auto& [u, v, w] : edges) {
    if (u == v || w == 0) continue;
    bucket[static_cast<size_t>(fill[static_cast<size_t>(u)]++)] = {v, w};
    bucket[static_cast<size_t>(fill[static_cast<size_t>(v)]++)] = {u, w};
  }
  // Each row ascending by neighbour, parallel edges summed.
  g.xadj.assign(static_cast<size_t>(nvtx) + 1, 0);
  g.adjncy.reserve(bucket.size());
  g.adjwgt.reserve(bucket.size());
  for (i32 v = 0; v < nvtx; ++v) {
    const auto first = bucket.begin() + start[static_cast<size_t>(v)];
    const auto last = bucket.begin() + start[static_cast<size_t>(v) + 1];
    std::sort(first, last, [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    const size_t row = g.adjncy.size();
    for (auto it = first; it != last; ++it) {
      if (g.adjncy.size() > row && g.adjncy.back() == it->first) {
        g.adjwgt.back() += it->second;
      } else {
        g.adjncy.push_back(it->first);
        g.adjwgt.push_back(it->second);
      }
    }
    g.xadj[static_cast<size_t>(v) + 1] = static_cast<i64>(g.adjncy.size());
  }
  return g;
}

i64 Graph::total_vertex_weight() const {
  i64 total = 0;
  for (i64 w : vwgt) total += w;
  return total;
}

i64 Graph::total_edge_weight() const {
  i64 total = 0;
  for (i64 w : adjwgt) total += w;
  return total / 2;
}

i64 Graph::edge_cut(std::span<const i32> part) const {
  CODS_REQUIRE(static_cast<i32>(part.size()) == nvtx,
               "partition vector size mismatch");
  i64 cut = 0;
  for (i32 v = 0; v < nvtx; ++v) {
    for (i64 e = xadj[static_cast<size_t>(v)];
         e < xadj[static_cast<size_t>(v) + 1]; ++e) {
      const i32 u = adjncy[static_cast<size_t>(e)];
      if (part[static_cast<size_t>(v)] != part[static_cast<size_t>(u)]) {
        cut += adjwgt[static_cast<size_t>(e)];
      }
    }
  }
  return cut / 2;
}

void Graph::validate() const {
  CODS_CHECK(static_cast<i32>(xadj.size()) == nvtx + 1, "bad xadj size");
  CODS_CHECK(adjncy.size() == adjwgt.size(), "adjncy/adjwgt size mismatch");
  CODS_CHECK(static_cast<i32>(vwgt.size()) == nvtx, "bad vwgt size");
  CODS_CHECK(xadj.front() == 0 &&
                 xadj.back() == static_cast<i64>(adjncy.size()),
             "bad xadj bounds");
  for (i32 v = 0; v < nvtx; ++v) {
    CODS_CHECK(xadj[static_cast<size_t>(v)] <= xadj[static_cast<size_t>(v) + 1],
               "xadj not monotone");
    for (i64 e = xadj[static_cast<size_t>(v)];
         e < xadj[static_cast<size_t>(v) + 1]; ++e) {
      const i32 u = adjncy[static_cast<size_t>(e)];
      CODS_CHECK(u >= 0 && u < nvtx && u != v, "bad neighbour");
    }
  }
}

}  // namespace cods
