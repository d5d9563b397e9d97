#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.hpp"
#include "partition/graph.hpp"
#include "support/seed_report.hpp"

namespace cods {
namespace {

/// The ordered-map CSR build: parallel edges merged by (min, max) key,
/// each row filled in key order. Kept here as the reference the bucketed
/// production build must match entry for entry.
Graph map_from_edges(i32 nvtx,
                     const std::vector<std::tuple<i32, i32, i64>>& edges) {
  std::map<std::pair<i32, i32>, i64> merged;
  for (const auto& [u, v, w] : edges) {
    if (u == v || w == 0) continue;
    merged[{std::min(u, v), std::max(u, v)}] += w;
  }
  Graph g;
  g.nvtx = nvtx;
  g.vwgt.assign(static_cast<size_t>(nvtx), 1);
  g.xadj.assign(static_cast<size_t>(nvtx) + 1, 0);
  for (const auto& [key, w] : merged) {
    ++g.xadj[static_cast<size_t>(key.first) + 1];
    ++g.xadj[static_cast<size_t>(key.second) + 1];
  }
  for (i32 v = 0; v < nvtx; ++v) {
    g.xadj[static_cast<size_t>(v) + 1] += g.xadj[static_cast<size_t>(v)];
  }
  g.adjncy.resize(static_cast<size_t>(g.xadj.back()));
  g.adjwgt.resize(static_cast<size_t>(g.xadj.back()));
  std::vector<i64> fill(g.xadj.begin(), g.xadj.end() - 1);
  for (const auto& [key, w] : merged) {
    const auto [u, v] = key;
    g.adjncy[static_cast<size_t>(fill[static_cast<size_t>(u)])] = v;
    g.adjwgt[static_cast<size_t>(fill[static_cast<size_t>(u)]++)] = w;
    g.adjncy[static_cast<size_t>(fill[static_cast<size_t>(v)])] = u;
    g.adjwgt[static_cast<size_t>(fill[static_cast<size_t>(v)]++)] = w;
  }
  return g;
}

TEST(Graph, FromEdgesBuildsSymmetricCsr) {
  const Graph g = Graph::from_edges(4, {{0, 1, 5}, {1, 2, 3}, {2, 3, 1}});
  g.validate();
  EXPECT_EQ(g.nvtx, 4);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_EQ(g.total_edge_weight(), 9);
}

TEST(Graph, ParallelEdgesMerge) {
  const Graph g = Graph::from_edges(2, {{0, 1, 5}, {1, 0, 3}, {0, 1, 2}});
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.total_edge_weight(), 10);
}

TEST(Graph, SelfLoopsAndZeroWeightsDropped) {
  const Graph g = Graph::from_edges(3, {{0, 0, 5}, {0, 1, 0}, {1, 2, 4}});
  EXPECT_EQ(g.degree(0), 0);
  EXPECT_EQ(g.total_edge_weight(), 4);
}

TEST(Graph, VertexWeightsDefaultToOne) {
  const Graph g = Graph::from_edges(3, {});
  EXPECT_EQ(g.total_vertex_weight(), 3);
}

TEST(Graph, CustomVertexWeights) {
  const Graph g = Graph::from_edges(3, {}, {2, 3, 4});
  EXPECT_EQ(g.total_vertex_weight(), 9);
}

TEST(Graph, EdgeCut) {
  const Graph g =
      Graph::from_edges(4, {{0, 1, 5}, {1, 2, 3}, {2, 3, 7}, {0, 3, 2}});
  const std::vector<i32> same = {0, 0, 0, 0};
  EXPECT_EQ(g.edge_cut(same), 0);
  const std::vector<i32> split = {0, 0, 1, 1};
  EXPECT_EQ(g.edge_cut(split), 5);  // edges (1,2)=3 and (0,3)=2 cross
  const std::vector<i32> alternating = {0, 1, 0, 1};
  EXPECT_EQ(g.edge_cut(alternating), 17);
}

TEST(Graph, FromEdgesRejectsBadInput) {
  EXPECT_THROW(Graph::from_edges(2, {{0, 2, 1}}), Error);
  EXPECT_THROW(Graph::from_edges(2, {{-1, 0, 1}}), Error);
  EXPECT_THROW(Graph::from_edges(2, {{0, 1, -5}}), Error);
  EXPECT_THROW(Graph::from_edges(2, {}, {1, 2, 3}), Error);
}

TEST(Graph, EmptyGraph) {
  const Graph g = Graph::from_edges(0, {});
  g.validate();
  EXPECT_EQ(g.edge_cut(std::vector<i32>{}), 0);
}

TEST(Graph, FromEdgesMatchesOrderedMapBuild) {
  // Seeded random edge lists with parallel edges in both orientations,
  // self-loops and zero weights: the CSR must equal the ordered-map
  // build exactly (same row order, same merged weights).
  for (u64 seed = 1; seed <= 64; ++seed) {
    CODS_SEED_NOTE(seed);
    Rng rng(seed);
    const i32 nvtx = static_cast<i32>(rng.range(1, 40));
    const i64 nedges = rng.range(0, 200);
    std::vector<std::tuple<i32, i32, i64>> edges;
    for (i64 e = 0; e < nedges; ++e) {
      const i64 w = rng.range(0, 4);  // zero weights included
      if (!edges.empty() && rng.below(4) == 0) {
        // Repeat an earlier edge, reversed half the time.
        const auto& pick = edges[static_cast<size_t>(rng.below(edges.size()))];
        const i32 u = std::get<0>(pick);
        const i32 v = std::get<1>(pick);
        if (rng.below(2) == 0) {
          edges.emplace_back(v, u, w);
        } else {
          edges.emplace_back(u, v, w);
        }
        continue;
      }
      const i32 u = static_cast<i32>(rng.below(static_cast<u64>(nvtx)));
      const i32 v = rng.below(8) == 0
                        ? u  // self-loop
                        : static_cast<i32>(rng.below(static_cast<u64>(nvtx)));
      edges.emplace_back(u, v, w);
    }
    const Graph got = Graph::from_edges(nvtx, edges);
    const Graph want = map_from_edges(nvtx, edges);
    got.validate();
    EXPECT_EQ(got.xadj, want.xadj) << "seed " << seed;
    EXPECT_EQ(got.adjncy, want.adjncy) << "seed " << seed;
    EXPECT_EQ(got.adjwgt, want.adjwgt) << "seed " << seed;
    EXPECT_EQ(got.vwgt, want.vwgt) << "seed " << seed;
  }
}

}  // namespace
}  // namespace cods
