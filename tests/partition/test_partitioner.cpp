#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "common/rng.hpp"
#include "partition/partitioner.hpp"
#include "workflow/mapping.hpp"

namespace cods {
namespace {

/// Grid graph: w x h lattice with unit edge weights — known good partitions
/// are contiguous tiles.
Graph grid_graph(i32 w, i32 h, i64 edge_weight = 1) {
  std::vector<std::tuple<i32, i32, i64>> edges;
  for (i32 y = 0; y < h; ++y) {
    for (i32 x = 0; x < w; ++x) {
      const i32 v = y * w + x;
      if (x + 1 < w) edges.emplace_back(v, v + 1, edge_weight);
      if (y + 1 < h) edges.emplace_back(v, v + w, edge_weight);
    }
  }
  return Graph::from_edges(w * h, edges);
}

/// Random partition respecting capacity: the baseline any real partitioner
/// must beat on structured graphs.
std::vector<i32> random_partition(const Graph& g, i32 nparts, i64 cap,
                                  u64 seed) {
  Rng rng(seed);
  std::vector<i32> part(static_cast<size_t>(g.nvtx));
  std::vector<i64> weight(static_cast<size_t>(nparts), 0);
  for (i32 v = 0; v < g.nvtx; ++v) {
    i32 p;
    do {
      p = static_cast<i32>(rng.below(static_cast<u64>(nparts)));
    } while (weight[static_cast<size_t>(p)] + g.vwgt[static_cast<size_t>(v)] >
             cap);
    part[static_cast<size_t>(v)] = p;
    weight[static_cast<size_t>(p)] += g.vwgt[static_cast<size_t>(v)];
  }
  return part;
}

TEST(Partitioner, SinglePartIsTrivial) {
  const Graph g = grid_graph(4, 4);
  const auto result = kway_partition(g, 1);
  EXPECT_EQ(result.edge_cut, 0);
  for (i32 p : result.part) EXPECT_EQ(p, 0);
}

TEST(Partitioner, RespectsHardCapacity) {
  const Graph g = grid_graph(8, 8);
  PartitionOptions opt;
  opt.max_part_weight = 8;
  const auto result = kway_partition(g, 8, opt);
  EXPECT_TRUE(partition_valid(g, result.part, 8, 8));
  EXPECT_LE(result.max_weight, 8);
}

TEST(Partitioner, ExactCapacityFeasible) {
  // 64 vertices, 8 parts, capacity exactly 8: zero slack.
  const Graph g = grid_graph(8, 8);
  PartitionOptions opt;
  opt.max_part_weight = 8;
  const auto result = kway_partition(g, 8, opt);
  std::vector<i64> w(8, 0);
  for (i32 v = 0; v < g.nvtx; ++v) ++w[static_cast<size_t>(result.part[static_cast<size_t>(v)])];
  for (i64 x : w) EXPECT_EQ(x, 8);
}

TEST(Partitioner, TightFitFeasible) {
  // Zero slack on a non-square grid: 36 vertices, 3 parts of exactly 12.
  const Graph g = grid_graph(9, 4);
  PartitionOptions opt;
  opt.max_part_weight = 12;
  const auto result = kway_partition(g, 3, opt);
  std::vector<i64> w(3, 0);
  for (i32 p : result.part) ++w[static_cast<size_t>(p)];
  for (i64 x : w) EXPECT_EQ(x, 12);
}

TEST(Partitioner, InfeasibleThrows) {
  const Graph g = grid_graph(4, 4);
  PartitionOptions opt;
  opt.max_part_weight = 3;
  EXPECT_THROW(kway_partition(g, 4, opt), Error);  // 16 > 4*3
}

TEST(Partitioner, OversizedVertexThrows) {
  const Graph g = Graph::from_edges(2, {{0, 1, 1}}, {5, 1});
  PartitionOptions opt;
  opt.max_part_weight = 4;
  EXPECT_THROW(kway_partition(g, 2, opt), Error);
}

TEST(Partitioner, BeatsRandomOnGrids) {
  const Graph g = grid_graph(16, 16);
  PartitionOptions opt;
  opt.max_part_weight = 32;
  const auto result = kway_partition(g, 8, opt);
  const auto random = random_partition(g, 8, 32, 7);
  EXPECT_LT(result.edge_cut, g.edge_cut(random) / 2)
      << "multilevel cut " << result.edge_cut << " vs random "
      << g.edge_cut(random);
}

TEST(Partitioner, PerfectBipartitionOfTwoCliques) {
  // Two 4-cliques joined by one light edge: the optimal bipartition cuts
  // exactly that edge.
  std::vector<std::tuple<i32, i32, i64>> edges;
  for (i32 a = 0; a < 4; ++a)
    for (i32 b = a + 1; b < 4; ++b) {
      edges.emplace_back(a, b, 10);
      edges.emplace_back(4 + a, 4 + b, 10);
    }
  edges.emplace_back(0, 4, 1);
  const Graph g = Graph::from_edges(8, edges);
  PartitionOptions opt;
  opt.max_part_weight = 4;
  const auto result = kway_partition(g, 2, opt);
  EXPECT_EQ(result.edge_cut, 1);
}

TEST(Partitioner, Deterministic) {
  const Graph g = grid_graph(12, 12);
  PartitionOptions opt;
  opt.seed = 42;
  opt.max_part_weight = 18;
  const auto a = kway_partition(g, 8, opt);
  const auto b = kway_partition(g, 8, opt);
  EXPECT_EQ(a.part, b.part);
  EXPECT_EQ(a.edge_cut, b.edge_cut);
}

TEST(Partitioner, EdgeCutFieldMatchesGraph) {
  const Graph g = grid_graph(10, 10);
  PartitionOptions opt;
  opt.max_part_weight = 25;
  const auto result = kway_partition(g, 4, opt);
  EXPECT_EQ(result.edge_cut, g.edge_cut(result.part));
}

class PartitionerSweep
    : public ::testing::TestWithParam<std::tuple<i32, i32, u64>> {};

TEST_P(PartitionerSweep, AlwaysValidUnderCapacity) {
  const auto& [side, nparts, seed] = GetParam();
  const Graph g = grid_graph(side, side);
  const i64 cap = (static_cast<i64>(side) * side + nparts - 1) / nparts;
  PartitionOptions opt;
  opt.max_part_weight = cap;
  opt.seed = seed;
  const auto result = kway_partition(g, nparts, opt);
  EXPECT_TRUE(partition_valid(g, result.part, nparts, cap));
  EXPECT_GE(result.edge_cut, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartitionerSweep,
    ::testing::Combine(::testing::Values(4, 7, 12, 20),
                       ::testing::Values(2, 3, 8, 12),
                       ::testing::Values(1u, 99u)));

TEST(Partitioner, DisconnectedComponents) {
  // Two disjoint paths; partitioner must still produce a valid result.
  const Graph g =
      Graph::from_edges(6, {{0, 1, 1}, {1, 2, 1}, {3, 4, 1}, {4, 5, 1}});
  PartitionOptions opt;
  opt.max_part_weight = 3;
  const auto result = kway_partition(g, 2, opt);
  EXPECT_TRUE(partition_valid(g, result.part, 2, 3));
  EXPECT_EQ(result.edge_cut, 0);  // natural split along components
}

TEST(Partitioner, WeightedVerticesRespectCapacity) {
  std::vector<i64> vw = {3, 3, 2, 2, 1, 1};
  const Graph g = Graph::from_edges(
      6, {{0, 1, 4}, {1, 2, 4}, {2, 3, 4}, {3, 4, 4}, {4, 5, 4}}, vw);
  PartitionOptions opt;
  opt.max_part_weight = 6;
  const auto result = kway_partition(g, 2, opt);
  EXPECT_TRUE(partition_valid(g, result.part, 2, 6));
}

TEST(Partitioner, WeightedVerticesZeroSlack) {
  // Chain 5,4,3,2,1,1 into two parts of 8: the 5 and the 4 can never
  // share a part, so the partitioner must cut the heavy edge between them.
  const Graph g = Graph::from_edges(
      6, {{0, 1, 2}, {1, 2, 2}, {2, 3, 2}, {3, 4, 2}, {4, 5, 2}},
      {5, 4, 3, 2, 1, 1});
  PartitionOptions opt;
  opt.max_part_weight = 8;
  const auto result = kway_partition(g, 2, opt);
  EXPECT_TRUE(partition_valid(g, result.part, 2, 8));
  EXPECT_NE(result.part[0], result.part[1]);
  EXPECT_EQ(result.max_weight, 8);
}

TEST(Partitioner, OddPartCounts) {
  const Graph g = grid_graph(9, 7);  // 63 vertices
  for (i32 nparts : {3, 5, 7}) {
    PartitionOptions opt;
    opt.max_part_weight = (63 + nparts - 1) / nparts + 2;  // slight slack
    const auto result = kway_partition(g, nparts, opt);
    EXPECT_TRUE(partition_valid(g, result.part, nparts, opt.max_part_weight))
        << "nparts=" << nparts;
    EXPECT_EQ(result.edge_cut, g.edge_cut(result.part)) << "nparts=" << nparts;
  }
}

TEST(Partitioner, NonPositivePartCountThrows) {
  const Graph g = grid_graph(4, 4);
  EXPECT_THROW(kway_partition(g, 0), Error);
  EXPECT_THROW(kway_partition(g, -3), Error);
}

TEST(Partitioner, DefaultCapacityIsCeilShare) {
  // max_part_weight = 0 means ceil(total / nparts): 100 vertices into 3
  // parts allows 34 each, into 4 parts exactly 25 each.
  const Graph g = grid_graph(10, 10);
  const auto three = kway_partition(g, 3);
  EXPECT_TRUE(partition_valid(g, three.part, 3, 34));
  EXPECT_LE(three.max_weight, 34);
  const auto four = kway_partition(g, 4);
  std::vector<i64> w(4, 0);
  for (i32 p : four.part) ++w[static_cast<size_t>(p)];
  for (i64 x : w) EXPECT_EQ(x, 25);
}

TEST(Partitioner, MaxWeightFieldMatchesParts) {
  // Weighted vertices (1..3) on a 12x12 grid into 6 parts with slack.
  std::vector<std::tuple<i32, i32, i64>> edges;
  std::vector<i64> vwgt;
  for (i32 v = 0; v < 144; ++v) {
    vwgt.push_back(1 + v % 3);
    if (v % 12 + 1 < 12) edges.emplace_back(v, v + 1, 1);
    if (v + 12 < 144) edges.emplace_back(v, v + 12, 1);
  }
  const Graph g = Graph::from_edges(144, edges, std::move(vwgt));
  PartitionOptions opt;
  opt.max_part_weight = 52;  // total 288, 6 parts: 48 each plus slack
  const auto result = kway_partition(g, 6, opt);
  ASSERT_TRUE(partition_valid(g, result.part, 6, 52));
  std::vector<i64> w(6, 0);
  for (i32 v = 0; v < g.nvtx; ++v) {
    w[static_cast<size_t>(result.part[static_cast<size_t>(v)])] +=
        g.vwgt[static_cast<size_t>(v)];
  }
  EXPECT_EQ(result.max_weight, *std::max_element(w.begin(), w.end()));
}

TEST(Partitioner, QualityStableAcrossSeeds) {
  // The seed only breaks ties: on a grid every seed's cut stays within 2x
  // of the best seed's and well under a random partition's.
  const Graph g = grid_graph(20, 20);
  PartitionOptions opt;
  opt.max_part_weight = 50;
  std::vector<i64> cuts;
  for (u64 seed = 1; seed <= 6; ++seed) {
    opt.seed = seed;
    cuts.push_back(kway_partition(g, 8, opt).edge_cut);
  }
  const i64 best = *std::min_element(cuts.begin(), cuts.end());
  const i64 random_cut = g.edge_cut(random_partition(g, 8, 50, 3));
  for (i64 cut : cuts) {
    EXPECT_LE(cut, 2 * best) << "best " << best;
    EXPECT_LT(cut, random_cut / 2) << "random " << random_cut;
  }
}

TEST(Partitioner, CoarsensLargeGraph) {
  // 2304 vertices sit far above the coarsening target, so the partition
  // comes back through several uncoarsening levels.
  const Graph g = grid_graph(48, 48);
  PartitionOptions opt;
  opt.max_part_weight = 96;
  const auto result = kway_partition(g, 24, opt);
  EXPECT_TRUE(partition_valid(g, result.part, 24, 96));
  EXPECT_EQ(result.edge_cut, g.edge_cut(result.part));
  EXPECT_LT(result.edge_cut, g.edge_cut(random_partition(g, 24, 96, 5)) / 4);
}

TEST(Partitioner, UnitCapacityGivesSingletonParts) {
  // Capacity 1 puts every vertex alone, so every edge is cut.
  const Graph g = grid_graph(3, 3, 5);
  PartitionOptions opt;
  opt.max_part_weight = 1;
  const auto result = kway_partition(g, 9, opt);
  ASSERT_TRUE(partition_valid(g, result.part, 9, 1));
  EXPECT_EQ(result.edge_cut, 12 * 5);  // 12 grid edges of weight 5
  EXPECT_EQ(result.max_weight, 1);
}

TEST(Partitioner, BipartiteCouplingGraphGroupsProducerWithConsumers) {
  // The server-side mapping shape (paper Fig. 7): 12 producer tasks each
  // coupled to one of 4 consumer tasks. With capacity 4 and 4 parts, the
  // ideal mapping puts each consumer with its 3 producers -> zero cut.
  std::vector<std::tuple<i32, i32, i64>> edges;
  for (i32 p = 0; p < 12; ++p) edges.emplace_back(p, 12 + p / 3, 100);
  const Graph g = Graph::from_edges(16, edges);
  PartitionOptions opt;
  opt.max_part_weight = 4;
  const auto result = kway_partition(g, 4, opt);
  EXPECT_EQ(result.edge_cut, 0);
}

/// FNV-1a over the part vector then the edge cut: one number that moves
/// if any vertex changes part.
u64 fingerprint(const PartitionResult& result) {
  u64 h = 14695981039346656037ull;
  auto mix = [&h](i64 x) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<u64>(x >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (i32 p : result.part) mix(p);
  mix(result.edge_cut);
  return h;
}

/// An n-vertex path with mixed vertex weights (1..4) and edge weights
/// (1..9). Pinned at two sizes: at n = 83 (total weight 208, 5 parts of
/// 48) the growing target, the ceiling of the even share, differs from
/// both the floor share and the capacity; at n = 203 the path is
/// coarsened and its partition depends on the number of refinement
/// passes.
Graph weighted_chain(i32 n) {
  std::vector<std::tuple<i32, i32, i64>> edges;
  std::vector<i64> vwgt;
  for (i32 v = 0; v < n; ++v) {
    vwgt.push_back(1 + (v * 7) % 4);
    if (v + 1 < n) edges.emplace_back(v, v + 1, 1 + (v * 13) % 9);
  }
  return Graph::from_edges(n, edges, std::move(vwgt));
}

/// A CAP1 -> CAP2 bundle graph: a blocked producer feeding a consumer of
/// distribution `consumer_dist` (block 64) over `extents`, 8-byte cells.
Graph bundle_graph(std::vector<i64> extents, std::vector<i32> producer_procs,
                   std::vector<i32> consumer_procs, Dist consumer_dist) {
  auto app = [&extents](i32 id, std::vector<i32> procs, Dist dist) {
    AppSpec spec;
    spec.app_id = id;
    spec.dec = Decomposition(extents, std::move(procs), dist, 64);
    spec.elem_size = 8;
    return spec;
  };
  return bundle_comm_graph({app(1, std::move(producer_procs), Dist::kBlocked),
                            app(2, std::move(consumer_procs), consumer_dist)});
}

/// The Fig. 8 bundle shape: CAP1 (8x8x8 blocked) feeding CAP2 (4x4x4
/// cyclic) over a 1024^3 domain, mapped onto 12-core nodes.
Graph fig08_bundle_graph() {
  return bundle_graph({1024, 1024, 1024}, {8, 8, 8}, {4, 4, 4}, Dist::kCyclic);
}

TEST(Partitioner, OutputsPinned) {
  // Pins the exact partitions (not just their quality): the partitioner
  // is a deterministic function of (graph, nparts, capacity, seed), and
  // the modelled figures depend on every vertex's part.
  struct Case {
    const char* name;
    Graph graph;
    i32 nparts;
    i64 cap;
  };
  const std::vector<Case> cases = {
      {"grid16x16", grid_graph(16, 16), 8, 32},
      {"chain83", weighted_chain(83), 5, 48},
      {"chain203", weighted_chain(203), 10, 56},
      {"fig08_bundle", fig08_bundle_graph(), 48, 12},
      // Blocked -> block-cyclic: the dense coarsening shape.
      {"fig08_blockcyclic",
       bundle_graph({1024, 1024, 1024}, {8, 8, 8}, {4, 4, 4},
                    Dist::kBlockCyclic),
       48, 12},
      // Fig. 16 ladder at factor 4 (2048 + 256 tasks on 192 nodes): the
      // capacity-repair shape, hundreds of moves at the finest level.
      {"fig16_x4_blocked",
       bundle_graph({2048, 2048, 1024}, {16, 16, 8}, {8, 8, 4},
                    Dist::kBlocked),
       192, 12},
  };
  const std::map<std::pair<std::string, u64>, u64> expected = {
      {{"grid16x16", 1}, 4894143800630729701ull},
      {{"grid16x16", 7}, 16733328919176116450ull},
      {{"chain83", 1}, 2366760849433385039ull},
      {{"chain83", 7}, 14653979078819686221ull},
      {{"chain203", 1}, 10442394579917201585ull},
      {{"chain203", 7}, 3090251257457621558ull},
      {{"fig08_bundle", 1}, 4081977315404243655ull},
      {{"fig08_bundle", 7}, 9012683513305232479ull},
      {{"fig08_blockcyclic", 1}, 2021155710009923034ull},
      {{"fig08_blockcyclic", 7}, 452736217701482170ull},
      {{"fig16_x4_blocked", 1}, 15777844977263076020ull},
      {{"fig16_x4_blocked", 7}, 13769820841115388756ull},
  };
  for (const Case& c : cases) {
    for (u64 seed : {1u, 7u}) {
      PartitionOptions opt;
      opt.max_part_weight = c.cap;
      opt.seed = seed;
      const auto result = kway_partition(c.graph, c.nparts, opt);
      ASSERT_TRUE(partition_valid(c.graph, result.part, c.nparts, c.cap));
      EXPECT_EQ(fingerprint(result), expected.at({c.name, seed}))
          << c.name << " seed " << seed << " cut " << result.edge_cut;
    }
  }
}

/// Uniform coarse blocks over a row-major fine grid (the opm-core
/// `partition_unif_idx` mapping): fine cell i lands in coarse block
/// i * coarse / fine along every dimension. Returns the block per cell.
std::vector<i32> uniform_blocks(const std::vector<i32>& fine,
                                const std::vector<i32>& coarse) {
  i32 cells = 1;
  for (i32 f : fine) cells *= f;
  std::vector<i32> block(static_cast<size_t>(cells));
  for (i32 cell = 0; cell < cells; ++cell) {
    i32 rest = cell;
    i32 stride = 1;
    i32 id = 0;
    for (size_t d = fine.size(); d-- > 0;) {
      const i32 i = rest % fine[d];
      rest /= fine[d];
      id += (i * coarse[d] / fine[d]) * stride;
      stride *= coarse[d];
    }
    block[static_cast<size_t>(cell)] = id;
  }
  return block;
}

TEST(Partitioner, NoWorseThanUniformBlocksOnMatchedBundles) {
  // A blocked producer over a blocked consumer grid that divides it: each
  // consumer task reads exactly the producer tasks of its uniform coarse
  // block, so one part per consumer with its producers (capacity =
  // producers per consumer + 1) has cut 0. The multilevel partition must
  // do no worse than that uniform baseline.
  struct Case {
    std::vector<i64> extents;
    std::vector<i32> producer;
    std::vector<i32> consumer;
  };
  const std::vector<Case> cases = {
      {{1024, 1024, 1024}, {8, 8, 8}, {4, 4, 4}},
      {{2048, 1024, 1024}, {16, 8, 8}, {8, 4, 4}},
      {{2048, 2048, 1024}, {16, 16, 8}, {8, 8, 4}},
  };
  for (const Case& c : cases) {
    const Graph g =
        bundle_graph(c.extents, c.producer, c.consumer, Dist::kBlocked);
    std::vector<i32> uniform = uniform_blocks(c.producer, c.consumer);
    const i32 nparts = static_cast<i32>(g.nvtx - uniform.size());
    for (i32 r = 0; r < nparts; ++r) uniform.push_back(r);
    const i64 cap = (g.nvtx + nparts - 1) / nparts;
    ASSERT_EQ(cap, static_cast<i64>(uniform.size()) / nparts);
    ASSERT_TRUE(partition_valid(g, uniform, nparts, cap));
    const i64 uniform_cut = g.edge_cut(uniform);
    EXPECT_EQ(uniform_cut, 0);
    for (u64 seed : {1u, 7u, 42u}) {
      PartitionOptions opt;
      opt.max_part_weight = cap;
      opt.seed = seed;
      const auto result = kway_partition(g, nparts, opt);
      ASSERT_TRUE(partition_valid(g, result.part, nparts, cap));
      EXPECT_LE(result.edge_cut, uniform_cut)
          << g.nvtx << " tasks, seed " << seed;
    }
  }
}

}  // namespace
}  // namespace cods
