#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>

#include "geometry/halo.hpp"

namespace cods {
namespace {

std::map<std::pair<i32, i32>, u64> as_map(
    const std::vector<TransferVolume>& volumes) {
  std::map<std::pair<i32, i32>, u64> m;
  for (const auto& t : volumes) m[{t.src_rank, t.dst_rank}] += t.cells;
  return m;
}

TEST(Halo, OneDimensionalChain) {
  // 4 tasks on 16 cells: interior tasks have two neighbours, ends one.
  Decomposition dec({16}, {4}, Dist::kBlocked);
  const auto m = as_map(halo_volumes(dec, 1));
  EXPECT_EQ(m.size(), 6u);  // 3 undirected links, both directions
  EXPECT_EQ(m.at({0, 1}), 1u);
  EXPECT_EQ(m.at({1, 0}), 1u);
  EXPECT_EQ(m.count({0, 2}), 0u);
  EXPECT_EQ(m.count({0, 3}), 0u);
}

TEST(Halo, TwoDimensionalGridFaceAreas) {
  // 2x2 tasks over 8x6: each task is 4x3; x-faces carry 3 cells per layer,
  // y-faces carry 4.
  Decomposition dec({8, 6}, {2, 2}, Dist::kBlocked);
  const auto m = as_map(halo_volumes(dec, 1));
  // Rank layout row-major: (0,0)=0 (0,1)=1 (1,0)=2 (1,1)=3.
  EXPECT_EQ(m.at({0, 2}), 3u);  // x-neighbour: face 3 cells
  EXPECT_EQ(m.at({0, 1}), 4u);  // y-neighbour: face 4 cells
  EXPECT_EQ(m.size(), 8u);      // 4 undirected links
}

TEST(Halo, GhostWidthScalesVolume) {
  Decomposition dec({16, 16}, {2, 2}, Dist::kBlocked);
  const auto g1 = as_map(halo_volumes(dec, 1));
  const auto g2 = as_map(halo_volumes(dec, 2));
  for (const auto& [key, v] : g1) {
    EXPECT_EQ(g2.at(key), 2 * v);
  }
}

TEST(Halo, GhostWidthClampedToLocalExtent) {
  // Each task owns 2 cells per dim; ghost width 5 must clamp to 2 layers.
  Decomposition dec({4}, {2}, Dist::kBlocked);
  const auto m = as_map(halo_volumes(dec, 5));
  EXPECT_EQ(m.at({0, 1}), 2u);
}

TEST(Halo, ZeroGhostIsEmpty) {
  Decomposition dec({8, 8}, {2, 2}, Dist::kBlocked);
  EXPECT_TRUE(halo_volumes(dec, 0).empty());
}

TEST(Halo, SymmetricCellCounts3D) {
  Decomposition dec({12, 12, 12}, {3, 2, 2}, Dist::kBlocked);
  const auto m = as_map(halo_volumes(dec, 1));
  for (const auto& [key, v] : m) {
    // Equal-size blocked partitions exchange symmetric volumes.
    EXPECT_EQ(m.at({key.second, key.first}), v);
  }
}

TEST(Halo, RequiresBlocked) {
  Decomposition dec({8}, {2}, Dist::kCyclic);
  EXPECT_THROW(halo_volumes(dec, 1), Error);
  EXPECT_NO_THROW(halo_volumes(blocked_view(dec), 1));
}

TEST(Halo, BlockedViewPreservesShape) {
  Decomposition dec({8, 6}, {2, 3}, Dist::kBlockCyclic, 2);
  const Decomposition view = blocked_view(dec);
  EXPECT_EQ(view.ntasks(), dec.ntasks());
  EXPECT_EQ(view.dim(0).extent, 8);
  EXPECT_EQ(view.dim(1).nprocs, 3);
  EXPECT_EQ(view.dim(0).dist, Dist::kBlocked);
}

TEST(Halo, EmptyRaggedTasksSkipped) {
  // 5 cells over 4 procs blocked: blocks of 2 -> 2,2,1,0. Rank 3 owns
  // nothing and must not appear.
  Decomposition dec({5}, {4}, Dist::kBlocked);
  const auto m = as_map(halo_volumes(dec, 1));
  for (const auto& [key, v] : m) {
    EXPECT_NE(key.first, 3);
    EXPECT_NE(key.second, 3);
  }
}

/// The neighbour loop halo_volumes used before it stepped ranks by
/// row-major strides: a grid point and grid_to_rank per neighbour, and
/// owned_count_dim per lookup.
std::vector<TransferVolume> halo_volumes_via_grid(const Decomposition& dec,
                                                  int ghost_width) {
  std::vector<TransferVolume> out;
  if (ghost_width == 0) return out;
  for (i32 rank = 0; rank < dec.ntasks(); ++rank) {
    const Point g = dec.rank_to_grid(rank);
    std::array<i64, kMaxDims> local{};
    bool empty = false;
    for (int d = 0; d < dec.ndim(); ++d) {
      local[static_cast<size_t>(d)] =
          dec.owned_count_dim(d, static_cast<i32>(g[d]));
      if (local[static_cast<size_t>(d)] == 0) empty = true;
    }
    if (empty) continue;
    for (int d = 0; d < dec.ndim(); ++d) {
      for (int dir : {-1, +1}) {
        Point ng = g;
        ng[d] += dir;
        if (ng[d] < 0 || ng[d] >= dec.dim(d).nprocs) continue;
        if (dec.owned_count_dim(d, static_cast<i32>(ng[d])) == 0) continue;
        u64 face = 1;
        for (int e = 0; e < dec.ndim(); ++e) {
          if (e != d) face *= static_cast<u64>(local[static_cast<size_t>(e)]);
        }
        const u64 layers = static_cast<u64>(
            std::min<i64>(ghost_width, local[static_cast<size_t>(d)]));
        out.push_back(
            TransferVolume{rank, dec.grid_to_rank(ng), face * layers});
      }
    }
  }
  return out;
}

TEST(Halo, MatchesGridToRankReference) {
  const std::vector<Decomposition> decs = {
      Decomposition({5}, {4}, Dist::kBlocked),
      Decomposition({32, 17}, {4, 3}, Dist::kBlocked),
      Decomposition({7, 9, 11}, {3, 4, 2}, Dist::kBlocked),
      Decomposition({10, 6, 5, 9}, {2, 3, 5, 4}, Dist::kBlocked),
      Decomposition({64, 64, 64}, {8, 8, 2}, Dist::kBlocked),
      Decomposition({1, 8}, {1, 8}, Dist::kBlocked),
  };
  for (const Decomposition& dec : decs) {
    for (int ghost : {0, 1, 2, 5}) {
      const auto got = halo_volumes(dec, ghost);
      const auto want = halo_volumes_via_grid(dec, ghost);
      ASSERT_EQ(got.size(), want.size()) << dec.to_string() << " g=" << ghost;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].src_rank, want[i].src_rank) << dec.to_string();
        EXPECT_EQ(got[i].dst_rank, want[i].dst_rank) << dec.to_string();
        EXPECT_EQ(got[i].cells, want[i].cells) << dec.to_string();
      }
    }
  }
}

}  // namespace
}  // namespace cods
