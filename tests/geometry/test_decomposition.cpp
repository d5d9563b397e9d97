#include <gtest/gtest.h>

#include "geometry/decomposition.hpp"

namespace cods {
namespace {

// Brute-force per-dimension owner: the ground truth the closed forms must
// match.
i32 brute_owner(const Decomposition& dec, int d, i64 x) {
  const i64 b = dec.effective_block(d);
  return static_cast<i32>((x / b) % dec.dim(d).nprocs);
}

i64 brute_count_in(const Decomposition& dec, int d, i32 r, i64 lo, i64 hi) {
  i64 n = 0;
  for (i64 x = std::max<i64>(lo, 0);
       x <= std::min<i64>(hi, dec.dim(d).extent - 1); ++x) {
    if (brute_owner(dec, d, x) == r) ++n;
  }
  return n;
}

TEST(Decomposition, RankGridRoundTrip) {
  Decomposition dec({8, 6, 4}, {2, 3, 2}, Dist::kBlocked);
  EXPECT_EQ(dec.ntasks(), 12);
  for (i32 rank = 0; rank < dec.ntasks(); ++rank) {
    EXPECT_EQ(dec.grid_to_rank(dec.rank_to_grid(rank)), rank);
  }
}

TEST(Decomposition, BlockedOwnedBoxIsSingleContiguousBlock) {
  Decomposition dec({16, 16}, {4, 2}, Dist::kBlocked);
  for (i32 rank = 0; rank < dec.ntasks(); ++rank) {
    auto boxes = dec.owned_boxes(rank);
    ASSERT_EQ(boxes.size(), 1u);
    EXPECT_EQ(boxes[0].volume(), 4u * 8u);
  }
}

TEST(Decomposition, EffectiveBlockPerDist) {
  Decomposition b({10, 10}, {3, 3}, Dist::kBlocked);
  EXPECT_EQ(b.effective_block(0), 4);  // ceil(10/3)
  Decomposition c({10, 10}, {3, 3}, Dist::kCyclic);
  EXPECT_EQ(c.effective_block(0), 1);
  Decomposition k({10, 10}, {3, 3}, Dist::kBlockCyclic, 2);
  EXPECT_EQ(k.effective_block(0), 2);
}

TEST(Decomposition, DomainBoxAndCells) {
  Decomposition dec({8, 4}, {2, 2}, Dist::kBlocked);
  EXPECT_EQ(dec.domain_box(), (Box{{0, 0}, {7, 3}}));
  EXPECT_EQ(dec.domain_cells(), 32u);
}

struct DistCase {
  Dist dist;
  i64 block;
  i64 extent;
  i32 nprocs;
};

class OwnershipClosedForm : public ::testing::TestWithParam<DistCase> {};

TEST_P(OwnershipClosedForm, CountMatchesBruteForce) {
  const auto& c = GetParam();
  Decomposition dec({c.extent}, {c.nprocs}, c.dist, c.block);
  for (i32 r = 0; r < c.nprocs; ++r) {
    // Whole dimension.
    EXPECT_EQ(dec.owned_count_dim(0, r),
              brute_count_in(dec, 0, r, 0, c.extent - 1));
    // A handful of sub-intervals including degenerate ones.
    for (auto [lo, hi] : std::vector<std::pair<i64, i64>>{
             {0, 0},
             {0, c.extent / 2},
             {c.extent / 3, 2 * c.extent / 3},
             {c.extent - 1, c.extent - 1},
             {5, 4}}) {
      EXPECT_EQ(dec.owned_count_dim_in(0, r, lo, hi),
                brute_count_in(dec, 0, r, lo, hi))
          << "dist=" << to_string(c.dist) << " r=" << r << " [" << lo << ","
          << hi << "]";
    }
  }
}

TEST_P(OwnershipClosedForm, SegmentsMatchBruteForce) {
  const auto& c = GetParam();
  Decomposition dec({c.extent}, {c.nprocs}, c.dist, c.block);
  for (i32 r = 0; r < c.nprocs; ++r) {
    const auto segs = dec.owned_segments_dim(0, r, 0, c.extent - 1);
    // Segments must be ascending, disjoint, and cover exactly the owned set.
    i64 covered = 0;
    i64 prev_end = -2;
    for (const auto& [lo, hi] : segs) {
      EXPECT_GT(lo, prev_end + 1);  // disjoint and non-adjacent (same owner)
      EXPECT_LE(lo, hi);
      for (i64 x = lo; x <= hi; ++x) {
        EXPECT_EQ(brute_owner(dec, 0, x), r);
      }
      covered += hi - lo + 1;
      prev_end = hi;
    }
    EXPECT_EQ(covered, dec.owned_count_dim(0, r));
  }
}

TEST_P(OwnershipClosedForm, EveryCellHasExactlyOneOwner) {
  const auto& c = GetParam();
  Decomposition dec({c.extent}, {c.nprocs}, c.dist, c.block);
  i64 total = 0;
  for (i32 r = 0; r < c.nprocs; ++r) total += dec.owned_count_dim(0, r);
  EXPECT_EQ(total, c.extent);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OwnershipClosedForm,
    ::testing::Values(
        DistCase{Dist::kBlocked, 1, 16, 4}, DistCase{Dist::kBlocked, 1, 17, 4},
        DistCase{Dist::kBlocked, 1, 100, 7}, DistCase{Dist::kBlocked, 1, 5, 8},
        DistCase{Dist::kCyclic, 1, 16, 4}, DistCase{Dist::kCyclic, 1, 37, 5},
        DistCase{Dist::kCyclic, 1, 100, 7},
        DistCase{Dist::kBlockCyclic, 2, 16, 4},
        DistCase{Dist::kBlockCyclic, 3, 37, 5},
        DistCase{Dist::kBlockCyclic, 8, 100, 3},
        DistCase{Dist::kBlockCyclic, 16, 64, 2},
        DistCase{Dist::kBlockCyclic, 5, 121, 11}));

TEST(Decomposition, OwnerOfMatchesOwnedBoxes) {
  for (Dist dist : {Dist::kBlocked, Dist::kCyclic, Dist::kBlockCyclic}) {
    Decomposition dec({12, 10}, {3, 2}, dist, 2);
    // Every cell's owner_of rank must report that cell inside its boxes.
    for (i64 x = 0; x < 12; ++x) {
      for (i64 y = 0; y < 10; ++y) {
        const Point cell{x, y};
        const i32 rank = dec.owner_of(cell);
        bool found = false;
        for (const Box& b : dec.owned_boxes(rank)) {
          if (b.contains(cell)) found = true;
        }
        EXPECT_TRUE(found) << to_string(dist) << " cell " << cell.to_string();
      }
    }
  }
}

TEST(Decomposition, OwnedBoxesPartitionDomain) {
  for (Dist dist : {Dist::kBlocked, Dist::kCyclic, Dist::kBlockCyclic}) {
    Decomposition dec({12, 10}, {3, 2}, dist, 2);
    std::vector<Box> all;
    for (i32 rank = 0; rank < dec.ntasks(); ++rank) {
      auto boxes = dec.owned_boxes(rank);
      all.insert(all.end(), boxes.begin(), boxes.end());
    }
    EXPECT_TRUE(exactly_covers(dec.domain_box(), all)) << to_string(dist);
  }
}

/// owned_boxes_in spelled out: the Cartesian product of owned_segments_dim,
/// last dimension fastest.
std::vector<Box> product_of_segments(const Decomposition& dec, i32 rank,
                                     const Box& region) {
  const Point g = dec.rank_to_grid(rank);
  std::vector<Box> boxes(1);
  boxes[0].lb = Point::zeros(dec.ndim());
  boxes[0].ub = Point::zeros(dec.ndim());
  for (int d = 0; d < dec.ndim(); ++d) {
    std::vector<Box> next;
    for (const Box& prefix : boxes) {
      for (const Segment& s : dec.owned_segments_dim(
               d, static_cast<i32>(g[d]), region.lb[d], region.ub[d])) {
        Box b = prefix;
        b.lb[d] = s.first;
        b.ub[d] = s.second;
        next.push_back(b);
      }
    }
    boxes = std::move(next);
  }
  return boxes;
}

TEST(Decomposition, OwnedBoxesInIsOrderedSegmentProduct) {
  // Same boxes, same order, for 1-3 dimensions, every distribution, and
  // regions that clip, miss or exceed the domain; calls alternate between
  // shapes so a reused scratch buffer cannot leak one call into the next.
  const std::vector<Decomposition> decs = {
      Decomposition({23}, {4}, Dist::kCyclic),
      Decomposition({12, 10}, {3, 2}, Dist::kBlockCyclic, 2),
      Decomposition({16, 9}, {4, 3}, Dist::kBlocked),
      Decomposition({10, 9, 8}, {2, 3, 2}, Dist::kBlockCyclic, 3),
      Decomposition({7, 11, 5}, {3, 2, 2}, Dist::kCyclic),
  };
  for (int round = 0; round < 2; ++round) {
    for (const Decomposition& dec : decs) {
      const Box domain = dec.domain_box();
      Box clipped = domain;
      Box wide = domain;
      for (int d = 0; d < dec.ndim(); ++d) {
        clipped.lb[d] = 1 + round;
        clipped.ub[d] = std::max<i64>(clipped.lb[d], domain.ub[d] - 2);
        wide.lb[d] = -3;
        wide.ub[d] = domain.ub[d] + 5;
      }
      Box corner = domain;
      for (int d = 0; d < dec.ndim(); ++d) corner.ub[d] = 0;
      for (const Box& region : {domain, clipped, wide, corner}) {
        for (i32 rank = 0; rank < dec.ntasks(); ++rank) {
          EXPECT_EQ(dec.owned_boxes_in(rank, region),
                    product_of_segments(dec, rank, region))
              << dec.to_string() << " rank " << rank << " region "
              << region.to_string();
        }
      }
    }
  }
  const Decomposition cyclic({64, 64}, {2, 2}, Dist::kCyclic);
  EXPECT_THROW(cyclic.owned_boxes(0, /*max_boxes=*/100), Error);
  EXPECT_EQ(cyclic.owned_boxes(0).size(), 32u * 32u);
}

TEST(Decomposition, OwnedCellsInRegion) {
  Decomposition dec({16, 16}, {4, 4}, Dist::kBlocked);
  // Rank 0 owns [0..3]x[0..3].
  EXPECT_EQ(dec.owned_cells(0), 16u);
  EXPECT_EQ(dec.owned_cells_in(0, Box{{0, 0}, {1, 1}}), 4u);
  EXPECT_EQ(dec.owned_cells_in(0, Box{{8, 8}, {15, 15}}), 0u);
  EXPECT_EQ(dec.owned_cells_in(0, Box{{2, 2}, {9, 9}}), 4u);
}

TEST(Decomposition, DimOverlapSymmetricAndConserving) {
  Decomposition a({24}, {4}, Dist::kBlocked);
  Decomposition b({24}, {3}, Dist::kCyclic);
  i64 total = 0;
  for (i32 ra = 0; ra < 4; ++ra) {
    for (i32 rb = 0; rb < 3; ++rb) {
      const i64 ab = a.dim_overlap(0, ra, b, rb);
      const i64 ba = b.dim_overlap(0, rb, a, ra);
      EXPECT_EQ(ab, ba);
      total += ab;
    }
  }
  EXPECT_EQ(total, 24);  // every cell counted exactly once
}

TEST(Decomposition, MorePartsThanCellsLeavesSomeEmpty) {
  Decomposition dec({3}, {8}, Dist::kBlocked);
  i64 total = 0;
  for (i32 r = 0; r < 8; ++r) total += dec.owned_count_dim(0, r);
  EXPECT_EQ(total, 3);
}

TEST(Decomposition, RaggedBlockedEdge) {
  // 10 cells over 4 procs blocked: blocks of 3 -> 3,3,3,1.
  Decomposition dec({10}, {4}, Dist::kBlocked);
  EXPECT_EQ(dec.owned_count_dim(0, 0), 3);
  EXPECT_EQ(dec.owned_count_dim(0, 3), 1);
}

TEST(Decomposition, InvalidSpecsThrow) {
  EXPECT_THROW(Decomposition({0}, {1}, Dist::kBlocked), Error);
  EXPECT_THROW(Decomposition({4}, {0}, Dist::kBlocked), Error);
  EXPECT_THROW(Decomposition({4}, {2}, Dist::kBlockCyclic, 0), Error);
  EXPECT_THROW(Decomposition({4, 4}, {2}, Dist::kBlocked), Error);
}

TEST(Decomposition, Equality) {
  Decomposition a({8}, {2}, Dist::kBlocked);
  Decomposition b({8}, {2}, Dist::kBlocked);
  Decomposition c({8}, {2}, Dist::kCyclic);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

}  // namespace
}  // namespace cods
