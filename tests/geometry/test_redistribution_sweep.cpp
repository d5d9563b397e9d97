// Property tests pinning the production redistribution build to the
// brute-force oracle (tests/support/redistribution_oracle.hpp): for
// randomized decomposition pairs the two must produce *identical*
// transfer lists — same pairs, same cell counts, same order — and the
// comm graph derived from them must match.
#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.hpp"
#include "geometry/redistribution.hpp"
#include "support/redistribution_oracle.hpp"
#include "support/seed_report.hpp"
#include "workflow/mapping.hpp"

namespace cods {
namespace {

i64 uniform(Rng& rng, i64 lo, i64 hi) {
  return lo + static_cast<i64>(rng() % static_cast<u64>(hi - lo + 1));
}

Dist random_dist(Rng& rng) {
  switch (rng() % 3) {
    case 0:
      return Dist::kBlocked;
    case 1:
      return Dist::kCyclic;
    default:
      return Dist::kBlockCyclic;
  }
}

Decomposition random_decomposition(Rng& rng,
                                   const std::vector<i64>& extents) {
  std::vector<DimSpec> dims;
  for (i64 extent : extents) {
    DimSpec spec;
    spec.extent = extent;
    spec.nprocs = static_cast<i32>(uniform(rng, 1, std::min<i64>(5, extent)));
    spec.dist = random_dist(rng);
    spec.block = uniform(rng, 1, 4);
    dims.push_back(spec);
  }
  return Decomposition(dims);
}

void expect_identical(const std::vector<TransferVolume>& sweep,
                      const std::vector<TransferVolume>& naive, u64 seed) {
  ASSERT_EQ(sweep.size(), naive.size()) << "seed " << seed;
  for (size_t i = 0; i < sweep.size(); ++i) {
    EXPECT_EQ(sweep[i].src_rank, naive[i].src_rank) << "seed " << seed;
    EXPECT_EQ(sweep[i].dst_rank, naive[i].dst_rank) << "seed " << seed;
    EXPECT_EQ(sweep[i].cells, naive[i].cells) << "seed " << seed;
  }
}

class RedistributionSweep : public ::testing::TestWithParam<u64> {};

TEST_P(RedistributionSweep, VolumesEqualAllPairsOracle) {
  const u64 seed = GetParam();
  CODS_SEED_NOTE(seed);
  Rng rng(seed);
  const int nd = static_cast<int>(uniform(rng, 1, 3));
  std::vector<i64> extents;
  for (int d = 0; d < nd; ++d) extents.push_back(uniform(rng, 8, 40));
  const Decomposition src = random_decomposition(rng, extents);
  const Decomposition dst = random_decomposition(rng, extents);

  const auto sweep = redistribution_volumes(src, dst);
  const auto naive = testing::redistribution_volumes_allpairs(src, dst);
  expect_identical(sweep, naive, seed);
  // Ownership covers the domain on both sides, so the overlaps tile it.
  EXPECT_EQ(total_cells(sweep), src.domain_cells()) << "seed " << seed;

  // Same comparison restricted to a random sub-region.
  Box region;
  region.lb = Point::zeros(nd);
  region.ub = Point::zeros(nd);
  for (int d = 0; d < nd; ++d) {
    const i64 a = uniform(rng, 0, extents[static_cast<size_t>(d)] - 1);
    const i64 b = uniform(rng, 0, extents[static_cast<size_t>(d)] - 1);
    region.lb[d] = std::min(a, b);
    region.ub[d] = std::max(a, b);
  }
  expect_identical(
      redistribution_volumes(src, dst, region),
      testing::redistribution_volumes_allpairs(src, dst, region), seed);
}

TEST_P(RedistributionSweep, CommGraphMatchesAllPairsVolumes) {
  const u64 seed = GetParam();
  CODS_SEED_NOTE(seed);
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<i64> extents = {uniform(rng, 8, 32), uniform(rng, 8, 32)};
  AppSpec a;
  a.app_id = 1;
  a.name = "producer";
  a.dec = random_decomposition(rng, extents);
  a.elem_size = 8;
  AppSpec b;
  b.app_id = 2;
  b.name = "consumer";
  b.dec = random_decomposition(rng, extents);
  b.elem_size = 8;

  // The production comm graph (built on the sweep path) must carry
  // exactly the edges the naive volumes imply, with byte weights.
  const Graph graph = bundle_comm_graph({a, b});
  i64 graph_weight = 0;
  for (i64 w : graph.adjwgt) graph_weight += w;
  u64 naive_bytes = 0;
  for (const auto& t :
       testing::redistribution_volumes_allpairs(a.dec, b.dec)) {
    naive_bytes += t.cells * a.elem_size;
  }
  // Each undirected edge appears in both endpoints' adjacency.
  EXPECT_EQ(static_cast<u64>(graph_weight), 2 * naive_bytes)
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RedistributionSweep,
                         ::testing::Range<u64>(1, 17));

}  // namespace
}  // namespace cods
