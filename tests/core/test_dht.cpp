#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/dht.hpp"
#include "sfc/curve.hpp"

namespace cods {
namespace {

class DhtTest : public ::testing::Test {
 protected:
  DhtTest()
      : cluster_(ClusterSpec{.num_nodes = 8, .cores_per_node = 4}),
        dht_(cluster_, SfcCurve(CurveKind::kHilbert, 2, 5)) {}

  DataLocation loc(const Box& box, i32 client, u64 key) {
    DataLocation l;
    l.box = box;
    l.owner_client = client;
    l.owner_loc = CoreLoc{client % 8, 0};
    l.window_key = key;
    return l;
  }

  Cluster cluster_;
  CodsDht dht_;
};

TEST_F(DhtTest, IndexSpaceCoversAllNodes) {
  EXPECT_EQ(dht_.num_dht_cores(), 8);
  // Every curve index has exactly one owner, intervals are contiguous.
  u64 expected_lo = 0;
  for (i32 n = 0; n < 8; ++n) {
    const IndexSpan span = dht_.node_interval(n);
    EXPECT_EQ(span.lo, expected_lo);
    EXPECT_GE(span.hi, span.lo);
    EXPECT_EQ(dht_.owner_node(span.lo), n);
    EXPECT_EQ(dht_.owner_node(span.hi), n);
    expected_lo = span.hi + 1;
  }
  EXPECT_EQ(expected_lo, dht_.curve().size());
}

TEST_F(DhtTest, OwnerNodesOfFullDomainIsEveryone) {
  const Box whole{{0, 0}, {31, 31}};
  const auto nodes = dht_.owner_nodes(whole);
  EXPECT_EQ(nodes.size(), 8u);
}

TEST_F(DhtTest, SmallBoxHitsFewNodes) {
  const Box small{{3, 3}, {4, 4}};
  const auto nodes = dht_.owner_nodes(small);
  EXPECT_GE(nodes.size(), 1u);
  EXPECT_LE(nodes.size(), 3u);
}

TEST_F(DhtTest, InsertThenQueryFindsRecord) {
  const Box box{{0, 0}, {7, 7}};
  dht_.insert("temp", 1, loc(box, 3, 99));
  const auto result = dht_.query("temp", 1, Box{{2, 2}, {5, 5}});
  ASSERT_EQ(result.locations.size(), 1u);
  EXPECT_EQ(result.locations[0].owner_client, 3);
  EXPECT_EQ(result.locations[0].window_key, 99u);
  EXPECT_FALSE(result.dht_nodes.empty());
}

TEST_F(DhtTest, QueryHonorsVersionAndName) {
  const Box box{{0, 0}, {7, 7}};
  dht_.insert("temp", 1, loc(box, 3, 99));
  EXPECT_TRUE(dht_.query("temp", 2, box).locations.empty());
  EXPECT_TRUE(dht_.query("velocity", 1, box).locations.empty());
}

TEST_F(DhtTest, QueryIgnoresNonOverlappingRecords) {
  dht_.insert("v", 1, loc(Box{{0, 0}, {7, 7}}, 1, 1));
  dht_.insert("v", 1, loc(Box{{16, 16}, {23, 23}}, 2, 2));
  const auto result = dht_.query("v", 1, Box{{0, 0}, {3, 3}});
  ASSERT_EQ(result.locations.size(), 1u);
  EXPECT_EQ(result.locations[0].owner_client, 1);
}

TEST_F(DhtTest, SpanningRecordDeduplicated) {
  // A region spanning many DHT intervals is registered with each owner but
  // must come back exactly once.
  const Box wide{{0, 0}, {31, 15}};
  dht_.insert("v", 1, loc(wide, 5, 42));
  const auto result = dht_.query("v", 1, wide);
  EXPECT_EQ(result.locations.size(), 1u);
  EXPECT_GT(result.dht_nodes.size(), 1u);
}

TEST_F(DhtTest, ManyProducersCoverDomain) {
  // 16 producers each own an 8x8 tile of the 32x32 domain.
  int inserted = 0;
  for (i64 ty = 0; ty < 4; ++ty) {
    for (i64 tx = 0; tx < 4; ++tx) {
      const Box tile{{ty * 8, tx * 8}, {ty * 8 + 7, tx * 8 + 7}};
      dht_.insert("field", 3, loc(tile, inserted, 1000 + inserted));
      ++inserted;
    }
  }
  // Query the whole domain: every tile must be found.
  const auto all = dht_.query("field", 3, Box{{0, 0}, {31, 31}});
  EXPECT_EQ(all.locations.size(), 16u);
  // Query one tile's interior: exactly one record.
  const auto one = dht_.query("field", 3, Box{{9, 9}, {14, 14}});
  ASSERT_EQ(one.locations.size(), 1u);
  EXPECT_EQ(one.locations[0].box, (Box{{8, 8}, {15, 15}}));
  // Query a 2x2 tile neighbourhood crossing tile borders.
  const auto four = dht_.query("field", 3, Box{{6, 6}, {9, 9}});
  EXPECT_EQ(four.locations.size(), 4u);
}

TEST_F(DhtTest, RetireRemovesRecords) {
  const Box box{{0, 0}, {7, 7}};
  dht_.insert("v", 1, loc(box, 1, 1));
  dht_.insert("v", 2, loc(box, 1, 2));
  EXPECT_GT(dht_.retire("v", 1), 0);
  EXPECT_TRUE(dht_.query("v", 1, box).locations.empty());
  EXPECT_EQ(dht_.query("v", 2, box).locations.size(), 1u);
  EXPECT_EQ(dht_.retire("v", 1), 0);  // idempotent
}

TEST_F(DhtTest, HilbertBalancesRecordsAcrossCores) {
  // Insert a uniform grid of small regions; Hilbert linearization should
  // spread them over the DHT cores instead of piling onto one.
  for (i64 y = 0; y < 32; y += 4) {
    for (i64 x = 0; x < 32; x += 4) {
      dht_.insert("u", 0, loc(Box{{y, x}, {y + 3, x + 3}}, 0, 0));
    }
  }
  i64 nonempty = 0;
  for (i32 n = 0; n < 8; ++n) {
    if (dht_.node_record_count(n) > 0) ++nonempty;
  }
  EXPECT_EQ(nonempty, 8);
}

TEST_F(DhtTest, CoarseGranularityStillFindsData) {
  CodsDht coarse(cluster_, SfcCurve(CurveKind::kHilbert, 2, 5),
                 /*granularity_log2=*/2);
  const Box box{{5, 5}, {9, 9}};
  DataLocation l = loc(box, 4, 77);
  coarse.insert("v", 1, l);
  const auto result = coarse.query("v", 1, Box{{6, 6}, {7, 7}});
  ASSERT_EQ(result.locations.size(), 1u);
}

/// Reference implementation of owner_nodes, the per-call std::set
/// version the merge-based build replaced. The new build must stay
/// element-for-element identical (ascending, unique).
std::vector<i32> owner_nodes_via_set(const CodsDht& dht, const Box& box,
                                     int granularity_log2) {
  std::set<i32> nodes;
  for (const IndexSpan& span :
       box_spans(dht.curve(), box, granularity_log2)) {
    // Ownership is monotone in the index: a span's owners are those of
    // its end points and every node between them.
    for (i32 n = dht.owner_node(span.lo); n <= dht.owner_node(span.hi); ++n) {
      nodes.insert(n);
    }
  }
  return std::vector<i32>(nodes.begin(), nodes.end());
}

TEST_F(DhtTest, OwnerNodesMatchSetBasedReference) {
  CodsDht coarse(cluster_, SfcCurve(CurveKind::kHilbert, 2, 5),
                 /*granularity_log2=*/2);
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const i64 y0 = static_cast<i64>(rng() % 32);
    const i64 x0 = static_cast<i64>(rng() % 32);
    const i64 y1 = y0 + static_cast<i64>(rng() % (32 - y0));
    const i64 x1 = x0 + static_cast<i64>(rng() % (32 - x0));
    const Box box{{y0, x0}, {y1, x1}};
    EXPECT_EQ(dht_.owner_nodes(box),
              owner_nodes_via_set(dht_, box, /*granularity_log2=*/0))
        << "trial " << trial << " box " << y0 << "," << x0 << ".." << y1
        << "," << x1;
    EXPECT_EQ(coarse.owner_nodes(box),
              owner_nodes_via_set(coarse, box, /*granularity_log2=*/2))
        << "trial " << trial << " (coarse)";
  }
  // Both curves, 1-3 dimensions, the finest, coarsest and two
  // intermediate granularities, and node counts from one to more than
  // there are coarse cells; 5,462 is the sim_weak perfbench cluster
  // (65,536 producer ranks on 12-core nodes) over its 512^2 grid. Boxes
  // may stick out of the grid on any side, or miss it entirely.
  for (const CurveKind kind : {CurveKind::kHilbert, CurveKind::kMorton}) {
    for (const int ndim : {1, 2, 3}) {
      const int bits = ndim == 1 ? 10 : ndim == 2 ? 9 : 5;
      const i64 side = i64{1} << bits;
      const SfcCurve curve(kind, ndim, bits);
      for (const int g : {0, 1, bits - 1, bits}) {
        const i64 coarse_cells = i64{1} << (ndim * (bits - g));
        for (i64 num_nodes : {i64{1}, i64{7}, i64{12}, i64{5462},
                              coarse_cells + 3}) {
          if (num_nodes > 40000) continue;
          const Cluster cluster(ClusterSpec{
              .num_nodes = static_cast<i32>(num_nodes), .cores_per_node = 4});
          const CodsDht dht(cluster, curve, g);
          for (int trial = 0; trial < 40; ++trial) {
            Box box(Point::zeros(ndim), Point::zeros(ndim));
            for (int d = 0; d < ndim; ++d) {
              box.lb[d] = static_cast<i64>(rng() % static_cast<u64>(side + 8)) -
                          side / 8;
              box.ub[d] = box.lb[d] +
                          static_cast<i64>(rng() % static_cast<u64>(side / 2));
            }
            EXPECT_EQ(dht.owner_nodes(box), owner_nodes_via_set(dht, box, g))
                << (kind == CurveKind::kHilbert ? "Hilbert " : "Morton ")
                << ndim << "-D, g = " << g << ", " << num_nodes
                << " nodes, trial " << trial;
          }
        }
      }
    }
  }
}

TEST(DhtCoarse, OwnerNodesDependOnlyOnCoarseBox) {
  // The modelled evaluator looks owners up once per coarse box: a query
  // b' whose cells of side 2^g are those of b must get b's owners.
  const Cluster cluster(ClusterSpec{.num_nodes = 43, .cores_per_node = 12});
  Rng rng(31);
  for (const int ndim : {2, 3}) {
    const int bits = ndim == 2 ? 7 : 5;
    const i64 side = i64{1} << bits;
    for (const int g : {1, 2, bits - 3, bits - 1}) {
      const CodsDht dht(cluster, SfcCurve(CurveKind::kHilbert, ndim, bits), g);
      const i64 cell = i64{1} << g;
      for (int trial = 0; trial < 100; ++trial) {
        Box b(Point::zeros(ndim), Point::zeros(ndim));
        Box same(Point::zeros(ndim), Point::zeros(ndim));
        for (int d = 0; d < ndim; ++d) {
          b.lb[d] = static_cast<i64>(rng() % static_cast<u64>(side));
          b.ub[d] = b.lb[d] +
                    static_cast<i64>(rng() % static_cast<u64>(side - b.lb[d]));
          // Any cells of the same coarse cells, lb' <= ub'.
          const i64 lo = (b.lb[d] >> g) << g;
          const i64 hi = (b.ub[d] >> g) << g;
          i64 a = lo + static_cast<i64>(rng() % static_cast<u64>(cell));
          i64 z = hi + static_cast<i64>(rng() % static_cast<u64>(cell));
          if (a > z) std::swap(a, z);
          same.lb[d] = a;
          same.ub[d] = z;
        }
        EXPECT_EQ(dht.owner_nodes(b), dht.owner_nodes(same))
            << ndim << "-D, g = " << g << ", trial " << trial;
      }
    }
  }
}

TEST_F(DhtTest, InsertEmptyBoxRejected) {
  DataLocation l = loc(Box{{5, 5}, {4, 4}}, 0, 0);
  EXPECT_THROW(dht_.insert("v", 0, l), Error);
}

}  // namespace
}  // namespace cods
