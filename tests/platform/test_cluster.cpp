#include <gtest/gtest.h>

#include "platform/cluster.hpp"

namespace cods {
namespace {

TEST(Cluster, CoreLocRoundTrip) {
  Cluster cluster(ClusterSpec{.num_nodes = 4, .cores_per_node = 12});
  EXPECT_EQ(cluster.total_cores(), 48);
  for (i32 c = 0; c < cluster.total_cores(); ++c) {
    const CoreLoc loc = cluster.core_loc(c);
    EXPECT_EQ(cluster.global_core(loc), c);
    EXPECT_EQ(loc.node, c / 12);
    EXPECT_EQ(loc.core, c % 12);
  }
}

TEST(Cluster, AutoTorusFactorizationIsExact) {
  for (i32 n : {1, 2, 8, 12, 48, 64, 100, 686}) {
    Cluster cluster(ClusterSpec{.num_nodes = n, .cores_per_node = 1});
    const auto& dims = cluster.torus_dims();
    EXPECT_EQ(static_cast<i64>(dims[0]) * dims[1] * dims[2], n);
  }
}

TEST(Cluster, CubeFactorizesAsCube) {
  Cluster cluster(ClusterSpec{.num_nodes = 64, .cores_per_node = 1});
  const auto& dims = cluster.torus_dims();
  EXPECT_EQ(dims[0], 4);
  EXPECT_EQ(dims[1], 4);
  EXPECT_EQ(dims[2], 4);
}

TEST(Cluster, HopsSymmetricAndZeroOnSelf) {
  Cluster cluster(ClusterSpec{.num_nodes = 27, .cores_per_node = 4});
  for (i32 a = 0; a < 27; ++a) {
    EXPECT_EQ(cluster.hops(a, a), 0);
    for (i32 b = 0; b < 27; ++b) {
      EXPECT_EQ(cluster.hops(a, b), cluster.hops(b, a));
    }
  }
}

TEST(Cluster, HopsUseWraparound) {
  // 8x1x1 torus: distance from 0 to 7 is 1 hop (wrap), not 7.
  Cluster cluster(ClusterSpec{
      .num_nodes = 8, .cores_per_node = 1, .torus = {8, 1, 1}});
  EXPECT_EQ(cluster.hops(0, 7), 1);
  EXPECT_EQ(cluster.hops(0, 4), 4);
  EXPECT_EQ(cluster.hops(0, 3), 3);
}

TEST(Cluster, RouteLinkCountEqualsHops) {
  Cluster cluster(ClusterSpec{.num_nodes = 27, .cores_per_node = 1});
  std::vector<u64> links = {7, 7, 7};  // stale content is cleared
  for (i32 a = 0; a < 27; ++a) {
    for (i32 b = 0; b < 27; ++b) {
      cluster.route_links(a, b, links);
      EXPECT_EQ(static_cast<i32>(links.size()), cluster.hops(a, b));
    }
  }
}

TEST(Cluster, RouteLinksAreDistinctPerPath) {
  Cluster cluster(ClusterSpec{.num_nodes = 64, .cores_per_node = 1});
  std::vector<u64> links;
  cluster.route_links(0, 63, links);
  std::set<u64> unique(links.begin(), links.end());
  EXPECT_EQ(unique.size(), links.size());
}

TEST(Cluster, TriangleInequalityOnTorus) {
  Cluster cluster(ClusterSpec{.num_nodes = 36, .cores_per_node = 1});
  for (i32 a = 0; a < 36; a += 5) {
    for (i32 b = 0; b < 36; b += 3) {
      for (i32 c = 0; c < 36; c += 7) {
        EXPECT_LE(cluster.hops(a, c),
                  cluster.hops(a, b) + cluster.hops(b, c));
      }
    }
  }
}

TEST(Cluster, RejectsBadSpecs) {
  EXPECT_THROW(Cluster(ClusterSpec{.num_nodes = 0}), Error);
  EXPECT_THROW(Cluster(ClusterSpec{.num_nodes = 4, .cores_per_node = 0}),
               Error);
  EXPECT_THROW(Cluster(ClusterSpec{
                   .num_nodes = 9, .cores_per_node = 1, .torus = {2, 2, 2}}),
               Error);
  Cluster c(ClusterSpec{.num_nodes = 2, .cores_per_node = 2});
  EXPECT_THROW(c.core_loc(4), Error);
  EXPECT_THROW(c.core_loc(-1), Error);
  EXPECT_THROW(c.global_core(CoreLoc{2, 0}), Error);
}

TEST(TaskId, Ordering) {
  EXPECT_LT((TaskId{1, 2}), (TaskId{1, 3}));
  EXPECT_LT((TaskId{1, 9}), (TaskId{2, 0}));
  EXPECT_EQ((TaskId{3, 4}), (TaskId{3, 4}));
}

}  // namespace
}  // namespace cods
