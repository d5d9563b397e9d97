#include <gtest/gtest.h>

#include "workflow/mapping.hpp"

#include "support/apps.hpp"

namespace cods {
namespace {

using testing::make_app;


TEST(Placement, AssignAndLookup) {
  Placement p;
  p.assign(TaskId{1, 0}, CoreLoc{0, 0});
  p.assign(TaskId{1, 1}, CoreLoc{0, 1});
  EXPECT_TRUE(p.has(TaskId{1, 0}));
  EXPECT_FALSE(p.has(TaskId{2, 0}));
  EXPECT_EQ(p.loc(TaskId{1, 1}), (CoreLoc{0, 1}));
  EXPECT_THROW(p.loc(TaskId{9, 9}), Error);
  EXPECT_THROW(p.assign(TaskId{1, 0}, CoreLoc{1, 0}), Error);  // duplicate
}

TEST(Placement, ValidityChecks) {
  Cluster cluster(ClusterSpec{.num_nodes = 2, .cores_per_node = 2});
  Placement p;
  p.assign(TaskId{1, 0}, CoreLoc{0, 0});
  p.assign(TaskId{1, 1}, CoreLoc{0, 0});  // same core twice
  EXPECT_FALSE(p.valid(cluster));
  Placement q;
  q.assign(TaskId{1, 0}, CoreLoc{5, 0});  // node outside cluster
  EXPECT_FALSE(q.valid(cluster));
}

TEST(Placement, IteratesInAppThenRankOrder) {
  // Assigns arrive out of order across apps and ranks (the engine merges
  // client-mapped and fallback apps); iteration is (app_id, rank) order.
  Placement p;
  p.assign(TaskId{7, 2}, CoreLoc{1, 0});
  p.assign(TaskId{3, 1}, CoreLoc{0, 1});
  p.assign(TaskId{7, 0}, CoreLoc{1, 1});
  p.assign(TaskId{5, 0}, CoreLoc{2, 0});
  p.assign(TaskId{3, 0}, CoreLoc{0, 0});
  p.assign(TaskId{7, 1}, CoreLoc{1, 2});
  std::vector<TaskId> order;
  std::vector<CoreLoc> locs;
  for (const auto& [task, loc] : p.all()) {
    order.push_back(task);
    locs.push_back(loc);
  }
  const std::vector<TaskId> want = {{3, 0}, {3, 1}, {5, 0},
                                    {7, 0}, {7, 1}, {7, 2}};
  EXPECT_EQ(order, want);
  EXPECT_EQ(locs, (std::vector<CoreLoc>{
                      {0, 0}, {0, 1}, {2, 0}, {1, 1}, {1, 2}, {1, 0}}));
  EXPECT_EQ(p.size(), 6u);
  EXPECT_EQ(p.loc(TaskId{7, 2}), (CoreLoc{1, 0}));
}

TEST(Placement, SkipsRanksNotYetPlaced) {
  // A sparse app (rank 4 before ranks 0-3) iterates only its placed ranks.
  Placement p;
  p.assign(TaskId{1, 4}, CoreLoc{0, 4});
  p.assign(TaskId{1, 1}, CoreLoc{0, 1});
  std::vector<TaskId> order;
  for (const auto& [task, loc] : p.all()) order.push_back(task);
  EXPECT_EQ(order, (std::vector<TaskId>{{1, 1}, {1, 4}}));
  EXPECT_FALSE(p.has(TaskId{1, 0}));
  EXPECT_FALSE(p.has(TaskId{1, 5}));
  EXPECT_THROW(p.loc(TaskId{1, 2}), Error);
  EXPECT_THROW(p.loc(TaskId{1, 99}), Error);
  EXPECT_THROW(p.loc(TaskId{2, 0}), Error);
  EXPECT_THROW(p.loc(TaskId{1, -1}), Error);
}

TEST(Placement, DuplicateAssignThrowsAndKeepsTheFirst) {
  Placement p;
  p.assign(TaskId{2, 3}, CoreLoc{0, 0});
  EXPECT_THROW(p.assign(TaskId{2, 3}, CoreLoc{1, 1}), Error);
  EXPECT_EQ(p.loc(TaskId{2, 3}), (CoreLoc{0, 0}));
  EXPECT_EQ(p.size(), 1u);
  EXPECT_THROW(p.assign(TaskId{2, 0}, CoreLoc{-1, 0}), Error);
  EXPECT_THROW(p.assign(TaskId{2, -1}, CoreLoc{0, 1}), Error);
  EXPECT_EQ(p.size(), 1u);
}

TEST(Placement, ValidityRejectsSharedCoresAndOutOfRange) {
  Cluster cluster(ClusterSpec{.num_nodes = 2, .cores_per_node = 3});
  Placement ok;
  for (i32 r = 0; r < 6; ++r) ok.assign(TaskId{1, r}, CoreLoc{r / 3, r % 3});
  EXPECT_TRUE(ok.valid(cluster));
  // Two tasks of different apps on one core.
  Placement shared;
  shared.assign(TaskId{1, 0}, CoreLoc{1, 2});
  shared.assign(TaskId{4, 0}, CoreLoc{1, 2});
  EXPECT_FALSE(shared.valid(cluster));
  Placement far_node;
  far_node.assign(TaskId{1, 0}, CoreLoc{2, 0});
  EXPECT_FALSE(far_node.valid(cluster));
  Placement far_core;
  far_core.assign(TaskId{1, 0}, CoreLoc{0, 3});
  EXPECT_FALSE(far_core.valid(cluster));
  EXPECT_TRUE(Placement{}.valid(cluster));
}

TEST(Placement, EqualityIsSameTasksOnSameCores) {
  // wfgen::enact compares final placements with ==: insertion order and
  // rank gaps filled later must not matter, a moved task must.
  Placement a;
  a.assign(TaskId{1, 0}, CoreLoc{0, 0});
  a.assign(TaskId{1, 1}, CoreLoc{0, 1});
  a.assign(TaskId{2, 0}, CoreLoc{1, 0});
  Placement b;
  b.assign(TaskId{2, 0}, CoreLoc{1, 0});
  b.assign(TaskId{1, 1}, CoreLoc{0, 1});
  b.assign(TaskId{1, 0}, CoreLoc{0, 0});
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(a.all() == b.all());
  Placement moved = b;
  EXPECT_TRUE(moved == a);
  Placement c;
  c.assign(TaskId{1, 0}, CoreLoc{0, 0});
  c.assign(TaskId{1, 1}, CoreLoc{0, 2});  // same task, other core
  c.assign(TaskId{2, 0}, CoreLoc{1, 0});
  EXPECT_FALSE(a == c);
  Placement d;  // a subset
  d.assign(TaskId{1, 0}, CoreLoc{0, 0});
  d.assign(TaskId{1, 1}, CoreLoc{0, 1});
  EXPECT_FALSE(a == d);
  EXPECT_FALSE(d == a);
  Placement e;  // same size, different task
  e.assign(TaskId{1, 0}, CoreLoc{0, 0});
  e.assign(TaskId{1, 1}, CoreLoc{0, 1});
  e.assign(TaskId{3, 0}, CoreLoc{1, 0});
  EXPECT_FALSE(a == e);
  EXPECT_TRUE(Placement{} == Placement{});
}

TEST(RoundRobin, AppsFillConsecutiveCores) {
  Cluster cluster(ClusterSpec{.num_nodes = 4, .cores_per_node = 4});
  const auto apps = std::vector<AppSpec>{make_app(1, {12}, {12}),
                                         make_app(2, {4}, {4})};
  const Placement p = round_robin_placement(cluster, apps);
  EXPECT_TRUE(p.valid(cluster));
  // App 1 occupies cores 0..11 (nodes 0-2), app 2 cores 12..15 (node 3):
  // disjoint node sets — the baseline the paper compares against.
  EXPECT_EQ(p.loc(TaskId{1, 0}), (CoreLoc{0, 0}));
  EXPECT_EQ(p.loc(TaskId{1, 11}), (CoreLoc{2, 3}));
  EXPECT_EQ(p.loc(TaskId{2, 0}), (CoreLoc{3, 0}));
  EXPECT_EQ(p.loc(TaskId{2, 3}), (CoreLoc{3, 3}));
}

TEST(RoundRobin, ThrowsWhenOutOfCores) {
  Cluster cluster(ClusterSpec{.num_nodes = 1, .cores_per_node = 2});
  EXPECT_THROW(round_robin_placement(cluster, {make_app(1, {4}, {4})}), Error);
}

TEST(CommGraph, BipartiteCouplingWeights) {
  // 4 producers, 2 consumers over 16 cells: consumer 0 couples with
  // producers 0,1 (4 cells each x 8 B).
  const auto apps = std::vector<AppSpec>{make_app(1, {16}, {4}),
                                         make_app(2, {16}, {2})};
  const Graph g = bundle_comm_graph(apps);
  EXPECT_EQ(g.nvtx, 6);
  EXPECT_EQ(g.total_edge_weight(), 16 * 8);
  EXPECT_EQ(g.degree(0), 1);  // producer 0 talks to consumer 0 only
  EXPECT_EQ(g.degree(4), 2);  // consumer 0 hears from producers 0,1
}

TEST(ServerMapping, CoLocatesCoupledTasks) {
  // 12 producers + 4 consumers on 16 cores over 4-core nodes: each consumer
  // fits with its 3 producers on one node -> zero coupled bytes cross nodes.
  Cluster cluster(ClusterSpec{.num_nodes = 4, .cores_per_node = 4});
  const auto apps = std::vector<AppSpec>{make_app(1, {12}, {12}),
                                         make_app(2, {12}, {4})};
  const ServerMappingResult result =
      server_data_centric_placement(cluster, apps);
  EXPECT_TRUE(result.placement.valid(cluster));
  EXPECT_EQ(result.edge_cut_bytes, 0);
  EXPECT_EQ(result.nodes_used, 4);
  // Verify co-location directly: every consumer shares its node with all of
  // its producers.
  for (i32 c = 0; c < 4; ++c) {
    const i32 node = result.placement.loc(TaskId{2, c}).node;
    for (i32 p = 3 * c; p < 3 * c + 3; ++p) {
      EXPECT_EQ(result.placement.loc(TaskId{1, p}).node, node);
    }
  }
}

TEST(ServerMapping, RespectsNodeCapacity) {
  Cluster cluster(ClusterSpec{.num_nodes = 8, .cores_per_node = 4});
  const auto apps = std::vector<AppSpec>{make_app(1, {24}, {24}),
                                         make_app(2, {24}, {8})};
  const ServerMappingResult result =
      server_data_centric_placement(cluster, apps);
  EXPECT_TRUE(result.placement.valid(cluster));
  for (const auto& [node, count] : result.placement.node_occupancy()) {
    EXPECT_LE(count, 4);
  }
}

TEST(ServerMapping, BeatsRoundRobinOnNetworkCut) {
  Cluster cluster(ClusterSpec{.num_nodes = 8, .cores_per_node = 4});
  const auto apps = std::vector<AppSpec>{
      make_app(1, {8, 8}, {4, 4}), make_app(2, {8, 8}, {4, 4})};
  const ServerMappingResult dc = server_data_centric_placement(cluster, apps);
  // Round-robin cut: count coupled bytes crossing nodes by hand.
  const Placement rr = round_robin_placement(cluster, apps);
  const Graph g = bundle_comm_graph(apps);
  // Build the node assignment vector for the RR placement in vertex order.
  std::vector<i32> rr_nodes;
  for (const AppSpec& app : apps) {
    for (i32 r = 0; r < app.ntasks(); ++r) {
      rr_nodes.push_back(rr.loc(TaskId{app.app_id, r}).node);
    }
  }
  const i64 rr_cut = g.edge_cut(rr_nodes);
  EXPECT_LT(dc.edge_cut_bytes, rr_cut / 2);
}

TEST(ServerMapping, ExplicitNodeList) {
  Cluster cluster(ClusterSpec{.num_nodes = 8, .cores_per_node = 4});
  const auto apps = std::vector<AppSpec>{make_app(1, {6}, {6}),
                                         make_app(2, {6}, {2})};
  const auto result =
      server_data_centric_placement(cluster, apps, 1, {5, 6, 7});
  for (const auto& [task, loc] : result.placement.all()) {
    EXPECT_GE(loc.node, 5);
  }
}

TEST(ConsumerNodeBytes, MatchesProducerStorage) {
  // 4 producers blocked over 16 cells on 2 nodes; consumer of 2 tasks.
  Cluster cluster(ClusterSpec{.num_nodes = 2, .cores_per_node = 2});
  const AppSpec producer = make_app(1, {16}, {4});
  const AppSpec consumer = make_app(2, {16}, {2});
  const Placement pp = round_robin_placement(cluster, {producer});
  const auto bytes = consumer_node_bytes(producer, pp, consumer);
  ASSERT_EQ(bytes.size(), 2u);
  // Consumer task 0 needs producers 0,1 -> node 0 entirely: 8 cells x 8 B.
  EXPECT_EQ(bytes[0].at(0), 64u);
  EXPECT_EQ(bytes[0].count(1), 0u);
  EXPECT_EQ(bytes[1].at(1), 64u);
}

TEST(ClientMapping, PlacesTasksAtTheirData) {
  Cluster cluster(ClusterSpec{.num_nodes = 4, .cores_per_node = 4});
  const AppSpec producer = make_app(1, {16}, {16});
  const AppSpec consumer = make_app(2, {16}, {4});
  const Placement pp = round_robin_placement(cluster, {producer});
  const auto bytes = consumer_node_bytes(producer, pp, consumer);
  const Placement cp = client_data_centric_placement(
      cluster, {consumer}, {bytes}, {0, 1, 2, 3});
  EXPECT_TRUE(cp.valid(cluster));
  // Consumer task t needs producers 4t..4t+3, which all live on node t.
  for (i32 t = 0; t < 4; ++t) {
    EXPECT_EQ(cp.loc(TaskId{2, t}).node, t);
  }
}

TEST(ClientMapping, CapacityForcesSpill) {
  // All data on node 0 but only 2 cores there: the rest must spill to the
  // least-loaded allowed node.
  Cluster cluster(ClusterSpec{.num_nodes = 2, .cores_per_node = 2});
  const AppSpec consumer = make_app(2, {16}, {4});
  std::vector<NodeBytes> bytes(4);
  for (auto& nb : bytes) nb[0] = 100;
  const Placement cp =
      client_data_centric_placement(cluster, {consumer}, {bytes}, {0, 1});
  EXPECT_TRUE(cp.valid(cluster));
  const auto occupancy = cp.node_occupancy();
  EXPECT_EQ(occupancy.at(0), 2);
  EXPECT_EQ(occupancy.at(1), 2);
}

TEST(ClientMapping, MultipleConsumerAppsShareCapacity) {
  Cluster cluster(ClusterSpec{.num_nodes = 2, .cores_per_node = 4});
  const AppSpec a = make_app(2, {8}, {4});
  const AppSpec b = make_app(3, {8}, {4});
  std::vector<NodeBytes> bytes_a(4);
  std::vector<NodeBytes> bytes_b(4);
  for (auto& nb : bytes_a) nb[0] = 10;
  for (auto& nb : bytes_b) nb[0] = 10;
  const Placement cp = client_data_centric_placement(
      cluster, {a, b}, {bytes_a, bytes_b}, {0, 1});
  EXPECT_TRUE(cp.valid(cluster));
  EXPECT_EQ(cp.size(), 8u);
  const auto occupancy = cp.node_occupancy();
  EXPECT_EQ(occupancy.at(0), 4);
  EXPECT_EQ(occupancy.at(1), 4);
}

TEST(ClientMapping, RejectsBadInput) {
  Cluster cluster(ClusterSpec{.num_nodes = 2, .cores_per_node = 2});
  const AppSpec app = make_app(2, {8}, {4});
  EXPECT_THROW(
      client_data_centric_placement(cluster, {app}, {{}}, {0, 1}), Error);
  std::vector<NodeBytes> bytes(4);
  EXPECT_THROW(client_data_centric_placement(cluster, {app}, {bytes}, {}),
               Error);
  // 4 tasks but only 2 cores in the allocation.
  EXPECT_THROW(client_data_centric_placement(cluster, {app}, {bytes}, {0}),
               Error);
}

}  // namespace
}  // namespace cods
