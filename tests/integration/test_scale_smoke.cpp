// Larger live smoke tests: 64 execution-client threads running a full
// coupled workflow end to end. Guards against scalability regressions in
// the runtime (mailboxes, split, collectives) and the space under real
// concurrency.
#include <gtest/gtest.h>

#include "apps/synthetic.hpp"

namespace cods {
namespace {

TEST(ScaleSmoke, SixtyFourRankConcurrentWorkflow) {
  Cluster cluster(ClusterSpec{.num_nodes = 8, .cores_per_node = 8});
  Metrics metrics;
  WorkflowServer server(cluster, metrics, Box{{0, 0}, {47, 47}});

  auto bad = std::make_shared<std::atomic<u64>>(0);
  AppSpec sim;
  sim.app_id = 1;
  sim.name = "sim";
  sim.dec = blocked({48, 48}, {8, 6});  // 48 tasks
  server.register_app(sim,
                      make_pattern_producer({{"f"}, 2, /*sequential=*/false,
                                             1}));
  AppSpec viz;
  viz.app_id = 2;
  viz.name = "viz";
  viz.dec = blocked({48, 48}, {4, 4});  // 16 tasks
  server.register_app(
      viz, make_pattern_consumer({{"f"}, 2, false, 1, bad, nullptr}));
  DagSpec dag;
  dag.add_app(1);
  dag.add_app(2);
  dag.add_bundle({1, 2});
  WorkflowOptions options;
  options.strategy = MappingStrategy::kDataCentric;
  server.run(dag, options);
  EXPECT_EQ(bad->load(), 0u);
  // 64 tasks on 64 cores, every core used exactly once.
  std::map<i32, i32> occupancy;
  for (i32 app : {1, 2}) {
    for (const auto& [task, loc] : server.placement(app).all()) {
      ++occupancy[loc.node];
    }
  }
  for (const auto& [node, count] : occupancy) {
    EXPECT_LE(count, 8);
  }
}

TEST(ScaleSmoke, SixtyFourRankRingAndCollectives) {
  Cluster cluster(ClusterSpec{.num_nodes = 8, .cores_per_node = 8});
  Metrics metrics;
  HybridDart dart(cluster, metrics);
  Runtime runtime(dart);
  std::vector<CoreLoc> placement;
  for (i32 r = 0; r < 64; ++r) placement.push_back(cluster.core_loc(r));
  runtime.run(placement, [&](RankCtx& ctx) {
    const i32 n = ctx.world.size();
    const i32 me = ctx.world.rank();
    // Ring shift.
    ctx.world.send_value<i32>((me + 1) % n, 1, me);
    EXPECT_EQ(ctx.world.recv_value<i32>((me + n - 1) % n, 1),
              (me + n - 1) % n);
    // Global reduction sanity.
    EXPECT_EQ(ctx.world.allreduce_sum(i64{1}), 64);
    // Split into 8 groups of 8 and reduce within.
    Comm group = ctx.world.split(me / 8, me);
    EXPECT_EQ(group.size(), 8);
    EXPECT_EQ(group.allreduce_max(i64{me}), (me / 8) * 8 + 7);
  });
}

// Helper kept out of the test body for readability.
size_t space_variables_count(CodsSpace& space) {
  return space.variables().size();
}

TEST(ScaleSmoke, ManySmallVariables) {
  // 32 variables x 4 versions through one space; catalogs stay consistent.
  Cluster cluster(ClusterSpec{.num_nodes = 4, .cores_per_node = 4});
  Metrics metrics;
  CodsSpace space(cluster, metrics, Box{{0, 0}, {15, 15}});
  CodsClient client(space, Endpoint{0, CoreLoc{0, 0}}, 1);
  const Box box{{0, 0}, {7, 7}};
  for (int v = 0; v < 32; ++v) {
    for (i32 ver = 0; ver < 4; ++ver) {
      std::vector<std::byte> data(box_bytes(box, 8));
      client.put_seq("var" + std::to_string(v), ver, box, data, 8);
    }
  }
  EXPECT_EQ(space_variables_count(space), 32u);
  for (int v = 0; v < 32; ++v) {
    EXPECT_EQ(space.versions("var" + std::to_string(v)).size(), 4u);
  }
  for (int v = 0; v < 32; ++v) {
    space.retire_older_than("var" + std::to_string(v), 1);
  }
  EXPECT_EQ(space.stored_bytes(), 32u * box_bytes(box, 8));
}

}  // namespace
}  // namespace cods
