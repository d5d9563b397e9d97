#include <gtest/gtest.h>

#include "common/types.hpp"
#include "platform/cost_model.hpp"
#include "support/flow_pairs.hpp"

namespace cods {
namespace {

using namespace cods::literals;

TEST(FabricPresets, GenerationsGetFaster) {
  Cluster cluster(ClusterSpec{.num_nodes = 8, .cores_per_node = 12});
  const Flow flow{{0, 0}, {5, 0}, 64_MiB};
  const double seastar = CostModel(cluster, fabric::seastar2()).flow_time(flow);
  const double gemini = CostModel(cluster, fabric::gemini()).flow_time(flow);
  const double modern =
      CostModel(cluster, fabric::modern_hpc()).flow_time(flow);
  EXPECT_GT(seastar, gemini);
  EXPECT_GT(gemini, modern);
}

TEST(FabricPresets, ShmStillBeatsNetworkOnEveryGeneration) {
  Cluster cluster(ClusterSpec{.num_nodes = 8, .cores_per_node = 12});
  for (const CostParams& params :
       {fabric::seastar2(), fabric::gemini(), fabric::modern_hpc()}) {
    CostModel model(cluster, params);
    const Flow shm{{0, 0}, {0, 5}, 64_MiB};
    const Flow net{{0, 0}, {5, 0}, 64_MiB};
    EXPECT_LT(model.flow_time(shm), model.flow_time(net));
  }
}

TEST(FabricPresets, SeastarIsTheDefault) {
  const CostParams def;
  const CostParams xt5 = fabric::seastar2();
  EXPECT_DOUBLE_EQ(def.link_bw, xt5.link_bw);
  EXPECT_DOUBLE_EQ(def.nic_bw, xt5.nic_bw);
  EXPECT_DOUBLE_EQ(def.shm_bw, xt5.shm_bw);
}

TEST(CostModel, BackgroundFlowsSlowPrimary) {
  Cluster cluster(ClusterSpec{.num_nodes = 4, .cores_per_node = 4,
                              .torus = {4, 1, 1}});
  CostModel model(cluster);
  const std::vector<Flow> primary = {{{1, 0}, {0, 0}, 32_MiB}};
  const std::vector<Flow> background = {{{2, 0}, {0, 0}, 32_MiB},
                                        {{3, 0}, {0, 0}, 32_MiB}};
  const double alone = model.batch_time(primary);
  const double contended =
      test::batch_time_with_background(model, primary, background);
  EXPECT_GT(contended, 2 * alone);
}

TEST(CostModel, BackgroundOnDisjointResourcesIsFree) {
  Cluster cluster(ClusterSpec{.num_nodes = 4, .cores_per_node = 4,
                              .torus = {4, 1, 1}});
  CostModel model(cluster);
  const std::vector<Flow> primary = {{{0, 0}, {1, 0}, 32_MiB}};
  const std::vector<Flow> background = {{{2, 0}, {3, 0}, 32_MiB}};
  const double alone = model.batch_time(primary);
  const double with_background =
      test::batch_time_with_background(model, primary, background);
  EXPECT_DOUBLE_EQ(alone, with_background);
}

TEST(CostModel, EmptyPrimaryIsZeroEvenWithBackground) {
  Cluster cluster(ClusterSpec{.num_nodes = 2, .cores_per_node = 2});
  CostModel model(cluster);
  const std::vector<Flow> background = {{{0, 0}, {1, 0}, 1_MiB}};
  EXPECT_EQ(test::batch_time_with_background(model, {}, background), 0.0);
}

}  // namespace
}  // namespace cods
