#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <random>
#include <unordered_map>
#include <unordered_set>

#include "common/types.hpp"
#include "platform/cost_model.hpp"
#include "support/flow_pairs.hpp"

namespace cods {
namespace {

using namespace cods::literals;

class CostModelTest : public ::testing::Test {
 protected:
  Cluster cluster_{ClusterSpec{.num_nodes = 8, .cores_per_node = 12}};
  CostModel model_{cluster_};
};

TEST_F(CostModelTest, SharedMemoryFasterThanNetwork) {
  const Flow shm{{0, 0}, {0, 5}, 16_MiB};
  const Flow net{{0, 0}, {1, 0}, 16_MiB};
  EXPECT_LT(model_.flow_time(shm), model_.flow_time(net));
}

TEST_F(CostModelTest, ZeroBytesIsFree) {
  EXPECT_EQ(model_.flow_time(Flow{{0, 0}, {1, 0}, 0}), 0.0);
  EXPECT_EQ(model_.batch_time({}), 0.0);
}

TEST_F(CostModelTest, TimeGrowsWithBytes) {
  const Flow small{{0, 0}, {1, 0}, 1_MiB};
  const Flow large{{0, 0}, {1, 0}, 64_MiB};
  EXPECT_LT(model_.flow_time(small), model_.flow_time(large));
}

TEST_F(CostModelTest, TimeGrowsWithHops) {
  Cluster line(ClusterSpec{
      .num_nodes = 8, .cores_per_node = 1, .torus = {8, 1, 1}});
  CostModel model(line);
  const Flow near{{0, 0}, {1, 0}, 1_MiB};
  const Flow far{{0, 0}, {4, 0}, 1_MiB};
  EXPECT_LT(model.flow_time(near), model.flow_time(far));
}

TEST_F(CostModelTest, BatchAtLeastAsSlowAsWorstFlow) {
  std::vector<Flow> flows;
  for (i32 n = 1; n < 8; ++n) flows.push_back(Flow{{0, 0}, {n, 0}, 8_MiB});
  double worst = 0;
  for (const Flow& f : flows) worst = std::max(worst, model_.flow_time(f));
  EXPECT_GE(model_.batch_time(flows) + 1e-12, worst);
}

TEST_F(CostModelTest, NicContentionSerializesFanIn) {
  // 7 nodes all sending to node 0 contend on node 0's ejection NIC:
  // batch time approaches 7x a single flow's bandwidth term.
  std::vector<Flow> fan_in;
  for (i32 n = 1; n < 8; ++n) fan_in.push_back(Flow{{n, 0}, {0, 0}, 32_MiB});
  const double single = model_.batch_time({fan_in[0]});
  const double all = model_.batch_time(fan_in);
  EXPECT_GT(all, 4 * single);
}

TEST_F(CostModelTest, DisjointPairsDoNotContend) {
  // 0->1 and 2->3 share no NIC; batch equals the slower of the two
  // (modulo the common latency term).
  Cluster line(ClusterSpec{
      .num_nodes = 4, .cores_per_node = 1, .torus = {4, 1, 1}});
  CostModel model(line);
  const std::vector<Flow> pair = {{{0, 0}, {1, 0}, 8_MiB},
                                  {{2, 0}, {3, 0}, 8_MiB}};
  const double one = model.batch_time({pair[0]});
  const double both = model.batch_time(pair);
  EXPECT_NEAR(both, one, one * 0.05);
}

TEST_F(CostModelTest, ShmBatchSharesMemoryBus) {
  std::vector<Flow> intra;
  for (i32 c = 1; c <= 4; ++c) intra.push_back(Flow{{0, 0}, {0, c}, 16_MiB});
  const double one = model_.batch_time({intra[0]});
  const double four = model_.batch_time(intra);
  EXPECT_GT(four, 3 * one);
  EXPECT_LT(four, 5 * one);
}

TEST_F(CostModelTest, RpcRoundTripScalesWithCount) {
  const double one = model_.rpc_time({0, 0}, {1, 0}, 1);
  const double ten = model_.rpc_time({0, 0}, {1, 0}, 10);
  EXPECT_NEAR(ten, 10 * one, 1e-12);
  EXPECT_EQ(model_.rpc_time({0, 0}, {1, 0}, 0), 0.0);
}

TEST_F(CostModelTest, IntraNodeRpcCheaperThanRemote) {
  EXPECT_LT(model_.rpc_time({0, 0}, {0, 1}), model_.rpc_time({0, 0}, {3, 0}));
}

// ---------------------------------------------------------------------------
// Oracle: the hash-map evaluation of a batch priced against background
// flows that the dense, allocation-free one replaced. Each resource's load
// is summed in flow order (primary, then background) and the bottleneck is
// the max over the resources a primary flow touches; the production code
// must agree bit for bit.
// ---------------------------------------------------------------------------

double reference_batch_time(const Cluster& cluster, const CostParams& params,
                            const std::vector<Flow>& primary,
                            const std::vector<Flow>& background) {
  if (primary.empty()) return 0.0;
  std::unordered_set<u64> primary_links;
  std::unordered_set<i32> primary_nics;
  std::unordered_set<i32> primary_shm;
  std::unordered_map<u64, double> link_load;
  std::unordered_map<i32, double> nic_load;
  std::unordered_map<i32, double> shm_load;
  i32 max_hops = 0;
  for (const Flow& f : primary) {
    if (f.bytes == 0) continue;
    const double bytes = static_cast<double>(f.bytes);
    if (f.src.node == f.dst.node) {
      primary_shm.insert(f.src.node);
      shm_load[f.src.node] += bytes;
      continue;
    }
    primary_nics.insert(f.src.node);
    primary_nics.insert(f.dst.node);
    nic_load[f.src.node] += bytes;
    nic_load[f.dst.node] += bytes;
    std::vector<u64> route;
    cluster.route_links(f.src.node, f.dst.node, route);
    max_hops = std::max(max_hops, static_cast<i32>(route.size()));
    for (u64 link : route) {
      primary_links.insert(link);
      link_load[link] += bytes;
    }
  }
  for (const Flow& f : background) {
    if (f.bytes == 0) continue;
    const double bytes = static_cast<double>(f.bytes);
    if (f.src.node == f.dst.node) {
      shm_load[f.src.node] += bytes;
      continue;
    }
    nic_load[f.src.node] += bytes;
    nic_load[f.dst.node] += bytes;
    std::vector<u64> route;
    cluster.route_links(f.src.node, f.dst.node, route);
    for (u64 link : route) link_load[link] += bytes;
  }
  double bottleneck = 0.0;
  for (const auto& [link, load] : link_load) {
    if (!primary_links.contains(link)) continue;
    bottleneck = std::max(bottleneck, load / params.link_bw);
  }
  for (const auto& [node, load] : nic_load) {
    if (!primary_nics.contains(node)) continue;
    bottleneck = std::max(bottleneck, load / params.nic_bw);
  }
  for (const auto& [node, load] : shm_load) {
    if (!primary_shm.contains(node)) continue;
    bottleneck = std::max(bottleneck, load / params.shm_bw);
  }
  double latency = 0.0;
  if (!primary_nics.empty()) {
    latency = params.net_latency + max_hops * params.hop_latency;
  } else if (!primary_shm.empty()) {
    latency = params.shm_latency;
  }
  return bottleneck + latency;
}

/// Random flows over the cluster: `shm_share` of them intra-node, one in
/// `zero_every` zero-byte, sizes spread over six decades so sums round.
std::vector<Flow> random_flows(std::mt19937_64& rng, const Cluster& cluster,
                               size_t count, double shm_share,
                               int zero_every) {
  std::uniform_int_distribution<i32> node(0, cluster.num_nodes() - 1);
  std::uniform_int_distribution<i32> core(0, cluster.cores_per_node() - 1);
  std::uniform_int_distribution<u64> bytes(1, 1'000'000);
  std::uniform_int_distribution<int> scale(0, 5);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<Flow> flows;
  for (size_t i = 0; i < count; ++i) {
    Flow f;
    f.src = CoreLoc{node(rng), core(rng)};
    f.dst = unit(rng) < shm_share ? CoreLoc{f.src.node, core(rng)}
                                  : CoreLoc{node(rng), core(rng)};
    f.bytes = bytes(rng);
    for (int k = scale(rng); k > 0; --k) f.bytes /= 10;
    if (zero_every > 0 && static_cast<int>(i) % zero_every == 0) f.bytes = 0;
    flows.push_back(f);
  }
  return flows;
}

/// Runs the production model and the oracle on one batch and compares
/// the bit patterns of the results. A batch with no background goes
/// through the flows entry too.
void expect_matches_oracle(const Cluster& cluster,
                           const std::vector<Flow>& primary,
                           const std::vector<Flow>& background) {
  const CostModel model(cluster);
  const double got = test::batch_time_with_background(model, primary,
                                                      background);
  const double want =
      reference_batch_time(cluster, model.params(), primary, background);
  EXPECT_EQ(std::bit_cast<u64>(got), std::bit_cast<u64>(want))
      << cluster.to_string() << ": " << got << " vs " << want << " ("
      << primary.size() << " primary, " << background.size()
      << " background flows)";
  if (background.empty()) {
    const double flows = model.batch_time(primary);
    EXPECT_EQ(std::bit_cast<u64>(flows), std::bit_cast<u64>(want))
        << cluster.to_string() << ": " << flows << " vs " << want << " ("
        << primary.size() << " flows)";
  }
}

TEST(CostModelOracle, TorusLargerThanNodeCount) {
  // 10 nodes on a 3x3x2 torus: routes cross torus positions 10..17, which
  // hold no node, so link ids reach past 6 x num_nodes.
  const Cluster cluster(ClusterSpec{
      .num_nodes = 10, .cores_per_node = 4, .torus = {3, 3, 2}});
  ASSERT_EQ(cluster.link_count(), 6u * 18u);
  u64 max_link = 0;
  std::vector<u64> route;
  for (i32 a = 0; a < cluster.num_nodes(); ++a) {
    for (i32 b = 0; b < cluster.num_nodes(); ++b) {
      cluster.route_links(a, b, route);
      for (u64 link : route) max_link = std::max(max_link, link);
    }
  }
  ASSERT_GE(max_link, 6u * 10u) << "no route crosses an empty position";
  ASSERT_LT(max_link, cluster.link_count());
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    expect_matches_oracle(cluster, random_flows(rng, cluster, 1 + trial % 40,
                                                0.2, 0),
                          random_flows(rng, cluster, trial % 7, 0.2, 0));
  }
}

TEST(CostModelOracle, ResourcesOnlyBackgroundTouches) {
  // Primary traffic stays on nodes 0-1; the background loads other NICs,
  // links and memory buses, plus the primary's own: only the latter may
  // bound the batch.
  const Cluster cluster(ClusterSpec{.num_nodes = 8, .cores_per_node = 4});
  const std::vector<Flow> primary = {{{0, 0}, {1, 0}, 4096},
                                     {{1, 1}, {1, 2}, 100}};
  const std::vector<Flow> background = {{{2, 0}, {7, 1}, 1u << 30},
                                        {{5, 0}, {5, 3}, 1u << 30},
                                        {{6, 0}, {3, 0}, 1u << 29},
                                        {{0, 2}, {1, 3}, 2048}};
  expect_matches_oracle(cluster, primary, background);
  expect_matches_oracle(cluster, {{{4, 0}, {4, 1}, 64}}, background);
  std::mt19937_64 rng(12);
  for (int trial = 0; trial < 200; ++trial) {
    expect_matches_oracle(cluster, random_flows(rng, cluster, 3, 0.3, 0),
                          random_flows(rng, cluster, 30, 0.3, 0));
  }
}

TEST(CostModelOracle, ZeroByteFlows) {
  const Cluster cluster(ClusterSpec{.num_nodes = 6, .cores_per_node = 2});
  // All-zero primaries price to zero even against a loaded background.
  expect_matches_oracle(cluster, {{{0, 0}, {3, 0}, 0}, {{2, 0}, {2, 1}, 0}},
                        {{{0, 0}, {3, 0}, 1u << 20}});
  std::mt19937_64 rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    expect_matches_oracle(cluster, random_flows(rng, cluster, 12, 0.25, 3),
                          random_flows(rng, cluster, 6, 0.25, 2));
  }
}

TEST(CostModelOracle, MixedSharedMemoryAndNetwork) {
  const Cluster cluster(ClusterSpec{.num_nodes = 27, .cores_per_node = 12});
  std::mt19937_64 rng(14);
  for (double shm_share : {0.0, 0.1, 0.5, 0.9, 1.0}) {
    for (int trial = 0; trial < 60; ++trial) {
      expect_matches_oracle(
          cluster, random_flows(rng, cluster, 1 + trial, shm_share, 0),
          random_flows(rng, cluster, trial % 5, shm_share, 0));
    }
  }
}

TEST(CostModelOracle, RepeatedCallsAcrossClusterSizes) {
  // One thread's scratch serves every cluster: alternate large and
  // small clusters so a stale entry from a bigger batch would leak into
  // the next one.
  const Cluster big(ClusterSpec{.num_nodes = 64, .cores_per_node = 4});
  const Cluster small(ClusterSpec{.num_nodes = 3, .cores_per_node = 4});
  const Cluster sparse(ClusterSpec{
      .num_nodes = 10, .cores_per_node = 2, .torus = {3, 3, 2}});
  const Cluster* clusters[] = {&big, &small, &sparse, &big, &sparse, &small};
  std::mt19937_64 rng(15);
  for (int round = 0; round < 50; ++round) {
    for (const Cluster* cluster : clusters) {
      expect_matches_oracle(*cluster,
                            random_flows(rng, *cluster, 1 + round % 25, 0.3, 5),
                            random_flows(rng, *cluster, round % 9, 0.3, 4));
    }
  }
}

TEST(CostModelOracle, ManyFlowsPerNodePair) {
  // A cyclic redistribution between two apps on 12-core nodes: every
  // producer task sends to every consumer task, so each (src node, dst
  // node) pair carries 144 flows of distinct sizes.
  const Cluster cluster(ClusterSpec{.num_nodes = 16, .cores_per_node = 12});
  const auto loc = [](i32 task) { return CoreLoc{task / 12, task % 12}; };
  std::vector<Flow> flows;
  for (i32 src = 0; src < 96; ++src) {
    for (i32 dst = 0; dst < 96; ++dst) {
      const u64 bytes =
          3'000'017 + static_cast<u64>((src * 7919 + dst * 104729) % 65'521);
      flows.push_back(Flow{loc(src), loc(96 + dst), bytes});
    }
  }
  expect_matches_oracle(cluster, flows, {});
  // The same redistribution as background to a smaller primary batch, and
  // a consumer that shares the producers' nodes (shared-memory flows mixed
  // in with the repeated pairs).
  const std::vector<Flow> head(flows.begin(), flows.begin() + 300);
  expect_matches_oracle(cluster, head, flows);
  std::vector<Flow> overlapping;
  for (const Flow& f : flows) {
    overlapping.push_back(
        Flow{f.src, loc((f.dst.node * 12 + f.dst.core) % 144), f.bytes});
  }
  expect_matches_oracle(cluster, overlapping, {});
}

TEST(CostModelOracle, PairCarriesPrimaryAndBackgroundFlows) {
  // Node pair 0 -> 5 carries both kinds: its links and NICs are primary
  // resources whose load includes the background bytes.
  const Cluster cluster(ClusterSpec{.num_nodes = 8, .cores_per_node = 12});
  const std::vector<Flow> primary = {{{0, 0}, {5, 0}, 1'000'003},
                                     {{0, 1}, {5, 2}, 999'983},
                                     {{2, 0}, {3, 0}, 10'007}};
  const std::vector<Flow> background = {{{0, 3}, {5, 3}, 7'000'001},
                                        {{0, 4}, {5, 1}, 123'457},
                                        {{5, 0}, {0, 0}, 4'000'037}};
  expect_matches_oracle(cluster, primary, background);
  const CostModel model(cluster);
  EXPECT_GT(test::batch_time_with_background(model, primary, background),
            model.batch_time(primary));
}

TEST(CostModelOracle, BackgroundOnlyPairCrossesPrimaryLink) {
  // On a ring of 8, the primary 0 -> 2 uses links 0->1 and 1->2; the
  // background-only pair 1 -> 3 uses 1->2 and 2->3. Its bytes load the
  // shared link, which bounds the batch, while the heavy pair 3 -> 5
  // touches no primary resource and must not bound it.
  const Cluster ring(ClusterSpec{
      .num_nodes = 8, .cores_per_node = 12, .torus = {8, 1, 1}});
  const std::vector<Flow> primary = {{{0, 0}, {2, 0}, 1 << 20}};
  const std::vector<Flow> background = {{{1, 0}, {3, 0}, 3 << 20},
                                        {{1, 1}, {3, 1}, 5 << 20},
                                        {{3, 0}, {5, 0}, 100 << 20}};
  expect_matches_oracle(ring, primary, background);
  const CostModel model(ring);
  const double alone = model.batch_time(primary);
  const double contended = test::batch_time_with_background(
      model, primary, {background[0], background[1]});
  EXPECT_GT(contended, alone);
  EXPECT_EQ(test::batch_time_with_background(model, primary, background),
            contended)
      << "a background-only link bounded the batch";
}

TEST(CostModelOracle, RejectsBatchOf2To53Bytes) {
  // Per-pair sums stay exact in double only below 2^53 bytes per batch.
  const Cluster cluster(ClusterSpec{.num_nodes = 4, .cores_per_node = 2});
  const CostModel model(cluster);
  const u64 half = u64{1} << 52;
  EXPECT_NO_THROW(model.batch_time({{{0, 0}, {1, 0}, 2 * half - 1}}));
  EXPECT_THROW(
      model.batch_time({{{0, 0}, {1, 0}, half}, {{2, 0}, {3, 0}, half}}),
      Error);
  EXPECT_THROW(test::batch_time_with_background(
                   model, {{{0, 0}, {1, 0}, half}}, {{{1, 0}, {1, 1}, half}}),
               Error);
  EXPECT_THROW(model.batch_time({{{0, 0}, {1, 0}, ~u64{0}}}), Error);
  // A rejected batch leaves the scratch usable.
  expect_matches_oracle(cluster, {{{0, 0}, {1, 0}, 4096}}, {});
}

// ---------------------------------------------------------------------------
// The pair entry against the same oracle: each node pair's bytes are split
// into several flows between random cores of its two nodes, and pricing
// the pairs must give bit for bit what the oracle gives on the flows.
// ---------------------------------------------------------------------------

/// Random node pairs: `shm_share` of them intra-node, one in `zero_every`
/// zero-byte, sizes spread over six decades so sums round.
std::vector<NodePairBytes> random_pairs(std::mt19937_64& rng,
                                        const Cluster& cluster, size_t count,
                                        double shm_share, int zero_every) {
  return test::to_pairs(
      random_flows(rng, cluster, count, shm_share, zero_every));
}

/// Each pair as one to four flows between random cores of its nodes
/// whose bytes sum to the pair's.
std::vector<Flow> expand_pairs(std::mt19937_64& rng, const Cluster& cluster,
                               const std::vector<NodePairBytes>& pairs) {
  std::uniform_int_distribution<i32> core(0, cluster.cores_per_node() - 1);
  std::uniform_int_distribution<int> parts(1, 4);
  std::vector<Flow> flows;
  for (const NodePairBytes& p : pairs) {
    u64 left = p.bytes;
    for (int k = parts(rng); k > 0; --k) {
      const u64 part =
          k == 1 ? left
                 : std::uniform_int_distribution<u64>(0, left)(rng);
      flows.push_back(
          Flow{CoreLoc{p.src, core(rng)}, CoreLoc{p.dst, core(rng)}, part});
      left -= part;
    }
  }
  std::shuffle(flows.begin(), flows.end(), rng);
  return flows;
}

void expect_pairs_match_oracle(std::mt19937_64& rng, const Cluster& cluster,
                               const std::vector<NodePairBytes>& primary,
                               const std::vector<NodePairBytes>& background) {
  const CostModel model(cluster);
  const double got = model.batch_time_of_pairs(primary, background);
  const double want =
      reference_batch_time(cluster, model.params(),
                           expand_pairs(rng, cluster, primary),
                           expand_pairs(rng, cluster, background));
  EXPECT_EQ(got, want) << cluster.to_string() << ": " << primary.size()
                       << " primary, " << background.size()
                       << " background pairs";
}

TEST(CostModelPairs, RandomPairsMatchFlowOracle) {
  const Cluster torus(ClusterSpec{.num_nodes = 27, .cores_per_node = 12});
  const Cluster sparse(ClusterSpec{
      .num_nodes = 10, .cores_per_node = 4, .torus = {3, 3, 2}});
  std::mt19937_64 rng(21);
  for (const Cluster* cluster : {&torus, &sparse}) {
    for (double shm_share : {0.0, 0.3, 1.0}) {
      for (int trial = 0; trial < 60; ++trial) {
        expect_pairs_match_oracle(
            rng, *cluster,
            random_pairs(rng, *cluster, 1 + trial % 30, shm_share, 0),
            random_pairs(rng, *cluster, trial % 11, shm_share, 0));
      }
    }
  }
}

TEST(CostModelPairs, ZeroByteAndRepeatedPairs) {
  const Cluster cluster(ClusterSpec{.num_nodes = 8, .cores_per_node = 4});
  std::mt19937_64 rng(22);
  // All-zero primaries price to zero even against a loaded background.
  expect_pairs_match_oracle(rng, cluster, {{0, 3, 0}, {2, 2, 0}},
                            {{0, 3, 1u << 20}});
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<NodePairBytes> primary =
        random_pairs(rng, cluster, 12, 0.25, 3);
    std::vector<NodePairBytes> background =
        random_pairs(rng, cluster, 8, 0.25, 2);
    // A pair listed twice in one list, and one in both lists.
    primary.push_back(primary.front());
    background.push_back(primary.back());
    expect_pairs_match_oracle(rng, cluster, primary, background);
  }
}

TEST(CostModelPairs, PairInBothLists) {
  // Node pair 0 -> 5 and the memory bus of node 2 carry primary and
  // background bytes: their loads include both.
  const Cluster cluster(ClusterSpec{.num_nodes = 8, .cores_per_node = 12});
  std::mt19937_64 rng(23);
  const std::vector<NodePairBytes> primary = {
      {0, 5, 1'999'986}, {2, 2, 10'007}, {3, 1, 0}};
  const std::vector<NodePairBytes> background = {
      {0, 5, 7'123'458}, {2, 2, 4'000'037}, {5, 0, 4'000'037}};
  expect_pairs_match_oracle(rng, cluster, primary, background);
  const CostModel model(cluster);
  EXPECT_GT(model.batch_time_of_pairs(primary, background),
            model.batch_time_of_pairs(primary, {}));
  EXPECT_EQ(model.batch_time_of_pairs({}, background), 0.0);
}

TEST(CostModelPairs, RejectsBatchOf2To53Bytes) {
  const Cluster cluster(ClusterSpec{.num_nodes = 4, .cores_per_node = 2});
  const CostModel model(cluster);
  using Pairs = std::vector<NodePairBytes>;
  const u64 half = u64{1} << 52;
  EXPECT_NO_THROW(model.batch_time_of_pairs(Pairs{{0, 1, 2 * half - 1}}, {}));
  EXPECT_THROW(
      model.batch_time_of_pairs(Pairs{{0, 1, half}, {2, 3, half}}, {}), Error);
  EXPECT_THROW(
      model.batch_time_of_pairs(Pairs{{0, 1, half}}, Pairs{{1, 1, half}}),
      Error);
  EXPECT_THROW(model.batch_time_of_pairs(Pairs{{0, 0, ~u64{0}}}, {}), Error);
  // A rejected batch leaves the scratch usable.
  std::mt19937_64 rng(24);
  expect_pairs_match_oracle(rng, cluster, {{0, 1, 4096}}, {});
}

}  // namespace
}  // namespace cods
