#include <gtest/gtest.h>

#include "workflow/scenario.hpp"

#include "support/apps.hpp"

namespace cods {
namespace {

using testing::make_app;


/// Small concurrent scenario: 32 producers + 8 consumers on 4-core nodes.
ScenarioConfig concurrent_config(MappingStrategy strategy) {
  ScenarioConfig config;
  config.cluster = ClusterSpec{.num_nodes = 16, .cores_per_node = 4};
  config.apps = {make_app(1, {32, 32}, {8, 4}), make_app(2, {32, 32}, {4, 2})};
  config.couplings = {{1, 2}};
  config.sequential = false;
  config.strategy = strategy;
  return config;
}

ScenarioConfig sequential_config(MappingStrategy strategy) {
  ScenarioConfig config;
  config.cluster = ClusterSpec{.num_nodes = 16, .cores_per_node = 4};
  // Consumers coarsen the producer grid along the fastest-varying dimension
  // so each consumer task needs a *contiguous* producer rank range — the
  // alignment that lets client-side mapping reach the paper's ~90% win.
  config.apps = {make_app(1, {32, 32}, {8, 4}),
                 make_app(2, {32, 32}, {8, 2}),
                 make_app(3, {32, 32}, {8, 1})};
  config.couplings = {{1, 2}, {1, 3}};
  config.sequential = true;
  config.strategy = strategy;
  return config;
}

TEST(Scenario, ConcurrentTotalCoupledBytesConserved) {
  // The coupled volume is placement-independent: shm + net == domain bytes.
  const u64 domain_bytes = 32 * 32 * 8;
  for (MappingStrategy s :
       {MappingStrategy::kRoundRobin, MappingStrategy::kDataCentric}) {
    const ScenarioResult r = run_modeled_scenario(concurrent_config(s));
    const AppReport& consumer = r.apps.at(2);
    EXPECT_EQ(consumer.inter_total(), domain_bytes) << to_string(s);
  }
}

TEST(Scenario, ConcurrentDataCentricSlashesNetworkBytes) {
  const ScenarioResult rr =
      run_modeled_scenario(concurrent_config(MappingStrategy::kRoundRobin));
  const ScenarioResult dc =
      run_modeled_scenario(concurrent_config(MappingStrategy::kDataCentric));
  // Round-robin puts the apps on disjoint nodes: everything crosses the
  // network. Data-centric mapping must cut that by a large factor (~80%
  // in the paper's Fig. 8).
  EXPECT_EQ(rr.apps.at(2).inter_shm_bytes, 0u);
  EXPECT_LT(dc.apps.at(2).inter_net_bytes,
            rr.apps.at(2).inter_net_bytes / 2);
  EXPECT_GT(dc.apps.at(2).inter_shm_bytes, 0u);
}

TEST(Scenario, ConcurrentRetrieveTimeImproves) {
  const ScenarioResult rr =
      run_modeled_scenario(concurrent_config(MappingStrategy::kRoundRobin));
  const ScenarioResult dc =
      run_modeled_scenario(concurrent_config(MappingStrategy::kDataCentric));
  EXPECT_LT(dc.apps.at(2).retrieve_time, rr.apps.at(2).retrieve_time);
}

TEST(Scenario, SequentialDataCentricSlashesNetworkBytes) {
  const ScenarioResult rr =
      run_modeled_scenario(sequential_config(MappingStrategy::kRoundRobin));
  const ScenarioResult dc =
      run_modeled_scenario(sequential_config(MappingStrategy::kDataCentric));
  EXPECT_LT(dc.total_inter_net(), rr.total_inter_net() / 2);
}

TEST(Scenario, SequentialConsumersBothCovered) {
  const ScenarioResult r =
      run_modeled_scenario(sequential_config(MappingStrategy::kDataCentric));
  const u64 domain_bytes = 32 * 32 * 8;
  EXPECT_EQ(r.apps.at(2).inter_total(), domain_bytes);
  EXPECT_EQ(r.apps.at(3).inter_total(), domain_bytes);
  // The producer never receives coupled data.
  EXPECT_EQ(r.apps.at(1).inter_total(), 0u);
}

TEST(Scenario, MismatchedDistributionsDefeatDataCentric) {
  // Paper Fig. 8/10: when producer and consumer use different distribution
  // types the 1-to-N fan-out makes co-location ineffective.
  ScenarioConfig matched = concurrent_config(MappingStrategy::kDataCentric);
  ScenarioConfig mismatched = matched;
  mismatched.apps[1] = make_app(2, {32, 32}, {4, 2}, Dist::kCyclic);
  const ScenarioResult m = run_modeled_scenario(matched);
  const ScenarioResult x = run_modeled_scenario(mismatched);
  EXPECT_GT(x.apps.at(2).inter_net_bytes, 2 * m.apps.at(2).inter_net_bytes);
}

TEST(Scenario, DataCentricIncreasesSmallAppIntraTraffic) {
  // Paper Fig. 12/13: scattering the small consumer app across nodes to
  // chase data increases its own halo-exchange network bytes.
  const ScenarioResult rr =
      run_modeled_scenario(concurrent_config(MappingStrategy::kRoundRobin));
  const ScenarioResult dc =
      run_modeled_scenario(concurrent_config(MappingStrategy::kDataCentric));
  EXPECT_GE(dc.apps.at(2).intra_net_bytes, rr.apps.at(2).intra_net_bytes);
}

TEST(Scenario, IntraAppVolumeIndependentOfPlacementTotal) {
  // Total (shm + net) halo bytes depend only on the decomposition.
  const ScenarioResult rr =
      run_modeled_scenario(concurrent_config(MappingStrategy::kRoundRobin));
  const ScenarioResult dc =
      run_modeled_scenario(concurrent_config(MappingStrategy::kDataCentric));
  for (i32 app : {1, 2}) {
    EXPECT_EQ(rr.apps.at(app).intra_total(), dc.apps.at(app).intra_total());
  }
}

TEST(Scenario, SequentialQueryCostCounted) {
  // Sequential consumers locate data through the DHT; concurrent bundle
  // members pull straight from producer cores and query nothing.
  const ScenarioResult seq =
      run_modeled_scenario(sequential_config(MappingStrategy::kDataCentric));
  EXPECT_GT(seq.apps.at(2).dht_queries, 0);
  const ScenarioResult conc =
      run_modeled_scenario(concurrent_config(MappingStrategy::kDataCentric));
  EXPECT_EQ(conc.apps.at(2).dht_queries, 0);
}

TEST(Scenario, ServerMappingCutReported) {
  const ScenarioResult dc =
      run_modeled_scenario(concurrent_config(MappingStrategy::kDataCentric));
  EXPECT_GE(dc.comm_graph_cut_bytes, 0);
  const ScenarioResult rr =
      run_modeled_scenario(concurrent_config(MappingStrategy::kRoundRobin));
  EXPECT_EQ(rr.comm_graph_cut_bytes, -1);
}

TEST(Scenario, PlacementsAreValidAndComplete) {
  for (bool sequential : {false, true}) {
    for (MappingStrategy s :
         {MappingStrategy::kRoundRobin, MappingStrategy::kDataCentric}) {
      const ScenarioConfig config =
          sequential ? sequential_config(s) : concurrent_config(s);
      const ScenarioResult r = run_modeled_scenario(config);
      const Cluster cluster(config.cluster);
      for (const AppSpec& app : config.apps) {
        const Placement& p = r.placements.at(app.app_id);
        EXPECT_EQ(p.size(), static_cast<size_t>(app.ntasks()));
        EXPECT_TRUE(p.valid(cluster));
      }
    }
  }
}

TEST(Scenario, MultiFieldCouplingScalesVolumes) {
  ScenarioConfig one = concurrent_config(MappingStrategy::kRoundRobin);
  ScenarioConfig five = one;
  five.couplings = {{1, 2, /*fields=*/5}};
  const ScenarioResult r1 = run_modeled_scenario(one);
  const ScenarioResult r5 = run_modeled_scenario(five);
  EXPECT_EQ(r5.apps.at(2).inter_total(), 5 * r1.apps.at(2).inter_total());
  // Halo traffic is per-field-independent in this model.
  EXPECT_EQ(r5.apps.at(2).intra_total(), r1.apps.at(2).intra_total());
  ScenarioConfig bad = one;
  bad.couplings = {{1, 2, 0}};
  EXPECT_THROW(run_modeled_scenario(bad), Error);
}

TEST(Scenario, StagingAreaDoublesNetworkMovement) {
  ScenarioConfig colocated = concurrent_config(MappingStrategy::kDataCentric);
  ScenarioConfig staged = colocated;
  staged.sharing = SharingMode::kStagingArea;
  staged.staging_nodes = 4;
  const ScenarioResult co = run_modeled_scenario(colocated);
  const ScenarioResult st = run_modeled_scenario(staged);
  const u64 domain_bytes = 32 * 32 * 8;
  // Staging: every byte crosses the network twice, nothing stays in-node.
  EXPECT_EQ(st.apps.at(2).inter_net_bytes, domain_bytes);
  EXPECT_EQ(st.apps.at(2).staging_net_bytes, domain_bytes);
  EXPECT_EQ(st.apps.at(2).inter_shm_bytes, 0u);
  // Co-located: no second copy, most bytes in-node.
  EXPECT_EQ(co.apps.at(2).staging_net_bytes, 0u);
  EXPECT_LT(co.apps.at(2).inter_net_bytes, st.apps.at(2).inter_net_bytes);
}

TEST(Scenario, StagingPlacementsStayOnComputeNodes) {
  ScenarioConfig staged = concurrent_config(MappingStrategy::kRoundRobin);
  staged.sharing = SharingMode::kStagingArea;
  staged.staging_nodes = 4;
  const ScenarioResult r = run_modeled_scenario(staged);
  for (const auto& [app, placement] : r.placements) {
    for (const auto& [task, loc] : placement.all()) {
      EXPECT_LT(loc.node, staged.cluster.num_nodes)
          << "task mapped onto a dedicated staging node";
    }
  }
}

TEST(Scenario, StagingNeedsNodes) {
  ScenarioConfig staged = concurrent_config(MappingStrategy::kRoundRobin);
  staged.sharing = SharingMode::kStagingArea;
  staged.staging_nodes = 0;
  EXPECT_THROW(run_modeled_scenario(staged), Error);
}

TEST(Scenario, SequentialCyclicDataCentricPinned) {
  // Blocked producer -> cyclic consumers under client-side mapping: DHT
  // lookups whose boxes span the domain, network and shared-memory pairs
  // and two consumers pricing each other as background. The values were
  // captured before the evaluator summed its loads per node pair and
  // memoized DHT owners per coarse box, and must not move.
  ScenarioConfig config = sequential_config(MappingStrategy::kDataCentric);
  config.apps[1].dec = Decomposition({32, 32}, {8, 2}, Dist::kCyclic);
  config.apps[2].dec = Decomposition({32, 32}, {8, 1}, Dist::kCyclic);
  const ScenarioResult r = run_modeled_scenario(config);
  EXPECT_EQ(r.apps.at(2).dht_queries, 256);
  EXPECT_EQ(r.apps.at(2).retrieve_time, 0x1.831356852e0dep-12);
  EXPECT_EQ(r.apps.at(2).inter_net_bytes, 6144u);
  EXPECT_EQ(r.apps.at(2).inter_shm_bytes, 2048u);
  EXPECT_EQ(r.apps.at(3).dht_queries, 128);
  EXPECT_EQ(r.apps.at(3).retrieve_time, 0x1.90c1e240affcp-13);
  EXPECT_EQ(r.apps.at(3).inter_net_bytes, 6144u);
  EXPECT_EQ(r.apps.at(3).inter_shm_bytes, 2048u);
}

TEST(Scenario, SequentialStagingPinned) {
  // The same coupling through 4 staging nodes: sources are the staging
  // nodes the producer regions hash to, and the DHT spans 20 nodes.
  ScenarioConfig config = sequential_config(MappingStrategy::kDataCentric);
  config.apps[1].dec = Decomposition({32, 32}, {8, 2}, Dist::kCyclic);
  config.apps[2].dec = Decomposition({32, 32}, {8, 1}, Dist::kCyclic);
  config.sharing = SharingMode::kStagingArea;
  config.staging_nodes = 4;
  const ScenarioResult r = run_modeled_scenario(config);
  EXPECT_EQ(r.apps.at(2).dht_queries, 320);
  EXPECT_EQ(r.apps.at(2).retrieve_time, 0x1.852c357944cb9p-12);
  EXPECT_EQ(r.apps.at(2).staging_net_bytes, 8192u);
  EXPECT_EQ(r.apps.at(3).dht_queries, 160);
  EXPECT_EQ(r.apps.at(3).retrieve_time, 0x1.94f3a028dd777p-13);
  EXPECT_EQ(r.apps.at(3).inter_net_bytes, 8192u);
}

TEST(Scenario, CoupledBytesOf2To53Rejected) {
  // Every consumer's batch is priced against the other's, so the cost
  // model's 2^53-byte bound applies to the scenario's coupled total.
  ScenarioConfig config = sequential_config(MappingStrategy::kRoundRobin);
  for (AppSpec& app : config.apps) app.elem_size = u64{1} << 40;
  // 2 consumers x 1,024 cells x 2^40 B = 2^51 B: still exact.
  EXPECT_NO_THROW(run_modeled_scenario(config));
  for (AppSpec& app : config.apps) app.elem_size = u64{1} << 42;
  EXPECT_THROW(run_modeled_scenario(config), Error);
}

TEST(Scenario, WeakScalingGrowsGently) {
  // Fig. 16 shape at miniature scale: 4x the tasks and data on 4x the
  // nodes must not explode the retrieve time.
  auto scaled = [](i32 factor) {
    ScenarioConfig config;
    config.cluster =
        ClusterSpec{.num_nodes = 16 * factor, .cores_per_node = 4};
    config.apps = {make_app(1, {32 * factor, 32}, {8 * factor, 4}),
                   make_app(2, {32 * factor, 32}, {4 * factor, 2})};
    config.couplings = {{1, 2}};
    config.strategy = MappingStrategy::kDataCentric;
    return run_modeled_scenario(config);
  };
  const double t1 = scaled(1).apps.at(2).retrieve_time;
  const double t4 = scaled(4).apps.at(2).retrieve_time;
  EXPECT_LT(t4, 4 * t1);  // far better than linear growth
}

}  // namespace
}  // namespace cods
