// Modeled-mode scenario evaluation: computes placements, coupled-data
// redistribution flows, intra-application halo flows and modelled transfer
// times for the paper's two workflow scenarios at any scale, without
// spawning threads or allocating data buffers. The mapping and schedule
// code paths are the same ones the live engine uses, so the byte counts
// are identical to a live run (DESIGN.md §5).
#pragma once

#include "core/dht.hpp"
#include "platform/cost_model.hpp"
#include "platform/metrics.hpp"
#include "workflow/mapping.hpp"

namespace cods {

/// One coupling: all data of the shared domain flows producer -> consumer.
/// `fields` models multi-variable couplings (e.g. CESM exchanges "a large
/// number of data fields" per step): volumes scale linearly.
struct CouplingEdge {
  i32 producer = 0;
  i32 consumer = 0;
  i32 fields = 1;
};

/// How coupled data is shared (paper §VI, "staging area based data sharing
/// and exchange"):
///   kCoLocated   — this paper's contribution: the space lives on the
///                  compute nodes themselves; data stays where produced.
///   kStagingArea — the DataSpaces baseline: a set of *additional* staging
///                  nodes hosts the space; every coupling incurs two data
///                  movements (producer -> staging, staging -> consumer)
///                  and in-node sharing is impossible.
enum class SharingMode { kCoLocated, kStagingArea };

struct ScenarioConfig {
  ClusterSpec cluster;
  std::vector<AppSpec> apps;
  std::vector<CouplingEdge> couplings;

  /// true  = sequential coupling (paper SAP workflow): producers store into
  ///         CoDS (data lands at the producer's node storage service),
  ///         consumers are launched afterwards on the same node set and
  ///         pull from storage; client-side mapping applies.
  /// false = concurrent coupling (paper CAP workflow): both apps run as a
  ///         bundle, consumers pull directly from producer cores;
  ///         server-side mapping applies.
  bool sequential = false;

  MappingStrategy strategy = MappingStrategy::kRoundRobin;
  int ghost_width = 2;  ///< stencil halo layers for intra-app exchange
  u64 seed = 1;
  CostParams cost;

  /// Data-sharing substrate. kStagingArea appends `staging_nodes` dedicated
  /// nodes to the cluster; coupled regions are hashed onto them (SFC
  /// interval ownership) and every coupling makes two movements.
  SharingMode sharing = SharingMode::kCoLocated;
  i32 staging_nodes = 0;
};

/// Per-application outcome.
struct AppReport {
  u64 inter_net_bytes = 0;  ///< coupled data received over the network
  u64 inter_shm_bytes = 0;  ///< coupled data received via shared memory
  u64 intra_net_bytes = 0;  ///< halo exchange over the network
  u64 intra_shm_bytes = 0;  ///< halo exchange via shared memory
  u64 staging_net_bytes = 0;  ///< extra producer->staging movement (staging
                              ///< mode only; counted on the consumer's app)
  double retrieve_time = 0.0;  ///< modelled coupled-data retrieval time
  i64 dht_queries = 0;      ///< DHT cores contacted across the app's tasks

  u64 inter_total() const { return inter_net_bytes + inter_shm_bytes; }
  u64 intra_total() const { return intra_net_bytes + intra_shm_bytes; }
};

struct ScenarioResult {
  std::map<i32, AppReport> apps;
  std::map<i32, Placement> placements;  ///< per app id
  i64 comm_graph_cut_bytes = -1;  ///< server mapping edge cut (-1 if unused)

  u64 total_inter_net() const;
  u64 total_intra_net() const;
};

/// Runs the modeled scenario end to end.
ScenarioResult run_modeled_scenario(const ScenarioConfig& config);

}  // namespace cods
