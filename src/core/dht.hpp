// The CoDS distributed hash table (paper §IV-A, Fig. 6): the application
// domain is linearized with a Hilbert space-filling curve; the 1-D index
// space is divided into contiguous intervals, one per DHT core (one DHT
// core per compute node). Each DHT core keeps a location table recording,
// for every shared variable and version, which regions exist and where the
// bytes are stored (which client/storage endpoint exposes them).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.hpp"
#include "platform/cluster.hpp"
#include "sfc/curve.hpp"

namespace cods {

/// A record in a location table: a stored region of a variable and the
/// window that serves it.
struct DataLocation {
  Box box;             ///< region covered by this record
  i32 owner_client = -1;  ///< client id exposing the window (storage or app)
  CoreLoc owner_loc;   ///< where the bytes physically live
  u64 window_key = 0;  ///< HybridDART window key
};

/// Result of a lookup: matching records plus the DHT cores contacted
/// (used by the caller to account query RPC costs).
struct LookupResult {
  std::vector<DataLocation> locations;
  std::vector<i32> dht_nodes;
};

/// The data-lookup service. Thread-safe.
class CodsDht {
 public:
  /// `granularity_log2` coarsens box->span decomposition when routing
  /// queries (over-coverage only adds harmless extra owner cores).
  CodsDht(const Cluster& cluster, SfcCurve curve, int granularity_log2 = 0);

  const SfcCurve& curve() const { return curve_; }
  i32 num_dht_cores() const { return cluster_->num_nodes(); }

  /// The DHT core responsible for one curve index.
  i32 owner_node(u64 index) const;

  /// The curve-index interval [lo, hi] assigned to a DHT core.
  IndexSpan node_interval(i32 node) const;

  /// All DHT cores whose interval intersects the query box.
  std::vector<i32> owner_nodes(const Box& query) const;

  /// Registers a stored region with every DHT core responsible for part of
  /// it. Returns the number of DHT cores updated.
  i32 insert(const std::string& var, i32 version, const DataLocation& loc);

  /// Finds all records of (var, version) intersecting `region`,
  /// deduplicated across DHT cores.
  LookupResult query(const std::string& var, i32 version,
                     const Box& region) const;

  /// Drops all records of (var, version); returns records removed
  /// (counted once per DHT core holding them).
  i64 retire(const std::string& var, i32 version);

  /// Failure recovery: drops every record whose bytes live on `node`
  /// (across all variables and versions). Returns records removed.
  i64 drop_node_locations(i32 node);

  /// Number of records held by one DHT core (for balance diagnostics).
  i64 node_record_count(i32 node) const;

 private:
  struct NodeTable {
    mutable Mutex mutex{"dht.table"};
    // (var, version) -> records whose region intersects this core's interval
    std::map<std::pair<std::string, i32>, std::vector<DataLocation>> records
        CODS_GUARDED_BY(mutex);
  };

  const Cluster* cluster_;
  SfcCurve curve_;
  int granularity_log2_;
  u64 indices_per_node_;
  std::vector<std::unique_ptr<NodeTable>> tables_;
};

}  // namespace cods
