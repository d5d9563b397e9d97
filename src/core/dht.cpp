#include "core/dht.hpp"

#include <algorithm>
#include <memory>
#include <set>
#include <tuple>

namespace cods {

CodsDht::CodsDht(const Cluster& cluster, SfcCurve curve, int granularity_log2)
    : cluster_(&cluster),
      curve_(curve),
      granularity_log2_(granularity_log2) {
  const u64 n = static_cast<u64>(cluster.num_nodes());
  indices_per_node_ = (curve_.size() + n - 1) / n;
  tables_.reserve(n);
  for (u64 i = 0; i < n; ++i) tables_.push_back(std::make_unique<NodeTable>());
}

i32 CodsDht::owner_node(u64 index) const {
  CODS_REQUIRE(index < curve_.size(), "index outside curve");
  return static_cast<i32>(index / indices_per_node_);
}

IndexSpan CodsDht::node_interval(i32 node) const {
  CODS_REQUIRE(node >= 0 && node < num_dht_cores(), "node out of range");
  const u64 lo = static_cast<u64>(node) * indices_per_node_;
  const u64 hi =
      std::min(curve_.size() - 1, lo + indices_per_node_ - 1);
  return IndexSpan{lo, hi};
}

std::vector<i32> CodsDht::owner_nodes(const Box& query) const {
  // On the path of every put and query. Each span covers a contiguous
  // [first, last] owner range; box_spans returns disjoint spans in
  // ascending order and ownership is monotone in the index, so the ranges
  // arrive sorted, and emitting the uncovered suffix of each keeps the
  // output ascending and unique.
  std::vector<i32> nodes;
  for (const IndexSpan& span :
       box_spans(curve_, query, granularity_log2_)) {
    const i32 first = owner_node(span.lo);
    const i32 last = owner_node(span.hi);
    const i32 start =
        nodes.empty() ? first : std::max(first, nodes.back() + 1);
    for (i32 n = start; n <= last; ++n) nodes.push_back(n);
  }
  return nodes;
}

i32 CodsDht::insert(const std::string& var, i32 version,
                    const DataLocation& loc) {
  CODS_REQUIRE(loc.box.valid(), "cannot insert an empty region");
  return insert(var, version, loc, owner_nodes(loc.box));
}

i32 CodsDht::insert(const std::string& var, i32 version,
                    const DataLocation& loc, std::span<const i32> owners) {
  CODS_REQUIRE(loc.box.valid(), "cannot insert an empty region");
  for (i32 node : owners) {
    NodeTable& table = *tables_[static_cast<size_t>(node)];
    MutexLock lock(table.mutex);
    auto& records = table.records[{var, version}];
    // Re-registration of the same region (recovery re-execution) replaces
    // the old record so consumers never see a stale, withdrawn window.
    std::erase_if(records, [&](const DataLocation& r) {
      return r.box.lb == loc.box.lb && r.box.ub == loc.box.ub;
    });
    records.push_back(loc);
  }
  return static_cast<i32>(owners.size());
}

LookupResult CodsDht::query(const std::string& var, i32 version,
                            const Box& region) const {
  LookupResult result;
  result.dht_nodes = owner_nodes(region);
  // Dedupe records that multiple DHT cores know about (a region spanning
  // several intervals is registered with each).
  std::set<std::pair<i32, u64>> seen;  // (owner_client, window_key)
  for (i32 node : result.dht_nodes) {
    const NodeTable& table = *tables_[static_cast<size_t>(node)];
    MutexLock lock(table.mutex);
    const auto it = table.records.find({var, version});
    if (it == table.records.end()) continue;
    for (const DataLocation& loc : it->second) {
      if (!loc.box.intersects(region)) continue;
      if (!seen.insert({loc.owner_client, loc.window_key}).second) continue;
      result.locations.push_back(loc);
    }
  }
  // Record order inside a table reflects the interleaving of concurrent
  // inserts; sort so a query's result (and thus the order consumers fetch
  // and fail in) is a function of the registered regions alone.
  std::sort(result.locations.begin(), result.locations.end(),
            [](const DataLocation& a, const DataLocation& b) {
              return std::tie(a.box.lb.c, a.box.ub.c, a.owner_client,
                              a.window_key) < std::tie(b.box.lb.c, b.box.ub.c,
                                                       b.owner_client,
                                                       b.window_key);
            });
  return result;
}

i64 CodsDht::retire(const std::string& var, i32 version) {
  i64 removed = 0;
  for (auto& table : tables_) {
    MutexLock lock(table->mutex);
    const auto it = table->records.find({var, version});
    if (it == table->records.end()) continue;
    removed += static_cast<i64>(it->second.size());
    table->records.erase(it);
  }
  return removed;
}

i64 CodsDht::drop_node_locations(i32 node) {
  i64 removed = 0;
  for (auto& table : tables_) {
    MutexLock lock(table->mutex);
    for (auto& [key, records] : table->records) {
      removed += static_cast<i64>(std::erase_if(
          records,
          [&](const DataLocation& r) { return r.owner_loc.node == node; }));
    }
  }
  return removed;
}

i64 CodsDht::node_record_count(i32 node) const {
  CODS_REQUIRE(node >= 0 && node < num_dht_cores(), "node out of range");
  const NodeTable& table = *tables_[static_cast<size_t>(node)];
  MutexLock lock(table.mutex);
  i64 count = 0;
  for (const auto& [key, records] : table.records) {
    count += static_cast<i64>(records.size());
  }
  return count;
}

}  // namespace cods
