#include "core/dht.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <numeric>
#include <set>
#include <tuple>
#include <utility>

namespace cods {

CodsDht::CodsDht(const Cluster& cluster, SfcCurve curve, int granularity_log2)
    : cluster_(&cluster),
      curve_(curve),
      granularity_log2_(granularity_log2) {
  CODS_REQUIRE(granularity_log2 >= 0 && granularity_log2 <= curve_.bits(),
               "DHT granularity out of range");
  const u64 n = static_cast<u64>(cluster.num_nodes());
  indices_per_node_ = (curve_.size() + n - 1) / n;
  tables_ = std::make_unique<NodeTable[]>(n);
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

namespace {

/// Collects the owner ranges of a query without listing its index spans.
/// It walks the aligned subcubes of the coarse curve (one cell per cell
/// of side 2^g) that meet the coarse query. Each occupies one contiguous,
/// aligned index range (sfc/curve.hpp), and the walk stops at a subcube
/// inside the query, at a coarse cell, or at a subcube whose whole range
/// has one owner: every query cell in such a subcube belongs to that
/// owner.
struct OwnerCollector {
  const SfcCurve& coarse;
  const Box& query;  ///< in coarse cells, inside the coarse grid
  int shift;         ///< ndim * g: log2 of fine indices per coarse index
  u64 indices_per_node;
  std::vector<std::pair<i32, i32>> ranges;  ///< [first, last] owners

  void visit(const Point& anchor, int side_log2) {
    const i64 side = i64{1} << side_log2;
    bool inside = true;
    for (int d = 0; d < coarse.ndim(); ++d) {
      const i64 lo = anchor[d];
      const i64 hi = anchor[d] + side - 1;
      if (hi < query.lb[d] || lo > query.ub[d]) return;  // disjoint
      if (lo < query.lb[d] || hi > query.ub[d]) inside = false;
    }
    const bool whole = inside || side_log2 == 0;
    const int cells_log2 = coarse.ndim() * side_log2;
    const u64 cells = u64{1} << (cells_log2 + shift);  // fine indices
    // A subcube of more than indices_per_node indices always spans two
    // owners, so only smaller ones (and whole ones) need their range.
    if (whole || cells <= indices_per_node) {
      const u64 base = (coarse.encode(anchor) >> cells_log2)
                       << (cells_log2 + shift);
      const i32 first = static_cast<i32>(base / indices_per_node);
      const i32 last = static_cast<i32>((base + cells - 1) / indices_per_node);
      if (whole || first == last) {
        ranges.emplace_back(first, last);
        return;
      }
    }
    const i64 half = side / 2;
    const int nchild = 1 << coarse.ndim();
    for (int c = 0; c < nchild; ++c) {
      Point child = anchor;
      for (int d = 0; d < coarse.ndim(); ++d) {
        if (c & (1 << d)) child[d] += half;
      }
      visit(child, side_log2 - 1);
    }
  }
};

}  // namespace

std::vector<i32> CodsDht::owner_nodes(const Box& query) const {
  // On the path of every put and query. Owner ranges are the same
  // whether taken per span of box_spans(curve_, query, g) or per
  // subcube of the walk, since ownership is monotone in the index.
  CODS_REQUIRE(query.ndim() == curve_.ndim(), "query dimensionality mismatch");
  CODS_REQUIRE(query.valid(), "query box is empty");
  const int ndim = curve_.ndim();
  const int g = granularity_log2_;
  const int levels = curve_.bits() - g;
  // The coarse query, clipped to the coarse grid. Floor division keeps
  // coordinates outside the grid in their cells.
  Box coarse_query = query;
  int level = 0;
  for (int d = 0; d < ndim; ++d) {
    coarse_query.lb[d] = std::max<i64>(query.lb[d] >> g, 0);
    coarse_query.ub[d] =
        std::min<i64>(query.ub[d] >> g, (i64{1} << levels) - 1);
    if (coarse_query.lb[d] > coarse_query.ub[d]) return {};  // misses
    level = std::max(level, static_cast<int>(std::bit_width(static_cast<u64>(
                                coarse_query.lb[d] ^ coarse_query.ub[d]))));
  }
  if (levels == 0) {
    // One coarse cell: the whole curve.
    std::vector<i32> nodes(
        static_cast<size_t>(owner_node(curve_.size() - 1)) + 1);
    std::iota(nodes.begin(), nodes.end(), 0);
    return nodes;
  }
  const SfcCurve coarse(curve_.kind(), ndim, levels);
  OwnerCollector collector{coarse, coarse_query, ndim * g, indices_per_node_,
                           {}};
  // The walk starts at the smallest aligned subcube holding the coarse
  // query: its ancestors are not inside the query and its siblings miss
  // it, so a walk from the root reaches the same subcubes.
  Point anchor = coarse_query.lb;
  for (int d = 0; d < ndim; ++d) anchor[d] = (anchor[d] >> level) << level;
  collector.visit(anchor, level);
  auto& ranges = collector.ranges;
  std::sort(ranges.begin(), ranges.end());
  // Emitting the uncovered suffix of each sorted range keeps the output
  // ascending and unique.
  std::vector<i32> nodes;
  for (const auto& [first, last] : ranges) {
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
    NodeTable& table = tables()[static_cast<size_t>(node)];
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
    const NodeTable& table = tables()[static_cast<size_t>(node)];
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
  for (NodeTable& table : tables()) {
    MutexLock lock(table.mutex);
    const auto it = table.records.find({var, version});
    if (it == table.records.end()) continue;
    removed += static_cast<i64>(it->second.size());
    table.records.erase(it);
  }
  return removed;
}

i64 CodsDht::drop_node_locations(i32 node) {
  i64 removed = 0;
  for (NodeTable& table : tables()) {
    MutexLock lock(table.mutex);
    for (auto& [key, records] : table.records) {
      removed += static_cast<i64>(std::erase_if(
          records,
          [&](const DataLocation& r) { return r.owner_loc.node == node; }));
    }
  }
  return removed;
}

i64 CodsDht::node_record_count(i32 node) const {
  CODS_REQUIRE(node >= 0 && node < num_dht_cores(), "node out of range");
  const NodeTable& table = tables()[static_cast<size_t>(node)];
  MutexLock lock(table.mutex);
  i64 count = 0;
  for (const auto& [key, records] : table.records) {
    count += static_cast<i64>(records.size());
  }
  return count;
}

}  // namespace cods
