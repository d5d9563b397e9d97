#include "core/cods.hpp"

#include <algorithm>
#include <set>

#include "health/task_clock.hpp"
#include "trace/trace.hpp"

namespace cods {

namespace {

bool point_less(const Point& a, const Point& b) {
  for (int d = 0; d < a.nd && d < b.nd; ++d) {
    if (a[d] != b[d]) return a[d] < b[d];
  }
  return a.nd < b.nd;
}

bool box_less(const Box& a, const Box& b) {
  if (!(a.lb == b.lb)) return point_less(a.lb, b.lb);
  return point_less(a.ub, b.ub);
}

u64 fnv1a(const void* data, size_t len, u64 seed = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  u64 h = seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

SfcCurve make_curve(const Box& domain) {
  i64 max_extent = 1;
  for (int d = 0; d < domain.ndim(); ++d) {
    max_extent = std::max(max_extent, domain.extent(d));
  }
  return SfcCurve(CurveKind::kHilbert, domain.ndim(),
                  SfcCurve::bits_for_extent(max_extent));
}

}  // namespace

CodsSpace::CodsSpace(const Cluster& cluster, Metrics& metrics,
                     const Box& domain)
    : cluster_(&cluster),
      domain_(domain),
      dart_(cluster, metrics),
      dht_(cluster, make_curve(domain)) {
  CODS_REQUIRE(domain.valid(), "domain must be non-empty");
  Point origin = Point::zeros(domain.ndim());
  CODS_REQUIRE(domain.lb == origin, "domain must be anchored at the origin");
}

u64 CodsSpace::window_key(const std::string& var, i32 version,
                          const Box& box) {
  u64 h = fnv1a(var.data(), var.size());
  h = fnv1a(&version, sizeof(version), h);
  for (int d = 0; d < box.ndim(); ++d) {
    const i64 lo = box.lb[d];
    const i64 hi = box.ub[d];
    h = fnv1a(&lo, sizeof(lo), h);
    h = fnv1a(&hi, sizeof(hi), h);
  }
  return h;
}

DataLocation CodsSpace::store_object(i32 node, const std::string& var,
                                     i32 version, const Box& box,
                                     std::vector<std::byte> data,
                                     bool* stored) {
  const i32 client = storage_client(node);
  const u64 key = window_key(var, version, box);
  if (stored != nullptr) *stored = true;
  std::span<std::byte> window;
  std::optional<i32> replaced_client;
  {
    MutexLock lock(store_mutex_);
    auto& index = store_index_[{var, version}];
    if (const u32* existing = store_.find(key)) {
      const u32 slot = *existing;
      const i32 owner_node = object(slot).node;
      if (speculation_.load() && !reexec_.load()) {
        // First completion wins: a speculative re-put of an object that
        // already landed keeps the original (wherever it lives). The
        // caller's traffic was already accounted; only the store and the
        // DHT registration are skipped.
        if (stored != nullptr) *stored = false;
        DataLocation kept;
        kept.box = box;
        kept.owner_client = storage_client(owner_node);
        kept.owner_loc = CoreLoc{owner_node, 0};
        kept.window_key = key;
        return kept;
      }
      // Same (var, version, box) again: rejected, unless the engine is
      // re-executing tasks after a failure — then the re-put replaces the
      // object (possibly on a different node).
      CODS_CHECK(reexec_.load(),
                 "object already stored for this (var, version, box)");
      replaced_client = storage_client(owner_node);
      remove_object(key, slot);
      // The ordered key list is only walked on this (rare) re-execution
      // replacement path; publication order of the survivors is kept.
      std::erase(index, key);
    }
    // Shed-load watermark: recovery re-puts are exempt (restoring lost
    // objects must never be refused for the memory they already held).
    const u64 hard = hard_watermark_.load(std::memory_order_relaxed);
    if (hard > 0 && !reexec_.load() && stored_total_ + data.size() > hard) {
      const u64 held = stored_total_;
      lock.unlock();
      throw OverloadError(data.size(), held, hard);
    }
    StoredObject& stored_object =
        add_object(key, StoredObject{node, box, std::move(data)});
    index.push_back(key);
    window = std::span(stored_object.data);
  }
  if (replaced_client) dart_.withdraw(*replaced_client, key);
  dart_.expose(client, key, window);
  note_version(var, version);
  DataLocation loc;
  loc.box = box;
  loc.owner_client = client;
  loc.owner_loc = CoreLoc{node, 0};
  loc.window_key = key;
  return loc;
}

CodsSpace::StoredObject& CodsSpace::add_object(u64 key, StoredObject obj) {
  u32 slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if (object_chunks_.empty() ||
        object_chunks_.back().size() == kChunkObjects) {
      object_chunks_.emplace_back();
    }
    // Records may move while the last chunk grows; windows point at each
    // record's payload buffer, which a move keeps in place.
    object_chunks_.back().emplace_back();
    slot = static_cast<u32>((object_chunks_.size() - 1) * kChunkObjects +
                            object_chunks_.back().size() - 1);
  }
  CODS_CHECK(store_.insert(key, slot).second,
             "object already stored for this window key");
  stored_total_ += obj.data.size();
  StoredObject& record = object(slot);
  record = std::move(obj);
  return record;
}

void CodsSpace::remove_object(u64 key, u32 slot) {
  StoredObject& record = object(slot);
  stored_total_ -= record.data.size();
  record = StoredObject{};  // frees the payload
  store_.erase(key);
  free_slots_.push_back(slot);
}

void CodsSpace::post_cont(const std::string& var, i32 version, const Box& box,
                          std::vector<std::byte> data,
                          const Endpoint& producer) {
  const u64 key = window_key(var, version, box);
  {
    MutexLock lock(cont_mutex_);
    auto& records = cont_[{var, version}];
    const auto existing =
        std::find_if(records.begin(), records.end(),
                     [&](const ContRecord& r) { return r.window_key == key; });
    std::optional<Endpoint> replaced;
    if (existing != records.end()) {
      // First completion wins under speculation: the original publication
      // stays authoritative and the duplicate is dropped on the floor.
      if (speculation_.load() && !reexec_.load()) return;
      // Re-publication of the same region: only valid while the engine is
      // re-executing a failed wave (the producer may have moved nodes).
      CODS_CHECK(reexec_.load(),
                 "region already published for this (var, version, box)");
      replaced = existing->producer;
      records.erase(existing);
    }
    records.push_back(ContRecord{box, producer, key, std::move(data)});
    // Expose before releasing cont_mutex_: the record is visible to
    // wait_cont_coverage the moment it is pushed, and a consumer woken by
    // an earlier producer's notify may observe full coverage and pull this
    // window before an expose outside the lock lands. (retire() already
    // nests the dart mutex under cont_mutex_, so the ordering is fixed.)
    if (replaced) dart_.withdraw(replaced->client_id, key);
    dart_.expose(producer.client_id, key, std::span(records.back().data));
  }
  note_version(var, version);
  cont_cv_.notify_all();
}

std::vector<CodsSpace::ContEntry> CodsSpace::wait_cont_coverage(
    const std::string& var, i32 version, const Box& region,
    std::optional<std::chrono::seconds> timeout) {
  MutexLock lock(cont_mutex_);
  const WaitDeadline deadline(timeout.value_or(op_timeout()));
  for (;;) {
    const auto it = cont_.find({var, version});
    if (it != cont_.end()) {
      u64 covered = 0;
      std::vector<ContEntry> entries;
      for (const ContRecord& r : it->second) {
        const auto overlap = intersect(r.box, region);
        if (!overlap) continue;
        covered += overlap->volume();
        entries.push_back(ContEntry{r.box, r.producer, r.window_key});
      }
      // Producers own disjoint regions, so coverage sums without overlap.
      if (covered >= region.volume()) {
        // Entries accumulate in producer-arrival order, which depends on
        // thread scheduling; return them in a canonical order so pull
        // schedules (and the trace/ledger streams built from them) are
        // deterministic.
        std::sort(entries.begin(), entries.end(),
                  [](const ContEntry& a, const ContEntry& b) {
                    return box_less(a.box, b.box);
                  });
        return entries;
      }
    }
    if (cont_cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      fail("get_cont timed out waiting for producers to cover " +
           region.to_string() + " of '" + var + "' v" +
           std::to_string(version));
    }
  }
}

void CodsSpace::retire(const std::string& var, i32 version) {
  {
    MutexLock lock(store_mutex_);
    const auto it = store_index_.find({var, version});
    if (it != store_index_.end()) {
      for (const u64 key : it->second) {
        const u32* slot = store_.find(key);
        if (slot == nullptr) continue;
        const u32 found = *slot;
        dart_.withdraw(storage_client(object(found).node), key);
        remove_object(key, found);
      }
      store_index_.erase(it);
    }
  }
  {
    MutexLock lock(cont_mutex_);
    const auto it = cont_.find({var, version});
    if (it != cont_.end()) {
      for (const ContRecord& r : it->second) {
        dart_.withdraw(r.producer.client_id, r.window_key);
      }
      cont_.erase(it);
    }
  }
  dht_.retire(var, version);
}

u64 CodsSpace::stored_bytes() const {
  MutexLock lock(store_mutex_);
  return stored_total_;
}

void CodsSpace::set_watermarks(u64 soft, u64 hard) {
  CODS_REQUIRE(hard == 0 || soft <= hard,
               "soft watermark must not exceed hard watermark");
  soft_watermark_.store(soft, std::memory_order_relaxed);
  hard_watermark_.store(hard, std::memory_order_relaxed);
}

double CodsSpace::backpressure_penalty(u64 incoming_bytes) const {
  const u64 soft = soft_watermark_.load(std::memory_order_relaxed);
  if (soft == 0) return 0.0;
  u64 held;
  {
    MutexLock lock(store_mutex_);
    held = stored_total_;
  }
  const u64 after = held + incoming_bytes;
  if (after <= soft) return 0.0;
  // Penalty grows linearly with overshoot past the soft watermark, in
  // units of the shared-memory latency per soft-watermark's worth of
  // overshoot — smooth backpressure, deterministic, no wall clocks.
  const double unit = dart_.cost_model().params().shm_latency;
  return unit * (static_cast<double>(after - soft) /
                 static_cast<double>(soft));
}

void CodsSpace::note_version(const std::string& var, i32 version) {
  {
    MutexLock lock(meta_mutex_);
    auto [it, inserted] = latest_.insert({var, version});
    if (!inserted && it->second < version) it->second = version;
  }
  meta_cv_.notify_all();
}

i32 CodsSpace::latest_version(const std::string& var) const {
  MutexLock lock(meta_mutex_);
  const auto it = latest_.find(var);
  return it == latest_.end() ? -1 : it->second;
}

void CodsSpace::wait_version(const std::string& var, i32 version,
                             std::optional<std::chrono::seconds> timeout)
    const {
  MutexLock lock(meta_mutex_);
  const WaitDeadline deadline(timeout.value_or(op_timeout()));
  for (;;) {
    const auto it = latest_.find(var);
    if (it != latest_.end() && it->second >= version) return;
    if (meta_cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      fail("wait_version timed out for '" + var + "' v" +
           std::to_string(version));
    }
  }
}

std::vector<std::string> CodsSpace::variables() const {
  std::set<std::string> names;
  {
    MutexLock lock(store_mutex_);
    for (const auto& [key, entries] : store_index_) {
      if (!entries.empty()) names.insert(key.first);
    }
  }
  {
    MutexLock lock(cont_mutex_);
    for (const auto& [key, records] : cont_) {
      if (!records.empty()) names.insert(key.first);
    }
  }
  return {names.begin(), names.end()};
}

std::vector<i32> CodsSpace::versions(const std::string& var) const {
  std::set<i32> out;
  {
    MutexLock lock(store_mutex_);
    for (const auto& [key, entries] : store_index_) {
      if (key.first == var && !entries.empty()) out.insert(key.second);
    }
  }
  {
    MutexLock lock(cont_mutex_);
    for (const auto& [key, records] : cont_) {
      if (key.first == var && !records.empty()) out.insert(key.second);
    }
  }
  return {out.begin(), out.end()};
}

std::vector<DataLocation> CodsSpace::catalog(const std::string& var,
                                             i32 version) const {
  std::vector<DataLocation> out;
  {
    MutexLock lock(store_mutex_);
    const auto it = store_index_.find({var, version});
    if (it != store_index_.end()) {
      for (const u64 key : it->second) {
        const u32* slot = store_.find(key);
        if (slot == nullptr) continue;
        const StoredObject& obj = object(*slot);
        DataLocation loc;
        loc.box = obj.box;
        loc.owner_client = storage_client(obj.node);
        loc.owner_loc = CoreLoc{obj.node, 0};
        loc.window_key = key;
        out.push_back(loc);
      }
    }
  }
  {
    MutexLock lock(cont_mutex_);
    const auto it = cont_.find({var, version});
    if (it != cont_.end()) {
      for (const ContRecord& r : it->second) {
        DataLocation loc;
        loc.box = r.box;
        loc.owner_client = r.producer.client_id;
        loc.owner_loc = r.producer.loc;
        loc.window_key = r.window_key;
        out.push_back(loc);
      }
    }
  }
  return out;
}

u64 CodsSpace::drop_node(i32 node) {
  u64 lost = 0;
  std::vector<std::pair<i32, u64>> windows;  // withdrawn outside the locks
  {
    MutexLock lock(store_mutex_);
    for (auto& [index_key, keys] : store_index_) {
      std::erase_if(keys, [&](u64 key) {
        const u32* found = store_.find(key);
        if (found == nullptr) return true;
        const u32 slot = *found;
        if (object(slot).node != node) return false;
        lost += object(slot).data.size();
        windows.push_back({storage_client(node), key});
        remove_object(key, slot);
        return true;
      });
    }
  }
  {
    MutexLock lock(cont_mutex_);
    for (auto& [key, records] : cont_) {
      for (auto it = records.begin(); it != records.end();) {
        if (it->producer.loc.node == node) {
          lost += it->data.size();
          windows.push_back({it->producer.client_id, it->window_key});
          it = records.erase(it);
        } else {
          ++it;
        }
      }
    }
  }
  for (const auto& [client, key] : windows) dart_.withdraw(client, key);
  dht_.drop_node_locations(node);
  return lost;
}

i32 CodsSpace::retire_older_than(const std::string& var, i32 keep) {
  CODS_REQUIRE(keep >= 1, "must keep at least one version");
  const i32 latest = latest_version(var);
  if (latest < 0) return 0;
  i32 retired = 0;
  for (i32 version : versions(var)) {
    if (version <= latest - keep) {
      retire(var, version);
      ++retired;
    }
  }
  return retired;
}

// ---------------------------------------------------------------------------
// CodsClient
// ---------------------------------------------------------------------------

PutResult CodsClient::put_seq(const std::string& var, i32 version,
                              const Box& box, std::span<const std::byte> data,
                              u64 elem_size) {
  CODS_REQUIRE(data.size() == box_bytes(box, elem_size),
               "data size does not match box");
  ScopedSpan span(SpanCategory::kPut, data.size(), /*detail=*/1);
  const i32 node = self_.loc.node;
  // Graceful degradation: above the soft watermark the space slows the
  // producer down instead of refusing it (docs/FAULT_MODEL.md).
  const double backpressure = space_->backpressure_penalty(data.size());
  bool stored = true;
  const DataLocation loc = space_->store_object(
      node, var, version, box, {data.begin(), data.end()}, &stored);
  // The store lands on the producer's own node: a shared-memory movement,
  // accounted through the dart funnel so the journal and trace see it too.
  // A speculative put whose twin already landed still pays this movement
  // (the bytes crossed cores before the duplicate was detected).
  double time = backpressure +
                space_->dart().cost_model().flow_time(
                    Flow{self_.loc, loc.owner_loc, data.size()});
  space_->dart().record(app_id_, TrafficClass::kInterApp, self_.loc,
                        loc.owner_loc, data.size(), time);
  TaskClock::advance(time);  // rpc() below advances its own share
  if (backpressure > 0.0) {
    space_->dart().metrics().add_time(
        app_id_, space_->dart().metrics().intern("health.backpressure"),
        backpressure);
  }
  // Register with every responsible DHT core (control RPCs).
  const auto nodes = space_->dht().owner_nodes(box);
  for (i32 dht_node : nodes) {
    time += space_->dart().rpc(self_, space_->storage_endpoint(dht_node));
  }
  // First completion won: the original object stays authoritative, so the
  // DHT already points at it — re-inserting would duplicate the location.
  if (stored) space_->dht().insert(var, version, loc, nodes);
  PutResult result;
  result.model_time = time;
  result.bytes = data.size();
  result.dht_cores = static_cast<i32>(nodes.size());
  result.stored = stored;
  span.close(result.model_time);
  return result;
}

PutResult CodsClient::put_cont(const std::string& var, i32 version,
                               const Box& box,
                               std::span<const std::byte> data,
                               u64 elem_size) {
  CODS_REQUIRE(data.size() == box_bytes(box, elem_size),
               "data size does not match box");
  ScopedSpan span(SpanCategory::kPut, data.size(), /*detail=*/2);
  space_->post_cont(var, version, box, {data.begin(), data.end()}, self_);
  PutResult result;
  // Publication is asynchronous registration: no data crosses cores until
  // consumers pull, so only a negligible local cost is modelled.
  result.model_time = space_->dart().cost_model().params().shm_latency;
  result.bytes = data.size();
  span.close(result.model_time);
  return result;
}

std::string CodsClient::cache_key(const std::string& var, const Box& region,
                                  u64 elem_size) const {
  return var + "|" + region.to_string() + "|" + std::to_string(elem_size);
}

GetResult CodsClient::pull_schedule(const Schedule& schedule,
                                    const std::string& var, i32 version,
                                    const Box& region, std::span<std::byte> out,
                                    u64 elem_size) {
  std::vector<PullOp> ops;
  ops.reserve(schedule.entries.size());
  for (const ScheduleEntry& entry : schedule.entries) {
    PullOp op;
    op.local = self_;
    op.remote = entry.source;
    op.key = CodsSpace::window_key(var, version, entry.source_box);
    op.bytes = box_bytes(entry.overlap, elem_size);
    op.app_id = app_id_;
    op.cls = TrafficClass::kInterApp;
    const Box source_box = entry.source_box;
    const Box overlap = entry.overlap;
    op.copy = [out, source_box, overlap, region,
               elem_size](std::span<const std::byte> window) {
      copy_box_region(window, source_box, out, region, overlap, elem_size);
    };
    ops.push_back(std::move(op));
  }
  const double time = space_->dart().pull(ops);
  GetResult result;
  result.model_time = time;
  for (const PullOp& op : ops) result.bytes += op.bytes;
  result.sources = static_cast<i32>(ops.size());
  return result;
}

std::optional<GetResult> CodsClient::pull_cached(const std::string& key,
                                                 const std::string& var,
                                                 i32 version,
                                                 const Box& region,
                                                 std::span<std::byte> out,
                                                 u64 elem_size) {
  if (!cache_enabled_) return std::nullopt;
  const auto it = cache_.find(key);
  if (it == cache_.end()) return std::nullopt;
  // Reuse the source list, recompute this version's window keys, and
  // verify the windows still exist.
  bool usable = !it->second.entries.empty();
  for (const ScheduleEntry& entry : it->second.entries) {
    if (!space_->dart().has_window(
            entry.source.client_id,
            CodsSpace::window_key(var, version, entry.source_box))) {
      usable = false;
      break;
    }
  }
  if (!usable) {
    cache_.erase(it);
    return std::nullopt;
  }
  GetResult result =
      pull_schedule(it->second, var, version, region, out, elem_size);
  result.cache_hit = true;
  return result;
}

GetResult CodsClient::get_seq(const std::string& var, i32 version,
                              const Box& region, std::span<std::byte> out,
                              u64 elem_size) {
  CODS_REQUIRE(out.size() >= box_bytes(region, elem_size),
               "output buffer too small");
  ScopedSpan span(SpanCategory::kGet, box_bytes(region, elem_size),
                  /*detail=*/1);
  const std::string key = cache_key(var, region, elem_size);
  if (auto cached = pull_cached(key, var, version, region, out, elem_size)) {
    span.close(cached->model_time);
    return *cached;
  }

  const LookupResult lookup = space_->dht().query(var, version, region);
  double query_time = 0.0;
  for (i32 node : lookup.dht_nodes) {
    query_time += space_->dart().rpc(self_, space_->storage_endpoint(node));
  }

  Schedule schedule;
  u64 covered = 0;
  for (const DataLocation& loc : lookup.locations) {
    const auto overlap = intersect(loc.box, region);
    if (!overlap) continue;
    covered += overlap->volume();
    schedule.entries.push_back(ScheduleEntry{
        Endpoint{loc.owner_client, loc.owner_loc}, loc.box, *overlap});
  }
  CODS_CHECK(covered >= region.volume(),
             "stored data does not cover the requested region " +
                 region.to_string() + " of '" + var + "' v" +
                 std::to_string(version));
  // DHT location order depends on concurrent producer interleaving; pull
  // in a canonical order so flows, spans and the journal are
  // deterministic (the modelled batch time is order-independent, but its
  // floating-point evaluation is not).
  std::sort(schedule.entries.begin(), schedule.entries.end(),
            [](const ScheduleEntry& a, const ScheduleEntry& b) {
              return box_less(a.overlap, b.overlap);
            });

  GetResult result = pull_schedule(schedule, var, version, region, out,
                                   elem_size);
  result.model_time += query_time;
  result.dht_cores = static_cast<i32>(lookup.dht_nodes.size());
  if (cache_enabled_) cache_[key] = std::move(schedule);
  span.close(result.model_time);
  return result;
}

GetResult CodsClient::get_cont(const std::string& var, i32 version,
                               const Box& region, std::span<std::byte> out,
                               u64 elem_size) {
  CODS_REQUIRE(out.size() >= box_bytes(region, elem_size),
               "output buffer too small");
  ScopedSpan span(SpanCategory::kGet, box_bytes(region, elem_size),
                  /*detail=*/2);
  const std::string key = cache_key(var, region, elem_size);
  if (cache_enabled_ && cache_.contains(key)) {
    // Concurrent coupling: producers may not have published this version
    // yet; wait for coverage before pulling through the cached schedule.
    space_->wait_cont_coverage(var, version, region);
  }
  if (auto cached = pull_cached(key, var, version, region, out, elem_size)) {
    span.close(cached->model_time);
    return *cached;
  }

  const auto entries = space_->wait_cont_coverage(var, version, region);
  Schedule schedule;
  for (const auto& entry : entries) {
    const auto overlap = intersect(entry.box, region);
    if (!overlap) continue;
    schedule.entries.push_back(
        ScheduleEntry{entry.producer, entry.box, *overlap});
  }
  GetResult result =
      pull_schedule(schedule, var, version, region, out, elem_size);
  if (cache_enabled_) cache_[key] = std::move(schedule);
  span.close(result.model_time);
  return result;
}

}  // namespace cods
