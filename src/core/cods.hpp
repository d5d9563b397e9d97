// Co-located DataSpaces (CoDS): the paper's virtual shared-space
// abstraction (§III-A, §IV-A, Table I). Coupled applications interact
// through semantically specialized one-sided operators over the shared
// n-D domain:
//
//   put_seq / get_seq   — sequential coupling: producers store regions into
//                         the distributed in-memory object store on their
//                         own node and register them with the SFC DHT;
//                         consumers look locations up in the DHT, compute a
//                         communication schedule and pull the data.
//   put_cont / get_cont — concurrent coupling: producers publish regions at
//                         their own cores; consumers rendezvous directly
//                         with the producers (no DHT lookup) and pull.
//
// Both paths use receiver-driven parallel pulls over HybridDART, cache
// communication schedules across iterations (versions), and account every
// byte as shared-memory or network traffic depending on placement.
#pragma once

#include <atomic>
#include <functional>
#include <iosfwd>
#include <optional>
#include <unordered_map>

#include "common/sync.hpp"
#include "core/dht.hpp"
#include "core/layout.hpp"
#include "dart/dart.hpp"

namespace cods {

/// Outcome of a put operation.
struct PutResult {
  double model_time = 0.0;  ///< modelled completion time
  u64 bytes = 0;
  i32 dht_cores = 0;  ///< DHT cores updated (seq only)
  /// False when a speculative re-put found the object already stored and
  /// kept the original (first-completion-wins, docs/FAULT_MODEL.md).
  bool stored = true;
};

/// Thrown when a put would push the sequential store past its hard byte
/// watermark (graceful degradation: shed load instead of exhausting
/// memory). Typed so callers can distinguish shedding from data errors.
class OverloadError : public Error {
 public:
  OverloadError(u64 attempted, u64 stored, u64 hard_watermark)
      : Error("put of " + std::to_string(attempted) +
              " bytes shed: store holds " + std::to_string(stored) +
              " of " + std::to_string(hard_watermark) + " hard-watermark " +
              "bytes"),
        attempted_(attempted),
        stored_(stored),
        hard_watermark_(hard_watermark) {}
  u64 attempted() const { return attempted_; }
  u64 stored() const { return stored_; }
  u64 hard_watermark() const { return hard_watermark_; }

 private:
  u64 attempted_;
  u64 stored_;
  u64 hard_watermark_;
};

/// Outcome of a get operation.
struct GetResult {
  double model_time = 0.0;  ///< modelled completion time (query + pull)
  u64 bytes = 0;            ///< payload pulled
  i32 sources = 0;          ///< distinct windows pulled from
  i32 dht_cores = 0;        ///< DHT cores queried (0 on a cache hit)
  bool cache_hit = false;   ///< communication schedule reused
  /// Always false: the client has no DHT lookup cache. Kept only because
  /// the repository benchmark (perfbench/bodies.cpp) still reads it; it
  /// goes when the benchmark drops `dht.lookup_hit_ratio`.
  bool lookup_cache_hit = false;
};

/// The shared space. One instance per workflow run; shared by all
/// execution clients. Thread-safe. Transfers are priced with the default
/// CostParams and the DHT indexes exact Hilbert-curve spans.
class CodsSpace {
 public:
  CodsSpace(const Cluster& cluster, Metrics& metrics, const Box& domain);

  const Cluster& cluster() const { return *cluster_; }
  HybridDart& dart() { return dart_; }
  CodsDht& dht() { return dht_; }
  const Box& domain() const { return domain_; }

  /// Synthetic client id of the storage service on a node (windows of
  /// stored objects are exposed under this id, at core 0 of the node).
  i32 storage_client(i32 node) const {
    return cluster_->total_cores() + node;
  }
  Endpoint storage_endpoint(i32 node) const {
    return Endpoint{storage_client(node), CoreLoc{node, 0}};
  }

  /// Deterministic window key for (var, version, box): lets a cached
  /// schedule recompute next iteration's keys without a DHT query.
  static u64 window_key(const std::string& var, i32 version, const Box& box);

  /// Stores an object in the node's in-memory store, exposes its window and
  /// returns its location record. Takes ownership of the bytes. When a
  /// speculative re-put finds the (var, version, box) already stored, the
  /// original is kept, `*stored` (if given) is set false and the original's
  /// location is returned. Throws OverloadError past the hard watermark.
  DataLocation store_object(i32 node, const std::string& var, i32 version,
                            const Box& box, std::vector<std::byte> data,
                            bool* stored = nullptr);

  /// Registers a concurrently-published region (put_cont side).
  void post_cont(const std::string& var, i32 version, const Box& box,
                 std::vector<std::byte> data, const Endpoint& producer);

  struct ContEntry {
    Box box;
    Endpoint producer;
    u64 window_key = 0;
  };

  /// Blocks until published regions fully cover `region` for (var,
  /// version); returns the overlapping entries. Throws on timeout
  /// (defaults to op_timeout()).
  std::vector<ContEntry> wait_cont_coverage(
      const std::string& var, i32 version, const Box& region,
      std::optional<std::chrono::seconds> timeout = std::nullopt);

  /// Drops all stored objects, published regions, windows and DHT records
  /// of (var, version). Frees the memory held for that iteration.
  void retire(const std::string& var, i32 version);

  /// Sliding-window memory management for iterative coupling: retires every
  /// version of `var` older than (latest - keep + 1). Returns versions
  /// retired. keep >= 1.
  i32 retire_older_than(const std::string& var, i32 keep);

  /// Total bytes currently held by the in-memory object store.
  u64 stored_bytes() const;

  // --- version coordination (supplements the paper's one-sided operators
  // with the "coordination" half of the shared-space abstraction) ---

  /// Highest version of `var` that has been put (seq or cont); -1 if none.
  i32 latest_version(const std::string& var) const;

  /// Blocks until latest_version(var) >= version. Throws on timeout
  /// (defaults to op_timeout()).
  void wait_version(const std::string& var, i32 version,
                    std::optional<std::chrono::seconds> timeout =
                        std::nullopt) const;

  /// Default bound for blocking waits (version/coverage). The workflow
  /// engine shortens this when fault injection is active so a dead
  /// producer surfaces as an Error quickly instead of a long hang.
  /// Atomic: the engine may adjust it while clients are already waiting
  /// (in-flight waits keep the deadline they computed).
  void set_op_timeout(std::chrono::seconds timeout) {
    op_timeout_.store(timeout, std::memory_order_relaxed);
  }
  std::chrono::seconds op_timeout() const {
    return op_timeout_.load(std::memory_order_relaxed);
  }

  // --- metadata catalog ---

  /// All variables with at least one live (stored or published) version.
  std::vector<std::string> variables() const;

  /// Live versions of one variable, ascending.
  std::vector<i32> versions(const std::string& var) const;

  /// Regions of (var, version) currently stored/published, with owners.
  std::vector<DataLocation> catalog(const std::string& var,
                                    i32 version) const;

  // --- checkpoint/restart ---

  /// Serializes every *sequentially stored* object (variable, version,
  /// region, node, bytes) to a binary stream. Concurrently published
  /// regions are transient rendezvous state and are not captured.
  /// Returns the number of objects written.
  u64 save_checkpoint(std::ostream& out) const;
  u64 save_checkpoint(const std::string& path) const;

  /// Restores objects from a checkpoint into this (typically fresh) space:
  /// data lands back on its original node's store and is re-registered
  /// with the DHT. The cluster must have at least as many nodes as the
  /// checkpoint references. Returns the number of objects restored.
  u64 load_checkpoint(std::istream& in);
  u64 load_checkpoint(const std::string& path);

  // --- failure simulation and recovery (docs/FAULT_MODEL.md) ---

  /// Simulated node failure: drops every stored object and published
  /// region homed on `node` (windows withdrawn, DHT records removed).
  /// Returns the payload bytes lost.
  u64 drop_node(i32 node);

  /// Selective restore: reads a checkpoint stream and restores the objects
  /// that are no longer present in the space (lost to a node failure),
  /// placing each on the node `remap(original_node)` selects (nullopt =
  /// skip). Objects still alive are never touched. Returns the payload
  /// bytes restored.
  u64 restore_lost(std::istream& in,
                   const std::function<std::optional<i32>(i32)>& remap);

  /// Re-execution mode (engine recovery): a put whose (var, version, box)
  /// already exists replaces the stored bytes instead of throwing, so
  /// re-executed tasks idempotently re-produce their outputs.
  void set_reexecution(bool on) { reexec_.store(on); }
  bool reexecution() const { return reexec_.load(); }

  /// Speculation mode (straggler mitigation): a put whose (var, version,
  /// box) already exists *keeps the original* — first completion wins —
  /// instead of throwing or replacing. The speculative attempt's traffic
  /// is still accounted; only the store and the DHT stay untouched.
  void set_speculation(bool on) { speculation_.store(on); }
  bool speculation() const { return speculation_.load(); }

  // --- graceful degradation under memory pressure (docs/FAULT_MODEL.md) ---

  /// Byte watermarks over the sequential store (0 = disabled). Above
  /// `soft`, every put pays a modelled backpressure delay; a put that
  /// would push the store past `hard` is shed with OverloadError.
  void set_watermarks(u64 soft, u64 hard);

  /// Modelled backpressure delay for admitting `incoming_bytes` now:
  /// 0 below the soft watermark, growing linearly with the overshoot.
  /// Pure function of the store occupancy, so replays are deterministic.
  double backpressure_penalty(u64 incoming_bytes) const;

 private:
  struct StoredObject {
    i32 node = -1;
    Box box;
    std::vector<std::byte> data;
  };

  struct RestoreResult {
    u64 objects = 0;
    u64 bytes = 0;
    u64 corrupt = 0;  ///< objects rejected by the CRC32 integrity footer
  };
  /// Shared checkpoint parser behind load_checkpoint and restore_lost.
  RestoreResult restore_from_stream(
      std::istream& in, const std::function<std::optional<i32>(i32)>& remap);

  const Cluster* cluster_;
  Box domain_;
  HybridDart dart_;
  CodsDht dht_;

  mutable Mutex store_mutex_{"cods.store"};
  // window key -> object. A window key names one (var, version, box), and
  // the space holds at most one copy of it, on one node; the owning
  // storage client is storage_client(object.node).
  std::unordered_map<u64, StoredObject> store_ CODS_GUARDED_BY(store_mutex_);
  /// Running payload total of store_ (kept incrementally so the watermark
  /// check on the put hot path never walks the map).
  u64 stored_total_ CODS_GUARDED_BY(store_mutex_) = 0;
  // (var, version) -> window keys, in publication order. catalog() and
  // checkpointing iterate these lists, so insertion order is part of the
  // observable (deterministic) behavior; membership goes through store_.
  std::map<std::pair<std::string, i32>, std::vector<u64>> store_index_
      CODS_GUARDED_BY(store_mutex_);

  mutable Mutex cont_mutex_{"cods.cont"};
  CondVar cont_cv_;
  struct ContRecord {
    Box box;
    Endpoint producer;
    u64 window_key = 0;
    std::vector<std::byte> data;
  };
  std::map<std::pair<std::string, i32>, std::vector<ContRecord>> cont_
      CODS_GUARDED_BY(cont_mutex_);

  void note_version(const std::string& var, i32 version);

  mutable Mutex meta_mutex_{"cods.meta"};
  mutable CondVar meta_cv_;
  std::map<std::string, i32> latest_ CODS_GUARDED_BY(meta_mutex_);

  std::atomic<bool> reexec_{false};
  std::atomic<bool> speculation_{false};
  std::atomic<u64> soft_watermark_{0};
  std::atomic<u64> hard_watermark_{0};
  std::atomic<std::chrono::seconds> op_timeout_{std::chrono::seconds(120)};
};

/// Per-execution-client handle implementing the Table I operators.
/// Not thread-safe across calls on the *same* client (each client is one
/// rank); different clients may call concurrently.
class CodsClient {
 public:
  CodsClient(CodsSpace& space, Endpoint self, i32 app_id)
      : space_(&space), self_(self), app_id_(app_id) {}

  const Endpoint& endpoint() const { return self_; }
  i32 app_id() const { return app_id_; }

  /// Sequential coupling: store `data` (row-major over `box`) into the
  /// space; data lands in the local node's store and is DHT-registered.
  PutResult put_seq(const std::string& var, i32 version, const Box& box,
                    std::span<const std::byte> data, u64 elem_size);

  /// Sequential coupling: retrieve `region` into `out` (row-major over
  /// `region`). Throws if the stored data does not cover the region.
  GetResult get_seq(const std::string& var, i32 version, const Box& region,
                    std::span<std::byte> out, u64 elem_size);

  /// Concurrent coupling: publish `data` for direct consumer pulls.
  PutResult put_cont(const std::string& var, i32 version, const Box& box,
                     std::span<const std::byte> data, u64 elem_size);

  /// Concurrent coupling: wait for producers covering `region`, then pull
  /// directly from them.
  GetResult get_cont(const std::string& var, i32 version, const Box& region,
                     std::span<std::byte> out, u64 elem_size);

  /// Communication-schedule cache management (ablation hook).
  void set_schedule_cache_enabled(bool enabled) { cache_enabled_ = enabled; }
  void clear_schedule_cache() { cache_.clear(); }
  size_t schedule_cache_size() const { return cache_.size(); }

 private:
  struct ScheduleEntry {
    Endpoint source;
    Box source_box;  ///< box the source window is laid out over
    Box overlap;     ///< region cells served by this source
  };
  struct Schedule {
    std::vector<ScheduleEntry> entries;
  };
  /// Schedule-cache fast path shared by get_seq and get_cont: pulls through
  /// the schedule cached under `key` when every window it names exists for
  /// `version`; drops a stale entry. Returns nullopt on a miss.
  std::optional<GetResult> pull_cached(const std::string& key,
                                       const std::string& var, i32 version,
                                       const Box& region,
                                       std::span<std::byte> out,
                                       u64 elem_size);
  GetResult pull_schedule(const Schedule& schedule, const std::string& var,
                          i32 version, const Box& region,
                          std::span<std::byte> out, u64 elem_size);
  std::string cache_key(const std::string& var, const Box& region,
                        u64 elem_size) const;

  CodsSpace* space_;
  Endpoint self_;
  i32 app_id_;
  bool cache_enabled_ = true;
  std::map<std::string, Schedule> cache_;
};

}  // namespace cods
