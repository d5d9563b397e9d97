// Byte-exact accounting of every data movement in the framework, split by
// transport (shared memory vs network) and by class (inter-application
// coupling vs intra-application exchange). These counters are the ground
// truth behind the reproduction of the paper's Figures 8, 9 and 12-15.
//
// Hot-path design (docs/PERF.md): the registry is sharded. Each writer
// thread is assigned one of kShards shards (round-robin at first use), so
// concurrent ranks record transfers without contending on a global mutex.
// Named counters are interned to integer ids through a rarely-written
// table behind a shared_mutex; hot callers pre-intern once and pass ids.
// Readers aggregate across all shards, so every query and report() sees
// exactly the bytes that were recorded — the ledger stays byte-exact.
#pragma once

#include <array>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/sync.hpp"
#include "platform/cluster.hpp"

namespace cods {

/// Which kind of traffic a transfer belongs to.
enum class TrafficClass { kInterApp, kIntraApp, kControl };

/// Aggregated byte counters for one (app, class) key.
struct ByteCounters {
  u64 shm_bytes = 0;
  u64 net_bytes = 0;
  u64 transfers = 0;

  u64 total() const { return shm_bytes + net_bytes; }

  friend bool operator==(const ByteCounters&, const ByteCounters&) = default;
};

/// Thread-safe metrics registry. One instance is shared by the transport
/// layer, the CoDS clients and the benchmarks of a given experiment run.
class Metrics {
 public:
  /// Interned id of a named time/event counter. Ids are stable for the
  /// lifetime of the registry (reset() clears values, not the table).
  using CounterId = u32;

  /// Returns the id of `name`, interning it on first use. Lookup takes a
  /// shared lock; only the first interning of a name takes the exclusive
  /// lock, so steady-state callers never serialize here.
  CounterId intern(std::string_view name);

  /// Records one transfer attributed to the *receiving* application
  /// (receiver-driven pull: the consumer pays for its data).
  void record(i32 app_id, TrafficClass cls, u64 bytes, bool via_network);

  /// Accumulates wall/model time for a named phase of an application.
  void add_time(i32 app_id, CounterId phase, double seconds);
  void add_time(i32 app_id, const std::string& phase, double seconds) {
    add_time(app_id, intern(phase), seconds);
  }

  /// Named event counters (e.g. "fault.retries", "health.stragglers"):
  /// free-form robustness/diagnostic accounting next to the byte ledger.
  void add_count(i32 app_id, CounterId name, u64 n = 1);
  void add_count(i32 app_id, const std::string& name, u64 n = 1) {
    add_count(app_id, intern(name), n);
  }
  u64 count(i32 app_id, const std::string& name) const;
  /// Sum of one named counter across all apps.
  u64 total_count(const std::string& name) const;

  ByteCounters counters(i32 app_id, TrafficClass cls) const;
  double time(i32 app_id, const std::string& phase) const;

  /// Sum across all apps for one traffic class.
  ByteCounters total(TrafficClass cls) const;

  /// Sum of network bytes across all apps and classes.
  u64 total_net_bytes() const;

  /// Clears all recorded values. The intern table survives, so ids held by
  /// long-lived components stay valid across runs. Not linearizable
  /// against concurrent writers; call between runs.
  void reset();

  /// Canonical text summary: counters sorted by (app, class), times and
  /// events sorted by (app, name) — independent of interning order, shard
  /// assignment and insertion interleaving, so equal ledgers render to
  /// equal strings.
  std::string report() const;

 private:
  // One shard per writer-thread slot, padded to its own cache line so
  // uncontended shard mutexes do not false-share.
  struct alignas(64) Shard {
    mutable Mutex mutex{"metrics.shard"};
    std::map<std::pair<i32, TrafficClass>, ByteCounters> counters
        CODS_GUARDED_BY(mutex);
    // slot(app, id) -> seconds / count
    std::unordered_map<u64, double> times CODS_GUARDED_BY(mutex);
    std::unordered_map<u64, u64> event_counts CODS_GUARDED_BY(mutex);
  };
  static constexpr size_t kShards = 16;

  static u64 slot(i32 app_id, CounterId id) {
    return (static_cast<u64>(static_cast<u32>(app_id)) << 32) | id;
  }
  Shard& my_shard();
  std::optional<CounterId> find_id(std::string_view name) const;

  mutable SharedMutex intern_mutex_{"metrics.intern"};
  std::map<std::string, CounterId, std::less<>> intern_index_
      CODS_GUARDED_BY(intern_mutex_);
  std::vector<std::string> intern_names_
      CODS_GUARDED_BY(intern_mutex_);  // id -> name

  std::array<Shard, kShards> shards_;
};

}  // namespace cods
