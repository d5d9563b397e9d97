// HybridDART (paper §III-A, §IV-A): the asynchronous data-transport layer
// between execution clients, and the one transport every payload crosses:
// receiver-driven pulls from RDMA-style one-sided windows (registered
// memory regions), control RPCs, and the vmpi runtime's point-to-point
// sends. It automatically selects the transport for each transfer:
// intra-node shared memory when both endpoints live on the same compute
// node, network (RDMA-modelled) otherwise.
//
// Data movement is real (bytes are copied between buffers so end-to-end
// content can be verified); transfer *times* come from the platform cost
// model, and every byte is accounted in the Metrics registry. This is the
// substitution for Cray Portals documented in DESIGN.md §1.
#pragma once

#include <atomic>
#include <functional>
#include <optional>
#include <span>

#include "common/flat_table.hpp"
#include "common/sync.hpp"
#include "fault/fault.hpp"
#include "platform/cost_model.hpp"
#include "platform/metrics.hpp"
#include "platform/transfer_log.hpp"

namespace cods {

/// Identity of an execution client: a stable id plus its core location.
struct Endpoint {
  i32 client_id = -1;
  CoreLoc loc;
};

enum class TransportKind { kSharedMemory, kRdma };

/// One receiver-driven pull operation (paper §IV-A: consumers issue data
/// requests to the cores where data lives). `copy` receives the remote
/// window and performs the (possibly strided) gather into local memory.
struct PullOp {
  Endpoint local;             ///< the requesting (receiving) client
  Endpoint remote;            ///< where the exposed window lives
  u64 key = 0;                ///< remote window key
  u64 bytes = 0;              ///< payload size accounted and timed
  i32 app_id = 0;             ///< receiving application (metrics owner)
  TrafficClass cls = TrafficClass::kInterApp;
  std::function<void(std::span<const std::byte>)> copy;
};

/// The hybrid transport. Thread-safe; one instance is shared by all
/// execution clients of a workflow run.
class HybridDart {
 public:
  HybridDart(const Cluster& cluster, Metrics& metrics, CostParams params = {})
      : cluster_(&cluster),
        metrics_(&metrics),
        model_(cluster, params),
        fault_retries_id_(metrics.intern("fault.retries")),
        fault_exhausted_id_(metrics.intern("fault.exhausted")),
        fault_backoff_id_(metrics.intern("fault.backoff")) {}

  const Cluster& cluster() const { return *cluster_; }
  const CostModel& cost_model() const { return model_; }
  Metrics& metrics() { return *metrics_; }

  /// Optional per-transfer journal (nullptr disables detailed logging).
  /// The pointer is atomic, so attaching/detaching races benignly with
  /// in-flight transfers; the journal itself is thread-safe.
  void set_transfer_log(TransferLog* log) {
    transfer_log_.store(log, std::memory_order_release);
  }
  TransferLog* transfer_log() const {
    return transfer_log_.load(std::memory_order_acquire);
  }

  /// Attaches a fault injector (nullptr = fault-free, zero overhead).
  /// Injected transient failures are retried per `retry`; each failed
  /// attempt's bytes and backoff delay are accounted like regular traffic.
  /// Operations touching a dead node throw NodeDownError unretried.
  /// The injector pointer is atomic; `retry` must be configured before
  /// concurrent operations start (it is read without synchronization).
  void set_fault(FaultInjector* injector, RetryPolicy retry = {}) {
    retry_ = retry;
    fault_.store(injector, std::memory_order_release);
  }
  FaultInjector* fault_injector() const {
    return fault_.load(std::memory_order_acquire);
  }

  /// Transport used between two cores: shared memory iff same node.
  TransportKind select_transport(const CoreLoc& a, const CoreLoc& b) const {
    return a.node == b.node ? TransportKind::kSharedMemory
                            : TransportKind::kRdma;
  }

  /// Registers a remotely accessible window. The caller keeps ownership of
  /// the memory and must keep it alive until withdraw().
  void expose(i32 client_id, u64 key, std::span<std::byte> window);

  /// Removes a window. Idempotent.
  void withdraw(i32 client_id, u64 key);

  /// Looks up a window; throws if not exposed.
  std::span<std::byte> window(i32 client_id, u64 key) const;

  bool has_window(i32 client_id, u64 key) const;

  /// Executes a batch of concurrent pulls (all requests issued together)
  /// and returns the modelled completion time of the batch.
  double pull(std::span<PullOp> ops);

  /// Accounts `count` small control round-trips (e.g. DHT queries) and
  /// returns their modelled time.
  double rpc(const Endpoint& from, const Endpoint& to, u64 count = 1);

  /// Carries one point-to-point vmpi payload of `bytes` from `src` to
  /// `dst` (client ids are global ranks): fault admission at
  /// FaultSite::kSend, then intra-app accounting through record(). A
  /// self-send or an empty payload is admitted but moves nothing, so it
  /// is not accounted. Sends are buffered: dropped attempts are
  /// accounted but add no modelled time to the sender's TaskClock.
  void send(const Endpoint& src, const Endpoint& dst, i32 app_id, u64 bytes);

  /// Byte-accounting funnel: metrics, the optional TransferLog journal
  /// and (when a TraceContext is installed) a ledger trace leaf. Every
  /// payload movement must pass through here so the three accountings
  /// can never drift apart. `model_time` is read only by the journal and
  /// the trace leaf. `overlay` marks per-op members of a concurrent
  /// batch: their leaves share the batch interval instead of advancing
  /// the virtual clock.
  void record(i32 app_id, TrafficClass cls, const CoreLoc& src,
              const CoreLoc& dst, u64 bytes, double model_time,
              bool overlay = false);

 private:
  struct Key {
    i32 client;
    u64 key;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    u64 operator()(const Key& k) const {
      return mix64(static_cast<u64>(static_cast<u32>(k.client)) *
                       0x9e3779b97f4a7c15ULL ^
                   k.key);
    }
  };

  std::span<std::byte> window_locked(i32 client_id, u64 key) const
      CODS_REQUIRES_SHARED(mutex_);

  /// Straggler injection (docs/FAULT_MODEL.md): modelled-time multiplier
  /// for ops issued from `node`. 1.0 unless the attached injector
  /// schedules a Slowdown for the current wave.
  double slowdown_factor(i32 node) const;

  /// Consults the injector on behalf of `actor` until one attempt is
  /// admitted; accounts every failed attempt (the `failed` flow, when
  /// given, and the backoff delay, jittered by seed ^ `jitter_key`) and
  /// returns the accumulated modelled penalty. Throws when retries are
  /// exhausted or a node involved is dead. No-op (0.0) when no injector
  /// is attached.
  double admit_op(FaultSite site, i32 actor, i32 local_node, i32 remote_node,
                  i32 app_id, TrafficClass cls,
                  const std::optional<Flow>& failed, u64 jitter_key);

  const Cluster* cluster_;
  Metrics* metrics_;
  CostModel model_;
  std::atomic<FaultInjector*> fault_{nullptr};
  RetryPolicy retry_;  ///< set before concurrent use (see set_fault)
  std::atomic<TransferLog*> transfer_log_{nullptr};
  Metrics::CounterId fault_retries_id_;
  Metrics::CounterId fault_exhausted_id_;
  Metrics::CounterId fault_backoff_id_;
  mutable SharedMutex mutex_{"dart.windows"};
  FlatTable<Key, std::span<std::byte>, KeyHash> windows_
      CODS_GUARDED_BY(mutex_);
};

}  // namespace cods
