// Deterministic fault injection and retry/recovery policy (robustness
// layer). Long-running coupled workflows on leadership-class machines see
// transient fabric errors and node failures as a matter of course; this
// module gives the reproduction a *controllable, replayable* failure story:
//
//   FaultSpec     — declarative schedule: per-site transient-failure
//                   probabilities plus node-crash events. Every decision is
//                   a pure function of {seed, wave, site, actor, op-count},
//                   so an identical spec always yields an identical failure
//                   trace regardless of thread interleaving.
//   FaultInjector — the runtime oracle HybridDART consults before every
//                   pull/RPC/vmpi send, and vmpi receives consult for dead
//                   peers. Records a deterministic trace for replay testing.
//   RetryPolicy   — bounded retries with exponential backoff and
//                   deterministic jitter; backoff delays are modelled time,
//                   accounted in Metrics like any other cost.
//
// When no injector is attached (the default), every hook is a single null
// pointer test: the fault-free paths are byte-identical to a build without
// this subsystem.
#pragma once

#include <chrono>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/sync.hpp"
#include "common/types.hpp"

namespace cods {

/// Where in the stack an operation is intercepted.
enum class FaultSite : i32 {
  // kGet/kPut name one-sided single reads/writes. No transport op issues
  // them (pull() is the one data-plane op); they keep the site values
  // and crash-event records (site kGet) of every trace stable.
  kGet = 0,
  kPut = 1,
  kPull = 2,       ///< one op of a HybridDart::pull batch
  kRpc = 3,        ///< control round-trip (DHT query/registration)
  kSend = 4,       ///< vmpi point-to-point send (HybridDart::send)
  kHeartbeat = 5,  ///< health-layer heartbeat delivery (src/health)
};

std::string to_string(FaultSite site);

enum class FaultKind : i32 {
  kTransient = 0,  ///< attempt fails, retryable
  kNodeCrash = 1,  ///< node declared dead (not retryable within the wave)
};

/// A scheduled node-crash event: during wave `wave`, once the injector has
/// seen `after_ops` operations (any site, any actor), `node` is declared
/// dead. `after_ops = 0` kills the node at the first operation of the wave.
struct NodeCrash {
  i32 wave = 0;
  i32 node = 0;
  u64 after_ops = 0;
};

/// A scheduled straggler: during wave `wave`, every transport operation
/// issued from `node` takes `factor` times its modelled time. Models a
/// slow-but-alive node (thermal throttling, a noisy neighbour) for the
/// health layer's straggler mitigation to catch.
struct Slowdown {
  i32 wave = 0;
  i32 node = 0;
  double factor = 1.0;
};

/// Declarative fault schedule. All probabilities are per-attempt.
struct FaultSpec {
  u64 seed = 1;
  double p_transfer = 0.0;  ///< pull transient failure probability
  double p_rpc = 0.0;       ///< control RPC transient failure probability
  double p_send = 0.0;      ///< vmpi send transient failure probability
  std::vector<NodeCrash> crashes;
  // --- health-layer injection (src/health, docs/FAULT_MODEL.md) ---
  double p_heartbeat = 0.0;        ///< heartbeat drop probability
  double p_heartbeat_delay = 0.0;  ///< heartbeat late-delivery probability
  /// A delayed heartbeat arrives this fraction of a period late.
  double heartbeat_delay_frac = 0.5;
  std::vector<Slowdown> slowdowns;
};

/// What happened to one node's heartbeat of one detection round.
struct HeartbeatFate {
  bool crashed = false;     ///< the node is dead; no heartbeat was sent
  bool dropped = false;     ///< sent but lost in the fabric
  double delay_frac = 0.0;  ///< fraction of a period the delivery is late
};

/// One entry of the failure trace.
struct FaultEvent {
  i32 wave = 0;
  FaultSite site = FaultSite::kGet;
  i32 actor = 0;     ///< client id / global rank that issued the op
  u64 op_index = 0;  ///< per-(wave, site, actor) operation number (1-based)
  FaultKind kind = FaultKind::kTransient;
  i32 node = -1;  ///< crashed node (kNodeCrash only)

  friend auto operator<=>(const FaultEvent&, const FaultEvent&) = default;
};

/// Thrown when an operation involves a node that has been declared dead.
/// Not retried at the transport level; the workflow engine catches the
/// resulting task failures and runs the recovery path.
class NodeDownError : public Error {
 public:
  NodeDownError(i32 node, const std::string& what)
      : Error(what), node_(node) {}
  i32 node() const { return node_; }

 private:
  i32 node_;
};

/// Thrown when a transient failure persisted through every allowed retry
/// of one operation. Carries the site and the retry budget so callers can
/// distinguish exhaustion from other task errors without string matching.
class RetriesExhaustedError : public Error {
 public:
  RetriesExhaustedError(FaultSite site, i32 retries)
      : Error("transient " + to_string(site) + " failure persisted after " +
              std::to_string(retries) + " retries"),
        site_(site),
        retries_(retries) {}
  FaultSite site() const { return site_; }
  i32 retries() const { return retries_; }

 private:
  FaultSite site_;
  i32 retries_;
};

/// Bounded-retry policy with exponential backoff and deterministic jitter.
/// Backoff delays are *modelled* seconds (they add to an operation's model
/// time and to the Metrics time ledger, not to wall-clock sleep).
struct RetryPolicy {
  i32 max_retries = 3;            ///< per-operation transient retries
  double backoff_base = 1e-4;     ///< modelled seconds before first retry
  double backoff_multiplier = 2.0;
  double jitter_frac = 0.25;      ///< +/- fraction of the nominal delay
  i32 max_wave_attempts = 3;      ///< engine-level wave (re-)executions
  /// Real-time bound on blocking waits (mailbox recv, version/coverage
  /// waits) so a dead peer surfaces as Error instead of a hang.
  std::chrono::seconds op_timeout{120};

  /// Delay before retry `attempt` (1-based). `key` seeds the deterministic
  /// jitter so identical runs produce identical modelled delays.
  double backoff(i32 attempt, u64 key) const;
};

/// The runtime fault oracle. Thread-safe; one instance per workflow run,
/// shared by the transport layer, the runtime and the engine.
class FaultInjector {
 public:
  explicit FaultInjector(FaultSpec spec) : spec_(std::move(spec)) {}

  const FaultSpec& spec() const { return spec_; }

  /// Starts a new scheduling wave: resets per-wave operation counters.
  /// Dead nodes and the trace persist across waves.
  void begin_wave(i32 wave);
  i32 wave() const;

  bool is_dead(i32 node) const;
  std::set<i32> dead_nodes() const;

  /// Declares a node dead outside the schedule (manual kill for tests).
  void declare_dead(i32 node);

  /// Consulted before one operation attempt. Throws NodeDownError when the
  /// originating node is dead, when a scheduled crash triggers on it, or —
  /// for data-plane sites (everything but kRpc) — when the remote node is
  /// dead. Returns true when the attempt must fail transiently.
  bool on_op(FaultSite site, i32 actor, i32 local_node, i32 remote_node);

  /// Fate of `node`'s heartbeat for detection round `round`. Pure function
  /// of {seed, wave, node, round} on its own hash stream: it never touches
  /// the crash-schedule op clock or the per-site op counts, so attaching a
  /// health monitor cannot shift where scheduled crashes trigger.
  HeartbeatFate heartbeat_fate(i32 node, i64 round) const;

  /// True when the spec schedules any straggler slowdowns (lock-free;
  /// lets the transport hot path skip the slowdown() lookup entirely).
  bool has_slowdowns() const { return !spec_.slowdowns.empty(); }

  /// Modelled-time multiplier for operations issued from `node` during the
  /// current wave (1.0 = full speed).
  double slowdown(i32 node) const;

  /// The failure trace so far, in deterministic order (sorted by wave,
  /// site, actor, op index) — the replay-comparison artifact.
  std::vector<FaultEvent> trace() const;

  /// One line per trace event; equal strings <=> equal traces.
  std::string trace_string() const;

 private:
  double probability(FaultSite site) const;
  void check_crashes_locked(i32 local_node) CODS_REQUIRES(mutex_);

  const FaultSpec spec_;  ///< immutable after construction; no guard needed
  mutable Mutex mutex_{"fault.injector"};
  i32 wave_ CODS_GUARDED_BY(mutex_) = -1;
  /// Crash-schedule clock (ops this wave, all actors).
  u64 wave_ops_ CODS_GUARDED_BY(mutex_) = 0;
  std::set<i32> dead_ CODS_GUARDED_BY(mutex_);
  // (site, actor) -> count
  std::map<std::pair<i32, i32>, u64> op_counts_ CODS_GUARDED_BY(mutex_);
  std::vector<FaultEvent> trace_ CODS_GUARDED_BY(mutex_);
};

}  // namespace cods
