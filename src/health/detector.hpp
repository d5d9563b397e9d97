// Phi-accrual failure detection (Hayashibara et al.) on the deterministic
// virtual clock. Each monitored node feeds a sliding window of heartbeat
// inter-arrival times; the detector turns the time since the last arrival
// into a suspicion level phi = -log10(P(heartbeat still in flight)) and
// walks a per-node state machine:
//
//   kAlive -> kSuspect -> kQuarantined -> kDead        (suspicion grows)
//                  \          |
//                   \         v  (a heartbeat arrives)
//                    +--> kProbation --> kAlive        (probation served)
//
// kDead is terminal and additionally gated on a run of consecutively
// missed heartbeats, so a burst of fabric drops cannot kill a live node.
// Single-threaded by design: one HealthMonitor owns one detector and
// drives it from the engine thread (docs/FAULT_MODEL.md).
#pragma once

#include <vector>

#include "common/types.hpp"

namespace cods {

/// Inter-arrival samples kept per node.
inline constexpr i32 kDetectorWindow = 16;
static_assert(kDetectorWindow >= 2, "detector window must hold >= 2 samples");

/// Floor on the inter-arrival stddev, as a fraction of the mean: keeps phi
/// finite when arrivals are perfectly regular (they are, on the virtual
/// clock, until drops perturb them).
inline constexpr double kMinStddevFrac = 0.25;

struct DetectorConfig {
  double heartbeat_period = 1e-3;  ///< modelled seconds between heartbeats
  double phi_suspect = 1.0;     ///< kAlive -> kSuspect
  double phi_quarantine = 3.0;  ///< kSuspect -> kQuarantined
  double phi_dead = 8.0;        ///< quarantined -> kDead (with the gate below)
  /// Consecutive missed heartbeats additionally required to declare death;
  /// at p(loss) = 0.05 the default makes a false declaration a ~3e-7 event
  /// per window (docs/FAULT_MODEL.md "Tuning phi").
  i32 min_missed_dead = 5;
  /// On-time heartbeats a readmitted node must deliver before it leaves
  /// probation and becomes mappable again.
  i32 probation_rounds = 3;
};

enum class NodeHealth : i32 {
  kAlive = 0,
  kSuspect = 1,
  kQuarantined = 2,
  kProbation = 3,
  kDead = 4,
};

const char* to_string(NodeHealth state);

class FailureDetector {
 public:
  FailureDetector(DetectorConfig config, i32 num_nodes);

  i32 num_nodes() const { return static_cast<i32>(nodes_.size()); }
  const DetectorConfig& config() const { return config_; }

  /// Records a heartbeat from `node` arriving at virtual time `now`.
  /// Arrivals must be monotone per node.
  void heartbeat(i32 node, double now);

  /// Re-evaluates `node`'s suspicion at virtual time `now`, advancing its
  /// state machine. A missed round must be signalled with `missed` so the
  /// consecutive-miss death gate counts real silence, not just phi.
  void evaluate(i32 node, double now, bool missed);

  /// Suspicion level at `now`: 0 when the node just heartbeat, growing
  /// without bound while it stays silent. Clamped to 40.
  double phi(i32 node, double now) const;

  NodeHealth state(i32 node) const;
  i32 consecutive_missed(i32 node) const;

  /// Virtual time of the first heartbeat round the node went silent for
  /// (the detection-latency anchor); < 0 while the node is delivering.
  double first_missing_time(i32 node) const;

  /// Virtual time the node was declared dead; < 0 unless state is kDead.
  double declared_dead_time(i32 node) const;

  std::vector<i32> nodes_in(NodeHealth state) const;

  /// True when any node sits between kAlive and kDead (suspicion not yet
  /// resolved either way) — the monitor keeps sweeping while this holds.
  bool unsettled() const;

 private:
  struct Node {
    NodeHealth state = NodeHealth::kAlive;
    double last_arrival = -1.0;  ///< < 0 until the first heartbeat
    std::vector<double> intervals;  ///< ring of inter-arrival samples
    size_t next_slot = 0;
    i32 missed = 0;
    i32 probation_left = 0;
    double first_missing = -1.0;
    double declared_dead = -1.0;
  };

  double phi_of(const Node& n, double now) const;

  DetectorConfig config_;
  std::vector<Node> nodes_;
};

}  // namespace cods
