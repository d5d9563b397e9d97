// Heartbeat-driven health monitoring on the deterministic virtual clock
// (docs/FAULT_MODEL.md "Failure detection"). Every node emits one
// heartbeat to the workflow server per detection round; the monitor asks
// the fault injector for each heartbeat's fate (delivered / delayed /
// dropped / source crashed), accounts delivered traffic through the
// HybridDart record() funnel, feeds a phi-accrual FailureDetector, and
// hands the engine *verdicts* — the engine never reads the injector's
// crash schedule.
//
// Sweeps are lazy: detection rounds run only when the engine observed
// task failures (or when earlier suspicion is still unsettled at a wave
// boundary). A clean run performs zero sweeps and emits zero heartbeat
// bytes, which keeps the golden-ledger/trace invariants bit-identical
// with the health layer attached.
#pragma once

#include "dart/dart.hpp"
#include "health/detector.hpp"

namespace cods {

/// Budget of heartbeat rounds one detection pass may sweep before giving
/// up (bounds the modelled detection time).
inline constexpr i32 kMaxDetectionRounds = 64;

/// Straggler mitigation: a task is a straggler when its modelled time
/// exceeds kStragglerMultiplier x the wave median.
inline constexpr double kStragglerMultiplier = 3.0;

struct HealthConfig {
  DetectorConfig detector;
  /// Speculative re-execution of stragglers is opt-in — it requires
  /// subroutines that derive their work purely from ctx.task (no
  /// intra-app collectives).
  bool speculation = false;
  /// CodsSpace byte watermarks (0 = disabled): above `soft_watermark`
  /// every put pays a modelled backpressure delay; above `hard_watermark`
  /// puts are shed with a typed OverloadError.
  u64 soft_watermark = 0;
  u64 hard_watermark = 0;
};

class HealthMonitor {
 public:
  /// `dart` carries heartbeat accounting (its record() funnel) and the
  /// cost model used to time rounds; `num_nodes` fixes the cohort.
  HealthMonitor(HealthConfig config, FaultInjector& injector,
                HybridDart& dart, i32 num_nodes);

  const HealthConfig& config() const { return config_; }
  const FailureDetector& detector() const { return detector_; }

  /// Runs detection rounds until suspicion resolves (every node is either
  /// settled-alive or declared dead) or the round budget runs out.
  /// Returns the nodes newly declared dead, ascending. Idempotent for
  /// already-confirmed deaths.
  std::vector<i32> run_detection();

  /// Wave-boundary settling: sweeps only while earlier suspicion is still
  /// unsettled (quarantine/probation), letting recovered nodes earn
  /// readmission. No-op — zero heartbeat traffic — on clean runs.
  void settle();

  /// Nodes confirmed dead by detection so far, ascending.
  std::vector<i32> confirmed_dead() const;

  /// Nodes currently too suspicious to map tasks onto (quarantined or
  /// still serving probation), ascending.
  std::vector<i32> untrusted() const;

  /// Rounds swept by the most recent run_detection().
  i32 last_detection_rounds() const { return last_rounds_; }

  /// Worst observed detection latency of the most recent run_detection():
  /// virtual seconds between a declared-dead node's first missed
  /// heartbeat and its declaration. 0 when nothing was declared.
  double last_detection_latency() const { return last_latency_; }

  /// The monitor's virtual clock (advances one heartbeat period per
  /// swept round).
  double now() const { return now_; }

 private:
  void sweep_round();

  HealthConfig config_;
  FaultInjector* injector_;
  HybridDart* dart_;
  FailureDetector detector_;
  double now_ = 0.0;
  i64 round_ = 0;
  std::vector<bool> confirmed_;
  i32 last_rounds_ = 0;
  double last_latency_ = 0.0;
  Metrics::CounterId heartbeats_id_;
  Metrics::CounterId dropped_id_;
  Metrics::CounterId rounds_id_;
  Metrics::CounterId latency_id_;
};

}  // namespace cods
