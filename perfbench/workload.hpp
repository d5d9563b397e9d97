// The benchmark's workload interface. A run repeats batches until its time
// is spent; each batch builds the workload (set-up), runs its work list
// (the timed phase) and collects outputs and counters.
#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "pins.hpp"
#include "platform/metrics.hpp"
#include "runtime/sim.hpp"
#include "spans.hpp"

namespace perfbench {

struct Config {
  bool smoke = false;
  std::uint64_t pattern_seed = 1;  ///< fill/verify pattern of sim_weak
  std::uint64_t wfgen_base = 1;    ///< first generated scenario seed
  /// Also enact every generated scenario with wfgen::enact and require
  /// the benchmark's own enactment to match it exactly.
  bool crosscheck = false;
};

/// Scenarios per wfgen_faults batch; every batch of a run enacts the same
/// window [wfgen_base, wfgen_base + window).
inline std::uint64_t wfgen_window(bool smoke) { return smoke ? 12 : 300; }
/// Generated scenario seeds with pinned digests: [1, kWfgenPinned], four
/// full windows.
inline constexpr std::uint64_t kWfgenPinned = 4 * 300;

/// What one batch produced.
struct Batch {
  bool traced = false;  ///< the timed phase recorded spans
  /// Step boundaries inside the timed phase, the same number in every
  /// batch: step i runs from marks[i] to marks[i + 1].
  std::vector<Mark> marks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;
  /// Every pinned output of the batch; equal across batches and between
  /// the traced and untraced runs.
  Outputs outputs;
  /// Per-layer values the workload reads from the layers' own counters.
  std::map<std::string, double> layer;

  /// Counts `units` failed units with a reason (the first one is kept).
  void fail(std::uint64_t units, const std::string& why);
  /// Checks `unit`, whose keys all start with `prefix`, against the pins,
  /// adds it to `outputs`, and counts `units` failed units when any value
  /// differs from its pin or a pin under `prefix` has no value.
  void check(const Pins& pins, const std::string& prefix, const Outputs& unit,
             std::uint64_t units);
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Clock the traced run splits spans with.
  virtual Recorder::Clock clock() const = 0;
  /// True when each step is a unit of work of its own (a scenario), so its
  /// fastest time over the batches is its cost. Otherwise the run reports
  /// medians over whole batches and percentiles over all their steps.
  virtual bool steps_are_units() const { return true; }
  /// Builds everything the timed phase needs.
  virtual void setup() = 0;
  /// The timed phase.
  virtual void run() = 0;
  /// Reads outputs and counters after the timed phase.
  virtual void collect(const Pins& pins, Batch& batch) = 0;
};

std::unique_ptr<Workload> make_sim_weak(const Config& config);
std::unique_ptr<Workload> make_pooled_insitu(const Config& config);
std::unique_ptr<Workload> make_modeled_paper(const Config& config);
std::unique_ptr<Workload> make_wfgen_faults(const Config& config);

inline void Batch::fail(std::uint64_t units, const std::string& why) {
  failed += units;
  if (first_failure.empty()) first_failure = why;
}

inline void Batch::check(const Pins& pins, const std::string& prefix,
                         const Outputs& unit, std::uint64_t units) {
  std::string first;
  if (pins.mismatches(unit, prefix, &first) != 0) {
    fail(units, "output differs from its pin: " + first);
  }
  for (const auto& [key, value] : unit.items()) outputs.add_text(key, value);
}

/// Adds one run's transport byte counters (dart.*) to `layer`.
inline void add_dart_counters(const cods::Metrics& metrics,
                              std::map<std::string, double>& layer) {
  using cods::TrafficClass;
  const cods::ByteCounters inter = metrics.total(TrafficClass::kInterApp);
  const cods::ByteCounters intra = metrics.total(TrafficClass::kIntraApp);
  const cods::ByteCounters control = metrics.total(TrafficClass::kControl);
  layer["dart.inter_shm_bytes"] += static_cast<double>(inter.shm_bytes);
  layer["dart.inter_net_bytes"] += static_cast<double>(inter.net_bytes);
  layer["dart.intra_shm_bytes"] += static_cast<double>(intra.shm_bytes);
  layer["dart.intra_net_bytes"] += static_cast<double>(intra.net_bytes);
  layer["dart.control_bytes"] += static_cast<double>(control.total());
  layer["dart.transfers"] += static_cast<double>(
      inter.transfers + intra.transfers + control.transfers);
  layer["dart.coalesced_ops"] +=
      static_cast<double>(metrics.total_count("dart.coalesced_ops"));
}

/// Adds one run's discrete-event accounting (runtime.sim.*) to `layer`:
/// event counts sum, high-water marks take the maximum.
inline void add_sim_stats(const cods::SimStats& sim,
                          std::map<std::string, double>& layer) {
  const auto peak = [&layer](const char* key, double value) {
    layer[key] = std::max(layer[key], value);
  };
  layer["runtime.sim.switches"] += static_cast<double>(sim.switches);
  layer["runtime.sim.notifies"] += static_cast<double>(sim.notifies);
  layer["runtime.sim.mutex_waits"] += static_cast<double>(sim.mutex_waits);
  layer["runtime.sim.timeouts"] += static_cast<double>(sim.timeouts);
  layer["runtime.sim.ready_rebuilds"] +=
      static_cast<double>(sim.ready_rebuilds);
  peak("runtime.sim.peak_blocked", sim.peak_blocked);
  peak("runtime.sim.stacks", sim.stacks);
  peak("runtime.sim.arena_mb",
       static_cast<double>(sim.arena_bytes) / (1024.0 * 1024.0));
}

}  // namespace perfbench
