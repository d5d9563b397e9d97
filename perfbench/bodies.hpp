// The benchmark's own rank bodies. Each does what the matching factory in
// src/apps/synthetic.hpp does, but calls every layer entry point through a
// wrapper that records a span (when a traced phase is open) and the
// counters the call returns, so a traced run can split host time by layer.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "apps/synthetic.hpp"
#include "spans.hpp"

namespace perfbench {

/// Counters read from PutResult/GetResult during a traced phase.
struct CallCounters {
  std::atomic<std::uint64_t> puts{0};
  std::atomic<std::uint64_t> put_dht_cores{0};
  std::atomic<std::uint64_t> gets{0};
  std::atomic<std::uint64_t> get_bytes{0};
  std::atomic<std::uint64_t> get_sources{0};
  std::atomic<std::uint64_t> get_dht_cores{0};
  std::atomic<std::uint64_t> seq_gets{0};  ///< gets that may query the DHT
  std::atomic<std::uint64_t> schedule_hits{0};
  std::atomic<std::uint64_t> lookup_hits{0};
  std::atomic<std::uint64_t> tasks{0};

  void reset();
};

CallCounters& call_counters();

struct PatternCfg {
  std::vector<std::string> vars = {"field"};
  cods::i32 nversions = 1;
  bool sequential = true;
  cods::u64 seed = 1;
  std::shared_ptr<std::atomic<cods::u64>> mismatches;
  /// When set, every rank body appends its completion time (one OS
  /// thread: kSimulate only).
  std::vector<Mark>* completions = nullptr;
};

cods::AppFn pattern_producer(PatternCfg cfg);
cods::AppFn pattern_consumer(PatternCfg cfg);
/// Consume-then-produce in one body (the generator's relay role).
cods::AppFn pattern_relay(PatternCfg consume, PatternCfg produce);

/// Heat-diffusion stencil publishing with put_cont every iteration. With
/// `throttle` set, iteration i first waits until the analysis has
/// acknowledged iteration i - kAckLag on `throttle` (see moments()).
struct StencilCfg {
  std::string var = "temperature";
  cods::i32 iterations = 4;
  double alpha = 0.1;
  cods::CodsSpace* throttle = nullptr;
};
cods::AppFn stencil(StencilCfg cfg);

/// Moments analysis. With `retire_in` set, rank 0 retires all but the two
/// newest versions of the field after each iteration's reductions and then
/// acknowledges the iteration, which bounds how far the stencil runs ahead
/// so retiring never drops a version the analysis has yet to read. With
/// `iteration_ends` set, rank 0 appends the time each iteration finished.
struct MomentsCfg {
  std::string var = "temperature";
  cods::i32 iterations = 4;
  std::shared_ptr<std::vector<cods::Moments>> out;
  cods::CodsSpace* retire_in = nullptr;
  std::vector<Mark>* iteration_ends = nullptr;
};
cods::AppFn moments(MomentsCfg cfg);

inline constexpr cods::i32 kAckLag = 2;

cods::AppFn histogram(cods::HistogramConfig cfg);
cods::AppFn downsampler(cods::DownsampleConfig cfg);

/// WorkflowServer::run under a workflow.run span on the main rank.
void run_workflow(cods::WorkflowServer& server, const cods::DagSpec& dag,
                  const cods::WorkflowOptions& options);

}  // namespace perfbench
