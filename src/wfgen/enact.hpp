// Enacts a generated ScenarioSpec (wfgen/wfgen.hpp) through the real
// workflow engine and captures everything observable about the run —
// reports, trace, ledger, journal, outputs — in one comparable value.
// `diff_runs` is the differential-fuzzing comparator: two runs of the
// same scenario under different exec modes must diff to "".
#pragma once

#include <map>
#include <string>
#include <vector>

#include "apps/synthetic.hpp"
#include "platform/metrics.hpp"
#include "platform/transfer_log.hpp"
#include "trace/critical_path.hpp"
#include "wfgen/wfgen.hpp"
#include "workflow/engine.hpp"

namespace cods {
namespace wfgen {

struct EnactOptions {
  ExecMode mode = ExecMode::kSimulate;
  i32 exec_pool_size = 4;
};

/// Everything observable about one enactment. Byte counters and outputs
/// are keyed by app id in ordered maps so two results compare cleanly.
struct EnactResult {
  std::vector<TraceSpan> spans;
  std::string chrome_json;
  TraceAnalysis analysis;
  std::vector<WaveReport> reports;
  std::map<i32, ByteCounters> inter;
  std::map<i32, ByteCounters> intra;
  std::map<i32, ByteCounters> control;
  /// All-app registry totals per class (catches traffic recorded under
  /// app ids outside the spec, e.g. runtime-internal app 0 exchanges).
  ByteCounters total_inter;
  ByteCounters total_intra;
  ByteCounters total_control;
  u64 stored_bytes = 0;
  u64 mismatches = 0;
  std::map<i32, std::vector<Moments>> moments;
  std::map<i32, std::vector<std::vector<i64>>> histograms;
  std::vector<TransferRecord> journal;
  u64 journal_dropped = 0;
  std::map<i32, Placement> placements;  ///< final engine placements
  std::vector<i32> dead_nodes;          ///< injector deaths, ascending
  u64 heartbeats = 0;
  u64 heartbeats_dropped = 0;
};

/// Runs the scenario start to finish. Throws only on engine-level
/// failure (e.g. retries exhausted); verification results are captured,
/// not asserted — the oracles (wfgen/oracle.hpp) judge them.
EnactResult enact(const ScenarioSpec& spec, const EnactOptions& options = {});

/// Exact cross-mode comparison: "" when the two runs are observably
/// identical, else a description of the first divergence (journals are
/// compared as multisets — record *order* is scheduling-dependent).
std::string diff_runs(const EnactResult& a, const EnactResult& b);

}  // namespace wfgen
}  // namespace cods
