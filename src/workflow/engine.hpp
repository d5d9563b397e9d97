// The workflow management server and task-execution engine (paper §III-A,
// Fig. 4): registers applications ("statically compiled and linked MPI
// subroutines"), parses/validates the DAG, maps every scheduling wave's
// tasks onto processor cores with the selected strategy, then runs the
// wave: execution clients are colored by application id, split into
// per-application communicators and dispatched into the registered
// subroutine (§IV-C).
#pragma once

#include "core/cods.hpp"
#include "health/monitor.hpp"
#include "runtime/runtime.hpp"
#include "trace/trace.hpp"
#include "workflow/mapping.hpp"

namespace cods {

/// Context handed to an application subroutine, one per computation task.
struct AppCtx {
  const AppSpec* spec = nullptr;
  TaskId task;              ///< app id + rank within the app
  Comm comm;                ///< per-application communicator
  CodsClient* cods = nullptr;
  const Cluster* cluster = nullptr;

  /// The task's owned region(s) of the coupled domain.
  std::vector<Box> my_boxes() const {
    return spec->dec.owned_boxes(task.rank);
  }
};

using AppFn = std::function<void(AppCtx&)>;

struct WorkflowOptions {
  MappingStrategy strategy = MappingStrategy::kDataCentric;
  u64 seed = 1;
  /// Optional fault injector (docs/FAULT_MODEL.md). When set, transfers
  /// and sends consult it, waves are checkpointed for recovery, and node
  /// deaths trigger failover + re-execution per `retry`.
  FaultInjector* fault = nullptr;
  RetryPolicy retry;
  /// Optional structured-event tracing (docs/TRACING.md). When set, the
  /// engine opens one span per wave and per task and every instrumented
  /// layer (dart, runtime, cods client, lock service, redistribution)
  /// records into the recorder. Near-zero cost when null.
  TraceRecorder* trace = nullptr;
  /// Optional per-transfer journal covering the whole run, attached to
  /// the run's transport for its duration: dart pulls and point-to-point
  /// sends both cross HybridDart::record, so they land in one
  /// reconcilable log.
  TransferLog* transfer_log = nullptr;
  /// Rank dispatch for every wave (docs/PERF.md "Enactment scaling").
  /// kPooled runs ranks on a bounded work-stealing pool; kSimulate enacts
  /// ranks as discrete events on one thread (docs/SIMULATION.md). All
  /// observable outputs (traces, ledgers, failure handling) are
  /// identical — the cross-mode equivalence suites pin this. Applies to
  /// every enactment the engine runs, including one-rank speculative
  /// straggler copies.
  ExecMode exec_mode = ExecMode::kPooled;
  /// Worker cap for kPooled; <= 0 selects the hardware-concurrency
  /// default. Also sizes the mapping-stage DHT lookup parallel-for.
  i32 exec_pool_size = 0;
  /// Health subsystem (docs/FAULT_MODEL.md "Failure detection"): when
  /// `fault` is set the engine learns of node deaths exclusively through
  /// a heartbeat-driven phi-accrual detector configured here — it never
  /// reads the injector's crash schedule. Also carries the straggler
  /// deadline multiplier, the speculation opt-in and the CodsSpace byte
  /// watermarks.
  HealthConfig health;
};

/// Record of how one scheduling wave was executed.
struct WaveReport {
  std::vector<i32> apps;
  MappingStrategy strategy = MappingStrategy::kRoundRobin;
  bool used_server_mapping = false;
  bool used_client_mapping = false;
  i64 comm_graph_cut_bytes = -1;
  // --- failure recovery (only non-default when fault injection is on) ---
  i32 attempts = 1;                ///< execution attempts (1 = no failure)
  std::vector<i32> failed_nodes;   ///< nodes declared dead during this wave
  i32 failed_tasks = 0;            ///< task executions that raised an error
  i32 reexecuted_tasks = 0;        ///< tasks re-run after failover
  u64 recovered_bytes = 0;         ///< checkpoint bytes restored to survivors
  // --- health subsystem (docs/FAULT_MODEL.md "Failure detection") ---
  i32 detection_rounds = 0;        ///< heartbeat rounds swept this wave
  double detection_latency = 0.0;  ///< worst first-miss -> declared-dead gap
  i32 straggler_tasks = 0;         ///< tasks over the wave deadline
  i32 speculated_tasks = 0;        ///< stragglers speculatively re-executed
  i32 speculation_wins = 0;  ///< speculative copies beating the original
};

class WorkflowServer {
 public:
  WorkflowServer(const Cluster& cluster, Metrics& metrics, const Box& domain);

  /// Registers an application: its spec, the subroutine to run, and —
  /// for sequentially coupled consumers — the variable/version whose
  /// stored locations drive client-side data-centric mapping.
  void register_app(AppSpec spec, AppFn fn, std::string consumes_var = "",
                    i32 consumes_version = 0);

  /// Executes the whole workflow. Blocking; throws on the first task
  /// failure or an invalid DAG.
  void run(const DagSpec& dag, WorkflowOptions options = {});

  CodsSpace& space() { return space_; }
  const Cluster& cluster() const { return *cluster_; }

  /// Placement the engine chose for an app in its wave.
  const Placement& placement(i32 app_id) const;

  const std::vector<WaveReport>& wave_reports() const { return reports_; }

  /// Aggregate simulate-mode accounting for the most recent run():
  /// event counters (switches, notifies, timeouts, ...) sum across the
  /// waves the run enacted; high-water marks (peak_blocked, stacks,
  /// arena_bytes, peak_rss_bytes) take the per-wave max; the park-depth
  /// histograms merge. All zeros under ExecMode::kPooled.
  const SimStats& last_sim_stats() const { return sim_stats_; }

  /// Human-readable per-application traffic summary of the whole run
  /// (inter/intra bytes split by transport), from the metrics registry.
  std::string traffic_report() const;

 private:
  struct RegisteredApp {
    AppSpec spec;
    AppFn fn;
    std::string consumes_var;
    i32 consumes_version = 0;
  };

  struct TaskFailure {
    TaskId task;
    std::exception_ptr error;
  };

  const RegisteredApp& app(i32 app_id) const;
  Placement map_wave(const std::vector<std::vector<i32>>& wave,
                     const WorkflowOptions& options, WaveReport& report,
                     const std::vector<i32>& allowed_nodes);
  std::vector<NodeBytes> dht_node_bytes(const RegisteredApp& consumer,
                                        const WorkflowOptions& options);
  /// Trace placement of one scheduling wave's enactment.
  struct WaveTrack {
    i32 index = 0;
    i32 attempt = 0;
    u64 span_id = 0;
    double start = 0.0;
  };
  /// One enactment, shared by scheduling waves and speculative copies:
  /// global rank r runs tasks[r] on cores[r] inside its app's split
  /// communicator with its own CodsClient. `wave` (null for a speculative
  /// copy) gives every rank its own trace track and pins its communicator
  /// rank to its task rank. `task_times` receives each rank's modelled
  /// TaskClock total.
  std::vector<RankFailure> enact(const std::vector<TaskId>& tasks,
                                 const std::vector<CoreLoc>& cores,
                                 const WorkflowOptions& options,
                                 const WaveTrack* wave,
                                 std::vector<double>& task_times);
  std::vector<TaskFailure> execute_wave(
      const Placement& placement, const WorkflowOptions& options,
      const WaveTrack& wave,
      std::vector<std::pair<TaskId, double>>& task_times);
  void mitigate_stragglers(
      const std::vector<std::pair<TaskId, double>>& task_times,
      const Placement& placement, const WorkflowOptions& options,
      const std::vector<i32>& allowed, i32 wave_index, WaveReport& report);
  void record_placements(const std::vector<std::vector<i32>>& wave,
                         const Placement& placement);

  const Cluster* cluster_;
  Metrics* metrics_;
  CodsSpace space_;
  std::map<i32, RegisteredApp> apps_;
  void accumulate_sim_stats(const SimStats& wave);

  std::map<i32, Placement> placements_;
  std::vector<WaveReport> reports_;
  SimStats sim_stats_;
};

}  // namespace cods
