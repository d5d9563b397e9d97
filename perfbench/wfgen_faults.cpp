// wfgen_faults: a window of wfgen::generate scenarios (about 35% faulty,
// some speculative), enacted under kSimulate with tracing and the journal
// on, as wfgen::enact does, then checked by check_oracles. It is the only
// workload that runs fault injection, heartbeat detection, checkpoint and
// restore, speculation, the trace recorder, the transfer journal and the
// critical-path analyzer, and its many small runs make per-run set-up
// heavy. A step is one scenario (enactment plus oracles).
//
// Every batch of a run enacts the same window of scenario seeds, starting
// at wfgen_base; every scenario's reports, counters, trace and journal are
// pinned as one digest.
#include <algorithm>
#include <tuple>

#include "bodies.hpp"
#include "trace/export.hpp"
#include "wfgen/enact.hpp"
#include "wfgen/oracle.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using namespace cods;

/// One generated scenario, built in set-up and enacted in the timed phase.
/// Mirrors wfgen::enact, with the benchmark's rank bodies.
struct Scenario {
  explicit Scenario(wfgen::ScenarioSpec generated)
      : spec(std::move(generated)),
        dag(spec.dag()),
        cluster(spec.cluster),
        server(cluster, metrics, spec.domain()),
        injector(spec.fault) {
    std::vector<i32> bundled;
    for (const auto& bundle : spec.bundles) {
      bundled.insert(bundled.end(), bundle.begin(), bundle.end());
    }
    for (const wfgen::GenApp& app : spec.apps) {
      AppSpec as;
      as.app_id = app.app_id;
      as.name = app.name;
      as.elem_size = spec.elem_size;
      as.dec = Decomposition(spec.extents, app.procs, app.dist, app.block);
      const bool in_bundle = std::find(bundled.begin(), bundled.end(),
                                       app.app_id) != bundled.end();
      const std::string consumes_var =
          (!app.consumes.empty() && !in_bundle) ? app.consumes[0] : "";
      server.register_app(std::move(as), role_body(app), consumes_var);
    }
    options.seed = spec.seed;
    options.trace = &trace;
    options.exec_mode = ExecMode::kSimulate;
    options.exec_pool_size = 4;
    options.transfer_log = &journal;
    if (spec.faulty) {
      options.fault = &injector;
      options.retry.max_retries = 50;
      options.retry.op_timeout = std::chrono::seconds(2);
    }
    options.health.speculation = spec.speculation;
  }

  AppFn role_body(const wfgen::GenApp& app) {
    using wfgen::AppRole;
    switch (app.role) {
      case AppRole::kPatternProducer:
        return pattern_producer(
            {app.produces, app.versions, true, app.pattern_seed, nullptr});
      case AppRole::kPatternConsumer:
        return pattern_consumer(
            {app.consumes, app.versions, true, app.consume_seed, mismatches});
      case AppRole::kPatternRelay:
        return pattern_relay(
            {app.consumes, app.versions, true, app.consume_seed, mismatches},
            {app.produces, app.versions, true, app.pattern_seed, nullptr});
      case AppRole::kStencil:
        return stencil({app.produces[0], app.versions, 0.1});
      case AppRole::kMoments: {
        auto rows = std::make_shared<std::vector<Moments>>(
            static_cast<size_t>(app.versions));
        moment_rows[app.app_id] = rows;
        return moments({app.consumes[0], app.versions, rows});
      }
      case AppRole::kHistogram: {
        auto rows = std::make_shared<std::vector<std::vector<i64>>>(
            static_cast<size_t>(app.versions));
        histogram_rows[app.app_id] = rows;
        return histogram({app.consumes[0], app.versions, 0.0, 1.0, 16, rows});
      }
      case AppRole::kDownsampler:
        return downsampler(
            {app.consumes[0], app.produces[0], app.versions, app.factor});
    }
    throw Error("unknown app role");
  }

  /// The enactment and its result assembly, as wfgen::enact does them.
  void enact() {
    Span span(kMainRank, kEnact);
    run_workflow(server, dag, options);
    result.spans = trace.snapshot();
    {
      Span export_span(kMainRank, kExport);
      result.chrome_json = to_chrome_trace(result.spans);
    }
    {
      Span analyze_span(kMainRank, kAnalyze);
      result.analysis = analyze_trace(result.spans);
    }
    result.reports = server.wave_reports();
    for (const wfgen::GenApp& app : spec.apps) {
      result.inter[app.app_id] =
          metrics.counters(app.app_id, TrafficClass::kInterApp);
      result.intra[app.app_id] =
          metrics.counters(app.app_id, TrafficClass::kIntraApp);
      result.control[app.app_id] =
          metrics.counters(app.app_id, TrafficClass::kControl);
      if (!server.placement(app.app_id).all().empty()) {
        result.placements[app.app_id] = server.placement(app.app_id);
      }
    }
    result.inter[0] = metrics.counters(0, TrafficClass::kInterApp);
    result.intra[0] = metrics.counters(0, TrafficClass::kIntraApp);
    result.control[0] = metrics.counters(0, TrafficClass::kControl);
    result.total_inter = metrics.total(TrafficClass::kInterApp);
    result.total_intra = metrics.total(TrafficClass::kIntraApp);
    result.total_control = metrics.total(TrafficClass::kControl);
    result.stored_bytes = server.space().stored_bytes();
    result.mismatches = mismatches->load();
    for (const auto& [id, rows] : moment_rows) result.moments[id] = *rows;
    for (const auto& [id, rows] : histogram_rows) {
      result.histograms[id] = *rows;
    }
    result.journal = journal.snapshot();
    result.journal_dropped = journal.dropped();
    const auto dead = injector.dead_nodes();
    result.dead_nodes.assign(dead.begin(), dead.end());
    result.heartbeats = metrics.count(0, "health.heartbeats");
    result.heartbeats_dropped = metrics.count(0, "health.heartbeats_dropped");
  }

  /// Digest of everything observable about the run.
  std::string digest() const {
    Digest d;
    d.add_value(result.mismatches);
    d.add_text(result.chrome_json);
    for (const WaveReport& w : result.reports) {
      for (i32 app : w.apps) d.add_value(app);
      d.add_value(static_cast<int>(w.strategy));
      d.add_value(w.used_server_mapping);
      d.add_value(w.used_client_mapping);
      d.add_value(w.comm_graph_cut_bytes);
      d.add_value(w.attempts);
      for (i32 node : w.failed_nodes) d.add_value(node);
      d.add_value(w.failed_tasks);
      d.add_value(w.reexecuted_tasks);
      d.add_value(w.recovered_bytes);
      d.add_value(w.detection_rounds);
      d.add_value(w.detection_latency);
      d.add_value(w.straggler_tasks);
      d.add_value(w.speculated_tasks);
      d.add_value(w.speculation_wins);
    }
    for (const auto* counters : {&result.inter, &result.intra,
                                 &result.control}) {
      for (const auto& [id, c] : *counters) {
        d.add_value(id);
        d.add_value(c.shm_bytes);
        d.add_value(c.net_bytes);
        d.add_value(c.transfers);
      }
    }
    for (const ByteCounters* c : {&result.total_inter, &result.total_intra,
                                  &result.total_control}) {
      d.add_value(c->shm_bytes);
      d.add_value(c->net_bytes);
      d.add_value(c->transfers);
    }
    d.add_value(result.stored_bytes);
    for (const auto& [id, rows] : result.moments) {
      d.add_value(id);
      for (const Moments& m : rows) {
        d.add_value(m.min);
        d.add_value(m.max);
        d.add_value(m.mean);
      }
    }
    for (const auto& [id, rows] : result.histograms) {
      d.add_value(id);
      for (const auto& row : rows) {
        for (i64 count : row) d.add_value(count);
      }
    }
    // The journal as a multiset: record order is scheduling detail.
    using Key = std::tuple<int, i32, i32, i32, i32, i32, u64, bool, double>;
    std::vector<Key> journal;
    for (const TransferRecord& r : result.journal) {
      journal.emplace_back(static_cast<int>(r.cls), r.app_id, r.src.node,
                           r.src.core, r.dst.node, r.dst.core, r.bytes,
                           r.via_network, r.model_time);
    }
    std::sort(journal.begin(), journal.end());
    for (const Key& k : journal) {
      std::apply([&d](const auto&... field) { (d.add_value(field), ...); }, k);
    }
    d.add_value(result.journal_dropped);
    for (const auto& [id, placement] : result.placements) {
      d.add_value(id);
      for (const auto& [task, loc] : placement.all()) {
        d.add_value(task.app_id);
        d.add_value(task.rank);
        d.add_value(loc.node);
        d.add_value(loc.core);
      }
    }
    for (i32 node : result.dead_nodes) d.add_value(node);
    d.add_value(result.heartbeats);
    d.add_value(result.heartbeats_dropped);
    d.add_value(result.analysis.total_time);
    d.add_value(result.analysis.critical_length);
    for (u64 id : result.analysis.critical_path) d.add_value(id);
    d.add_value(result.analysis.shm_bytes);
    d.add_value(result.analysis.net_bytes);
    d.add_value(result.analysis.ledger_spans);
    return d.hex();
  }

  wfgen::ScenarioSpec spec;
  DagSpec dag;
  Cluster cluster;
  Metrics metrics;
  WorkflowServer server;
  std::shared_ptr<std::atomic<u64>> mismatches =
      std::make_shared<std::atomic<u64>>(0);
  std::map<i32, std::shared_ptr<std::vector<Moments>>> moment_rows;
  std::map<i32, std::shared_ptr<std::vector<std::vector<i64>>>>
      histogram_rows;
  TraceRecorder trace;
  TransferLog journal{1 << 18};
  FaultInjector injector;
  WorkflowOptions options;

  wfgen::EnactResult result;
  wfgen::OracleReport oracles;
  std::string error;
};

class WfgenFaults final : public Workload {
 public:
  explicit WfgenFaults(const Config& config)
      : size_(wfgen_window(config.smoke)),
        base_(config.wfgen_base),
        crosscheck_(config.crosscheck) {}

  Recorder::Clock clock() const override { return Recorder::Clock::kTimeline; }

  void setup() override {
    scenarios_.clear();
    generate_s_ = 0.0;
    for (u64 seed = base_; seed < base_ + size_; ++seed) {
      const double t0 = now();
      wfgen::ScenarioSpec spec = wfgen::generate(seed);
      generate_s_ += now() - t0;
      scenarios_.push_back(std::make_unique<Scenario>(std::move(spec)));
    }
  }

  void run() override {
    marks_.reserve(scenarios_.size() + 1);
    marks_.push_back(mark_now());
    for (auto& s : scenarios_) {
      try {
        s->enact();
        Span span(kMainRank, kOracle);
        s->oracles = wfgen::check_oracles(s->spec, s->result);
      } catch (const std::exception& e) {
        s->error = e.what();
      }
      marks_.push_back(mark_now());
    }
  }

  void collect(const Pins& pins, Batch& batch) override {
    batch.marks = marks_;
    double wins = 0.0;
    double speculated = 0.0;
    for (const auto& s : scenarios_) {
      ++batch.attempted;
      const std::string name = "scenario." + std::to_string(s->spec.seed);
      if (!s->error.empty()) {
        batch.fail(1, name + ": " + s->error);
        continue;
      }
      if (!s->oracles.ok() || s->result.mismatches != 0) {
        batch.fail(1, name + " oracles: " + s->oracles.to_string());
        continue;
      }
      if (crosscheck_) {
        const std::string diff =
            wfgen::diff_runs(wfgen::enact(s->spec), s->result);
        if (!diff.empty()) batch.fail(1, name + " differs from enact: " + diff);
      }
      Outputs out;
      out.add_text(name + ".digest", s->digest());
      batch.check(pins, name + ".", out, 1);

      const wfgen::EnactResult& r = s->result;
      add_sim_stats(s->server.last_sim_stats(), batch.layer);
      add_dart_counters(s->metrics, batch.layer);
      auto& layer = batch.layer;
      layer["workflow.waves"] += static_cast<double>(r.reports.size());
      layer["core.stored_mb"] +=
          static_cast<double>(r.stored_bytes) / (1024.0 * 1024.0);
      layer["trace.spans"] += static_cast<double>(r.spans.size());
      layer["journal.records"] += static_cast<double>(r.journal.size());
      layer["fault.retries"] +=
          static_cast<double>(s->metrics.total_count("fault.retries"));
      layer["health.heartbeats"] += static_cast<double>(r.heartbeats);
      for (const WaveReport& w : r.reports) {
        layer["fault.reexecuted_tasks"] += w.reexecuted_tasks;
        layer["fault.recovered_bytes"] += static_cast<double>(w.recovered_bytes);
        layer["health.detection_rounds"] += w.detection_rounds;
        wins += w.speculation_wins;
        speculated += w.speculated_tasks;
      }
    }
    batch.layer["health.speculation_win_ratio"] =
        speculated > 0.0 ? wins / speculated : 0.0;
    if (batch.traced) {
      batch.layer["wfgen.generate.busy_s"] += generate_s_;
    }
  }

 private:
  u64 size_;
  u64 base_;  ///< first scenario seed of the window
  bool crosscheck_;
  double generate_s_ = 0.0;
  std::vector<std::unique_ptr<Scenario>> scenarios_;
  std::vector<Mark> marks_;  ///< before the first scenario, after each
};

}  // namespace

std::unique_ptr<Workload> make_wfgen_faults(const Config& config) {
  return std::make_unique<WfgenFaults>(config);
}

}  // namespace perfbench
