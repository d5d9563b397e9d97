#include "workflow/engine.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <numeric>
#include <set>

#include "common/log.hpp"

namespace cods {

WorkflowServer::WorkflowServer(const Cluster& cluster, Metrics& metrics,
                               const Box& domain)
    : cluster_(&cluster), metrics_(&metrics), space_(cluster, metrics, domain) {}

void WorkflowServer::register_app(AppSpec spec, AppFn fn,
                                  std::string consumes_var,
                                  i32 consumes_version) {
  CODS_REQUIRE(static_cast<bool>(fn), "application subroutine must be set");
  CODS_REQUIRE(!apps_.contains(spec.app_id), "app id already registered");
  // The app's coupled-data domain must fit the space's domain (the DHT's
  // curve is sized from the latter).
  const Box domain = space_.domain();
  CODS_REQUIRE(spec.dec.ndim() == domain.ndim(),
               "app decomposition dimensionality does not match the space");
  for (int d = 0; d < domain.ndim(); ++d) {
    CODS_REQUIRE(spec.dec.dim(d).extent <= domain.extent(d),
                 "app domain exceeds the space domain in dimension " +
                     std::to_string(d));
  }
  const i32 id = spec.app_id;
  apps_.insert({id, RegisteredApp{std::move(spec), std::move(fn),
                                  std::move(consumes_var), consumes_version}});
}

const WorkflowServer::RegisteredApp& WorkflowServer::app(i32 app_id) const {
  const auto it = apps_.find(app_id);
  CODS_CHECK(it != apps_.end(),
             "workflow references unregistered app " + std::to_string(app_id));
  return it->second;
}

std::vector<NodeBytes> WorkflowServer::dht_node_bytes(
    const RegisteredApp& consumer, const WorkflowOptions& options) {
  // Client-side mapping input: for each task, how many bytes of its
  // required region are stored on each node (Data Lookup service, §IV-B).
  std::vector<NodeBytes> out(static_cast<size_t>(consumer.spec.ntasks()));
  const auto rank_bytes = [&](i32 rank) {
    NodeBytes& bytes = out[static_cast<size_t>(rank)];
    for (const Box& box : consumer.spec.dec.owned_boxes(rank)) {
      const LookupResult lookup = space_.dht().query(
          consumer.consumes_var, consumer.consumes_version, box);
      for (const DataLocation& loc : lookup.locations) {
        const auto overlap = intersect(loc.box, box);
        if (!overlap) continue;
        bytes[loc.owner_loc.node] +=
            overlap->volume() * consumer.spec.elem_size;
      }
    }
  };
  // Every task's lookup is independent (the DHT locks per table, each
  // task writes only its own slot), so fan the queries out on the wave
  // executor instead of walking thousands of tasks serially.
  if (consumer.spec.ntasks() > 1 && options.exec_mode == ExecMode::kPooled) {
    WorkStealingExecutor executor(options.exec_pool_size);
    executor.run(consumer.spec.ntasks(), rank_bytes);
  } else {
    for (i32 rank = 0; rank < consumer.spec.ntasks(); ++rank) {
      rank_bytes(rank);
    }
  }
  return out;
}

Placement WorkflowServer::map_wave(
    const std::vector<std::vector<i32>>& wave, const WorkflowOptions& options,
    WaveReport& report, const std::vector<i32>& allowed_nodes) {
  std::vector<AppSpec> specs;
  for (const auto& bundle : wave) {
    for (i32 app_id : bundle) {
      specs.push_back(app(app_id).spec);
      report.apps.push_back(app_id);
    }
  }
  report.strategy = options.strategy;

  if (options.strategy == MappingStrategy::kRoundRobin) {
    return round_robin_placement(*cluster_, specs, 0, allowed_nodes);
  }

  const bool has_multi_app_bundle =
      std::any_of(wave.begin(), wave.end(),
                  [](const auto& bundle) { return bundle.size() > 1; });
  if (has_multi_app_bundle) {
    // Concurrently coupled bundle: server-side data-centric mapping.
    CODS_REQUIRE(wave.size() == 1,
                 "a wave mixing a multi-app bundle with other bundles is not "
                 "supported; schedule them in separate waves");
    const ServerMappingResult server =
        server_data_centric_placement(*cluster_, specs, options.seed,
                                      allowed_nodes);
    report.used_server_mapping = true;
    report.comm_graph_cut_bytes = server.edge_cut_bytes;
    return server.placement;
  }

  // Singleton bundles: client-side data-centric mapping for apps whose
  // input data is already in the space; round-robin otherwise.
  std::vector<AppSpec> lookup_apps;
  std::vector<std::vector<NodeBytes>> per_app;
  std::vector<AppSpec> fallback_apps;
  for (const auto& bundle : wave) {
    const RegisteredApp& reg = app(bundle.front());
    bool has_data = false;
    if (!reg.consumes_var.empty()) {
      auto bytes = dht_node_bytes(reg, options);
      for (const NodeBytes& nb : bytes) {
        if (!nb.empty()) has_data = true;
      }
      if (has_data) {
        lookup_apps.push_back(reg.spec);
        per_app.push_back(std::move(bytes));
      }
    }
    if (!has_data) fallback_apps.push_back(reg.spec);
  }
  Placement placement;
  std::set<i32> used_nodes;
  if (!lookup_apps.empty()) {
    const Placement client = client_data_centric_placement(
        *cluster_, lookup_apps, per_app, allowed_nodes);
    report.used_client_mapping = true;
    for (const auto& [task, loc] : client.all()) {
      placement.assign(task, loc);
      used_nodes.insert(loc.node);
    }
  }
  if (!fallback_apps.empty()) {
    // Fill remaining cores (of allowed nodes) after the client-mapped apps.
    std::map<i32, i32> occupancy = placement.node_occupancy();
    size_t node_index = 0;
    i32 core_cursor = 0;
    auto next_core = [&]() -> CoreLoc {
      for (;;) {
        CODS_CHECK(node_index < allowed_nodes.size(),
                   "out of cores for the wave");
        const i32 node = allowed_nodes[node_index];
        const i32 taken = occupancy.contains(node) ? occupancy[node] : 0;
        if (core_cursor < cluster_->cores_per_node() - taken) {
          return CoreLoc{node, taken + core_cursor++};
        }
        ++node_index;
        core_cursor = 0;
      }
    };
    for (const AppSpec& spec : fallback_apps) {
      for (i32 rank = 0; rank < spec.ntasks(); ++rank) {
        placement.assign(TaskId{spec.app_id, rank}, next_core());
      }
    }
  }
  return placement;
}

std::vector<RankFailure> WorkflowServer::enact(
    const std::vector<TaskId>& tasks, const std::vector<CoreLoc>& cores,
    const WorkflowOptions& options, const WaveTrack* wave,
    std::vector<double>& task_times) {
  // Sends cross the run's transport, which run() wired to the injector
  // and the journal; only the receive bound is per enactment.
  Runtime runtime(space_.dart());
  if (options.fault != nullptr) {
    runtime.set_recv_timeout(options.retry.op_timeout);
  }
  // Speculative copies run under the caller's exec mode too: kSimulate
  // must never fall back to a live thread (its cross-mode guarantees
  // cover speculation).
  runtime.set_exec_mode(options.exec_mode);
  runtime.set_exec_pool_size(options.exec_pool_size);
  const auto failures = runtime.run_collect(cores, [&](RankCtx& ctx) {
    const TaskId task = tasks[static_cast<size_t>(ctx.global_rank)];
    const RegisteredApp& reg = app(task.app_id);
    // One trace track per (wave, attempt, rank): ids and virtual clocks
    // are then independent of thread scheduling, and a failover re-run
    // does not collide with the first attempt's spans.
    std::optional<TraceContext> tctx;
    if (wave != nullptr && options.trace != nullptr) {
      const u64 track =
          pack_rank_track(wave->index, wave->attempt, ctx.global_rank);
      tctx.emplace(*options.trace, track, wave->start, wave->span_id,
                   task.app_id, ctx.loc.node, ctx.loc.core);
    }
    // Declared after tctx so the task span closes before the context
    // detaches; everything the subroutine records nests under it.
    ScopedSpan task_span(SpanCategory::kTask, 0,
                         pack_task_detail(task.app_id, task.rank));
    // Color by app id, order by task rank: the paper's dynamic grouping.
    // A speculative copy's world has exactly one rank, so comm.rank() is
    // 0 even when task.rank is not — the subroutine must key off ctx.task.
    Comm comm = ctx.world.split(task.app_id, task.rank);
    comm.set_app_id(task.app_id);
    if (wave != nullptr) {
      CODS_CHECK(comm.valid() && comm.rank() == task.rank,
                 "task rank does not match communicator rank");
    }
    CodsClient cods(space_,
                    Endpoint{cluster_->global_core(ctx.loc), ctx.loc},
                    task.app_id);
    AppCtx app_ctx;
    app_ctx.spec = &reg.spec;
    app_ctx.task = task;
    app_ctx.comm = comm;
    app_ctx.cods = &cods;
    app_ctx.cluster = cluster_;
    reg.fn(app_ctx);
  });
  if (options.exec_mode == ExecMode::kSimulate) {
    accumulate_sim_stats(runtime.last_sim_stats());
  }
  task_times = runtime.last_task_times();
  return failures;
}

std::vector<WorkflowServer::TaskFailure> WorkflowServer::execute_wave(
    const Placement& placement, const WorkflowOptions& options,
    const WaveTrack& wave,
    std::vector<std::pair<TaskId, double>>& task_times) {
  // Deterministic task order defines global ranks.
  std::vector<TaskId> tasks;
  std::vector<CoreLoc> cores;
  for (const auto& [task, loc] : placement.all()) {
    tasks.push_back(task);
    cores.push_back(loc);
  }
  std::vector<double> times;
  const auto failures = enact(tasks, cores, options, &wave, times);
  // Straggler-detection input: each rank's TaskClock total (modelled
  // seconds it spent in dart/runtime operations), keyed by task.
  task_times.clear();
  for (size_t i = 0; i < tasks.size() && i < times.size(); ++i) {
    task_times.push_back({tasks[i], times[i]});
  }
  std::vector<TaskFailure> out;
  out.reserve(failures.size());
  for (const RankFailure& f : failures) {
    out.push_back(
        TaskFailure{tasks[static_cast<size_t>(f.global_rank)], f.error});
  }
  return out;
}

void WorkflowServer::accumulate_sim_stats(const SimStats& wave) {
  // Counters add up over the run's waves; capacity figures are
  // high-water marks, so the max is the honest aggregate (peak RSS in
  // particular is a process-lifetime mark that only ever grows).
  sim_stats_.fibers += wave.fibers;
  sim_stats_.switches += wave.switches;
  sim_stats_.notifies += wave.notifies;
  sim_stats_.timeouts += wave.timeouts;
  sim_stats_.mutex_waits += wave.mutex_waits;
  sim_stats_.cancellations += wave.cancellations;
  sim_stats_.ready_rebuilds += wave.ready_rebuilds;
  sim_stats_.peak_blocked = std::max(sim_stats_.peak_blocked,
                                     wave.peak_blocked);
  sim_stats_.stacks = std::max(sim_stats_.stacks, wave.stacks);
  sim_stats_.final_vtime = std::max(sim_stats_.final_vtime, wave.final_vtime);
  sim_stats_.arena_bytes = std::max(sim_stats_.arena_bytes, wave.arena_bytes);
  sim_stats_.peak_rss_bytes =
      std::max(sim_stats_.peak_rss_bytes, wave.peak_rss_bytes);
}

void WorkflowServer::mitigate_stragglers(
    const std::vector<std::pair<TaskId, double>>& task_times,
    const Placement& placement, const WorkflowOptions& options,
    const std::vector<i32>& allowed, i32 wave_index, WaveReport& report) {
  if (task_times.size() < 2 || allowed.empty()) return;
  std::vector<double> sorted;
  sorted.reserve(task_times.size());
  for (const auto& [task, time] : task_times) sorted.push_back(time);
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted[sorted.size() / 2];
  if (median <= 0.0) return;
  const double deadline = kStragglerMultiplier * median;
  for (const auto& [task, time] : task_times) {
    if (time <= deadline) continue;
    ++report.straggler_tasks;
    metrics_->add_count(0, "health.stragglers");
    if (!options.health.speculation) continue;
    // Speculative re-execution, first completion wins: the copy runs the
    // subroutine alone in a one-rank world on a healthy node; its puts
    // are dropped whenever the original's output already landed (the
    // space keeps the original — see CodsSpace::set_speculation), so the
    // duplicate execution is idempotent. Only subroutines that derive
    // their work purely from ctx.task qualify (no intra-app collectives);
    // speculation is therefore opt-in.
    const i32 origin = placement.loc(task).node;
    i32 target = allowed.front();
    for (i32 n : allowed) {
      if (n != origin) {
        target = n;
        break;
      }
    }
    space_.set_speculation(true);
    std::vector<double> spec_times;
    const auto spec_failures =
        enact({task}, {CoreLoc{target, 0}}, options, nullptr, spec_times);
    space_.set_speculation(false);
    ++report.speculated_tasks;
    metrics_->add_count(0, "health.speculated");
    // A failed copy is simply discarded — the original's output stands.
    if (!spec_failures.empty()) continue;
    const double spec_time = spec_times.empty() ? time : spec_times.front();
    if (spec_time < time) {
      ++report.speculation_wins;
      metrics_->add_count(0, "health.spec_wins");
    }
    CODS_LOG_INFO << "speculated straggler task (app " << task.app_id
                  << ", rank " << task.rank << ") of wave " << wave_index
                  << " on node " << target << ": " << spec_time << "s vs "
                  << time << "s";
  }
}

void WorkflowServer::record_placements(
    const std::vector<std::vector<i32>>& wave, const Placement& placement) {
  for (const auto& bundle : wave) {
    for (i32 app_id : bundle) {
      Placement p;
      for (i32 rank = 0; rank < app(app_id).spec.ntasks(); ++rank) {
        p.assign(TaskId{app_id, rank}, placement.loc(TaskId{app_id, rank}));
      }
      placements_[app_id] = std::move(p);
    }
  }
}

void WorkflowServer::run(const DagSpec& dag, WorkflowOptions options) {
  dag.validate();
  for (i32 app_id : dag.app_ids()) {
    (void)app(app_id);  // every DAG app must be registered
  }
  reports_.clear();
  placements_.clear();
  sim_stats_ = SimStats{};
  space_.set_reexecution(false);
  // The injector and the journal belong to this run: attach both (null
  // detaches) so a later run never inherits an earlier run's injector or
  // a dangling journal pointer. Every payload, sends included, crosses
  // this one transport.
  space_.dart().set_transfer_log(options.transfer_log);
  space_.dart().set_fault(options.fault, options.retry);
  // The server's own trace track (key 0) holds the wave spans; task spans
  // recorded by execution clients parent under them.
  std::optional<TraceContext> server_ctx;
  if (options.trace != nullptr) {
    server_ctx.emplace(*options.trace, /*track_key=*/0, /*start_clock=*/0.0,
                       /*root_parent=*/0, /*app_id=*/0, /*node=*/-1,
                       /*core=*/-1);
  }
  if (options.fault != nullptr) {
    // Blocking space waits are bounded so a dead producer surfaces as an
    // Error.
    space_.set_op_timeout(options.retry.op_timeout);
  }
  space_.set_watermarks(options.health.soft_watermark,
                        options.health.hard_watermark);

  // The engine's only source of node-death knowledge: heartbeat-driven
  // phi-accrual detection (docs/FAULT_MODEL.md). The injector's crash
  // schedule drives *injection* (dropped heartbeats, failed ops); the
  // verdicts the recovery path acts on all come from the monitor.
  std::set<i32> dead;
  std::optional<HealthMonitor> monitor;
  if (options.fault != nullptr) {
    monitor.emplace(options.health, *options.fault, space_.dart(),
                    cluster_->num_nodes());
  }
  const auto alive_nodes = [&] {
    std::vector<i32> alive;
    for (i32 n = 0; n < cluster_->num_nodes(); ++n) {
      if (!dead.contains(n)) alive.push_back(n);
    }
    return alive;
  };
  // Nodes the mapper may target: alive minus quarantined/probation. A
  // fully-untrusted cluster still runs on the alive set — suspicion must
  // not leave a wave with nowhere to execute.
  const auto allowed_nodes = [&] {
    std::vector<i32> alive = alive_nodes();
    if (!monitor) return alive;
    const std::vector<i32> untrusted = monitor->untrusted();
    std::vector<i32> allowed;
    for (i32 n : alive) {
      if (std::find(untrusted.begin(), untrusted.end(), n) ==
          untrusted.end()) {
        allowed.push_back(n);
      }
    }
    return allowed.empty() ? alive : allowed;
  };

  i32 wave_index = 0;
  for (const auto& wave : dag.waves()) {
    if (options.fault != nullptr) options.fault->begin_wave(wave_index);
    // Wave-boundary settling: quarantined nodes that kept heartbeating
    // earn probation and eventually readmission. No-op (zero heartbeat
    // traffic) while every node is settled — which keeps clean runs
    // bit-identical with the health layer attached.
    if (monitor) monitor->settle();
    WaveReport report;
    Placement placement = map_wave(wave, options, report, allowed_nodes());
    CODS_CHECK(placement.valid(*cluster_), "wave placement is invalid");
    record_placements(wave, placement);
    CODS_LOG_INFO << "wave with " << placement.size() << " tasks mapped via "
                  << to_string(report.strategy);

    // Wave-entry snapshot of the sequential store: the recovery source if a
    // node dies mid-wave. Only taken when faults can actually happen.
    std::stringstream snapshot;
    if (options.fault != nullptr) space_.save_checkpoint(snapshot);

    double wave_start = 0.0;
    u64 wave_span_id = 0;
    if (server_ctx) {
      wave_start = server_ctx->clock();
      wave_span_id = server_ctx->begin(SpanCategory::kWave, 0,
                                       static_cast<u32>(wave_index));
    }

    std::vector<std::vector<i32>> to_run = wave;
    std::vector<std::pair<TaskId, double>> task_times;
    for (;;) {
      const auto failures = execute_wave(
          placement, options,
          WaveTrack{wave_index, report.attempts - 1, wave_span_id, wave_start},
          task_times);
      if (failures.empty()) break;
      report.failed_tasks += static_cast<i32>(failures.size());

      // Task failures are the detector's trigger: sweep heartbeat rounds
      // until suspicion resolves and take the *detector's* verdict on who
      // is dead. A failure with no dead node (transient exhaustion, an
      // application error) settles within a round and declares nobody.
      std::vector<i32> newly_dead;
      if (monitor) {
        newly_dead = monitor->run_detection();
        report.detection_rounds += monitor->last_detection_rounds();
        report.detection_latency = std::max(
            report.detection_latency, monitor->last_detection_latency());
      }
      if (newly_dead.empty() ||
          report.attempts >= options.retry.max_wave_attempts) {
        // Not a node failure (or recovery budget exhausted): surface the
        // first task error to the caller.
        std::rethrow_exception(failures.front().error);
      }

      ++report.attempts;
      for (i32 n : newly_dead) {
        dead.insert(n);
        report.failed_nodes.push_back(n);
        CODS_LOG_INFO << "node " << n << " died during wave " << wave_index
                      << "; failing over";
      }
      const std::vector<i32> alive = alive_nodes();
      CODS_CHECK(!alive.empty(), "every node in the cluster has failed");
      // Re-homing targets: healthy nodes first (falls back to the whole
      // alive set — possibly a single survivor — when every survivor is
      // under suspicion). The cursor wraps over whatever set remains, so
      // a singleton survivor absorbs every lost object.
      const std::vector<i32> rehome = allowed_nodes();
      CODS_CHECK(!rehome.empty(), "no node left to re-home lost objects");

      // 1. Drop space state homed on the dead nodes (windows, store, DHT).
      for (i32 n : newly_dead) space_.drop_node(n);

      // 2. Restore the dropped objects from the wave-entry snapshot onto
      //    surviving nodes (round-robin spread). restore_lost only fills
      //    holes, so objects that survived the failure are untouched.
      snapshot.clear();
      snapshot.seekg(0);
      const std::set<i32> lost(newly_dead.begin(), newly_dead.end());
      size_t cursor = 0;
      const u64 recovered =
          space_.restore_lost(snapshot, [&](i32) -> std::optional<i32> {
            return rehome[cursor++ % rehome.size()];
          });
      report.recovered_bytes += recovered;
      metrics_->add_count(0, "fault.recovery_bytes", recovered);
      metrics_->add_count(0, "fault.failovers",
                          static_cast<u64>(newly_dead.size()));

      // 3. Re-execute every affected bundle: a bundle is affected if any of
      //    its tasks failed or was placed on a node that died.
      std::set<i32> affected;
      for (const TaskFailure& f : failures) affected.insert(f.task.app_id);
      for (const auto& [task, loc] : placement.all()) {
        if (lost.contains(loc.node)) affected.insert(task.app_id);
      }
      std::vector<std::vector<i32>> rerun;
      for (const auto& bundle : to_run) {
        if (std::any_of(bundle.begin(), bundle.end(), [&](i32 app_id) {
              return affected.contains(app_id);
            })) {
          rerun.push_back(bundle);
        }
      }
      CODS_CHECK(!rerun.empty(), "wave failed without an affected bundle");
      to_run = std::move(rerun);

      // 4. Re-map the affected bundles over the healthy survivors and
      //    re-run with idempotent puts (outputs of the failed attempt are
      //    replaced).
      WaveReport remap_report;  // mapping stats of the retry are not kept
      placement = map_wave(to_run, options, remap_report, rehome);
      CODS_CHECK(placement.valid(*cluster_), "failover placement is invalid");
      record_placements(to_run, placement);
      report.reexecuted_tasks += static_cast<i32>(placement.size());
      space_.set_reexecution(true);
    }
    space_.set_reexecution(false);
    // Post-wave straggler pass: flag tasks far over the wave's median
    // modelled time and (opt-in) speculatively re-execute them on healthy
    // nodes, first completion winning.
    if (options.fault != nullptr &&
        (options.health.speculation || options.fault->has_slowdowns())) {
      mitigate_stragglers(task_times, placement, options, allowed_nodes(),
                          wave_index, report);
    }
    if (server_ctx) {
      // The wave ends when its last child span ends: drain the rank rings
      // and extend the server-side wave span to cover them.
      options.trace->flush();
      const double wave_end =
          options.trace->max_end_with_parent(wave_span_id, wave_start);
      server_ctx->end(wave_end - wave_start);
    }
    reports_.push_back(std::move(report));
    ++wave_index;
  }
}

std::string WorkflowServer::traffic_report() const {
  std::ostringstream os;
  os << "app  " << std::setw(24) << "inter-app (shm/net)" << std::setw(26)
     << "intra-app (shm/net)" << "\n";
  for (const auto& [app_id, reg] : apps_) {
    const ByteCounters inter =
        metrics_->counters(app_id, TrafficClass::kInterApp);
    const ByteCounters intra =
        metrics_->counters(app_id, TrafficClass::kIntraApp);
    os << std::setw(3) << app_id << "  " << std::setw(11)
       << format_bytes(inter.shm_bytes) << " / " << std::setw(11)
       << format_bytes(inter.net_bytes) << std::setw(12)
       << format_bytes(intra.shm_bytes) << " / " << std::setw(11)
       << format_bytes(intra.net_bytes) << "  (" << reg.spec.name << ")\n";
  }
  return os.str();
}

const Placement& WorkflowServer::placement(i32 app_id) const {
  const auto it = placements_.find(app_id);
  CODS_CHECK(it != placements_.end(), "app has not been placed");
  return it->second;
}

}  // namespace cods
