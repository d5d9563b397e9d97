// The repository benchmark's measuring program: runs one workload in this
// process for a given time and prints its metrics.
//
//   perfbench <workload> [--seconds S] [--trace 0|1] [--seed N]
//             [--wfgen-base B] [--smoke] [--pins FILE] [--write-pins]
//             [--crosscheck]
//
// --seed N sets the fill/verify pattern seed of sim_weak. --wfgen-base B
// sets the first generated scenario of wfgen_faults' window (default 1);
// the pinned scenario seeds [1, 1200]
// hold four full windows, at 1, 301, 601 and 901. The run seed leaves the
// window alone: the tail of one window's step times differs from another's
// by more than the benchmark's bounds.
// Workloads: sim_weak, pooled_insitu, modeled_paper, wfgen_faults. A run
// repeats batches (set-up, timed phase, collection) on the same inputs
// until S seconds have passed. With --trace 0 every batch is untraced and
// the end-to-end metrics are printed: setup_s is the median set-up time,
// and run_s, cpu_s and the step percentiles come from each step's fastest
// time over the batches (see Fastest) where steps are units of their own
// (modeled_paper, wfgen_faults), and from medians over whole batches and
// all their steps elsewhere. peak_rss_mb is ru_maxrss after the first
// batch: later batches raise it with allocator fragmentation, so the whole
// run's peak depends on how many batches fit. With --trace 1 traced and
// untraced batches alternate and the per-layer metrics are printed. Every batch's
// outputs are checked against the pin file, and a traced batch's outputs
// must equal those of the untraced batch before it. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. The exit code is 0 only when every check passed.
//
// The pin files under perfbench/pins/ are written by --write-pins, which
// runs one batch and merges its outputs into --pins FILE: once per
// workload at full and at --smoke size, and for wfgen_faults once per
// window (--wfgen-base 1, 301, 601, 901) to cover every pinned seed. A
// unit (a scenario, a rung) fails when a value differs from its pin or a
// pin under the unit's key prefix is missing from its outputs.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>
#include <string>

#include "bodies.hpp"
#include "workload.hpp"

using namespace perfbench;

namespace {

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},      {"run_s", "s"},         {"cpu_s", "s"},
    {"peak_rss_mb", "MiB"}, {"step_p50_ms", "ms"}, {"step_p90_ms", "ms"},
};

constexpr Metric kPerLayer[] = {
    {"runtime.sim.switches", "count"},
    {"runtime.sim.notifies", "count"},
    {"runtime.sim.mutex_waits", "count"},
    {"runtime.sim.timeouts", "count"},
    {"runtime.sim.peak_blocked", "count"},
    {"runtime.sim.stacks", "count"},
    {"runtime.sim.arena_mb", "MiB"},
    {"runtime.sim.ready_rebuilds", "count"},
    {"runtime.send.calls", "count"},
    {"runtime.send.busy_s", "s"},
    {"runtime.recv.calls", "count"},
    {"runtime.recv.busy_s", "s"},
    {"runtime.recv.wait_s", "s"},
    {"runtime.allreduce.calls", "count"},
    {"runtime.allreduce.wait_s", "s"},
    {"runtime.barrier.calls", "count"},
    {"runtime.barrier.wait_s", "s"},
    {"core.put_seq.calls", "count"},
    {"core.put_seq.busy_s", "s"},
    {"core.get_seq.calls", "count"},
    {"core.get_seq.busy_s", "s"},
    {"core.get_seq.wait_s", "s"},
    {"core.put_cont.calls", "count"},
    {"core.put_cont.busy_s", "s"},
    {"core.get_cont.calls", "count"},
    {"core.get_cont.busy_s", "s"},
    {"core.get_cont.wait_s", "s"},
    {"core.retire.calls", "count"},
    {"core.retire.busy_s", "s"},
    {"core.stored_mb", "MiB"},
    {"core.schedule_cache_hit_ratio", "ratio"},
    {"core.sources_per_get", "count"},
    {"dht.cores_per_put", "count"},
    {"dht.cores_per_get", "count"},
    {"dht.lookup_hit_ratio", "ratio"},
    {"dht.queries", "count"},
    {"dart.inter_shm_bytes", "bytes"},
    {"dart.inter_net_bytes", "bytes"},
    {"dart.intra_shm_bytes", "bytes"},
    {"dart.intra_net_bytes", "bytes"},
    {"dart.control_bytes", "bytes"},
    {"dart.transfers", "count"},
    {"dart.coalesced_ops", "count"},
    {"dart.pull_mb_per_busy_s", "MiB/s"},
    {"workflow.scenario.calls", "count"},
    {"workflow.scenario.busy_s", "s"},
    {"workflow.scenario.other_s", "s"},
    {"workflow.comm_graph.busy_s", "s"},
    {"partition.place.busy_s", "s"},
    {"workflow.client_place.busy_s", "s"},
    {"geometry.redistribution.busy_s", "s"},
    {"geometry.transfers", "count"},
    {"partition.cut_bytes", "bytes"},
    {"trace.spans", "count"},
    {"trace.export.busy_s", "s"},
    {"trace.analyze.busy_s", "s"},
    {"journal.records", "count"},
    {"fault.retries", "count"},
    {"fault.reexecuted_tasks", "count"},
    {"fault.recovered_bytes", "bytes"},
    {"health.heartbeats", "count"},
    {"health.detection_rounds", "count"},
    {"health.speculation_win_ratio", "ratio"},
    {"wfgen.generate.busy_s", "s"},
    {"wfgen.enact.busy_s", "s"},
    {"wfgen.oracle.busy_s", "s"},
    {"apps.tasks", "count"},
    {"apps.self_s", "s"},
    {"workflow.waves", "count"},
    {"workflow.unattributed_s", "s"},
    {"kernel.user_s", "s"},
    {"kernel.sys_s", "s"},
    {"kernel.sys_share", "ratio"},
    {"kernel.minflt", "count"},
    {"kernel.nvcsw", "count"},
    {"kernel.nivcsw", "count"},
    {"bench.trace_overhead_frac", "ratio"},
};

struct Usage {
  double user = 0.0;
  double sys = 0.0;
  double minflt = 0.0;
  double nvcsw = 0.0;
  double nivcsw = 0.0;
};

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return Usage{seconds_of(ru.ru_utime), seconds_of(ru.ru_stime),
               static_cast<double>(ru.ru_minflt),
               static_cast<double>(ru.ru_nvcsw),
               static_cast<double>(ru.ru_nivcsw)};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

Usage operator-(const Usage& a, const Usage& b) {
  return Usage{a.user - b.user, a.sys - b.sys, a.minflt - b.minflt,
               a.nvcsw - b.nvcsw, a.nivcsw - b.nivcsw};
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Linear-interpolated percentile of a sorted sample (q in [0, 1]).
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

/// The timed phases of a run's untraced batches, each cut at its step
/// marks into the same pieces: the lead-in before the first mark, one
/// piece per step, and the tail after the last mark. Each piece keeps its
/// fastest wall and CPU time over the batches. Other tenants of the host
/// slow a whole core by up to half for a second or so at a time, which
/// moves a median over a dozen batches by a quarter; a piece is far
/// shorter than such a stretch, so its fastest repetition is its cost, and
/// the pieces' sum is the phase's cost.
struct Fastest {
  std::vector<double> wall;
  std::vector<double> cpu;

  /// Adds one batch: its phase start, step marks and phase end. False when
  /// the batch was cut into a different number of pieces than the first.
  bool add(const std::vector<Mark>& bounds) {
    const size_t pieces = bounds.size() - 1;
    if (wall.empty()) {
      wall.assign(pieces, std::numeric_limits<double>::infinity());
      cpu = wall;
    }
    if (wall.size() != pieces) return false;
    for (size_t i = 0; i < pieces; ++i) {
      wall[i] = std::min(wall[i], bounds[i + 1].wall - bounds[i].wall);
      cpu[i] = std::min(cpu[i], bounds[i + 1].cpu - bounds[i].cpu);
    }
    return true;
  }

  /// Fastest time of each step: the pieces between the first and last mark.
  std::vector<double> steps() const {
    if (wall.size() < 3) return {};
    return std::vector<double>(wall.begin() + 1, wall.end() - 1);
  }
};

// Set-ups per batch: at least kSetupRepeats, and more (up to
// kSetupMaxRepeats) until kSetupMinSeconds are spent, so a set-up of a few
// microseconds is still the median of many.
constexpr size_t kSetupRepeats = 5;
constexpr size_t kSetupMaxRepeats = 200;
constexpr double kSetupMinSeconds = 0.02;

/// Per-layer values of one traced batch, from its span totals, the call
/// counters, the kernel's accounting and the workload's own counters.
std::map<std::string, double> layer_values(const PhaseTotals& t,
                                           Recorder::Clock clock,
                                           const Usage& usage,
                                           const Batch& batch) {
  std::map<std::string, double> v = batch.layer;
  const auto span = [&](Kind kind, const char* prefix) {
    const KindTotals& k = t.kinds[kind];
    v[std::string(prefix) + ".calls"] += static_cast<double>(k.calls);
    v[std::string(prefix) + ".busy_s"] += k.busy;
    v[std::string(prefix) + ".wait_s"] += k.wait;
  };
  for (int k = 0; k < kNumKinds; ++k) {
    span(static_cast<Kind>(k), kind_name(static_cast<Kind>(k)));
  }
  const CallCounters& c = call_counters();
  const double gets = static_cast<double>(c.gets.load());
  const double seq_gets = static_cast<double>(c.seq_gets.load());
  v["core.schedule_cache_hit_ratio"] =
      ratio(static_cast<double>(c.schedule_hits.load()), gets);
  v["core.sources_per_get"] = ratio(static_cast<double>(c.get_sources.load()), gets);
  v["dht.cores_per_put"] = ratio(static_cast<double>(c.put_dht_cores.load()),
                                 static_cast<double>(c.puts.load()));
  v["dht.cores_per_get"] =
      ratio(static_cast<double>(c.get_dht_cores.load()), gets);
  v["dht.lookup_hit_ratio"] =
      ratio(static_cast<double>(c.lookup_hits.load()), seq_gets);
  v["dart.pull_mb_per_busy_s"] =
      ratio(static_cast<double>(c.get_bytes.load()) / (1024.0 * 1024.0),
            t.kinds[kGetSeq].busy + t.kinds[kGetCont].busy);
  v["apps.tasks"] = static_cast<double>(c.tasks.load());
  v["apps.self_s"] = t.kinds[kRankBody].busy;
  // Engine time: WorkflowServer::run not covered by rank bodies, plus any
  // stretch no span owns. With ThreadCpu, the CPU outside rank bodies
  // (which already holds the caller's time inside WorkflowServer::run).
  v["workflow.unattributed_s"] =
      clock == Recorder::Clock::kTimeline
          ? t.kinds[kWorkflowRun].busy + t.unowned
          : t.unowned;
  v["workflow.scenario.other_s"] =
      t.kinds[kScenario].busy - v["workflow.comm_graph.busy_s"] -
      v["partition.place.busy_s"] - v["workflow.client_place.busy_s"] -
      v["geometry.redistribution.busy_s"];
  v["kernel.user_s"] = usage.user;
  v["kernel.sys_s"] = usage.sys;
  v["kernel.sys_share"] = ratio(usage.sys, usage.user + usage.sys);
  v["kernel.minflt"] = usage.minflt;
  v["kernel.nvcsw"] = usage.nvcsw;
  v["kernel.nivcsw"] = usage.nivcsw;
  return v;
}

/// Layer busy + apps.self_s + workflow.unattributed_s: the time the spans
/// account for, which must equal the traced phase's wall time (timeline)
/// or CPU time (ThreadCpu). On the timeline the stretches partition the
/// recorder's phase, so this holds by construction and only checks that
/// the phase is the timed one. On ThreadCpu the unattributed part is the
/// getrusage CPU minus the rank bodies' thread CPU, so the sum holds by
/// construction too, and the real check is that the part is not negative.
double accounted(const PhaseTotals& t, Recorder::Clock clock) {
  double covered = t.unowned;
  for (int k = 0; k < kNumKinds; ++k) {
    if (clock == Recorder::Clock::kThreadCpu && k == kWorkflowRun) continue;
    covered += t.kinds[k].busy;
  }
  return covered;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

int usage_error(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s sim_weak|pooled_insitu|modeled_paper|wfgen_faults "
               "[--seconds S] [--trace 0|1] [--seed N] [--wfgen-base B]"
               " [--smoke] [--pins FILE] [--write-pins] "
               "[--crosscheck]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage_error(argv[0]);
  const std::string workload = argv[1];
  double seconds = 10.0;
  bool trace = false;
  bool write_pins = false;
  std::string pins_path;
  Config config;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--seconds" && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      trace = std::strcmp(argv[++i], "1") == 0;
    } else if (arg == "--seed" && has_value) {
      config.pattern_seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--wfgen-base" && has_value) {
      config.wfgen_base = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--pins" && has_value) {
      pins_path = argv[++i];
    } else if (arg == "--smoke") {
      config.smoke = true;
    } else if (arg == "--write-pins") {
      write_pins = true;
    } else if (arg == "--crosscheck") {
      config.crosscheck = true;
    } else {
      return usage_error(argv[0]);
    }
  }

  std::function<std::unique_ptr<Workload>(const Config&)> factory;
  if (workload == "sim_weak") {
    factory = make_sim_weak;
  } else if (workload == "pooled_insitu") {
    factory = make_pooled_insitu;
  } else if (workload == "modeled_paper") {
    factory = make_modeled_paper;
  } else if (workload == "wfgen_faults") {
    factory = make_wfgen_faults;
    if (config.wfgen_base < 1 ||
        config.wfgen_base + wfgen_window(config.smoke) - 1 > kWfgenPinned) {
      std::fprintf(stderr,
                   "--wfgen-base: the window must lie in the pinned seeds "
                   "[1, %llu]\n",
                   static_cast<unsigned long long>(kWfgenPinned));
      return 2;
    }
  } else {
    return usage_error(argv[0]);
  }

  Pins pins = write_pins ? Pins::accept_all() : Pins::load(pins_path);

  std::vector<double> setups;
  std::vector<double> runs;
  std::vector<double> cpus;
  std::vector<double> peaks_mb;  ///< ru_maxrss after each untraced batch
  std::vector<double> steps;
  std::vector<double> traced_runs;
  Fastest fastest;
  const bool units = factory(config)->steps_are_units();
  std::map<std::string, double> layer_sums;
  int traced_batches = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;
  std::optional<Outputs> untraced_outputs;
  bool checks_ok = true;

  // Untraced runs need three batches for a median; traced runs alternate,
  // so they need two of each kind.
  const int min_batches = trace ? 4 : 3;
  const double start = now();
  for (int b = 0; write_pins ? b < 1 : (b < min_batches || now() - start < seconds);
       ++b) {
    // Every batch runs the same inputs, so a traced batch reruns those of
    // the untraced batch before it.
    const bool traced = trace && b % 2 == 1;
    // Set-up is short next to the timed phase, so each batch sets up
    // several times and keeps the median; the last build is the one run.
    std::unique_ptr<Workload> w;
    std::vector<double> setup_times;
    double setup_spent = 0.0;
    while (setup_times.size() < kSetupRepeats ||
           (setup_spent < kSetupMinSeconds &&
            setup_times.size() < kSetupMaxRepeats)) {
      w = factory(config);
      const double t0 = now();
      w->setup();
      setup_times.push_back(now() - t0);
      setup_spent += setup_times.back();
    }
    const Usage u0 = usage_now();
    if (traced) {
      call_counters().reset();
      recorder().begin_phase(w->clock());
    }
    const Mark begin = mark_now();
    w->run();
    const Mark end = mark_now();
    const Usage used = usage_now() - u0;
    PhaseTotals totals;
    if (traced) totals = recorder().end_phase(used.user + used.sys);

    Batch batch;
    batch.traced = traced;
    w->collect(pins, batch);
    w.reset();

    attempted += batch.attempted;
    if (!traced) {
      untraced_outputs = batch.outputs;
    } else if (batch.outputs != *untraced_outputs) {
      batch.fail(batch.attempted - batch.failed,
                 "traced outputs differ from the untraced run's");
    }
    failed += batch.failed;
    if (first_failure.empty()) first_failure = batch.first_failure;
    if (write_pins) {
      Pins::load(pins_path).merge_and_write(batch.outputs, pins_path);
      std::printf("wrote %zu pins to %s\n", batch.outputs.items().size(),
                  pins_path.c_str());
    }

    const double run_s = end.wall - begin.wall;
    if (!traced) {
      setups.push_back(median(setup_times));
      runs.push_back(run_s);
      cpus.push_back(end.cpu - begin.cpu);
      peaks_mb.push_back(peak_rss_mb());
      for (size_t i = 1; i < batch.marks.size(); ++i) {
        steps.push_back(batch.marks[i].wall - batch.marks[i - 1].wall);
      }
      std::vector<Mark> bounds = {begin};
      bounds.insert(bounds.end(), batch.marks.begin(), batch.marks.end());
      bounds.push_back(end);
      if (!fastest.add(bounds)) {
        std::printf("batch %d has %zu step marks, an earlier one %zu\n", b,
                    batch.marks.size(), fastest.wall.size() - 1);
        checks_ok = false;
      }
      continue;
    }
    traced_runs.push_back(run_s);
    ++traced_batches;
    const Recorder::Clock clock = recorder().clock();
    const double covered = accounted(totals, clock);
    const double whole =
        clock == Recorder::Clock::kTimeline ? run_s : used.user + used.sys;
    if (std::fabs(covered - whole) > 0.01 * whole ||
        totals.unowned < -0.01 * whole) {
      std::printf("layer shares cover %.6f s of %.6f s\n", covered, whole);
      checks_ok = false;
    }
    for (const auto& [key, value] : layer_values(totals, clock, used, batch)) {
      layer_sums[key] += value;
    }
  }

  std::map<std::string, double> metrics;
  if (trace) {
    for (const auto& [key, value] : layer_sums) {
      metrics[key] = value / traced_batches;
    }
    metrics["bench.trace_overhead_frac"] =
        ratio(median(traced_runs), median(runs)) - 1.0;
  } else {
    if (units) steps = fastest.steps();
    std::sort(steps.begin(), steps.end());
    metrics["setup_s"] = median(setups);
    metrics["run_s"] = units ? sum(fastest.wall) : median(runs);
    metrics["cpu_s"] = units ? sum(fastest.cpu) : median(cpus);
    metrics["peak_rss_mb"] = peaks_mb.front();
    metrics["step_p50_ms"] = 1000.0 * percentile(steps, 0.5);
    metrics["step_p90_ms"] = 1000.0 * percentile(steps, 0.9);
    std::printf("%zu untraced batches, %zu step times; whole-batch run_s:",
                runs.size(), steps.size());
    for (double r : runs) std::printf(" %.4f", r);
    std::printf(" (median %.4f)\npeak RSS MiB after each batch:",
                median(runs));
    for (double p : peaks_mb) std::printf(" %.1f", p);
    std::printf("\n");
  }
  std::printf("failed_frac %.6g ratio (%llu of %llu units)\n",
              ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  if (!first_failure.empty()) {
    std::printf("first failure: %s\n", first_failure.c_str());
  }

  const bool correct = failed == 0 && checks_ok;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const Metric& m) {
    const double value = metrics.count(m.name) ? metrics[m.name] : 0.0;
    std::printf("%-34s %20.9g %s\n", m.name, value, m.unit);
    json += first ? "" : ", ";
    first = false;
    json += std::string("\"") + m.name + "\": {\"value\": " +
            json_number(value) + ", \"unit\": \"" + m.unit + "\"}";
  };
  if (trace) {
    for (const Metric& m : kPerLayer) emit(m);
  } else {
    for (const Metric& m : kEndToEnd) emit(m);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
