#include "wfgen/enact.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <sstream>
#include <tuple>

#include "trace/export.hpp"

namespace cods {
namespace wfgen {

namespace {

/// Journal capacity; generous so no scenario overflows it (a dropped
/// record would make exact reconciliation impossible by construction).
constexpr size_t kJournalCapacity = 1 << 18;

/// Builds the AppFn enacting one generated app's role. Shared output
/// sinks (mismatch counter, moments/histogram rows) are owned by the
/// caller and outlive the run.
AppFn role_fn(const GenApp& app,
              const std::shared_ptr<std::atomic<u64>>& mismatches,
              const std::shared_ptr<std::vector<Moments>>& moments,
              const std::shared_ptr<std::vector<std::vector<i64>>>& hist) {
  switch (app.role) {
    case AppRole::kPatternProducer:
      return make_pattern_producer(
          {app.produces, app.versions, /*sequential=*/true,
           app.pattern_seed});
    case AppRole::kPatternConsumer:
      return make_pattern_consumer({app.consumes, app.versions,
                                    /*sequential=*/true, app.consume_seed,
                                    mismatches, nullptr});
    case AppRole::kPatternRelay: {
      // Consume-then-produce in one subroutine: verify the upstream
      // variables, then publish this stage's own pattern.
      AppFn consume = make_pattern_consumer(
          {app.consumes, app.versions, /*sequential=*/true,
           app.consume_seed, mismatches, nullptr});
      AppFn produce = make_pattern_producer(
          {app.produces, app.versions, /*sequential=*/true,
           app.pattern_seed});
      return [consume, produce](AppCtx& ctx) {
        consume(ctx);
        produce(ctx);
      };
    }
    case AppRole::kStencil:
      return make_stencil_simulation(
          {app.produces[0], app.versions, /*alpha=*/0.1});
    case AppRole::kMoments:
      moments->resize(static_cast<size_t>(app.versions));
      return make_moments_analysis({app.consumes[0], app.versions, moments});
    case AppRole::kHistogram:
      hist->resize(static_cast<size_t>(app.versions));
      return make_histogram_analysis({app.consumes[0], app.versions,
                                      /*lo=*/0.0, /*hi=*/1.0, /*bins=*/16,
                                      hist});
    case AppRole::kDownsampler:
      return make_downsampler(
          {app.consumes[0], app.produces[0], app.versions, app.factor});
  }
  throw Error("wfgen: unknown app role");
}

}  // namespace

EnactResult enact(const ScenarioSpec& spec, const EnactOptions& options) {
  Cluster cluster(spec.cluster);
  Metrics metrics;
  WorkflowServer server(cluster, metrics, spec.domain());

  const auto mismatches = std::make_shared<std::atomic<u64>>(0);
  std::map<i32, std::shared_ptr<std::vector<Moments>>> moments;
  std::map<i32, std::shared_ptr<std::vector<std::vector<i64>>>> histograms;

  std::vector<i32> bundled;
  for (const auto& bundle : spec.bundles) {
    bundled.insert(bundled.end(), bundle.begin(), bundle.end());
  }

  for (const GenApp& app : spec.apps) {
    AppSpec as;
    as.app_id = app.app_id;
    as.name = app.name;
    as.elem_size = spec.elem_size;
    as.dec = Decomposition(spec.extents, app.procs, app.dist, app.block);
    auto app_moments = std::make_shared<std::vector<Moments>>();
    auto app_hist = std::make_shared<std::vector<std::vector<i64>>>();
    const AppFn fn = role_fn(app, mismatches, app_moments, app_hist);
    if (app.role == AppRole::kMoments) moments[app.app_id] = app_moments;
    if (app.role == AppRole::kHistogram) histograms[app.app_id] = app_hist;
    // Client data-centric mapping wants the consumed variable, but only
    // for sequentially coupled consumers — bundle members are mapped
    // server-side from the communication graph.
    const bool in_bundle = std::find(bundled.begin(), bundled.end(),
                                     app.app_id) != bundled.end();
    const std::string consumes_var =
        (!app.consumes.empty() && !in_bundle) ? app.consumes[0] : "";
    server.register_app(std::move(as), fn, consumes_var);
  }

  TraceRecorder trace;
  TransferLog journal(kJournalCapacity);
  FaultInjector injector(spec.fault);

  WorkflowOptions wf;
  wf.seed = spec.seed;
  wf.trace = &trace;
  wf.exec_mode = options.mode;
  wf.exec_pool_size = options.exec_pool_size;
  wf.transfer_log = &journal;
  if (spec.faulty) {
    wf.fault = &injector;
    // Transient loss rates up to 5% per op: give retries headroom so a
    // generated scenario never dies on bad luck the oracle can't score.
    wf.retry.max_retries = 50;
    // Surviving ranks block on a crashed peer for the full op timeout in
    // live exec modes (real time), so this bounds wall-clock per crash.
    wf.retry.op_timeout = std::chrono::seconds(2);
  }
  wf.health.speculation = spec.speculation;

  server.run(spec.dag(), wf);

  EnactResult out;
  out.spans = trace.snapshot();
  out.chrome_json = to_chrome_trace(out.spans);
  out.analysis = analyze_trace(out.spans);
  out.reports = server.wave_reports();
  for (const GenApp& app : spec.apps) {
    out.inter[app.app_id] = metrics.counters(app.app_id,
                                             TrafficClass::kInterApp);
    out.intra[app.app_id] = metrics.counters(app.app_id,
                                             TrafficClass::kIntraApp);
    out.control[app.app_id] = metrics.counters(app.app_id,
                                               TrafficClass::kControl);
    if (!server.placement(app.app_id).all().empty()) {
      out.placements[app.app_id] = server.placement(app.app_id);
    }
  }
  // App 0 is the engine itself: heartbeats, runtime-internal exchanges and
  // other control traffic recorded outside any registered app.
  out.inter[0] = metrics.counters(0, TrafficClass::kInterApp);
  out.intra[0] = metrics.counters(0, TrafficClass::kIntraApp);
  out.control[0] = metrics.counters(0, TrafficClass::kControl);
  out.total_inter = metrics.total(TrafficClass::kInterApp);
  out.total_intra = metrics.total(TrafficClass::kIntraApp);
  out.total_control = metrics.total(TrafficClass::kControl);
  out.stored_bytes = server.space().stored_bytes();
  out.mismatches = mismatches->load();
  for (const auto& [id, rows] : moments) out.moments[id] = *rows;
  for (const auto& [id, rows] : histograms) out.histograms[id] = *rows;
  out.journal = journal.snapshot();
  out.journal_dropped = journal.dropped();
  const auto dead = injector.dead_nodes();
  out.dead_nodes.assign(dead.begin(), dead.end());
  out.heartbeats = metrics.count(0, "health.heartbeats");
  out.heartbeats_dropped = metrics.count(0, "health.heartbeats_dropped");
  return out;
}

namespace {

std::string counters_diff(const char* what,
                          const std::map<i32, ByteCounters>& a,
                          const std::map<i32, ByteCounters>& b) {
  std::ostringstream os;
  if (a.size() != b.size()) {
    os << what << ": app sets differ";
    return os.str();
  }
  for (auto ia = a.begin(), ib = b.begin(); ia != a.end(); ++ia, ++ib) {
    if (ia->first != ib->first) {
      os << what << ": app sets differ";
      return os.str();
    }
    const ByteCounters& x = ia->second;
    const ByteCounters& y = ib->second;
    if (x.shm_bytes != y.shm_bytes || x.net_bytes != y.net_bytes ||
        x.transfers != y.transfers) {
      os << what << " app " << ia->first << ": (" << x.shm_bytes << ","
         << x.net_bytes << "," << x.transfers << ") vs (" << y.shm_bytes
         << "," << y.net_bytes << "," << y.transfers << ")";
      return os.str();
    }
  }
  return "";
}

using JournalKey =
    std::tuple<i32, i32, i32, i32, i32, i32, u64, bool, double>;

JournalKey journal_key(const TransferRecord& r) {
  return {static_cast<i32>(r.cls), r.app_id,   r.src.node, r.src.core,
          r.dst.node,              r.dst.core, r.bytes,    r.via_network,
          r.model_time};
}

}  // namespace

std::string diff_runs(const EnactResult& a, const EnactResult& b) {
  std::ostringstream os;
  if (a.mismatches != b.mismatches) {
    os << "pattern mismatches: " << a.mismatches << " vs " << b.mismatches;
    return os.str();
  }
  if (a.chrome_json != b.chrome_json) {
    return "chrome trace JSON differs (virtual timeline diverged)";
  }
  if (a.reports.size() != b.reports.size()) {
    os << "wave count: " << a.reports.size() << " vs " << b.reports.size();
    return os.str();
  }
  for (size_t w = 0; w < a.reports.size(); ++w) {
    const WaveReport& p = a.reports[w];
    const WaveReport& q = b.reports[w];
    const bool same =
        p.apps == q.apps && p.strategy == q.strategy &&
        p.used_server_mapping == q.used_server_mapping &&
        p.used_client_mapping == q.used_client_mapping &&
        p.comm_graph_cut_bytes == q.comm_graph_cut_bytes &&
        p.attempts == q.attempts && p.failed_nodes == q.failed_nodes &&
        p.failed_tasks == q.failed_tasks &&
        p.reexecuted_tasks == q.reexecuted_tasks &&
        p.recovered_bytes == q.recovered_bytes &&
        p.detection_rounds == q.detection_rounds &&
        p.detection_latency == q.detection_latency &&
        p.straggler_tasks == q.straggler_tasks &&
        p.speculated_tasks == q.speculated_tasks &&
        p.speculation_wins == q.speculation_wins;
    if (!same) {
      os << "WaveReport " << w << " differs";
      return os.str();
    }
  }
  for (const std::string& diff :
       {counters_diff("inter-app bytes", a.inter, b.inter),
        counters_diff("intra-app bytes", a.intra, b.intra),
        counters_diff("control bytes", a.control, b.control)}) {
    if (!diff.empty()) return diff;
  }
  if (a.total_inter != b.total_inter || a.total_intra != b.total_intra ||
      a.total_control != b.total_control) {
    return "all-app metrics totals differ";
  }
  if (a.stored_bytes != b.stored_bytes) {
    os << "stored bytes: " << a.stored_bytes << " vs " << b.stored_bytes;
    return os.str();
  }
  if (a.moments.size() != b.moments.size() ||
      !std::equal(a.moments.begin(), a.moments.end(), b.moments.begin(),
                  [](const auto& x, const auto& y) {
                    return x.first == y.first &&
                           std::equal(x.second.begin(), x.second.end(),
                                      y.second.begin(), y.second.end(),
                                      [](const Moments& m, const Moments& n) {
                                        return m.min == n.min &&
                                               m.max == n.max &&
                                               m.mean == n.mean;
                                      });
                  })) {
    return "moments rows differ";
  }
  if (a.histograms != b.histograms) return "histogram rows differ";
  if (a.placements.size() != b.placements.size() ||
      !std::equal(a.placements.begin(), a.placements.end(),
                  b.placements.begin(), [](const auto& x, const auto& y) {
                    return x.first == y.first &&
                           x.second.all() == y.second.all();
                  })) {
    return "final placements differ";
  }
  if (a.dead_nodes != b.dead_nodes) return "dead node sets differ";
  // Critical-path decomposition, field by field — a divergence here with
  // identical JSON would mean analyze_trace itself is unstable.
  const TraceAnalysis& pa = a.analysis;
  const TraceAnalysis& qa = b.analysis;
  if (pa.total_time != qa.total_time ||
      pa.critical_length != qa.critical_length ||
      pa.critical_path != qa.critical_path ||
      pa.shm_bytes != qa.shm_bytes || pa.net_bytes != qa.net_bytes ||
      pa.ledger_spans != qa.ledger_spans ||
      pa.waves.size() != qa.waves.size()) {
    return "critical-path analysis differs";
  }
  for (size_t w = 0; w < pa.waves.size(); ++w) {
    const WaveBreakdown& p = pa.waves[w];
    const WaveBreakdown& q = qa.waves[w];
    const bool same =
        p.duration == q.duration && p.critical_task == q.critical_task &&
        p.time.compute == q.time.compute && p.time.shm == q.time.shm &&
        p.time.net == q.time.net && p.time.lock_wait == q.time.lock_wait &&
        p.time.redistribute == q.time.redistribute &&
        p.time.control == q.time.control &&
        p.critical_time.total() == q.critical_time.total();
    if (!same) {
      os << "wave " << w << " phase decomposition differs";
      return os.str();
    }
  }
  // Journals as multisets: record order depends on thread scheduling in
  // the live modes, the contents must not.
  if (a.journal_dropped != 0 || b.journal_dropped != 0) {
    return "journal overflowed (raise kJournalCapacity in wfgen/enact.cpp)";
  }
  std::vector<JournalKey> ja;
  std::vector<JournalKey> jb;
  ja.reserve(a.journal.size());
  jb.reserve(b.journal.size());
  for (const TransferRecord& r : a.journal) ja.push_back(journal_key(r));
  for (const TransferRecord& r : b.journal) jb.push_back(journal_key(r));
  std::sort(ja.begin(), ja.end());
  std::sort(jb.begin(), jb.end());
  if (ja != jb) return "transfer journals differ as multisets";
  return "";
}

}  // namespace wfgen
}  // namespace cods
