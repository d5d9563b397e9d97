#include "wfgen/oracle.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "common/flat_table.hpp"
#include "trace/critical_path.hpp"
#include "trace/trace.hpp"

namespace cods {
namespace wfgen {

std::string OracleReport::to_string() const {
  std::ostringstream os;
  for (size_t i = 0; i < violations.size(); ++i) {
    os << (i != 0 ? "\n" : "") << violations[i];
  }
  return os.str();
}

namespace {

void check_outputs(const ScenarioSpec& spec, const EnactResult& run,
                   OracleReport& report) {
  if (run.mismatches != 0) {
    report.violations.push_back(
        "outputs: " + std::to_string(run.mismatches) +
        " pattern-verification mismatches (data corruption)");
  }
  const u64 expected = spec.expected_stored_bytes();
  if (run.stored_bytes != expected) {
    report.violations.push_back(
        "stored bytes: space holds " + std::to_string(run.stored_bytes) +
        ", spec implies " + std::to_string(expected));
  }
}

/// Byte conservation: the span ledger, the transfer journal, the metrics
/// registry and the trace analysis must all describe the same bytes.
void check_byte_conservation(const EnactResult& run, OracleReport& report) {
  if (run.journal_dropped != 0) {
    report.violations.push_back(
        "journal: dropped " + std::to_string(run.journal_dropped) +
        " records (capacity too small for exact reconciliation)");
    return;
  }
  // Speculative straggler copies journal and meter their transfers but run
  // without a trace context (engine.cpp mitigate_stragglers), so with
  // speculation the ledger is a strict sub-multiset of the journal; without
  // it the two reconcile exactly.
  i32 speculated = 0;
  for (const WaveReport& wave : run.reports) {
    speculated += wave.speculated_tasks;
  }
  if (speculated == 0) {
    const std::string diff =
        reconcile_with_transfer_log(run.spans, run.journal);
    if (!diff.empty()) {
      report.violations.push_back("ledger != journal: " + diff);
    }
  } else {
    const u64 unmatched = unjournaled_ledger_spans(run.spans, run.journal);
    if (unmatched != 0) {
      report.violations.push_back(
          "ledger != journal: " + std::to_string(unmatched) +
          " ledger span(s) have no matching journal record (speculative "
          "run: ledger must be a sub-multiset of the journal)");
    }
  }

  u64 journal_shm = 0;
  u64 journal_net = 0;
  ByteCounters journal_cls[3];
  for (const TransferRecord& r : run.journal) {
    (r.via_network ? journal_net : journal_shm) += r.bytes;
    ByteCounters& c = journal_cls[static_cast<size_t>(r.cls)];
    (r.via_network ? c.net_bytes : c.shm_bytes) += r.bytes;
    ++c.transfers;
  }
  // The analysis is derived from the span ledger, so it matches the
  // journal exactly — or lower-bounds it when speculation ran untraced.
  const bool analysis_ok =
      speculated == 0
          ? (journal_shm == run.analysis.shm_bytes &&
             journal_net == run.analysis.net_bytes)
          : (journal_shm >= run.analysis.shm_bytes &&
             journal_net >= run.analysis.net_bytes);
  if (!analysis_ok) {
    report.violations.push_back(
        "journal totals (" + std::to_string(journal_shm) + " shm, " +
        std::to_string(journal_net) + " net) vs analysis totals (" +
        std::to_string(run.analysis.shm_bytes) + " shm, " +
        std::to_string(run.analysis.net_bytes) + " net) " +
        (speculated == 0 ? "must match on a non-speculative run"
                         : "journal may not undershoot the ledger"));
  }

  // Payload classes reconcile exactly against the metrics registry;
  // kControl is metrics >= journal, because control-plane RPC bytes are
  // metered but deliberately not journaled (dart.cpp, docs/TRACING.md).
  const auto cls_total = [&journal_cls](TrafficClass cls) -> ByteCounters& {
    return journal_cls[static_cast<size_t>(cls)];
  };
  for (const auto& [name, metrics_c, journal_c] :
       {std::tuple<const char*, ByteCounters, ByteCounters>{
            "inter-app", run.total_inter, cls_total(TrafficClass::kInterApp)},
        std::tuple<const char*, ByteCounters, ByteCounters>{
            "intra-app", run.total_intra,
            cls_total(TrafficClass::kIntraApp)}}) {
    if (metrics_c.shm_bytes != journal_c.shm_bytes ||
        metrics_c.net_bytes != journal_c.net_bytes) {
      report.violations.push_back(
          std::string(name) + " metrics (" +
          std::to_string(metrics_c.shm_bytes) + " shm, " +
          std::to_string(metrics_c.net_bytes) + " net) != journal (" +
          std::to_string(journal_c.shm_bytes) + " shm, " +
          std::to_string(journal_c.net_bytes) + " net)");
    }
  }
  const ByteCounters& jc = cls_total(TrafficClass::kControl);
  if (run.total_control.shm_bytes < jc.shm_bytes ||
      run.total_control.net_bytes < jc.net_bytes) {
    report.violations.push_back(
        "control metrics (" + std::to_string(run.total_control.shm_bytes) +
        " shm, " + std::to_string(run.total_control.net_bytes) +
        " net) below journaled control traffic (" +
        std::to_string(jc.shm_bytes) + " shm, " +
        std::to_string(jc.net_bytes) + " net)");
  }
}

/// Schedule validity: every task of every app mapped exactly once, the
/// merged per-wave placement respects cores and capacity, and no task's
/// final home is a node that had been declared dead by its wave.
void check_schedule(const ScenarioSpec& spec, const EnactResult& run,
                    OracleReport& report) {
  Cluster cluster(spec.cluster);
  std::map<i32, const GenApp*> by_id;
  for (const GenApp& app : spec.apps) by_id[app.app_id] = &app;

  for (const auto& [app_id, placement] : run.placements) {
    const auto it = by_id.find(app_id);
    if (it == by_id.end()) continue;
    if (static_cast<i32>(placement.all().size()) != it->second->ntasks()) {
      report.violations.push_back(
          "schedule: app " + std::to_string(app_id) + " has " +
          std::to_string(placement.all().size()) + " placed tasks, spec " +
          std::to_string(it->second->ntasks()));
    }
  }

  std::set<i32> dead;
  for (size_t w = 0; w < run.reports.size(); ++w) {
    const WaveReport& wave = run.reports[w];
    for (const i32 node : wave.failed_nodes) dead.insert(node);
    Placement merged;
    for (const i32 app_id : wave.apps) {
      const auto it = run.placements.find(app_id);
      if (it == run.placements.end()) {
        report.violations.push_back("schedule: wave " + std::to_string(w) +
                                    " app " + std::to_string(app_id) +
                                    " has no recorded placement");
        continue;
      }
      for (const auto& [task, loc] : it->second.all()) {
        merged.assign(task, loc);
        if (dead.count(loc.node) != 0) {
          report.violations.push_back(
              "schedule: wave " + std::to_string(w) + " task app=" +
              std::to_string(task.app_id) + " rank=" +
              std::to_string(task.rank) + " finally placed on node " +
              std::to_string(loc.node) + " which was dead by this wave");
        }
      }
    }
    if (!merged.valid(cluster)) {
      report.violations.push_back(
          "schedule: wave " + std::to_string(w) +
          " merged placement is invalid (double-booked core or node over "
          "capacity)");
    }
  }
}

/// Virtual-clock sanity: spans well-formed, sequential spans
/// track-monotone, and no child beginning before its parent.
void check_clock(const EnactResult& run, OracleReport& report) {
  const auto well_formed = [](const TraceSpan& span) {
    return !(span.begin < 0.0 || span.duration < 0.0) &&
           !((span.flags & TraceFlags::kInstant) != 0 && span.duration != 0.0);
  };
  // Per track, in stream order, a sequential span may not begin before
  // the track's previous sequential span. A snapshot is in id order ==
  // (track << kSeqBits) | seq, so a track's spans are consecutive and the
  // table is consulted once per track.
  struct TrackHash {
    u64 operator()(u64 track) const { return mix64(track); }
  };
  FlatTable<u64, double, TrackHash> track_begin;
  u64 track = 0;
  double* last_begin = nullptr;  ///< track_begin's entry for `track`
  size_t clock_violations = 0;
  for (const TraceSpan& span : run.spans) {
    if (!well_formed(span)) {
      ++clock_violations;
      continue;
    }
    if ((span.flags & TraceFlags::kSequential) == 0) continue;
    const u64 span_track = span.id >> TraceRecorder::kSeqBits;
    if (last_begin == nullptr || span_track != track) {
      track = span_track;
      const auto [entry, inserted] = track_begin.insert(track, span.begin);
      last_begin = entry;
      if (inserted) continue;
    }
    if (span.begin < *last_begin) ++clock_violations;
    *last_begin = span.begin;
  }

  // Parents on a foreign track can legitimately close before a child
  // recorded against them is drained; only flag a child that starts
  // before its parent did — time running backwards across the edge. Of
  // spans sharing the parent's id, the last in stream order is compared.
  const SpanIndex idx(run.spans);
  size_t nesting_violations = 0;
  for (size_t i = 0; i < idx.size(); ++i) {
    const TraceSpan& span = idx[i];
    u32 parent = idx.parent(i);
    if (span.parent == 0 || parent == SpanIndex::kNone || !well_formed(span)) {
      continue;
    }
    while (parent + 1 < idx.size() && idx[parent + 1].id == span.parent) {
      ++parent;
    }
    if (span.begin < idx[parent].begin) ++nesting_violations;
  }
  if (clock_violations != 0) {
    report.violations.push_back(
        "clock: " + std::to_string(clock_violations) +
        " spans violate per-track monotonicity/well-formedness");
  }
  if (nesting_violations != 0) {
    report.violations.push_back(
        "clock: " + std::to_string(nesting_violations) +
        " spans begin before their parent span");
  }
}

/// Fault accounting: clean runs must look clean; faulty runs may only
/// declare nodes dead that the overlay actually crashed.
void check_faults(const ScenarioSpec& spec, const EnactResult& run,
                  OracleReport& report) {
  std::set<i32> scheduled;
  if (spec.faulty) {
    for (const NodeCrash& crash : spec.fault.crashes) {
      scheduled.insert(crash.node);
    }
  }
  for (size_t w = 0; w < run.reports.size(); ++w) {
    const WaveReport& wave = run.reports[w];
    if (!spec.faulty) {
      if (wave.attempts != 1 || !wave.failed_nodes.empty() ||
          wave.failed_tasks != 0 || wave.reexecuted_tasks != 0 ||
          wave.recovered_bytes != 0) {
        report.violations.push_back(
            "faults: clean run reports recovery activity in wave " +
            std::to_string(w));
      }
      continue;
    }
    for (const i32 node : wave.failed_nodes) {
      if (scheduled.count(node) == 0) {
        report.violations.push_back(
            "faults: wave " + std::to_string(w) + " declared node " +
            std::to_string(node) + " dead, but no crash was scheduled "
            "for it (false positive)");
      }
    }
  }
  for (const i32 node : run.dead_nodes) {
    if (scheduled.count(node) == 0) {
      report.violations.push_back(
          "faults: injector reports node " + std::to_string(node) +
          " dead without a scheduled crash");
    }
  }
  if (run.heartbeats_dropped > run.heartbeats) {
    report.violations.push_back(
        "faults: more heartbeats dropped (" +
        std::to_string(run.heartbeats_dropped) + ") than sent (" +
        std::to_string(run.heartbeats) + ")");
  }
}

}  // namespace

OracleReport check_oracles(const ScenarioSpec& spec,
                           const EnactResult& run) {
  OracleReport report;
  check_outputs(spec, run, report);
  check_byte_conservation(run, report);
  check_schedule(spec, run, report);
  check_clock(run, report);
  check_faults(spec, run, report);
  return report;
}

}  // namespace wfgen
}  // namespace cods
