// Critical-path and phase-breakdown analysis over a recorded span stream
// (docs/TRACING.md). Waves execute sequentially on the server track; the
// critical path of a run is, per wave, the task whose subtree ends last.
// Self-times (a span's duration minus its sequential children) are
// attributed to categories — compute, shm transfer, net transfer, lock
// wait, redistribute, control — regenerating the paper's Fig. 14/15
// phase decomposition per wave and per app directly from spans, and the
// byte totals of the ledger leaves reconcile exactly against the
// TransferLog journal.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "platform/transfer_log.hpp"
#include "trace/trace.hpp"

namespace cods {

/// A span stream in id order, each span's parent position, and each
/// span's children as CSR lists (one offsets array, one flat array of
/// positions). The analyzer and the wfgen clock oracle walk the span tree
/// through it instead of through per-id maps.
///
/// Input already in id order — every TraceRecorder::snapshot() result —
/// is borrowed, so it must outlive the index; other input is copied and
/// stable-sorted, so spans that share an id keep their input order. A
/// parent id resolves to the first span carrying it, and spans that share
/// an id share one child list: every span whose parent is that id.
/// Children are listed in ascending position, the order in which they
/// appear in the id-sorted stream.
class SpanIndex {
 public:
  static constexpr u32 kNone = ~u32{0};  ///< no span has the parent id

  explicit SpanIndex(const std::vector<TraceSpan>& spans);
  SpanIndex(const SpanIndex&) = delete;
  SpanIndex& operator=(const SpanIndex&) = delete;

  size_t size() const { return parent_.size(); }
  const TraceSpan& operator[](size_t i) const { return spans_[i]; }

  /// Position of the first span whose id is span i's parent id, or kNone.
  u32 parent(size_t i) const { return parent_[i]; }

  /// Positions of the spans whose parent id is span i's id, ascending.
  std::span<const u32> children(size_t i) const {
    while (i > 0 && spans_[i - 1].id == spans_[i].id) --i;  // shared id
    return {child_.data() + child_begin_[i],
            child_.data() + child_begin_[i + 1]};
  }

 private:
  std::vector<TraceSpan> sorted_;  ///< empty when the input is borrowed
  const TraceSpan* spans_;
  std::vector<u32> parent_;
  /// child_[child_begin_[i], child_begin_[i + 1]) are the children of the
  /// first span of an id; later spans of that id have empty ranges.
  std::vector<u32> child_begin_;
  std::vector<u32> child_;
};

/// Modelled seconds attributed per category (see attribution rules in
/// analyze_trace).
struct CategorySeconds {
  double compute = 0.0;      ///< task/wave self time
  double shm = 0.0;          ///< shared-memory transfer time
  double net = 0.0;          ///< network transfer time
  double lock_wait = 0.0;    ///< LockService acquisition self time
  double redistribute = 0.0; ///< M x N redistribution self time
  double control = 0.0;      ///< RPCs, collectives, retry backoff

  double total() const {
    return compute + shm + net + lock_wait + redistribute + control;
  }
  CategorySeconds& operator+=(const CategorySeconds& o);
};

/// Byte totals of one app within one wave, from the ledger leaves.
struct WaveAppBytes {
  i32 app_id = 0;
  u64 inter_shm = 0;
  u64 inter_net = 0;
  u64 intra_shm = 0;
  u64 intra_net = 0;
  u64 transfers = 0;  ///< ledger leaf count
};

/// One wave's phase decomposition.
struct WaveBreakdown {
  u64 span_id = 0;
  u32 wave_index = 0;  ///< TraceSpan::detail of the wave span
  double begin = 0.0;
  double duration = 0.0;
  u64 critical_task = 0;          ///< span id of the last-ending task
  CategorySeconds time;           ///< summed over every task (serialized)
  CategorySeconds critical_time;  ///< critical task's subtree only
  std::vector<WaveAppBytes> apps;
};

struct TraceAnalysis {
  double total_time = 0.0;        ///< sum of wave durations
  double critical_length = 0.0;   ///< sum of critical-task chain lengths
  std::vector<u64> critical_path; ///< wave span id, its critical task, ...
  CategorySeconds critical;       ///< attribution along the critical path
  std::vector<WaveBreakdown> waves;
  u64 shm_bytes = 0;  ///< ledger leaf totals (== TransferLog totals)
  u64 net_bytes = 0;
  u64 ledger_spans = 0;

  std::string report() const;  ///< human-readable summary
};

/// Walks the span stream (any order) through the wave DAG on a SpanIndex.
///
/// Attribution rules: sequential ledger leaves count as shm/net transfer
/// time; overlay leaves (per-op members of a pull batch) are skipped and
/// their batch container's self time is split shm/net proportionally to
/// overlay bytes instead; lock-wait and redistribute containers
/// attribute their self time to their own category; task and wave self
/// time is compute; everything else (RPCs, collectives, get/put shells,
/// retry backoff) is control.
TraceAnalysis analyze_trace(const std::vector<TraceSpan>& spans);

/// Exact cross-check of the span ledger against the TransferLog journal:
/// the multiset of (app, class, transport, bytes, modelled time) over
/// kLedger spans must equal the journal's records. Returns "" on an
/// exact match, else a diagnostic naming the first entry, in sorted
/// order, that the other side does not match.
std::string reconcile_with_transfer_log(
    const std::vector<TraceSpan>& spans,
    const std::vector<TransferRecord>& log);

/// The kLedger spans that no journal record matches, counted with
/// multiplicity over the same multiset key: 0 exactly when the ledger is
/// a sub-multiset of the journal (a speculative run journals straggler
/// copies that it never traces).
u64 unjournaled_ledger_spans(const std::vector<TraceSpan>& spans,
                             const std::vector<TransferRecord>& log);

}  // namespace cods
