#include "trace/critical_path.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "common/types.hpp"

namespace cods {

CategorySeconds& CategorySeconds::operator+=(const CategorySeconds& o) {
  compute += o.compute;
  shm += o.shm;
  net += o.net;
  lock_wait += o.lock_wait;
  redistribute += o.redistribute;
  control += o.control;
  return *this;
}

namespace {

bool is_ledger(const TraceSpan& s) {
  return (s.flags & TraceFlags::kLedger) != 0;
}
bool is_sequential(const TraceSpan& s) {
  return (s.flags & TraceFlags::kSequential) != 0;
}

}  // namespace

SpanIndex::SpanIndex(const std::vector<TraceSpan>& spans)
    : spans_(spans.data()), parent_(spans.size()) {
  const auto by_id = [](const TraceSpan& a, const TraceSpan& b) {
    return a.id < b.id;
  };
  if (!std::is_sorted(spans.begin(), spans.end(), by_id)) {
    sorted_ = spans;
    std::stable_sort(sorted_.begin(), sorted_.end(), by_id);
    spans_ = sorted_.data();
  }
  const size_t n = spans.size();
  if (n >= kNone) throw Error("SpanIndex: more spans than u32 positions");

  // A track's ids are consecutive seqs, so a parent on the child's track
  // usually sits exactly (child id - parent id) positions back. Parents
  // on another track (a rank track's roots under their wave) repeat run
  // after run, so one memo catches most; the rest are binary-searched.
  u64 memo_id = 0;
  u32 memo_pos = kNone;
  bool memo_valid = false;
  child_begin_.assign(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    const u64 id = spans_[i].parent;
    u32 p = kNone;
    const u64 back = spans_[i].id - id;
    if (id < spans_[i].id && back <= i && spans_[i - back].id == id &&
        (back == i || spans_[i - back - 1].id != id)) {
      p = static_cast<u32>(i - back);
    } else if (memo_valid && id == memo_id) {
      p = memo_pos;
    } else {
      const TraceSpan* first = std::lower_bound(
          spans_, spans_ + n, id,
          [](const TraceSpan& s, u64 key) { return s.id < key; });
      if (first != spans_ + n && first->id == id) {
        p = static_cast<u32>(first - spans_);
      }
      memo_id = id;
      memo_pos = p;
      memo_valid = true;
    }
    parent_[i] = p;
    if (p != kNone) ++child_begin_[p];
  }
  // Counts become range ends; filling from the last child down moves each
  // end back to its range's start and leaves every list ascending.
  for (size_t i = 1; i < n; ++i) child_begin_[i] += child_begin_[i - 1];
  if (n != 0) child_begin_[n] = child_begin_[n - 1];
  child_.resize(child_begin_[n]);
  for (size_t i = n; i-- > 0;) {
    if (parent_[i] != kNone) {
      child_[--child_begin_[parent_[i]]] = static_cast<u32>(i);
    }
  }
}

namespace {

/// Self time of a container: duration minus the durations of its
/// sequential direct children (overlay leaves share the interval and are
/// excluded). Clamped at 0 against floating-point residue.
double self_time(const SpanIndex& idx, size_t i) {
  double child_sum = 0.0;
  for (const u32 c : idx.children(i)) {
    if (is_sequential(idx[c])) child_sum += idx[c].duration;
  }
  return std::max(0.0, idx[i].duration - child_sum);
}

using Category = double CategorySeconds::*;

/// Attributes one span's self time per the rules documented in the
/// header, passing each (category, seconds) share to `add`.
template <typename Add>
void attribute(const SpanIndex& idx, size_t i, Add&& add) {
  const TraceSpan& s = idx[i];
  if (is_ledger(s)) {
    if (!is_sequential(s)) return;  // overlay: covered by the pull self
    add(s.cat == SpanCategory::kTransferNet ? &CategorySeconds::net
                                            : &CategorySeconds::shm,
        s.duration);
    return;
  }
  const double self = self_time(idx, i);
  switch (s.cat) {
    case SpanCategory::kWave:
    case SpanCategory::kTask:
      add(&CategorySeconds::compute, self);
      return;
    case SpanCategory::kLockWait:
      add(&CategorySeconds::lock_wait, self);
      return;
    case SpanCategory::kRedistribute:
      add(&CategorySeconds::redistribute, self);
      return;
    case SpanCategory::kPull: {
      // Split the batch interval by the transport mix of its overlay ops.
      u64 shm_bytes = 0;
      u64 net_bytes = 0;
      for (const u32 c : idx.children(i)) {
        const TraceSpan& child = idx[c];
        if (!is_ledger(child) || is_sequential(child)) continue;
        (child.cat == SpanCategory::kTransferNet ? net_bytes : shm_bytes) +=
            child.bytes;
      }
      const u64 total = shm_bytes + net_bytes;
      if (total == 0) {
        add(&CategorySeconds::control, self);
      } else {
        const double net_frac =
            static_cast<double>(net_bytes) / static_cast<double>(total);
        add(&CategorySeconds::net, self * net_frac);
        add(&CategorySeconds::shm, self * (1.0 - net_frac));
      }
      return;
    }
    default:  // kGet / kPut / kRpc / kCollective / kRecv shells
      add(&CategorySeconds::control, self);
      return;
  }
}

/// Adds a ledger span's bytes to its app's row of a wave (rows ascending
/// by app id).
void add_wave_bytes(const TraceSpan& s, std::vector<WaveAppBytes>& apps) {
  if (!is_ledger(s)) return;
  auto it = std::lower_bound(
      apps.begin(), apps.end(), s.app_id,
      [](const WaveAppBytes& b, i32 app) { return b.app_id < app; });
  if (it == apps.end() || it->app_id != s.app_id) {
    it = apps.insert(it, WaveAppBytes{});
    it->app_id = s.app_id;
  }
  ++it->transfers;
  const bool net = s.cat == SpanCategory::kTransferNet;
  if (s.cls == TrafficClass::kInterApp) {
    (net ? it->inter_net : it->inter_shm) += s.bytes;
  } else if (s.cls == TrafficClass::kIntraApp) {
    (net ? it->intra_net : it->intra_shm) += s.bytes;
  }
}

/// Depth-first walk of a subtree (last child first), calling `visit` on
/// each span; `stack` is scratch reused across walks.
template <typename Visit>
void walk_subtree(const SpanIndex& idx, size_t root, std::vector<u32>& stack,
                  Visit&& visit) {
  stack.assign(1, static_cast<u32>(root));
  while (!stack.empty()) {
    const u32 i = stack.back();
    stack.pop_back();
    visit(i);
    const std::span<const u32> children = idx.children(i);
    stack.insert(stack.end(), children.begin(), children.end());
  }
}

}  // namespace

TraceAnalysis analyze_trace(const std::vector<TraceSpan>& spans) {
  const SpanIndex idx(spans);
  TraceAnalysis out;
  std::vector<u32> stack;

  // Waves, in server program order (id order on the server track).
  for (size_t i = 0; i < idx.size(); ++i) {
    const TraceSpan& s = idx[i];
    if (is_ledger(s)) {
      ++out.ledger_spans;
      (s.cat == SpanCategory::kTransferNet ? out.net_bytes : out.shm_bytes) +=
          s.bytes;
    }
    if (s.cat != SpanCategory::kWave) continue;
    WaveBreakdown wave;
    wave.span_id = s.id;
    wave.wave_index = s.detail;
    wave.begin = s.begin;
    wave.duration = s.duration;
    out.total_time += s.duration;

    // Critical task: the last-ending direct task child (smallest id wins
    // ties, so the choice is deterministic).
    const std::span<const u32> children = idx.children(i);
    u32 critical = SpanIndex::kNone;
    for (const u32 c : children) {
      if (idx[c].cat != SpanCategory::kTask) continue;
      if (critical == SpanIndex::kNone || idx[c].end() > idx[critical].end()) {
        critical = c;
      }
    }
    CategorySeconds wave_self;
    attribute(idx, i, [&wave_self](Category cat, double seconds) {
      wave_self.*cat += seconds;
    });
    wave.critical_time = wave_self;

    // One walk per direct child: a task's subtree is attributed into the
    // wave's serialized time (and, for the critical task, into its chain),
    // and every subtree's ledger bytes go to their app's row.
    add_wave_bytes(s, wave.apps);
    for (const u32 c : children) {
      if (idx[c].cat != SpanCategory::kTask) {
        walk_subtree(idx, c, stack,
                     [&](u32 v) { add_wave_bytes(idx[v], wave.apps); });
        continue;
      }
      const bool on_path = c == critical;
      walk_subtree(idx, c, stack, [&](u32 v) {
        attribute(idx, v, [&](Category cat, double seconds) {
          wave.time.*cat += seconds;
          if (on_path) wave.critical_time.*cat += seconds;
        });
        add_wave_bytes(idx[v], wave.apps);
      });
    }
    wave.time += wave_self;

    out.critical_path.push_back(s.id);
    if (critical != SpanIndex::kNone) {
      wave.critical_task = idx[critical].id;
      out.critical_path.push_back(wave.critical_task);
      out.critical_length += idx[critical].end() - s.begin;
    }
    out.critical += wave.critical_time;
    out.waves.push_back(std::move(wave));
  }
  return out;
}

namespace {

void print_categories(std::ostream& os, const CategorySeconds& t) {
  os << "compute " << format_seconds(t.compute) << ", shm "
     << format_seconds(t.shm) << ", net " << format_seconds(t.net) << ", lock "
     << format_seconds(t.lock_wait) << ", redist "
     << format_seconds(t.redistribute) << ", control "
     << format_seconds(t.control);
}

}  // namespace

std::string TraceAnalysis::report() const {
  std::ostringstream os;
  os << "trace analysis: " << waves.size() << " wave(s), total "
     << format_seconds(total_time) << ", ledger " << ledger_spans
     << " transfer(s), " << format_bytes(shm_bytes) << " shm / "
     << format_bytes(net_bytes) << " net\n";
  for (const WaveBreakdown& w : waves) {
    os << "wave " << w.wave_index << ": " << format_seconds(w.duration)
       << "  [";
    print_categories(os, w.time);
    os << "]\n";
    for (const WaveAppBytes& a : w.apps) {
      os << "  app " << a.app_id << ": inter "
         << format_bytes(a.inter_shm) << " shm / "
         << format_bytes(a.inter_net) << " net, intra "
         << format_bytes(a.intra_shm) << " shm / "
         << format_bytes(a.intra_net) << " net (" << a.transfers
         << " transfers)\n";
    }
  }
  os << "critical path: " << format_seconds(critical_length) << "  [";
  print_categories(os, critical);
  os << "]\n";
  return os.str();
}

namespace {

/// One ledger span or journal record as a multiset key, ordered
/// lexicographically by (app, class, network?, bytes, modelled time).
struct LedgerEntry {
  i32 app;
  int cls;
  bool net;
  u64 bytes;
  double time;

  bool operator==(const LedgerEntry&) const = default;
  bool operator<(const LedgerEntry& o) const {
    if (app != o.app) return app < o.app;
    if (cls != o.cls) return cls < o.cls;
    if (net != o.net) return net < o.net;
    if (bytes != o.bytes) return bytes < o.bytes;
    return time < o.time;
  }
};

std::vector<LedgerEntry> sorted_ledger(const std::vector<TraceSpan>& spans) {
  std::vector<LedgerEntry> out;
  for (const TraceSpan& s : spans) {
    if (!is_ledger(s)) continue;
    out.push_back({s.app_id, static_cast<int>(s.cls),
                   s.cat == SpanCategory::kTransferNet, s.bytes, s.duration});
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<LedgerEntry> sorted_journal(
    const std::vector<TransferRecord>& log) {
  std::vector<LedgerEntry> out;
  out.reserve(log.size());
  for (const TransferRecord& r : log) {
    out.push_back({r.app_id, static_cast<int>(r.cls), r.via_network, r.bytes,
                   r.model_time});
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string describe(const LedgerEntry& e) {
  std::ostringstream os;
  os << "(app=" << e.app << ",cls=" << e.cls << ",net=" << e.net
     << ",bytes=" << e.bytes << ",t=" << e.time << ")";
  return os.str();
}

}  // namespace

std::string reconcile_with_transfer_log(
    const std::vector<TraceSpan>& spans,
    const std::vector<TransferRecord>& log) {
  const std::vector<LedgerEntry> from_spans = sorted_ledger(spans);
  const std::vector<LedgerEntry> from_log = sorted_journal(log);
  if (from_spans == from_log) return "";
  std::ostringstream os;
  os << "trace ledger does not reconcile with the transfer log: "
     << from_spans.size() << " ledger span(s) vs " << from_log.size()
     << " journal record(s); first divergence at #";
  const auto [span_it, log_it] = std::mismatch(
      from_spans.begin(), from_spans.end(), from_log.begin(), from_log.end());
  // Every entry before the mismatch is matched. There, the smaller side's
  // entry is below everything left on the other side, so nothing matches
  // it; past the end of one side, the other side's entry is unmatched.
  os << span_it - from_spans.begin() << ": ";
  if (log_it != from_log.end() &&
      (span_it == from_spans.end() || *log_it < *span_it)) {
    os << "log" << describe(*log_it) << " has no ledger span";
  } else {
    os << "span" << describe(*span_it) << " has no journal record";
  }
  return os.str();
}

u64 unjournaled_ledger_spans(const std::vector<TraceSpan>& spans,
                             const std::vector<TransferRecord>& log) {
  const std::vector<LedgerEntry> from_spans = sorted_ledger(spans);
  const std::vector<LedgerEntry> from_log = sorted_journal(log);
  // Sorted merge: a ledger entry is matched by an equal journal entry not
  // yet consumed; smaller journal entries have no ledger counterpart.
  u64 unmatched = 0;
  size_t j = 0;
  for (const LedgerEntry& e : from_spans) {
    while (j < from_log.size() && from_log[j] < e) ++j;
    if (j < from_log.size() && from_log[j] == e) {
      ++j;
    } else {
      ++unmatched;
    }
  }
  return unmatched;
}

}  // namespace cods
