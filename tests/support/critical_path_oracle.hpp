// Map-based reference for analyze_trace (tests only).
//
// This is the analyzer as it stood before the SpanIndex: it copies and
// sorts every span, keeps child lists in an unordered_map keyed by parent
// id, and walks each wave three times (task subtrees, the critical task's
// subtree, the byte collection). The one change is std::stable_sort in
// place of std::sort, so spans that share an id keep their input order
// (std::sort leaves their order unspecified). It shares no code with the
// production index or walks, so field-for-field equality pins both.
#pragma once

#include <algorithm>
#include <map>
#include <unordered_map>
#include <vector>

#include "trace/critical_path.hpp"

namespace cods {
namespace testing {

namespace critical_path_reference {

inline bool is_ledger(const TraceSpan& s) {
  return (s.flags & TraceFlags::kLedger) != 0;
}
inline bool is_sequential(const TraceSpan& s) {
  return (s.flags & TraceFlags::kSequential) != 0;
}

struct Index {
  std::vector<TraceSpan> spans;                           // sorted by id
  std::unordered_map<u64, std::vector<size_t>> children;  // parent -> index

  explicit Index(const std::vector<TraceSpan>& in) : spans(in) {
    std::stable_sort(spans.begin(), spans.end(),
                     [](const TraceSpan& a, const TraceSpan& b) {
                       return a.id < b.id;
                     });
    for (size_t i = 0; i < spans.size(); ++i) {
      children[spans[i].parent].push_back(i);
    }
  }

  const std::vector<size_t>* kids(u64 id) const {
    const auto it = children.find(id);
    return it == children.end() ? nullptr : &it->second;
  }
};

inline double self_time(const Index& idx, size_t i) {
  const TraceSpan& s = idx.spans[i];
  double child_sum = 0.0;
  if (const auto* kids = idx.kids(s.id)) {
    for (size_t c : *kids) {
      if (is_sequential(idx.spans[c])) child_sum += idx.spans[c].duration;
    }
  }
  return std::max(0.0, s.duration - child_sum);
}

inline void attribute(const Index& idx, size_t i, CategorySeconds& out) {
  const TraceSpan& s = idx.spans[i];
  if (is_ledger(s)) {
    if (!is_sequential(s)) return;
    (s.cat == SpanCategory::kTransferNet ? out.net : out.shm) += s.duration;
    return;
  }
  const double self = self_time(idx, i);
  switch (s.cat) {
    case SpanCategory::kWave:
    case SpanCategory::kTask:
      out.compute += self;
      return;
    case SpanCategory::kLockWait:
      out.lock_wait += self;
      return;
    case SpanCategory::kRedistribute:
      out.redistribute += self;
      return;
    case SpanCategory::kPull: {
      u64 shm_bytes = 0;
      u64 net_bytes = 0;
      if (const auto* kids = idx.kids(s.id)) {
        for (size_t c : *kids) {
          const TraceSpan& child = idx.spans[c];
          if (!is_ledger(child) || is_sequential(child)) continue;
          (child.cat == SpanCategory::kTransferNet ? net_bytes : shm_bytes) +=
              child.bytes;
        }
      }
      const u64 total = shm_bytes + net_bytes;
      if (total == 0) {
        out.control += self;
      } else {
        const double net_frac =
            static_cast<double>(net_bytes) / static_cast<double>(total);
        out.net += self * net_frac;
        out.shm += self * (1.0 - net_frac);
      }
      return;
    }
    default:
      out.control += self;
      return;
  }
}

inline void attribute_subtree(const Index& idx, size_t root,
                              CategorySeconds& out) {
  std::vector<size_t> stack{root};
  while (!stack.empty()) {
    const size_t i = stack.back();
    stack.pop_back();
    attribute(idx, i, out);
    if (const auto* kids = idx.kids(idx.spans[i].id)) {
      for (size_t c : *kids) stack.push_back(c);
    }
  }
}

inline void collect_wave_bytes(const Index& idx, size_t wave_i,
                               WaveBreakdown& wave) {
  std::map<i32, WaveAppBytes> per_app;
  std::vector<size_t> stack{wave_i};
  while (!stack.empty()) {
    const size_t i = stack.back();
    stack.pop_back();
    const TraceSpan& s = idx.spans[i];
    if (is_ledger(s)) {
      WaveAppBytes& b = per_app[s.app_id];
      b.app_id = s.app_id;
      ++b.transfers;
      const bool net = s.cat == SpanCategory::kTransferNet;
      if (s.cls == TrafficClass::kInterApp) {
        (net ? b.inter_net : b.inter_shm) += s.bytes;
      } else if (s.cls == TrafficClass::kIntraApp) {
        (net ? b.intra_net : b.intra_shm) += s.bytes;
      }
    }
    if (const auto* kids = idx.kids(s.id)) {
      for (size_t c : *kids) stack.push_back(c);
    }
  }
  for (auto& [app, bytes] : per_app) wave.apps.push_back(bytes);
}

}  // namespace critical_path_reference

inline TraceAnalysis analyze_trace_map_reference(
    const std::vector<TraceSpan>& spans) {
  using namespace critical_path_reference;
  const Index idx(spans);
  TraceAnalysis out;
  for (const TraceSpan& s : idx.spans) {
    if (is_ledger(s)) {
      ++out.ledger_spans;
      (s.cat == SpanCategory::kTransferNet ? out.net_bytes : out.shm_bytes) +=
          s.bytes;
    }
  }
  for (size_t i = 0; i < idx.spans.size(); ++i) {
    const TraceSpan& s = idx.spans[i];
    if (s.cat != SpanCategory::kWave) continue;
    WaveBreakdown wave;
    wave.span_id = s.id;
    wave.wave_index = s.detail;
    wave.begin = s.begin;
    wave.duration = s.duration;
    out.total_time += s.duration;

    size_t critical = idx.spans.size();
    if (const auto* kids = idx.kids(s.id)) {
      for (size_t c : *kids) {
        if (idx.spans[c].cat != SpanCategory::kTask) continue;
        attribute_subtree(idx, c, wave.time);
        if (critical == idx.spans.size() ||
            idx.spans[c].end() > idx.spans[critical].end()) {
          critical = c;
        }
      }
    }
    CategorySeconds wave_self;
    attribute(idx, i, wave_self);
    wave.time += wave_self;

    out.critical_path.push_back(s.id);
    wave.critical_time = wave_self;
    if (critical != idx.spans.size()) {
      wave.critical_task = idx.spans[critical].id;
      out.critical_path.push_back(wave.critical_task);
      attribute_subtree(idx, critical, wave.critical_time);
      out.critical_length += idx.spans[critical].end() - s.begin;
    }
    out.critical += wave.critical_time;
    collect_wave_bytes(idx, i, wave);
    out.waves.push_back(std::move(wave));
  }
  return out;
}

}  // namespace testing
}  // namespace cods
