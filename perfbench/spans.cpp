#include "spans.hpp"

#include <time.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <mutex>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr const char* kKindNames[kNumKinds] = {
    "core.put_seq",        "core.get_seq",        "core.put_cont",
    "core.get_cont",       "core.retire",         "runtime.send",
    "runtime.recv",        "runtime.barrier",     "runtime.allreduce",
    "apps.body",           "workflow.run",        "workflow.scenario",
    "workflow.comm_graph", "partition.place",     "workflow.client_place",
    "geometry.redistribution", "wfgen.generate",  "wfgen.enact",
    "wfgen.oracle",        "trace.export",        "trace.analyze",
};

// ThreadCpu accumulators: one per thread that ever recorded a span, owned
// here so a thread may exit before the phase closes.
std::mutex g_accum_mutex;
std::deque<PhaseTotals> g_accums;

struct OpenCpuSpan {
  Kind kind;
  double wall0;
  double cpu0;
  double child_cpu = 0.0;
};

thread_local PhaseTotals* t_accum = nullptr;
thread_local std::vector<OpenCpuSpan> t_open;

std::atomic<int> g_next_rank{0};

PhaseTotals& thread_accum() {
  if (t_accum == nullptr) {
    std::lock_guard<std::mutex> lock(g_accum_mutex);
    t_accum = &g_accums.emplace_back();
  }
  return *t_accum;
}

}  // namespace

const char* kind_name(Kind kind) { return kKindNames[kind]; }

PhaseTotals& PhaseTotals::operator+=(const PhaseTotals& other) {
  for (size_t k = 0; k < kinds.size(); ++k) {
    kinds[k].calls += other.kinds[k].calls;
    kinds[k].busy += other.kinds[k].busy;
    kinds[k].wait += other.kinds[k].wait;
  }
  unowned += other.unowned;
  body_total += other.body_total;
  return *this;
}

PhaseTotals split_timeline(const std::vector<Stamp>& stamps, double t_begin,
                           double t_end) {
  struct Open {
    Kind kind;
    double t_enter;
    double owned = 0.0;
    double child_busy = 0.0;  ///< busy (children included) of nested spans
  };
  // stacks[rank + 1]; rank ids are small and dense (Recorder::next_rank).
  std::vector<std::vector<Open>> stacks(1);
  const auto stack_of = [&stacks](int rank) -> std::vector<Open>& {
    const size_t slot = static_cast<size_t>(rank + 1);
    if (slot >= stacks.size()) stacks.resize(slot + 1);
    return stacks[slot];
  };

  PhaseTotals totals;
  double prev = t_begin;
  Open* owner = nullptr;
  for (const Stamp& s : stamps) {
    const double stretch = s.t - prev;
    if (owner != nullptr) {
      owner->owned += stretch;
    } else {
      totals.unowned += stretch;
    }
    prev = s.t;

    std::vector<Open>& stack = stack_of(s.rank);
    if (s.enter) {
      stack.push_back(Open{s.kind, s.t});
    } else {
      if (stack.empty() || stack.back().kind != s.kind) {
        throw std::runtime_error(std::string("span exit of ") +
                                 kind_name(s.kind) +
                                 " does not close the innermost open span");
      }
      const Open closed = stack.back();
      stack.pop_back();
      const double busy = closed.owned + closed.child_busy;
      KindTotals& k = totals.kinds[closed.kind];
      ++k.calls;
      k.busy += closed.owned;
      k.wait += (s.t - closed.t_enter) - busy;
      if (closed.kind == kRankBody) totals.body_total += busy;
      if (!stack.empty()) stack.back().child_busy += busy;
    }
    // The stamping rank keeps the thread until another rank stamps; with
    // nothing open, its stretch belongs to the main rank's innermost span.
    std::vector<Open>& mine = stack_of(s.rank);
    std::vector<Open>& main = stack_of(kMainRank);
    owner = !mine.empty() ? &mine.back()
                          : (!main.empty() ? &main.back() : nullptr);
  }
  if (owner != nullptr) {
    owner->owned += t_end - prev;
  } else {
    totals.unowned += t_end - prev;
  }
  for (const auto& stack : stacks) {
    if (!stack.empty()) {
      throw std::runtime_error(std::string("span ") +
                               kind_name(stack.back().kind) +
                               " left open at the end of the phase");
    }
  }
  return totals;
}

void add_cpu_span(PhaseTotals& totals, const CpuSpan& span) {
  KindTotals& k = totals.kinds[span.kind];
  ++k.calls;
  k.busy += span.cpu - span.child_cpu;
  k.wait += span.wall - span.cpu;
  if (span.kind == kRankBody) totals.body_total += span.cpu;
}

void Recorder::begin_phase(Clock clock) {
  clock_ = clock;
  stamps_.clear();
  g_next_rank.store(0);
  {
    std::lock_guard<std::mutex> lock(g_accum_mutex);
    for (PhaseTotals& accum : g_accums) accum = PhaseTotals{};
  }
  t_begin_ = now();
  active_ = true;
}

PhaseTotals Recorder::end_phase(double process_cpu) {
  const double t_end = now();
  active_ = false;
  if (clock_ == Clock::kTimeline) {
    return split_timeline(stamps_, t_begin_, t_end);
  }
  PhaseTotals totals;
  std::lock_guard<std::mutex> lock(g_accum_mutex);
  for (const PhaseTotals& accum : g_accums) totals += accum;
  totals.unowned = process_cpu - totals.body_total;
  return totals;
}

void Recorder::enter(int rank, Kind kind) {
  if (clock_ == Clock::kTimeline) {
    stamps_.push_back(Stamp{now(), rank, kind, true});
    return;
  }
  t_open.push_back(OpenCpuSpan{kind, now(), thread_cpu()});
}

void Recorder::exit(int rank, Kind kind) {
  if (clock_ == Clock::kTimeline) {
    stamps_.push_back(Stamp{now(), rank, kind, false});
    return;
  }
  const double wall1 = now();
  const double cpu1 = thread_cpu();
  if (t_open.empty() || t_open.back().kind != kind) {
    throw std::runtime_error(std::string("span exit of ") + kind_name(kind) +
                             " does not close the thread's innermost span");
  }
  const OpenCpuSpan open = t_open.back();
  t_open.pop_back();
  const CpuSpan span{kind, wall1 - open.wall0, cpu1 - open.cpu0,
                     open.child_cpu};
  add_cpu_span(thread_accum(), span);
  if (!t_open.empty()) t_open.back().child_cpu += span.cpu;
}

int Recorder::next_rank() { return g_next_rank.fetch_add(1); }

Recorder& recorder() {
  static Recorder instance;
  return instance;
}

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double cpu_clock(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double thread_cpu() { return cpu_clock(CLOCK_THREAD_CPUTIME_ID); }

double process_cpu() { return cpu_clock(CLOCK_PROCESS_CPUTIME_ID); }

}  // namespace perfbench
