// Span recording for the benchmark's traced runs. The benchmark's own code
// opens a span around every call it makes into a layer's public API; this
// file records those spans and splits each call's wall interval into busy
// and wait time.
//
// Two clocks, one per execution mode:
//
//   Timeline  (kSimulate, and any single-threaded phase): every rank runs
//             as a fiber on one OS thread, so one global sequence of span
//             boundaries, each stamped with its rank, describes who held
//             the thread. A rank holds it from each boundary it stamps to
//             the next boundary of any rank, and that stretch is charged to
//             the rank's innermost open span. A rank with nothing open
//             hands the stretch to the innermost open span of the main
//             rank (the caller of WorkflowServer::run, so engine time lands
//             on `workflow.run`), and a stretch no span owns is
//             unattributed. A call's busy time is what it owns; its wait is
//             its wall time minus the busy time of itself and its children,
//             which is time other ranks' spans own. The stretches partition
//             the phase exactly, so layer busy + rank-body self time +
//             unattributed time equals the phase's wall time. A stretch
//             between boundaries of two ranks holds the end of one rank's
//             turn and the start of the other's; it is charged whole to the
//             rank that stamped its start, so a call resumed by the engine
//             gets no busy time before its next boundary (charging both
//             ranks would count the stretch twice).
//
//   ThreadCpu (kPooled): ranks run on real threads in parallel, so a call's
//             busy time is the thread CPU time over the call and its wait
//             is wall minus busy. Per-thread stacks give self time.
//
// Recording is off unless a phase is open, and then costs one clock read
// and one append per boundary.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Span kinds: one per layer entry point the benchmark calls. The metric
/// name of a kind is its layer-qualified name.
enum Kind : std::uint8_t {
  kPutSeq,
  kGetSeq,
  kPutCont,
  kGetCont,
  kRetire,
  kSend,
  kRecv,
  kBarrier,
  kAllreduce,
  kRankBody,     ///< one application rank body (apps layer)
  kWorkflowRun,  ///< WorkflowServer::run (engine)
  kScenario,     ///< run_modeled_scenario
  kCommGraph,
  kPartitionPlace,
  kClientPlace,
  kRedistribution,
  kGenerate,
  kEnact,
  kOracle,
  kExport,
  kAnalyze,
  kNumKinds
};

const char* kind_name(Kind kind);

/// Main-thread rank id: the harness and WorkflowServer::run's caller.
inline constexpr int kMainRank = -1;

/// One span boundary of the timeline clock.
struct Stamp {
  double t = 0.0;
  int rank = kMainRank;
  Kind kind = kRankBody;
  bool enter = true;
};

/// Per-kind totals over a phase.
struct KindTotals {
  std::uint64_t calls = 0;
  double busy = 0.0;  ///< self busy seconds (children excluded)
  double wait = 0.0;  ///< seconds the call spent descheduled or parked
};

struct PhaseTotals {
  std::array<KindTotals, kNumKinds> kinds{};
  double unowned = 0.0;  ///< stretches (or CPU) no span owns
  /// Busy time (children included) of rank-body spans: with ThreadCpu the
  /// CPU the rank bodies consumed.
  double body_total = 0.0;

  PhaseTotals& operator+=(const PhaseTotals& other);
};

/// Splits a timeline phase [t_begin, t_end] whose boundaries are `stamps`
/// (in the order they were stamped). Throws std::runtime_error on an
/// exit that does not close its rank's innermost open span, or on spans
/// left open at the end.
PhaseTotals split_timeline(const std::vector<Stamp>& stamps, double t_begin,
                           double t_end);

/// One closed span of the ThreadCpu clock, as recorded on its thread.
struct CpuSpan {
  Kind kind = kRankBody;
  double wall = 0.0;   ///< wall seconds over the call
  double cpu = 0.0;    ///< thread CPU seconds over the call
  double child_cpu = 0.0;  ///< CPU of the spans nested directly inside
};

/// Accumulates one closed ThreadCpu span into `totals`.
void add_cpu_span(PhaseTotals& totals, const CpuSpan& span);

/// The process-wide recorder the benchmark's call wrappers write into.
class Recorder {
 public:
  enum class Clock { kTimeline, kThreadCpu };

  /// Opens a phase; spans are recorded until end_phase().
  void begin_phase(Clock clock);
  /// Closes the phase and returns its totals. `process_cpu` is the
  /// process CPU seconds over the phase (ThreadCpu only): the part no
  /// rank body consumed is reported as unowned.
  PhaseTotals end_phase(double process_cpu = 0.0);

  bool active() const { return active_; }
  Clock clock() const { return clock_; }

  void enter(int rank, Kind kind);
  void exit(int rank, Kind kind);

  /// Fresh rank id for one rank-body invocation (re-executed tasks get a
  /// new id, so their boundaries never merge with the first attempt's).
  int next_rank();

 private:
  bool active_ = false;
  Clock clock_ = Clock::kTimeline;
  double t_begin_ = 0.0;
  std::vector<Stamp> stamps_;
};

Recorder& recorder();

/// Monotonic wall clock in seconds.
double now();
/// CPU seconds of the calling thread.
double thread_cpu();
/// CPU seconds of the whole process.
double process_cpu();

/// A point of a timed phase on both clocks.
struct Mark {
  double wall = 0.0;
  double cpu = 0.0;  ///< process CPU seconds
};
inline Mark mark_now() { return Mark{now(), process_cpu()}; }

/// RAII span: records nothing unless the recorder has an open phase.
class Span {
 public:
  Span(int rank, Kind kind) : rank_(rank), kind_(kind) {
    if (recorder().active()) {
      on_ = true;
      recorder().enter(rank_, kind_);
    }
  }
  ~Span() {
    if (on_) recorder().exit(rank_, kind_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int rank_;
  Kind kind_;
  bool on_ = false;
};

}  // namespace perfbench
