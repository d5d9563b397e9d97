// Self-test of the busy/wait split (spans.hpp): synthetic timelines with
// known answers, plus one live ThreadCpu call that parks.
//
//   spans_selftest        exits 0 when every check passes
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "spans.hpp"

using namespace perfbench;

namespace {

int g_failures = 0;

void expect_near(const char* what, double got, double want,
                 double tol = 1e-12) {
  if (std::fabs(got - want) > tol) {
    std::printf("FAIL %s: got %.9g, want %.9g\n", what, got, want);
    ++g_failures;
  }
}

void expect_calls(const char* what, const PhaseTotals& t, Kind kind,
                  std::uint64_t calls) {
  if (t.kinds[kind].calls != calls) {
    std::printf("FAIL %s: %llu calls, want %llu\n", what,
                static_cast<unsigned long long>(t.kinds[kind].calls),
                static_cast<unsigned long long>(calls));
    ++g_failures;
  }
}

double sum_all(const PhaseTotals& t) {
  double sum = t.unowned;
  for (const KindTotals& k : t.kinds) sum += k.busy;
  return sum;
}

// Nested calls on one rank: a parent's busy time excludes its child's.
void nested_calls() {
  const std::vector<Stamp> stamps = {
      {1.0, kMainRank, kScenario, true},
      {2.0, kMainRank, kCommGraph, true},
      {5.0, kMainRank, kCommGraph, false},
      {6.0, kMainRank, kScenario, false},
  };
  const PhaseTotals t = split_timeline(stamps, 0.0, 10.0);
  expect_calls("nested scenario calls", t, kScenario, 1);
  expect_near("nested scenario busy", t.kinds[kScenario].busy, 2.0);
  expect_near("nested scenario wait", t.kinds[kScenario].wait, 0.0);
  expect_near("nested comm_graph busy", t.kinds[kCommGraph].busy, 3.0);
  expect_near("nested unowned", t.unowned, 5.0);
  expect_near("nested partition", sum_all(t), 10.0);
}

// Two fibers interleave inside one kSimulate call: rank 0 enters get_seq
// and is descheduled while rank 1 runs a whole put_seq; the get's busy is
// entry to rank 1's first boundary, the rest of its interval is wait.
void interleaved_ranks() {
  const std::vector<Stamp> stamps = {
      {0.0, kMainRank, kWorkflowRun, true},
      {1.0, 0, kRankBody, true},
      {2.0, 0, kGetSeq, true},
      {3.0, 1, kRankBody, true},
      {4.0, 1, kPutSeq, true},
      {6.0, 1, kPutSeq, false},
      {6.5, 1, kRankBody, false},
      {7.0, 0, kGetSeq, false},
      {8.0, 0, kRankBody, false},
      {9.0, kMainRank, kWorkflowRun, false},
  };
  const PhaseTotals t = split_timeline(stamps, 0.0, 10.0);
  expect_near("interleaved get busy", t.kinds[kGetSeq].busy, 1.0);
  expect_near("interleaved get wait", t.kinds[kGetSeq].wait, 4.0);
  expect_near("interleaved put busy", t.kinds[kPutSeq].busy, 2.0);
  expect_near("interleaved put wait", t.kinds[kPutSeq].wait, 0.0);
  expect_calls("interleaved bodies", t, kRankBody, 2);
  expect_near("interleaved body self", t.kinds[kRankBody].busy, 3.5);
  expect_near("interleaved body total", t.body_total, 6.5);
  // Engine time: before the first body, after rank 1 retires, after the
  // last body.
  expect_near("interleaved engine", t.kinds[kWorkflowRun].busy, 2.5);
  expect_near("interleaved unowned", t.unowned, 1.0);
  expect_near("interleaved partition", sum_all(t), 10.0);
}

// A pooled call that parks: busy is thread CPU, wait is the rest; a
// parent's self busy excludes its child's CPU.
void pooled_parking() {
  PhaseTotals t;
  add_cpu_span(t, CpuSpan{kRecv, 0.010, 0.001, 0.0});
  add_cpu_span(t, CpuSpan{kRankBody, 0.020, 0.008, 0.001});
  expect_near("pooled recv busy", t.kinds[kRecv].busy, 0.001);
  expect_near("pooled recv wait", t.kinds[kRecv].wait, 0.009);
  expect_near("pooled body self", t.kinds[kRankBody].busy, 0.007);
  expect_near("pooled body total", t.body_total, 0.008);
}

// The same through the live recorder: a call that sleeps is almost all
// wait, a call that spins is almost all busy.
void live_pooled_parking() {
  Recorder& rec = recorder();
  rec.begin_phase(Recorder::Clock::kThreadCpu);
  std::thread worker([] {
    Span body(0, kRankBody);
    {
      Span recv(0, kRecv);
      std::this_thread::sleep_for(std::chrono::milliseconds(60));
    }
    Span send(0, kSend);
    const double until = thread_cpu() + 0.03;
    while (thread_cpu() < until) {
    }
  });
  worker.join();
  const PhaseTotals t = rec.end_phase(/*process_cpu=*/1.0);
  expect_calls("live recv calls", t, kRecv, 1);
  expect_near("live recv busy", t.kinds[kRecv].busy, 0.0, 0.01);
  expect_near("live recv wait", t.kinds[kRecv].wait, 0.06, 0.03);
  expect_near("live send busy", t.kinds[kSend].busy, 0.03, 0.01);
  expect_near("live send wait", t.kinds[kSend].wait, 0.0, 0.02);
}

void malformed_exit_throws() {
  const std::vector<Stamp> stamps = {
      {1.0, 0, kRankBody, true},
      {2.0, 0, kGetSeq, false},
  };
  try {
    split_timeline(stamps, 0.0, 3.0);
    std::printf("FAIL malformed exit was accepted\n");
    ++g_failures;
  } catch (const std::runtime_error&) {
  }
}

}  // namespace

int main() {
  nested_calls();
  interleaved_ranks();
  pooled_parking();
  live_pooled_parking();
  malformed_exit_throws();
  if (g_failures != 0) {
    std::printf("spans self-test: %d failures\n", g_failures);
    return 1;
  }
  std::printf("spans self-test: ok\n");
  return 0;
}
