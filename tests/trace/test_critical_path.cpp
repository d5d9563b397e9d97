// SpanIndex and analyze_trace against the map-based reference
// (tests/support/critical_path_oracle.hpp): every TraceAnalysis field must
// be equal — doubles exactly — on generated scenario streams, on shuffled
// copies of them, and on hand-built streams with orphan parents,
// cross-track parents and duplicate ids.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "trace/critical_path.hpp"
#include "wfgen/enact.hpp"
#include "wfgen/wfgen.hpp"

#include "support/critical_path_oracle.hpp"
#include "support/seed_report.hpp"

namespace cods {
namespace {

using testing::analyze_trace_map_reference;

void expect_same(const CategorySeconds& a, const CategorySeconds& b) {
  EXPECT_EQ(a.compute, b.compute);
  EXPECT_EQ(a.shm, b.shm);
  EXPECT_EQ(a.net, b.net);
  EXPECT_EQ(a.lock_wait, b.lock_wait);
  EXPECT_EQ(a.redistribute, b.redistribute);
  EXPECT_EQ(a.control, b.control);
}

void expect_same(const TraceAnalysis& a, const TraceAnalysis& b) {
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.critical_length, b.critical_length);
  EXPECT_EQ(a.critical_path, b.critical_path);
  expect_same(a.critical, b.critical);
  EXPECT_EQ(a.shm_bytes, b.shm_bytes);
  EXPECT_EQ(a.net_bytes, b.net_bytes);
  EXPECT_EQ(a.ledger_spans, b.ledger_spans);
  ASSERT_EQ(a.waves.size(), b.waves.size());
  for (size_t w = 0; w < a.waves.size(); ++w) {
    SCOPED_TRACE("wave " + std::to_string(w));
    const WaveBreakdown& x = a.waves[w];
    const WaveBreakdown& y = b.waves[w];
    EXPECT_EQ(x.span_id, y.span_id);
    EXPECT_EQ(x.wave_index, y.wave_index);
    EXPECT_EQ(x.begin, y.begin);
    EXPECT_EQ(x.duration, y.duration);
    EXPECT_EQ(x.critical_task, y.critical_task);
    expect_same(x.time, y.time);
    expect_same(x.critical_time, y.critical_time);
    ASSERT_EQ(x.apps.size(), y.apps.size());
    for (size_t i = 0; i < x.apps.size(); ++i) {
      SCOPED_TRACE("app row " + std::to_string(i));
      EXPECT_EQ(x.apps[i].app_id, y.apps[i].app_id);
      EXPECT_EQ(x.apps[i].inter_shm, y.apps[i].inter_shm);
      EXPECT_EQ(x.apps[i].inter_net, y.apps[i].inter_net);
      EXPECT_EQ(x.apps[i].intra_shm, y.apps[i].intra_shm);
      EXPECT_EQ(x.apps[i].intra_net, y.apps[i].intra_net);
      EXPECT_EQ(x.apps[i].transfers, y.apps[i].transfers);
    }
  }
}

TraceSpan span(u64 id, u64 parent, double begin, double duration,
               SpanCategory cat, u8 flags = TraceFlags::kSequential) {
  TraceSpan s;
  s.id = id;
  s.parent = parent;
  s.begin = begin;
  s.duration = duration;
  s.cat = cat;
  s.flags = flags;
  return s;
}

TraceSpan ledger(u64 id, u64 parent, double begin, double duration,
                 bool net, u64 bytes, i32 app, TrafficClass cls,
                 bool sequential = true) {
  TraceSpan s = span(id, parent, begin, duration,
                     net ? SpanCategory::kTransferNet
                         : SpanCategory::kTransferShm,
                     static_cast<u8>(TraceFlags::kLedger |
                                     (sequential ? TraceFlags::kSequential
                                                 : 0)));
  s.bytes = bytes;
  s.app_id = app;
  s.cls = cls;
  return s;
}

constexpr u64 track(u64 key, u64 seq) {
  return (key << TraceRecorder::kSeqBits) | seq;
}

/// Two waves on the server track whose tasks run on rank tracks, with a
/// pull of mixed overlay bytes, a lock wait, a redistribute, a non-task
/// child of a wave holding ledger bytes, an orphan subtree (its parent id
/// is absent), a task whose parent sits on a higher track than itself,
/// and ids that two spans share.
std::vector<TraceSpan> hand_built_stream() {
  const u64 w1 = track(1, 1);
  const u64 w2 = track(1, 2);
  const u64 a = track(9, 1);  // rank track of wave 1
  const u64 b = track(3, 1);  // rank track of wave 1
  const u64 c = track(4, 1);  // rank track of wave 2
  std::vector<TraceSpan> s;
  s.push_back(span(w1, 0, 0.0, 10.0, SpanCategory::kWave));
  s.back().detail = 0;
  s.push_back(span(w2, 0, 10.0, 6.0, SpanCategory::kWave));
  s.back().detail = 1;
  // Wave 1, task a (parent on a lower track): pull with overlay bytes.
  s.push_back(span(a, w1, 0.0, 7.0, SpanCategory::kTask));
  s.push_back(span(a + 1, a, 0.0, 3.0, SpanCategory::kPull));
  s.push_back(ledger(a + 2, a + 1, 0.0, 2.0, false, 100, 1,
                     TrafficClass::kInterApp, false));
  s.push_back(ledger(a + 3, a + 1, 0.0, 3.0, true, 300, 2,
                     TrafficClass::kIntraApp, false));
  s.push_back(span(a + 4, a, 3.0, 1.5, SpanCategory::kLockWait));
  s.push_back(ledger(a + 5, a + 4, 3.0, 0.5, true, 64, 1,
                     TrafficClass::kControl));
  // Wave 1, task b: a redistribute and a sequential shm leaf; ends at 7.0
  // like task a, so the smaller position (b) must win the tie.
  s.push_back(span(b, w1, 1.0, 6.0, SpanCategory::kTask));
  s.push_back(span(b + 1, b, 1.0, 2.0, SpanCategory::kRedistribute));
  s.push_back(ledger(b + 2, b + 1, 1.0, 1.25, false, 512, 2,
                     TrafficClass::kInterApp));
  s.push_back(span(b + 3, b, 3.0, 0.75, SpanCategory::kRpc));
  // A non-task child of wave 1 (server-side health sweep) with bytes.
  s.push_back(span(w1 + 100, w1, 9.0, 0.5, SpanCategory::kHealth));
  s.push_back(ledger(w1 + 101, w1 + 100, 9.0, 0.25, true, 8, 0,
                     TrafficClass::kControl));
  // Wave 2, task c, whose parent (w2) is a lower track.
  s.push_back(span(c, w2, 10.0, 5.0, SpanCategory::kTask));
  s.push_back(ledger(c + 1, c, 10.0, 1.0, true, 1000, 3,
                     TrafficClass::kInterApp));
  // A task whose parent is on a higher track than itself.
  s.push_back(span(track(2, 1), track(50, 1), 0.0, 4.0,
                   SpanCategory::kTask));
  s.push_back(span(track(50, 1), w2, 10.0, 5.5, SpanCategory::kGet));
  s.push_back(ledger(track(2, 2), track(2, 1), 0.0, 1.0, false, 77, 3,
                     TrafficClass::kIntraApp));
  // Orphans: their parent ids exist nowhere in the stream.
  s.push_back(span(track(7, 1), track(99, 1), 0.0, 1.0, SpanCategory::kTask));
  s.push_back(ledger(track(7, 2), track(7, 1), 0.0, 0.5, false, 5, 4,
                     TrafficClass::kInterApp));
  // Duplicate ids: a second task with task c's id (longer, so the shared
  // id's children are walked twice), a second span with a ledger leaf's
  // id, and a second wave sharing wave 2's id.
  s.push_back(span(c, w2, 10.0, 5.75, SpanCategory::kTask));
  s.push_back(ledger(a + 2, a + 1, 0.0, 2.0, true, 40, 1,
                     TrafficClass::kInterApp, false));
  s.push_back(span(w2, 0, 16.0, 1.0, SpanCategory::kWave));
  s.back().detail = 2;
  return s;
}

TEST(SpanIndex, BorrowsSortedInputAndSortsOtherwise) {
  std::vector<TraceSpan> spans = hand_built_stream();
  std::stable_sort(spans.begin(), spans.end(),
                   [](const TraceSpan& x, const TraceSpan& y) {
                     return x.id < y.id;
                   });
  const SpanIndex sorted(spans);
  EXPECT_EQ(&sorted[0], spans.data());

  std::vector<TraceSpan> reversed(spans.rbegin(), spans.rend());
  const SpanIndex copied(reversed);
  ASSERT_EQ(copied.size(), reversed.size());
  EXPECT_NE(&copied[0], reversed.data());
  for (size_t i = 1; i < copied.size(); ++i) {
    EXPECT_LE(copied[i - 1].id, copied[i].id);
  }
}

TEST(SpanIndex, ResolvesParentsAndChildren) {
  const u64 t1 = track(1, 1);
  std::vector<TraceSpan> spans = {
      span(t1, 0, 0.0, 4.0, SpanCategory::kWave),             // 0
      span(t1 + 1, t1, 0.0, 1.0, SpanCategory::kTask),        // 1
      span(t1 + 1, t1, 0.0, 2.0, SpanCategory::kTask),        // 2 (dup id)
      span(t1 + 2, t1 + 1, 0.0, 0.5, SpanCategory::kRpc),     // 3
      span(t1 + 3, track(8, 1), 0.0, 0.5, SpanCategory::kRpc),  // 4 orphan
      span(track(3, 1), t1, 0.0, 3.0, SpanCategory::kTask),   // 5
      span(track(3, 2), track(3, 1), 0.0, 1.0, SpanCategory::kGet),  // 6
  };
  const SpanIndex idx(spans);
  ASSERT_EQ(idx.size(), spans.size());
  EXPECT_EQ(idx.parent(0), SpanIndex::kNone);
  EXPECT_EQ(idx.parent(1), 0u);
  EXPECT_EQ(idx.parent(2), 0u);
  EXPECT_EQ(idx.parent(3), 1u);  // the first span of a shared id
  EXPECT_EQ(idx.parent(4), SpanIndex::kNone);
  EXPECT_EQ(idx.parent(5), 0u);
  EXPECT_EQ(idx.parent(6), 5u);
  const auto list = [&idx](size_t i) {
    const auto c = idx.children(i);
    return std::vector<u32>(c.begin(), c.end());
  };
  EXPECT_EQ(list(0), (std::vector<u32>{1, 2, 5}));
  EXPECT_EQ(list(1), (std::vector<u32>{3}));
  EXPECT_EQ(list(2), (std::vector<u32>{3}));  // shared with its id's first
  EXPECT_EQ(list(3), (std::vector<u32>{}));
  EXPECT_EQ(list(5), (std::vector<u32>{6}));
}

TEST(CriticalPath, MatchesMapReference) {
  for (u64 seed = 1; seed <= 40; ++seed) {
    CODS_SEED_NOTE(seed);
    const std::vector<TraceSpan> spans =
        wfgen::enact(wfgen::generate(seed), {.mode = ExecMode::kSimulate})
            .spans;
    ASSERT_FALSE(spans.empty());
    const TraceAnalysis sorted = analyze_trace(spans);
    ASSERT_FALSE(sorted.waves.empty());
    expect_same(sorted, analyze_trace_map_reference(spans));

    std::vector<TraceSpan> shuffled = spans;
    std::mt19937_64 rng(seed);
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    const TraceAnalysis from_shuffled = analyze_trace(shuffled);
    expect_same(from_shuffled, analyze_trace_map_reference(shuffled));
    expect_same(from_shuffled, sorted);
    if (HasFatalFailure()) return;
  }

  // Hand-built streams: as written (unsorted), sorted, and shuffled. With
  // duplicate ids, input order decides the order of the spans that share
  // one, so only the reference comparison applies.
  std::vector<TraceSpan> spans = hand_built_stream();
  for (u64 round = 0; round < 8; ++round) {
    SCOPED_TRACE("hand-built round " + std::to_string(round));
    const TraceAnalysis analysis = analyze_trace(spans);
    ASSERT_EQ(analysis.waves.size(), 3u);
    expect_same(analysis, analyze_trace_map_reference(spans));
    std::mt19937_64 rng(round);
    if (round == 0) {
      std::stable_sort(spans.begin(), spans.end(),
                       [](const TraceSpan& x, const TraceSpan& y) {
                         return x.id < y.id;
                       });
    } else {
      std::shuffle(spans.begin(), spans.end(), rng);
    }
  }
}

TEST(CriticalPath, HandBuiltStreamAttribution) {
  // Spot values of the hand-built stream, so the reference comparison
  // above is not two equal wrong answers.
  std::vector<TraceSpan> spans = hand_built_stream();
  spans.pop_back();  // drop the third wave: waves 1 and 2 only
  const TraceAnalysis analysis = analyze_trace(spans);
  ASSERT_EQ(analysis.waves.size(), 2u);
  const WaveBreakdown& w1 = analysis.waves[0];
  // Task a ends at 7.0 and b at 7.0; b sits earlier in id order (track 3
  // before track 9) and wins the tie.
  EXPECT_EQ(w1.critical_task, track(3, 1));
  // Task a's pull (self 3.0) splits by its overlay bytes: 300 + 40 net
  // (the second span sharing a leaf's id is net) against 100 shm. The
  // sequential leaves count whole: 0.5 net under the lock wait, 1.25 shm
  // under the redistribute.
  const double net_frac = 340.0 / 440.0;
  EXPECT_DOUBLE_EQ(w1.time.net, 3.0 * net_frac + 0.5);
  EXPECT_DOUBLE_EQ(w1.time.shm, 3.0 * (1.0 - net_frac) + 1.25);
  EXPECT_DOUBLE_EQ(w1.time.lock_wait, 1.0);
  EXPECT_DOUBLE_EQ(w1.time.redistribute, 0.75);
  EXPECT_DOUBLE_EQ(w1.time.control, 0.75);
  // Task selves a 7 - 4.5 and b 6 - 2.75; the wave's children outlast it.
  EXPECT_DOUBLE_EQ(w1.time.compute, 2.5 + 3.25);
  EXPECT_DOUBLE_EQ(w1.critical_time.compute, 3.25);
  EXPECT_DOUBLE_EQ(w1.critical_time.net, 0.0);
  // The health sweep is a non-task child: its bytes count, its time not.
  ASSERT_EQ(w1.apps.size(), 3u);
  EXPECT_EQ(w1.apps[0].app_id, 0);
  EXPECT_EQ(w1.apps[0].transfers, 1u);
  EXPECT_EQ(w1.apps[1].app_id, 1);
  EXPECT_EQ(w1.apps[1].inter_shm, 100u);
  EXPECT_EQ(w1.apps[1].inter_net, 40u);
  EXPECT_EQ(w1.apps[1].transfers, 3u);
  EXPECT_EQ(w1.apps[2].inter_shm, 512u);
  EXPECT_EQ(w1.apps[2].intra_net, 300u);
  // Wave 2's two tasks share an id: the longer one is critical, and their
  // one child list is walked under each.
  const WaveBreakdown& w2 = analysis.waves[1];
  EXPECT_EQ(w2.critical_task, track(4, 1));
  EXPECT_DOUBLE_EQ(w2.time.net, 2.0);
  ASSERT_EQ(w2.apps.size(), 1u);
  EXPECT_EQ(w2.apps[0].inter_net, 2000u);
  EXPECT_EQ(w2.apps[0].intra_shm, 77u);  // under the cross-track task
  // The orphan subtree's ledger leaf counts in the totals, in no wave.
  EXPECT_EQ(analysis.ledger_spans, 9u);
}

}  // namespace
}  // namespace cods
