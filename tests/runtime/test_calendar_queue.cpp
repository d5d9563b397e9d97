// Seeded property suite for the calendar-queue ready structure
// (runtime/calendar_queue.hpp): pop order must match the binary-heap
// oracle *exactly* — pop for pop, over random interleavings of pushes
// and pops, monotone and bursty vtime distributions, and sizes that
// cross every resize threshold. The simulate engine's cross-mode
// equivalence guarantees (docs/SIMULATION.md) reduce to this property:
// the calendar queue realizes the same strict (vtime, seq) order as a
// binary heap, so the engine's schedules are those a heap would produce.

#include "runtime/calendar_queue.hpp"

#include <gtest/gtest.h>

#include <queue>
#include <vector>

#include "common/rng.hpp"
#include "support/seed_report.hpp"

namespace cods {
namespace {

using Oracle =
    std::priority_queue<ReadyItem, std::vector<ReadyItem>, ReadyAfter>;

/// Drives the queue-under-test and the oracle through one interleaving,
/// asserting pop-for-pop equality. `next_vtime(rng, pops)` generates the
/// vtime for each pushed item; pushes and pops interleave at `push_bias`
/// (out of 100) while items remain.
template <typename NextVtime>
void run_interleaving(u64 seed, i64 total_items, int push_bias,
                      NextVtime next_vtime) {
  Rng rng(seed);
  CalendarQueue calendar;
  Oracle oracle;
  u64 seq = 0;
  i64 pushed = 0;
  i64 popped = 0;
  while (popped < total_items) {
    const bool can_push = pushed < total_items;
    const bool can_pop = !oracle.empty();
    const bool do_push =
        can_push &&
        (!can_pop || static_cast<int>(rng.below(100)) < push_bias);
    if (do_push) {
      const ReadyItem item{next_vtime(rng, popped), seq,
                           static_cast<i32>(seq)};
      ++seq;
      ++pushed;
      calendar.push(item);
      oracle.push(item);
      ASSERT_EQ(calendar.size(), oracle.size());
    } else {
      ASSERT_FALSE(calendar.empty());
      const ReadyItem want = oracle.top();
      oracle.pop();
      const ReadyItem got = calendar.pop();
      ASSERT_EQ(got.vtime, want.vtime) << "at pop " << popped;
      ASSERT_EQ(got.seq, want.seq) << "at pop " << popped;
      ASSERT_EQ(got.index, want.index) << "at pop " << popped;
      ++popped;
    }
  }
  EXPECT_TRUE(calendar.empty());
}

TEST(CalendarQueue, MatchesOracleOnUniformRandomInterleavings) {
  const u64 base = testing::seed_from_env("CODS_CALQ_SEED", 1);
  for (u64 s = base; s < base + 8; ++s) {
    CODS_SEED_TRACE("CODS_CALQ_SEED", s);
    run_interleaving(s, 2000, 60, [](Rng& rng, i64) {
      return static_cast<double>(rng.below(100000)) * 1e-3;
    });
  }
}

TEST(CalendarQueue, MatchesOracleOnMonotoneVtimes) {
  // The common enactment shape: each dispatched fiber re-enters with a
  // vtime ahead of the last pop (virtual clocks only advance). The scan
  // cursor should never need to move backwards.
  const u64 base = testing::seed_from_env("CODS_CALQ_SEED", 11);
  for (u64 s = base; s < base + 4; ++s) {
    CODS_SEED_TRACE("CODS_CALQ_SEED", s);
    run_interleaving(s, 3000, 55, [t = 0.0](Rng& rng, i64) mutable {
      t += static_cast<double>(rng.below(1000)) * 1e-4;
      return t;
    });
  }
}

TEST(CalendarQueue, MatchesOracleOnNonMonotoneReentry) {
  // A notified fiber re-enters *behind* the cursor (its clock lags the
  // fibers that ran ahead): alternate far-future and near-past vtimes so
  // pushes repeatedly land on already-scanned days.
  const u64 base = testing::seed_from_env("CODS_CALQ_SEED", 23);
  for (u64 s = base; s < base + 4; ++s) {
    CODS_SEED_TRACE("CODS_CALQ_SEED", s);
    run_interleaving(s, 2000, 50, [](Rng& rng, i64 pops) {
      const double base_t = static_cast<double>(pops) * 0.01;
      return (rng.below(2) == 0) ? base_t + 100.0
                                 : base_t * 0.5;  // behind the cursor
    });
  }
}

TEST(CalendarQueue, MatchesOracleOnBurstyDistribution) {
  // Every enactment's first wave: thousands of fibers ready at the same
  // instant (vtime 0), then tight clusters separated by long gaps. The
  // degenerate buckets must fall back to heap order, never drop or
  // reorder an event.
  const u64 base = testing::seed_from_env("CODS_CALQ_SEED", 37);
  for (u64 s = base; s < base + 4; ++s) {
    CODS_SEED_TRACE("CODS_CALQ_SEED", s);
    run_interleaving(s, 4000, 70, [](Rng& rng, i64) {
      const double cluster =
          static_cast<double>(rng.below(4)) * 1e6;  // 4 distant bursts
      const double jitter =
          rng.below(8) == 0 ? static_cast<double>(rng.below(100)) * 1e-9
                            : 0.0;  // mostly exactly-equal vtimes
      return cluster + jitter;
    });
  }
}

TEST(CalendarQueue, MatchesOracleAcrossResizeThresholds) {
  // Fill to many times the initial bucket count, then drain to empty:
  // crosses the grow threshold (size > 2 * buckets) on the way up and
  // the shrink threshold (size < buckets / 2) all the way down.
  CalendarQueue calendar;
  Oracle oracle;
  Rng rng(testing::seed_from_env("CODS_CALQ_SEED", 53));
  for (u64 i = 0; i < 5000; ++i) {
    const ReadyItem item{static_cast<double>(rng.below(1000)), i,
                         static_cast<i32>(i)};
    calendar.push(item);
    oracle.push(item);
  }
  EXPECT_GT(calendar.bucket_count(), 8u);
  EXPECT_GT(calendar.rebuilds(), 0u);
  while (!oracle.empty()) {
    const ReadyItem want = oracle.top();
    oracle.pop();
    const ReadyItem got = calendar.pop();
    ASSERT_EQ(got.vtime, want.vtime);
    ASSERT_EQ(got.seq, want.seq);
  }
  EXPECT_TRUE(calendar.empty());
  EXPECT_EQ(calendar.bucket_count(), 8u);  // shrank back to the floor
}

TEST(CalendarQueue, EqualVtimesPopInSeqOrder) {
  // The tie-break that makes schedules deterministic: same vtime, FIFO
  // by sequence — including across a rebuild.
  CalendarQueue calendar;
  for (u64 i = 0; i < 300; ++i) {
    calendar.push(ReadyItem{1.5, 299 - i, static_cast<i32>(299 - i)});
  }
  for (u64 i = 0; i < 300; ++i) {
    const ReadyItem got = calendar.pop();
    ASSERT_EQ(got.seq, i);
  }
}

TEST(CalendarQueue, DenseClusterThenSparseDrainStaysFast) {
  // The 1M-rank wave shape that degenerated the first implementation:
  // every fiber ready inside a microscopic vtime spread (the width
  // estimate collapses), then the cluster drains and the survivors
  // re-enter thousands of estimated "days" apart. Each pop then walked
  // the entire bucket array — O(n * buckets) for the drain. The
  // empty-year rebuild re-estimates the width instead; this finishes
  // instantly when it works and blows the test timeout when it does
  // not, while the oracle pins the order either way.
  CalendarQueue calendar;
  Oracle oracle;
  const u64 n = 50000;
  for (u64 i = 0; i < n; ++i) {
    // Dense cluster: 50k events inside 5e-5 s forces width ~ 4e-9 s.
    const ReadyItem item{static_cast<double>(i) * 1e-9, i,
                         static_cast<i32>(i)};
    calendar.push(item);
    oracle.push(item);
  }
  u64 seq = n;
  for (u64 i = 0; i < n; ++i) {
    const ReadyItem want = oracle.top();
    oracle.pop();
    const ReadyItem got = calendar.pop();
    ASSERT_EQ(got.vtime, want.vtime);
    ASSERT_EQ(got.seq, want.seq);
    if (i % 2 == 0) {
      // Re-entries march ahead 0.01 s per pop: ~2.5e6 stale days apart.
      const ReadyItem next{10.0 + static_cast<double>(i) * 0.01, seq,
                           static_cast<i32>(seq)};
      ++seq;
      calendar.push(next);
      oracle.push(next);
    }
  }
  while (!oracle.empty()) {
    const ReadyItem want = oracle.top();
    oracle.pop();
    const ReadyItem got = calendar.pop();
    ASSERT_EQ(got.vtime, want.vtime);
    ASSERT_EQ(got.seq, want.seq);
  }
  EXPECT_TRUE(calendar.empty());
}

TEST(CalendarQueue, FarFutureVtimesDoNotOverflowTheDayCounter) {
  // Deadline sentinels (e.g. a 120 s recv timeout at 1e-12 width) land
  // astronomically many days out; they must clamp, not wrap to day 0.
  CalendarQueue calendar;
  calendar.push(ReadyItem{1e300, 0, 0});
  calendar.push(ReadyItem{0.0, 1, 1});
  calendar.push(ReadyItem{1e18, 2, 2});
  EXPECT_EQ(calendar.pop().seq, 1u);
  EXPECT_EQ(calendar.pop().seq, 2u);
  EXPECT_EQ(calendar.pop().seq, 0u);
  EXPECT_TRUE(calendar.empty());
}

}  // namespace
}  // namespace cods
