// Calendar-queue ready structure for the discrete-event engine
// (docs/SIMULATION.md "Scaling to 1M ranks").
//
// A calendar queue (Brown, CACM 1988) buckets pending events by virtual
// "day" (floor(vtime / width)); a pop scans forward from the current day
// and an insert drops into its day's bucket, so both are O(1) amortized
// when events spread over the calendar — against O(log n) for the binary
// heap it replaces, which at 10^6 ready fibers is the event loop's
// dominant constant. Two deviations from the textbook structure keep the
// worst case tame and the order exact:
//
//   * Each bucket is itself a small binary min-heap on (vtime, seq), not
//     a sorted list. A degenerate distribution (every fiber ready at the
//     same instant — the first dispatch wave of every enactment) then
//     costs exactly what the plain heap did, never more.
//   * Pop order is the same strict (vtime, seq) total order as the heap:
//     same-vtime events share a bucket by construction, and the seq
//     tie-break makes the order deterministic. test_calendar_queue pins
//     pop-for-pop equivalence against a std::priority_queue oracle over
//     seeded interleavings.
//
// The queue is *not* monotone: a notified fiber can re-enter with a
// vtime earlier than the scan cursor (its virtual clock lags the fibers
// that ran ahead), so push() moves the cursor back whenever an earlier
// day appears. Bucket count doubles above 2 events/bucket and halves
// below 1/2, re-estimating the day width from the live vtime range;
// a bucket that degenerates into a heap triggers the same rebuild.
//
// Single-threaded by design, like the engine that owns it.
#pragma once

#include <algorithm>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace cods {

/// Ready-queue key: (virtual time, FIFO sequence) — a deterministic
/// total order, so one seed replays one schedule on any host.
struct ReadyItem {
  double vtime = 0.0;
  u64 seq = 0;
  i32 index = -1;
};

/// Comparator ordering a later to run item *after* an earlier one; both
/// the calendar's bucket heaps and the oracle std::priority_queue use it,
/// so "min" means the same thing in both structures.
struct ReadyAfter {
  bool operator()(const ReadyItem& a, const ReadyItem& b) const {
    if (a.vtime != b.vtime) return a.vtime > b.vtime;
    return a.seq > b.seq;
  }
};

class CalendarQueue {
 public:
  CalendarQueue() : buckets_(kMinBuckets) {}

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push(ReadyItem item) {
    if (size_ + 1 > buckets_.size() * 2) rebuild(buckets_.size() * 2);
    const u64 day = day_of(item.vtime);
    Bucket& b = buckets_[static_cast<std::size_t>(day) & mask()];
    b.push_back(item);
    std::push_heap(b.begin(), b.end(), ReadyAfter{});
    // Non-monotone insert: an event earlier than the scan cursor must
    // pull the cursor back or pop() would skip it for a whole lap.
    if (size_ == 0 || day < cur_day_) cur_day_ = day;
    ++size_;
    ++ops_since_rebuild_;
  }

  /// Removes and returns the minimum (vtime, seq) event. REQUIRES
  /// !empty().
  ReadyItem pop() {
    CODS_CHECK(size_ > 0, "calendar queue popped empty");
    for (int attempt = 0; attempt < 2; ++attempt) {
      const std::size_t n = buckets_.size();
      for (std::size_t probes = 0; probes < n; ++probes) {
        Bucket& b = buckets_[static_cast<std::size_t>(cur_day_) & mask()];
        // The heap top is the bucket minimum; any event of the current
        // day in this bucket beats every event of a later day (other
        // buckets) and every same-bucket event of a later year.
        if (!b.empty() && day_of(b.front().vtime) == cur_day_) {
          return take_top(b);
        }
        ++cur_day_;
      }
      // A whole year with no event while the queue is non-empty is
      // definitive evidence the width is stale for the live
      // distribution (a rebuild while every vtime sat in one dense
      // cluster estimates a microscopic width; once the cluster drains,
      // the survivors are thousands of "days" apart and every scan goes
      // the full year). Do NOT just jump the cursor to the earliest
      // bucket top: that leaves the width stale, and at 2^20 buckets an
      // O(buckets) crawl per pop turns the 1M-rank sweep into hours.
      // Re-estimate instead — the rebuild re-spreads the live range at
      // ~4 events/day and parks the cursor on the minimum's day, so the
      // retry hits on its first probe. An empty year then needs the
      // live range to shift by ~2x between rebuilds, which keeps the
      // O(size) rebuild amortized.
      rebuild(buckets_.size());
    }
    CODS_CHECK(false, "calendar queue lost an event");
    return ReadyItem{};  // unreachable
  }

  /// Bucket-array rebuilds so far (resize in either direction or a
  /// width re-estimate); the property suite drives the thresholds.
  u64 rebuilds() const { return rebuilds_; }
  std::size_t bucket_count() const { return buckets_.size(); }
  double width() const { return width_; }

 private:
  using Bucket = std::vector<ReadyItem>;

  static constexpr std::size_t kMinBuckets = 8;  // power of two
  static constexpr double kMinWidth = 1e-12;
  /// A current-day bucket deeper than this (and holding a quarter of the
  /// queue) means the width is stale for the live distribution.
  static constexpr std::size_t kOverfullBucket = 64;

  std::size_t mask() const { return buckets_.size() - 1; }

  u64 day_of(double vtime) const {
    if (vtime <= 0.0) return 0;
    const double day = vtime / width_;
    // Clamp instead of overflowing the u64 day counter; events this far
    // out all share the last day and fall back to heap order there.
    if (day >= 9.0e18) return u64{9000000000000000000u};
    return static_cast<u64>(day);
  }

  ReadyItem take_top(Bucket& b) {
    std::pop_heap(b.begin(), b.end(), ReadyAfter{});
    const ReadyItem item = b.back();
    const std::size_t depth = b.size();
    b.pop_back();
    --size_;
    ++ops_since_rebuild_;
    if (size_ < buckets_.size() / 2 && buckets_.size() > kMinBuckets) {
      rebuild(buckets_.size() / 2);
    } else if (depth > kOverfullBucket && depth * 4 > size_ &&
               ops_since_rebuild_ > size_) {
      // Degenerate bucket: re-estimate the width in place. The ops gate
      // keeps an irreducibly clustered distribution (all events at one
      // instant) from rebuilding every pop.
      rebuild(buckets_.size());
    }
    return item;
  }

  void rebuild(std::size_t nbuckets) {
    nbuckets = std::max(nbuckets, kMinBuckets);
    Bucket all;
    all.reserve(size_);
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (Bucket& b : buckets_) {
      for (const ReadyItem& item : b) {
        lo = std::min(lo, item.vtime);
        hi = std::max(hi, item.vtime);
        all.push_back(item);
      }
    }
    // Width targets ~4 events per day over the live range: wide enough
    // that a pop rarely crosses empty days, narrow enough that a day's
    // heap stays shallow. Equal-vtime extremes leave any width correct;
    // pick 1s so the calendar re-spreads as soon as clocks diverge.
    width_ = (size_ > 1 && hi > lo)
                 ? std::max(hi - lo, kMinWidth) * 4.0 /
                       static_cast<double>(size_)
                 : 1.0;
    buckets_.assign(nbuckets, Bucket{});
    for (const ReadyItem& item : all) {
      buckets_[static_cast<std::size_t>(day_of(item.vtime)) & mask()]
          .push_back(item);
    }
    for (Bucket& b : buckets_) std::make_heap(b.begin(), b.end(), ReadyAfter{});
    cur_day_ = size_ > 0 ? day_of(lo) : 0;
    ops_since_rebuild_ = 0;
    ++rebuilds_;
  }

  std::vector<Bucket> buckets_;  // each kept as a min-heap via ReadyAfter
  double width_ = 1.0;
  u64 cur_day_ = 0;
  std::size_t size_ = 0;
  u64 ops_since_rebuild_ = 0;
  u64 rebuilds_ = 0;
};

}  // namespace cods
