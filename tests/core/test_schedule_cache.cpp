// Coherence of the client-side communication-schedule cache: a cached
// schedule must be invisible — every get returns exactly the bytes a
// client without the cache would see, across puts, re-puts, retires and
// node drops. The property test drives randomized interleavings of all
// four mutation kinds against a caching and a non-caching client and
// demands bit-identical outputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "core/cods.hpp"
#include "support/seed_report.hpp"

namespace cods {
namespace {

class ScheduleCacheTest : public ::testing::Test {
 protected:
  ScheduleCacheTest()
      : cluster_(ClusterSpec{.num_nodes = 4, .cores_per_node = 4}),
        space_(cluster_, metrics_, Box{{0, 0}, {15, 15}}) {}

  CodsClient client(i32 node, i32 core, i32 app_id) {
    const CoreLoc loc{node, core};
    return CodsClient(space_, Endpoint{cluster_.global_core(loc), loc},
                      app_id);
  }

  std::vector<std::byte> pattern_data(const Box& box, u64 seed) {
    std::vector<std::byte> data(box_bytes(box, 8));
    fill_pattern(data, box, 8, seed);
    return data;
  }

  u64 control_transfers() const {
    return metrics_.total(TrafficClass::kControl).transfers;
  }

  Cluster cluster_{ClusterSpec{.num_nodes = 4, .cores_per_node = 4}};
  Metrics metrics_;
  CodsSpace space_;
};

TEST_F(ScheduleCacheTest, RepeatedGetHitsAndSkipsQuery) {
  CodsClient producer = client(0, 0, 1);
  CodsClient consumer = client(1, 0, 2);
  const Box box{{0, 0}, {7, 7}};
  producer.put_seq("t", 0, box, pattern_data(box, 5), 8);

  std::vector<std::byte> out(box_bytes(box, 8));
  const GetResult first = consumer.get_seq("t", 0, box, out, 8);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_GT(first.dht_cores, 0);
  EXPECT_EQ(consumer.schedule_cache_size(), 1u);

  const u64 control_before = control_transfers();
  const GetResult second = consumer.get_seq("t", 0, box, out, 8);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_FALSE(second.lookup_cache_hit);
  EXPECT_EQ(second.dht_cores, 0);  // no query RPCs on a hit
  EXPECT_EQ(control_transfers(), control_before);
  EXPECT_EQ(second.bytes, first.bytes);
  EXPECT_EQ(second.sources, first.sources);
  EXPECT_EQ(verify_pattern(out, box, 8, 5), 0u);
}

TEST_F(ScheduleCacheTest, ClearForcesRequery) {
  CodsClient producer = client(0, 0, 1);
  CodsClient consumer = client(1, 0, 2);
  const Box box{{0, 0}, {7, 7}};
  producer.put_seq("c", 0, box, pattern_data(box, 6), 8);
  std::vector<std::byte> out(box_bytes(box, 8));
  consumer.get_seq("c", 0, box, out, 8);
  EXPECT_EQ(consumer.schedule_cache_size(), 1u);

  consumer.clear_schedule_cache();
  EXPECT_EQ(consumer.schedule_cache_size(), 0u);
  const u64 control_before = control_transfers();
  const GetResult again = consumer.get_seq("c", 0, box, out, 8);
  EXPECT_FALSE(again.cache_hit);
  EXPECT_GT(again.dht_cores, 0);
  EXPECT_GT(control_transfers(), control_before);
  EXPECT_EQ(verify_pattern(out, box, 8, 6), 0u);
  EXPECT_EQ(consumer.schedule_cache_size(), 1u);
}

TEST_F(ScheduleCacheTest, InvalidatedOnPut) {
  CodsClient consumer = client(1, 0, 2);
  const Box left{{0, 0}, {7, 7}};
  const Box right{{0, 8}, {7, 15}};
  const Box whole{{0, 0}, {7, 15}};
  CodsClient p0 = client(0, 0, 1);
  p0.put_seq("u", 0, left, pattern_data(left, 3), 8);
  p0.put_seq("u", 0, right, pattern_data(right, 3), 8);

  std::vector<std::byte> out(box_bytes(whole, 8));
  EXPECT_FALSE(consumer.get_seq("u", 0, whole, out, 8).cache_hit);
  EXPECT_TRUE(consumer.get_seq("u", 0, whole, out, 8).cache_hit);

  // A new put of an overlapping region (re-execution replaces it, from a
  // different node) withdraws the window the cached schedule names: the
  // schedule must not be used.
  space_.set_reexecution(true);
  CodsClient p2 = client(2, 0, 1);
  p2.put_seq("u", 0, right, pattern_data(right, 9), 8);
  space_.set_reexecution(false);

  const GetResult after = consumer.get_seq("u", 0, whole, out, 8);
  EXPECT_FALSE(after.cache_hit);
  EXPECT_GT(after.dht_cores, 0);
  // The untouched half is unchanged; the replaced half carries the new
  // producer's pattern (extract each half from the whole-region buffer).
  std::vector<std::byte> half(box_bytes(left, 8));
  copy_box_region(out, whole, half, left, left, 8);
  EXPECT_EQ(verify_pattern(half, left, 8, 3), 0u);
  copy_box_region(out, whole, half, right, right, 8);
  EXPECT_EQ(verify_pattern(half, right, 8, 9), 0u);
}

TEST_F(ScheduleCacheTest, InvalidatedOnRetireVersionAware) {
  CodsClient producer = client(0, 0, 1);
  CodsClient consumer = client(1, 0, 2);
  const Box box{{0, 0}, {7, 7}};
  producer.put_seq("w", 0, box, pattern_data(box, 1), 8);
  producer.put_seq("w", 1, box, pattern_data(box, 2), 8);

  std::vector<std::byte> out(box_bytes(box, 8));
  EXPECT_FALSE(consumer.get_seq("w", 0, box, out, 8).cache_hit);
  EXPECT_TRUE(consumer.get_seq("w", 1, box, out, 8).cache_hit);

  space_.retire("w", 0);
  // The schedule is shared by every version, but it is checked against
  // this version's windows: version 0's are withdrawn, so the get drops
  // the entry, re-queries and fails cleanly on the empty DHT.
  EXPECT_THROW(consumer.get_seq("w", 0, box, out, 8), Error);
  EXPECT_EQ(consumer.schedule_cache_size(), 0u);
  // Version 1 was not retired: it rebuilds the schedule, then reuses it.
  EXPECT_FALSE(consumer.get_seq("w", 1, box, out, 8).cache_hit);
  const GetResult v1 = consumer.get_seq("w", 1, box, out, 8);
  EXPECT_TRUE(v1.cache_hit);
  EXPECT_EQ(verify_pattern(out, box, 8, 2), 0u);

  // Re-putting version 0 after retirement must be visible: the same
  // layout reuses the schedule, and the pull reads the new bytes.
  producer.put_seq("w", 0, box, pattern_data(box, 7), 8);
  const GetResult v0 = consumer.get_seq("w", 0, box, out, 8);
  EXPECT_TRUE(v0.cache_hit);
  EXPECT_EQ(verify_pattern(out, box, 8, 7), 0u);
}

TEST_F(ScheduleCacheTest, InvalidatedOnDropNode) {
  CodsClient producer = client(0, 0, 1);
  CodsClient consumer = client(1, 0, 2);
  const Box box{{0, 0}, {7, 7}};
  producer.put_seq("x", 0, box, pattern_data(box, 4), 8);
  std::vector<std::byte> out(box_bytes(box, 8));
  consumer.get_seq("x", 0, box, out, 8);
  EXPECT_EQ(consumer.schedule_cache_size(), 1u);

  // Node 0 dies: its windows are withdrawn and DHT records dropped. A
  // stale schedule would pull from a withdrawn window and throw "window
  // not exposed"; the window check forces a re-query instead.
  space_.drop_node(0);
  CodsClient recovery = client(2, 0, 1);
  space_.set_reexecution(true);
  recovery.put_seq("x", 0, box, pattern_data(box, 4), 8);
  space_.set_reexecution(false);

  const GetResult after = consumer.get_seq("x", 0, box, out, 8);
  EXPECT_FALSE(after.cache_hit);
  EXPECT_GT(after.dht_cores, 0);
  EXPECT_EQ(verify_pattern(out, box, 8, 4), 0u);
  // The rebuilt schedule names the recovery node and is reused.
  EXPECT_TRUE(consumer.get_seq("x", 0, box, out, 8).cache_hit);
  EXPECT_EQ(verify_pattern(out, box, 8, 4), 0u);
}

TEST_F(ScheduleCacheTest, OneEntryPerRegionAcrossVersions) {
  CodsClient producer = client(0, 0, 1);
  CodsClient consumer = client(1, 0, 2);
  const Box box{{0, 0}, {3, 3}};
  const Box other{{4, 4}, {7, 7}};
  std::vector<std::byte> out(box_bytes(box, 8));
  for (i32 v = 0; v < 300; ++v) {
    producer.put_seq("many", v, box, pattern_data(box, 1), 8);
    EXPECT_EQ(consumer.get_seq("many", v, box, out, 8).cache_hit, v > 0);
    EXPECT_EQ(consumer.schedule_cache_size(), 1u);
    space_.retire_older_than("many", 1);
  }
  // A second region is a second entry, not a replacement of the first.
  producer.put_seq("many", 300, other, pattern_data(other, 1), 8);
  consumer.get_seq("many", 300, other, out, 8);
  EXPECT_EQ(consumer.schedule_cache_size(), 2u);
}

TEST_F(ScheduleCacheTest, StoreCountsEachObjectOnce) {
  CodsClient producer = client(0, 0, 1);
  CodsClient twin = client(3, 0, 1);
  CodsClient consumer = client(1, 0, 2);
  const Box box{{0, 0}, {7, 7}};
  const u64 bytes = box_bytes(box, 8);
  producer.put_seq("s", 0, box, pattern_data(box, 2), 8);
  EXPECT_EQ(space_.stored_bytes(), bytes);
  std::vector<std::byte> out(bytes);
  consumer.get_seq("s", 0, box, out, 8);

  // A speculative twin of the same object keeps the original: nothing is
  // stored twice and the cached schedule still names the original node.
  space_.set_speculation(true);
  EXPECT_FALSE(twin.put_seq("s", 0, box, pattern_data(box, 8), 8).stored);
  space_.set_speculation(false);
  EXPECT_EQ(space_.stored_bytes(), bytes);
  EXPECT_TRUE(consumer.get_seq("s", 0, box, out, 8).cache_hit);
  EXPECT_EQ(verify_pattern(out, box, 8, 2), 0u);

  // A re-execution replaces it: still one copy, now on the twin's node.
  space_.set_reexecution(true);
  EXPECT_TRUE(twin.put_seq("s", 0, box, pattern_data(box, 8), 8).stored);
  space_.set_reexecution(false);
  EXPECT_EQ(space_.stored_bytes(), bytes);
  EXPECT_FALSE(consumer.get_seq("s", 0, box, out, 8).cache_hit);
  EXPECT_EQ(verify_pattern(out, box, 8, 8), 0u);

  space_.retire("s", 0);
  EXPECT_EQ(space_.stored_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Property test: randomized interleavings of put / get / re-put / retire /
// drop_node. A caching consumer (schedule cache on) and an uncached
// consumer (schedule cache off) read the same regions; outputs must be
// bit-identical and match the expected pattern at every step.
// ---------------------------------------------------------------------------

class ScheduleCacheProperty : public ::testing::TestWithParam<u64> {};

TEST_P(ScheduleCacheProperty, CachedEqualsUncachedUnderMutations) {
  CODS_SEED_NOTE(GetParam());
  Rng rng(GetParam());
  const Cluster cluster(ClusterSpec{.num_nodes = 4, .cores_per_node = 4});
  Metrics metrics;
  CodsSpace space(cluster, metrics, Box{{0, 0}, {15, 15}});
  const auto make_client = [&](i32 node, i32 core, i32 app) {
    const CoreLoc loc{node, core};
    return CodsClient(space, Endpoint{cluster.global_core(loc), loc}, app);
  };

  CodsClient cached = make_client(1, 1, 2);
  CodsClient uncached = make_client(2, 1, 3);
  uncached.set_schedule_cache_enabled(false);

  const Box top{{0, 0}, {7, 15}};
  const Box bottom{{8, 0}, {15, 15}};
  const Box whole{{0, 0}, {15, 15}};
  constexpr u64 kElem = 8;

  // seed_of[v] tracks the pattern the live copy of version v carries; -1
  // means the version is not currently stored.
  std::vector<i64> seed_of;
  const auto put_version = [&](i32 version, u64 seed, i32 node) {
    CodsClient p_top = make_client(node, 0, 1);
    CodsClient p_bot = make_client((node + 1) % 4, 0, 1);
    std::vector<std::byte> d_top(box_bytes(top, kElem));
    std::vector<std::byte> d_bot(box_bytes(bottom, kElem));
    fill_pattern(d_top, top, kElem, seed);
    fill_pattern(d_bot, bottom, kElem, seed);
    p_top.put_seq("f", version, top, d_top, kElem);
    p_bot.put_seq("f", version, bottom, d_bot, kElem);
  };

  i32 next_version = 0;
  u64 next_seed = GetParam() * 1000;
  u64 hits = 0;
  for (int step = 0; step < 60; ++step) {
    const u64 action = rng.below(10);
    if (action < 3 || seed_of.empty()) {
      // New version from clients on a random node pair.
      put_version(next_version, next_seed, static_cast<i32>(rng.below(4)));
      seed_of.push_back(static_cast<i64>(next_seed));
      ++next_version;
      ++next_seed;
    } else if (action < 7) {
      // Read a random live version through both consumers. Repeat reads
      // of a region exercise cache hits, across versions too.
      const i32 v = static_cast<i32>(rng.below(seed_of.size()));
      if (seed_of[static_cast<size_t>(v)] < 0) continue;
      const Box& region = rng.below(3) == 0 ? whole
                          : rng.below(2) == 0 ? top
                                              : bottom;
      std::vector<std::byte> a(box_bytes(region, kElem));
      std::vector<std::byte> b(box_bytes(region, kElem));
      const GetResult ga = cached.get_seq("f", v, region, a, kElem);
      const GetResult gb = uncached.get_seq("f", v, region, b, kElem);
      ASSERT_EQ(a, b) << "cached and uncached reads diverged, seed="
                      << GetParam() << " step=" << step;
      EXPECT_EQ(ga.bytes, gb.bytes);
      EXPECT_EQ(ga.sources, gb.sources);
      EXPECT_FALSE(gb.cache_hit);
      EXPECT_GT(gb.dht_cores, 0);
      EXPECT_EQ(verify_pattern(
                    a, region, kElem,
                    static_cast<u64>(seed_of[static_cast<size_t>(v)])),
                0u);
      if (ga.cache_hit) {
        EXPECT_EQ(ga.dht_cores, 0);
        ++hits;
      }
    } else if (action < 8) {
      // Re-execution style re-put: same regions, new pattern, other nodes.
      const i32 v = static_cast<i32>(rng.below(seed_of.size()));
      if (seed_of[static_cast<size_t>(v)] < 0) continue;
      space.set_reexecution(true);
      put_version(v, next_seed, static_cast<i32>(rng.below(4)));
      space.set_reexecution(false);
      seed_of[static_cast<size_t>(v)] = static_cast<i64>(next_seed);
      ++next_seed;
    } else if (action < 9) {
      const i32 v = static_cast<i32>(rng.below(seed_of.size()));
      if (seed_of[static_cast<size_t>(v)] < 0) continue;
      space.retire("f", v);
      seed_of[static_cast<size_t>(v)] = -1;
    } else {
      // Node failure: every version loses the halves homed there; restore
      // all live versions from scratch on surviving nodes (re-execution).
      const i32 node = static_cast<i32>(rng.below(4));
      space.drop_node(node);
      space.set_reexecution(true);
      for (size_t v = 0; v < seed_of.size(); ++v) {
        if (seed_of[v] < 0) continue;
        put_version(static_cast<i32>(v), static_cast<u64>(seed_of[v]),
                    (node + 1) % 4);
      }
      space.set_reexecution(false);
    }
    // The store's running byte total follows every mutation: each live
    // version holds exactly one copy of the whole domain.
    const auto live = static_cast<u64>(
        std::count_if(seed_of.begin(), seed_of.end(),
                      [](i64 seed) { return seed >= 0; }));
    ASSERT_EQ(space.stored_bytes(), live * box_bytes(whole, kElem))
        << "seed=" << GetParam() << " step=" << step;
  }
  // Epilogue: a guaranteed back-to-back repeat read so every seed
  // exercises at least one hit (the random walk above may not repeat a
  // region over an unmoved layout on its own).
  if (seed_of.empty() || seed_of.back() < 0) {
    put_version(next_version, next_seed, 0);
    seed_of.push_back(static_cast<i64>(next_seed));
  }
  const i32 last = static_cast<i32>(seed_of.size()) - 1;
  const u64 last_seed = static_cast<u64>(seed_of[static_cast<size_t>(last)]);
  std::vector<std::byte> a(box_bytes(whole, kElem));
  std::vector<std::byte> b(box_bytes(whole, kElem));
  cached.get_seq("f", last, whole, a, kElem);
  const GetResult repeat = cached.get_seq("f", last, whole, a, kElem);
  EXPECT_TRUE(repeat.cache_hit);
  EXPECT_EQ(repeat.dht_cores, 0);
  if (repeat.cache_hit) ++hits;
  uncached.get_seq("f", last, whole, b, kElem);
  EXPECT_EQ(a, b);
  EXPECT_EQ(verify_pattern(a, whole, kElem, last_seed), 0u);
  EXPECT_GT(hits, 0u) << "interleaving never exercised a cache hit, seed="
                      << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleCacheProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12));

}  // namespace
}  // namespace cods
