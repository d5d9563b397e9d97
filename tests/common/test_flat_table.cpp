#include <gtest/gtest.h>

#include <map>
#include <random>

#include "common/flat_table.hpp"

namespace cods {
namespace {

struct MixHash {
  u64 operator()(u64 key) const { return mix64(key); }
};

/// Sends every key to a handful of home slots, so probe runs are long,
/// wrap around the index and overlap: the backshift paths all run.
struct ClusteredHash {
  u64 operator()(u64 key) const { return (key % 3) * 0x40000000ULL + 7; }
};

template <typename Hash>
void run_against_model(u64 seed, u64 key_range, int ops) {
  FlatTable<u64, u64, Hash> table(4);
  std::map<u64, u64> model;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<u64> key(0, key_range - 1);
  std::uniform_int_distribution<int> op(0, 9);
  for (int i = 0; i < ops; ++i) {
    const u64 k = key(rng);
    const int o = op(rng);
    if (o < 5) {
      const auto [value, inserted] = table.insert(k, k * 3 + 1);
      const bool model_inserted = model.emplace(k, k * 3 + 1).second;
      ASSERT_EQ(inserted, model_inserted) << "op " << i;
      ASSERT_EQ(*value, model.at(k));
      if (o == 0) {
        *value += 1;
        model[k] += 1;
      }
    } else if (o < 8) {
      ASSERT_EQ(table.erase(k), model.erase(k) == 1) << "op " << i;
    } else {
      const u64* found = table.find(k);
      ASSERT_EQ(found != nullptr, model.contains(k)) << "op " << i;
      if (found != nullptr) {
        ASSERT_EQ(*found, model.at(k));
      }
    }
    ASSERT_EQ(table.size(), model.size());
  }
  // Every key still resolves, and iteration visits each entry once.
  std::map<u64, u64> seen;
  for (const auto& entry : table) {
    ASSERT_TRUE(seen.emplace(entry.key, entry.value).second);
  }
  EXPECT_EQ(seen, model);
  for (const auto& [k, v] : model) {
    ASSERT_TRUE(table.contains(k));
    EXPECT_EQ(*table.find(k), v);
  }
}

TEST(FlatTable, MatchesOrderedMapUnderChurn) {
  for (u64 seed = 1; seed <= 4; ++seed) {
    run_against_model<MixHash>(seed, 500, 20000);
  }
}

TEST(FlatTable, MatchesOrderedMapWithCollidingHashes) {
  for (u64 seed = 1; seed <= 4; ++seed) {
    run_against_model<ClusteredHash>(seed, 60, 5000);
  }
}

TEST(FlatTable, ClearKeepsWorking) {
  FlatTable<u64, u64, MixHash> table;
  for (u64 k = 0; k < 100; ++k) table.insert(k, k);
  EXPECT_EQ(table.size(), 100u);
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.find(5), nullptr);
  EXPECT_TRUE(table.insert(5, 50).second);
  EXPECT_FALSE(table.insert(5, 60).second);
  EXPECT_EQ(*table.find(5), 50u);
  EXPECT_EQ(table.begin()->key, 5u);
}

TEST(FlatTable, SparseClearEmptiesOnlyUsedSlots) {
  // Few entries in a large index take the per-entry clear; colliding
  // probe runs must come out empty all the same.
  FlatTable<u64, u64, ClusteredHash> colliding(1024);
  FlatTable<u64, u64, MixHash> spread(1024);
  for (int round = 0; round < 3; ++round) {
    for (u64 k = 0; k < 20; ++k) {
      EXPECT_TRUE(colliding.insert(k + round, k).second);
      EXPECT_TRUE(spread.insert(k * 977 + round, k).second);
    }
    colliding.clear();
    spread.clear();
    EXPECT_EQ(colliding.size(), 0u);
    EXPECT_EQ(spread.size(), 0u);
    for (u64 k = 0; k < 40; ++k) {
      EXPECT_EQ(colliding.find(k), nullptr);
      EXPECT_EQ(spread.find(k * 977 + round), nullptr);
    }
  }
}

}  // namespace
}  // namespace cods
