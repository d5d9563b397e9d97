// ParkSlab and ParkDeltas (runtime/park_slab.hpp): the storage simulate
// mode keeps parked fibers' stacks in, as deltas against a per-depth
// template, and ParkDepths, the histogram of how deep those parks were.
// The engine-level counterparts (every copy comes back intact, resumed
// fibers give their slots back) are in test_simulate_equivalence.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <random>
#include <vector>

#include "common/error.hpp"
#include "runtime/park_slab.hpp"
#include "runtime/sim.hpp"
#include "support/seed_report.hpp"

namespace cods {
namespace {

struct Held {
  ParkSlab::Slot slot;
  std::size_t bytes = 0;
  u8 salt = 0;
};

void fill(const Held& h) {
  for (std::size_t i = 0; i < h.bytes; ++i) {
    h.slot.data[i] = static_cast<std::byte>((i * 131 + h.salt) & 0xff);
  }
}

/// Bytes of `h` that no longer hold what fill() wrote.
std::size_t damaged(const Held& h) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < h.bytes; ++i) {
    if (h.slot.data[i] != static_cast<std::byte>((i * 131 + h.salt) & 0xff)) {
      ++bad;
    }
  }
  return bad;
}

TEST(ParkSlab, SeededParkResumeSequencesKeepEveryCopy) {
  // Random parks and resumes from 16 B to past the largest class: every
  // copy reads back as written while other slots come and go, so no two
  // live slots overlap, and the slab holds at least what is live.
  const u64 first = testing::seed_from_env("CODS_SLAB_SEED", 1);
  for (u64 seed = first; seed < first + 8; ++seed) {
    CODS_SEED_TRACE("CODS_SLAB_SEED", seed);
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<std::size_t> depth(
        16, ParkSlab::kLargestClass + 4096);
    std::uniform_int_distribution<std::size_t> shallow(16, 2048);
    ParkSlab slab;
    std::vector<Held> held;
    u64 live = 0;
    for (int op = 0; op < 4000; ++op) {
      // Parks outnumber resumes until ~300 copies are live, then trail.
      const u64 park_odds = held.size() < 300 ? 5 : 3;
      const bool park = held.empty() || rng() % 8 < park_odds;
      if (park) {
        Held h;
        h.bytes = rng() % 4 == 0 ? depth(rng) : shallow(rng);
        h.salt = static_cast<u8>(rng());
        h.slot = slab.acquire(h.bytes);
        fill(h);
        held.push_back(h);
        live += h.bytes;
      } else {
        const std::size_t pick = rng() % held.size();
        ASSERT_EQ(damaged(held[pick]), 0u) << "op " << op;
        slab.release(held[pick].slot);
        live -= held[pick].bytes;
        held[pick] = held.back();
        held.pop_back();
      }
      ASSERT_GE(slab.bytes(), live);
    }
    for (const Held& h : held) {
      ASSERT_EQ(damaged(h), 0u);
      slab.release(h.slot);
    }
    EXPECT_LE(slab.bytes(), slab.peak_bytes());
  }
}

TEST(ParkSlab, ClassEdgesAndDedicatedCopies) {
  // The last two are past the largest class, the last the whole stack.
  constexpr std::size_t kTop = ParkSlab::kLargestClass;
  const std::size_t sizes[] = {1, 15, 16, 17, kTop - 1, kTop, kTop + 1, 98304};
  ParkSlab slab;
  std::vector<Held> held;
  for (const std::size_t bytes : sizes) {
    Held h{slab.acquire(bytes), bytes, static_cast<u8>(bytes)};
    fill(h);
    held.push_back(h);
  }
  const u64 with_dedicated = slab.bytes();
  for (const Held& h : held) EXPECT_EQ(damaged(h), 0u) << h.bytes;
  // Copies past the largest class have chunks of their own, returned to
  // the heap on release; class chunks stay for the next park.
  slab.release(held[7].slot);
  slab.release(held[6].slot);
  EXPECT_LE(slab.bytes() + sizes[7] + sizes[6], with_dedicated);
  for (std::size_t i = 0; i < 6; ++i) slab.release(held[i].slot);
  EXPECT_GT(slab.bytes(), 0u);
}

TEST(ParkSlab, ShallowThenDeepReusesTheShallowChunks) {
  // The two parks of a weak-scaling rank: every fiber parks at 1,408 B,
  // then, one by one in park order, resumes and parks again at 1,664 B.
  // Chunks the shallow class empties go to the shared pool and the deep
  // class carves them, so the slab peaks near the live bytes: one partial
  // chunk per class, plus what a chunk loses to its header and to a tail
  // too short for one more slot (under one 1,664-B slot per 64-KiB
  // chunk), never the sum of both phases.
  constexpr std::size_t kFibers = 8192;
  constexpr std::size_t kShallow = 1408;
  constexpr std::size_t kDeep = 1664;
  ParkSlab slab;
  std::vector<ParkSlab::Slot> slots(kFibers);
  u64 live = 0;
  u64 peak_live = 0;
  for (auto& slot : slots) {
    slot = slab.acquire(kShallow);
    live += kShallow;
  }
  peak_live = live;
  for (auto& slot : slots) {
    slab.release(slot);
    slot = slab.acquire(kDeep);
    live += kDeep - kShallow;
    peak_live = std::max(peak_live, live);
  }
  const u64 per_chunk_loss =
      peak_live / (ParkSlab::kMaxChunkBytes / kDeep - 1);
  EXPECT_LE(slab.peak_bytes(),
            peak_live + per_chunk_loss + 2 * ParkSlab::kMaxChunkBytes)
      << "live " << peak_live;
  // Without the shared pool the deep class would add its own chunks.
  EXPECT_LT(slab.peak_bytes(), kFibers * (kShallow + kDeep) * 2 / 3);
  for (const auto& slot : slots) slab.release(slot);
}

TEST(ParkDeltas, RoundTripsEveryShapeOfDelta) {
  // At each depth, from one word to past the largest slab class: the
  // template itself, a copy equal to it, one that differs in every word
  // and one that differs at the bitmap's word edges. All are saved
  // before any is restored. The first two take no slot; the others store
  // their bitmap plus only the words that differ.
  ParkDeltas deltas;
  std::mt19937_64 rng(7);
  for (const std::size_t words : {1u, 63u, 64u, 65u, 139u, 2560u}) {
    const std::size_t depth = words * ParkDeltas::kWordBytes;
    const std::size_t map_bytes = (words + 63) / 64 * 8;
    std::vector<u64> first(words);
    for (u64& w : first) w = rng();
    std::vector<u64> every = first;
    for (u64& w : every) w = ~w;
    std::vector<u64> edges = first;
    std::vector<std::size_t> changed;
    for (const std::size_t w : {std::size_t{0}, std::size_t{63},
                                std::size_t{64}, words - 1}) {
      if (w < words && std::find(changed.begin(), changed.end(), w) ==
                           changed.end()) {
        edges[w] ^= 1;
        changed.push_back(w);
      }
    }
    const std::vector<u64>* copies[] = {&first, &first, &every, &edges};
    const std::size_t stored[] = {0, 0, map_bytes + depth,
                                  map_bytes + changed.size() * 8};
    std::vector<ParkSlab::Slot> slots;
    for (std::size_t c = 0; c < 4; ++c) {
      const auto saved = deltas.save(
          reinterpret_cast<const std::byte*>(copies[c]->data()), depth);
      EXPECT_EQ(saved.bytes, stored[c]) << words << " words, copy " << c;
      EXPECT_EQ(saved.slot.data == nullptr, stored[c] == 0)
          << words << " words, copy " << c;
      slots.push_back(saved.slot);
    }
    for (std::size_t c = 4; c-- > 0;) {
      std::vector<u64> frames(words, 0x5a5a5a5a5a5a5a5a);
      deltas.restore(reinterpret_cast<std::byte*>(frames.data()), depth,
                     slots[c]);
      EXPECT_EQ(frames, *copies[c]) << words << " words, copy " << c;
    }
  }
  EXPECT_GT(deltas.peak_bytes(), 2560u * 8);
}

TEST(ParkDeltas, RejectsADepthThatIsNotWholeWords) {
  ParkDeltas deltas;
  alignas(8) std::byte frames[32] = {};
  EXPECT_THROW(deltas.save(frames, 12), Error);
  EXPECT_THROW(deltas.save(frames, 0), Error);
  const auto saved = deltas.save(frames, 16);
  EXPECT_EQ(saved.bytes, 0u);
  deltas.restore(frames, 16, saved.slot);
}

TEST(ParkDeltas, TemplatesOfManyDistinctDepthsStayBounded) {
  // Every park at a new depth: each becomes a template and takes no slab
  // slot, and the templates reserve at most twice the bytes parked.
  ParkDeltas deltas;
  constexpr std::size_t kDepths = 500;
  std::vector<u64> frames(kDepths);
  std::iota(frames.begin(), frames.end(), u64{1});
  u64 parked = 0;
  std::vector<std::pair<std::size_t, ParkSlab::Slot>> slots;
  for (std::size_t words = 1; words <= kDepths; ++words) {
    const std::size_t depth = words * ParkDeltas::kWordBytes;
    const auto saved =
        deltas.save(reinterpret_cast<const std::byte*>(frames.data()), depth);
    EXPECT_EQ(saved.bytes, 0u) << words;
    EXPECT_EQ(saved.slot.data, nullptr) << words;
    slots.emplace_back(depth, saved.slot);
    parked += depth;
  }
  EXPECT_GE(deltas.peak_bytes(), parked);
  EXPECT_LE(deltas.peak_bytes(), 2 * parked);
  for (const auto& [depth, slot] : slots) {
    std::vector<u64> out(kDepths, 0);
    deltas.restore(reinterpret_cast<std::byte*>(out.data()), depth, slot);
    EXPECT_TRUE(std::equal(out.begin(),
                           out.begin() + depth / ParkDeltas::kWordBytes,
                           frames.begin()))
        << depth;
  }
}

TEST(ParkDepths, PercentilesMaxTotalAndMerge) {
  ParkDepths depths;
  EXPECT_EQ(depths.percentile(0.5), 0u);
  for (int i = 0; i < 98; ++i) depths.add(1416, 200);
  depths.add(1672, 1672);
  depths.add(40968, 648);
  EXPECT_EQ(depths.parks(), 100u);
  EXPECT_EQ(depths.percentile(0.50), 1416u);
  EXPECT_EQ(depths.percentile(0.99), 1672u);
  EXPECT_EQ(depths.percentile(1.0), 40968u);
  EXPECT_EQ(depths.max_bytes, 40968u);
  EXPECT_EQ(depths.total_bytes, 98u * 1416 + 1672 + 40968);
  EXPECT_EQ(depths.stored_bytes, 98u * 200 + 1672 + 648);

  ParkDepths other;
  for (int i = 0; i < 200; ++i) other.add(1672, 24);
  depths.merge(other);
  EXPECT_EQ(depths.parks(), 300u);
  EXPECT_EQ(depths.percentile(0.50), 1672u);
  EXPECT_EQ(depths.max_bytes, 40968u);
  EXPECT_EQ(depths.total_bytes, 98u * 1416 + 1672 + 40968 + 200u * 1672);
  EXPECT_EQ(depths.stored_bytes, 98u * 200 + 1672 + 648 + 200u * 24);
  // One entry per distinct depth, whatever the park count.
  EXPECT_EQ(depths.bins.size(), 3u);
  ParkDepths odd;
  odd.add(1, 8);
  odd.add(3, 8);
  EXPECT_EQ(odd.percentile(0.5), 1u);
  EXPECT_EQ(odd.percentile(1.0), 3u);
  depths.merge(odd);
  EXPECT_EQ(depths.percentile(0.0), 1u);
  EXPECT_EQ(depths.parks(), 302u);
}

}  // namespace
}  // namespace cods
