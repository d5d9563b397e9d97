// Open-addressing hash table with no heap node per entry: the entries sit
// in one dense vector, and a power-of-two array of 8-byte index slots,
// probed linearly with backshift deletion (no tombstones), maps each key's
// hash to its entry. Used where a node-based map's per-entry allocation
// dominates a hot path: the simulate scheduler's wait channels, the
// transport's window registry and the object store's key index. A full
// index slot is an entry number and 32 hash bits, so a probe compares
// keys only on a hash match, and a grow or a backshift never rehashes a
// key. Memory per entry is sizeof(Entry) plus 8 B per index slot (at most
// 3/4 of them in use).
//
// Iteration visits the dense entries, whose order depends on the insertion
// and erase history: codslint's determinism check treats a FlatTable like
// std::unordered_map.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace cods {

/// MurmurHash3's 64-bit finaliser: spreads keys whose low bits repeat
/// (aligned pointers, packed ids) over the index mask.
inline u64 mix64(u64 x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// `Hash` maps a key to a well-mixed u64 (its low bits pick the home
/// slot). Keys compare with ==. A value pointer returned by find() or
/// insert() is invalidated by the next insert() or erase().
template <typename Key, typename Value, typename Hash>
class FlatTable {
 public:
  struct Entry {
    Key key;
    Value value;
  };

  /// `min_slots` index slots, rounded up to a power of two.
  explicit FlatTable(std::size_t min_slots = 16)
      : slots_(round_up_pow2(min_slots)) {}

  std::size_t size() const { return entries_.size(); }

  Value* find(const Key& key) {
    const Slot& slot = slots_[probe(key, hash_of(key))];
    return slot.entry == 0 ? nullptr : &entries_[slot.entry - 1].value;
  }
  const Value* find(const Key& key) const {
    const Slot& slot = slots_[probe(key, hash_of(key))];
    return slot.entry == 0 ? nullptr : &entries_[slot.entry - 1].value;
  }
  bool contains(const Key& key) const {
    return slots_[probe(key, hash_of(key))].entry != 0;
  }

  /// Inserts (key, value) unless the key is present. Returns the stored
  /// value and whether it was inserted.
  std::pair<Value*, bool> insert(const Key& key, const Value& value = {}) {
    if ((entries_.size() + 1) * 4 > slots_.size() * 3) grow();
    const u32 h = hash_of(key);
    Slot& slot = slots_[probe(key, h)];
    if (slot.entry != 0) return {&entries_[slot.entry - 1].value, false};
    entries_.push_back(Entry{key, value});
    slot = Slot{static_cast<u32>(entries_.size()), h};
    return {&entries_.back().value, true};
  }

  /// Removes `key`; returns false if it was absent. The last entry moves
  /// into the erased one's place.
  bool erase(const Key& key) {
    const std::size_t i = probe(key, hash_of(key));
    if (slots_[i].entry == 0) return false;
    const u32 entry = slots_[i].entry;
    unlink(i);
    const u32 last = static_cast<u32>(entries_.size());
    if (entry != last) {
      // Repoint the last entry's slot before moving the entry itself.
      slots_[slot_of_entry(last)].entry = entry;
      entries_[entry - 1] = std::move(entries_.back());
    }
    entries_.pop_back();
    return true;
  }

  /// Empties the table and keeps its capacity. A sparse table empties
  /// only its used slots, so clearing costs O(size), not O(capacity).
  void clear() {
    if (entries_.size() * 4 < slots_.size()) {
      for (u32 entry = 1; entry <= entries_.size(); ++entry) {
        slots_[slot_of_entry(entry)] = Slot{};
      }
    } else {
      slots_.assign(slots_.size(), Slot{});
    }
    entries_.clear();
  }

  using const_iterator = typename std::vector<Entry>::const_iterator;
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

 private:
  struct Slot {
    u32 entry = 0;  ///< 1 + index into entries_; 0 = empty
    u32 hash = 0;   ///< low 32 bits of the key's hash
  };

  static std::size_t round_up_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  static u32 hash_of(const Key& key) { return static_cast<u32>(Hash{}(key)); }

  /// The key's slot, or the empty slot that ends its probe run.
  std::size_t probe(const Key& key, u32 h) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = h & mask;
    while (slots_[i].entry != 0 &&
           !(slots_[i].hash == h && entries_[slots_[i].entry - 1].key == key)) {
      i = (i + 1) & mask;
    }
    return i;
  }

  /// The slot that points at `entry` (1-based).
  std::size_t slot_of_entry(u32 entry) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash_of(entries_[entry - 1].key) & mask;
    while (slots_[i].entry != entry) i = (i + 1) & mask;
    return i;
  }

  /// Empties slot `hole` and closes the gap: moves back every later slot
  /// of the probe run whose home is not cyclically within (hole, slot].
  void unlink(std::size_t hole) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t j = (hole + 1) & mask; slots_[j].entry != 0;
         j = (j + 1) & mask) {
      const std::size_t home = slots_[j].hash & mask;
      const bool movable =
          j > hole ? (home <= hole || home > j) : (home <= hole && home > j);
      if (movable) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Slot{};
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.entry == 0) continue;
      std::size_t i = slot.hash & mask;
      while (slots_[i].entry != 0) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::vector<Entry> entries_;
};

}  // namespace cods
