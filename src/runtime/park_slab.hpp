// Storage for the stacks of parked simulate fibers
// (docs/SIMULATION.md "Park and resume copy"). Defined in sim.cpp, whose
// engine owns one ParkDeltas, and with it one slab, per run.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace cods {

/// One contiguous slot per parked delta, in size classes 8 B apart, so a
/// delta of whole 8-byte words fills its slot exactly. A class carves
/// its slots from chunks; a chunk whose last slot is released goes to a
/// pool shared by every class, so memory a shallow park gave back serves
/// the next deeper one. A delta larger than the largest class gets a
/// chunk of its own, freed on release. Slots are 8-byte aligned.
class ParkSlab {
 public:
  static constexpr std::size_t kClassStep = 8;
  static constexpr std::size_t kLargestClass = 16 * 1024;
  /// A new chunk holds at least this many slots...
  static constexpr std::size_t kMinSlots = 4;
  /// ...and at most this many bytes; between the two, it is a
  /// thirty-second of what the slab already holds, so a small run pays
  /// for what it parks.
  static constexpr std::size_t kMaxChunkBytes = 64 * 1024;

  struct Chunk;
  struct Slot {
    std::byte* data = nullptr;
    Chunk* chunk = nullptr;
  };

  ParkSlab() = default;
  ~ParkSlab();
  ParkSlab(const ParkSlab&) = delete;
  ParkSlab& operator=(const ParkSlab&) = delete;

  /// A slot of at least `bytes` (> 0) writable bytes.
  Slot acquire(std::size_t bytes);
  /// Gives back a slot from acquire(); its bytes are not read again.
  void release(Slot slot);

  /// Bytes held now (chunk headers, slots and the pool) and at most.
  u64 bytes() const { return bytes_; }
  u64 peak_bytes() const { return peak_bytes_; }

 private:
  Chunk* new_chunk(std::size_t cls);
  Chunk* allocate(std::size_t payload);
  void free_chunk(Chunk* chunk);
  void unlink(Chunk* chunk);

  /// Per class: chunks with a free slot, linked through Chunk::next.
  std::vector<Chunk*> partial_;
  /// Empty chunks that can serve any class.
  std::vector<Chunk*> pool_;
  /// Every chunk held, each knowing its index here.
  std::vector<Chunk*> chunks_;
  u64 bytes_ = 0;
  u64 peak_bytes_ = 0;
};

/// Parked stacks kept as deltas. The first park at each depth becomes
/// that depth's template for the rest of the run. A later park that
/// differs from its template holds a slab slot with a bitmap of the
/// 8-byte words that differ (1 bit per word, 64 words to a bitmap word)
/// followed by only those words; a park equal to its template, the
/// first one included, holds no slot. Restoring writes the template
/// back and scatters the stored words over it, so a copy comes back
/// exactly as it was saved.
class ParkDeltas {
 public:
  static constexpr std::size_t kWordBytes = 8;

  struct Saved {
    ParkSlab::Slot slot;    ///< null when equal to the template
    std::size_t bytes = 0;  ///< what the slot holds: bitmap and words
  };

  /// Stores the `depth` bytes at `frames`, 8-byte aligned; `depth` must
  /// be a positive multiple of kWordBytes.
  Saved save(const std::byte* frames, std::size_t depth);
  /// Writes what save(frames, depth) stored back to `frames` and
  /// releases its slot.
  void restore(std::byte* frames, std::size_t depth, ParkSlab::Slot slot);

  /// The slab's peak bytes plus what the templates and the bitmap
  /// buffer reserve: both live for the whole run, so this bounds what
  /// the copies ever held at once.
  u64 peak_bytes() const {
    return slab_.peak_bytes() + template_words_.capacity() * kWordBytes +
           templates_.capacity() * sizeof(Template) +
           bitmap_.capacity() * kWordBytes;
  }

 private:
  struct Template {
    std::size_t depth = 0;
    std::size_t offset = 0;  ///< first word in template_words_
  };

  /// The first template at least `depth` deep.
  std::vector<Template>::iterator find(std::size_t depth);

  /// By depth; a run parks at a few distinct depths.
  std::vector<Template> templates_;
  /// Every template's words, in the order the templates were made.
  std::vector<u64> template_words_;
  /// The bitmap of the park being saved, before its slot is sized.
  std::vector<u64> bitmap_;
  ParkSlab slab_;
};

}  // namespace cods
