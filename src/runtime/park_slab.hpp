// Storage for the stack copies of parked simulate fibers
// (docs/SIMULATION.md "Park and resume copy"). Defined in sim.cpp, whose
// engine owns one slab per run.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace cods {

/// One contiguous slot per parked copy, in size classes 16 B apart. A
/// class carves its slots from chunks; a chunk whose last slot is
/// released goes to a pool shared by every class, so memory a shallow
/// park gave back serves the next deeper one. A copy deeper than the
/// largest class gets a chunk of its own, freed on release.
class ParkSlab {
 public:
  static constexpr std::size_t kClassStep = 16;
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

}  // namespace cods
