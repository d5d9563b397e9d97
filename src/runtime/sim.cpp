#include "runtime/sim.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include <sys/mman.h>
#include <unistd.h>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#define CODS_SIM_RUSAGE 1
#endif

#include "common/blocking.hpp"
#include "common/error.hpp"
#include "common/flat_table.hpp"
#include "common/lock_order.hpp"
#include "common/sync.hpp"
#include "health/task_clock.hpp"
#include "runtime/calendar_queue.hpp"
#include "runtime/park_slab.hpp"
#include "trace/trace.hpp"

// Fiber-switch annotations keep the sanitizers' shadow state coherent
// while many stacks share one OS thread. ASan must retire a fiber's fake
// frames on every switch; TSan tracks each fiber as its own logical
// thread (flag 0 = switches synchronize, matching the cooperative
// scheduler's sequential semantics).
#if defined(__SANITIZE_ADDRESS__)
#define CODS_SIM_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define CODS_SIM_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CODS_SIM_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define CODS_SIM_TSAN 1
#endif
#endif
#if defined(CODS_SIM_ASAN)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(CODS_SIM_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

// Context switch (docs/SIMULATION.md "Context switch"). On x86-64 ELF a
// fiber switch saves only what the SysV ABI makes callee-saved — rbx,
// rbp, r12-r15, the MXCSR and the x87 control word — swaps rsp and
// returns on the other stack: no syscall, no signal mask. Other ISAs
// keep glibc ucontext.
#if defined(__x86_64__) && defined(__ELF__)
#define CODS_SIM_ASM_SWITCH 1
#else
#include <ucontext.h>
#endif

#if defined(CODS_SIM_ASM_SWITCH)
/// Pushes the callee-saved state on the current stack, stores rsp to
/// *save_sp, loads load_sp and pops the state saved there. The frame at
/// a saved sp is, upward: x87 control word (8-byte slot), MXCSR (8-byte
/// slot), r15, r14, r13, r12, rbx, rbp, return address.
extern "C" void cods_fiber_switch(void** save_sp, void* load_sp);
asm(R"(
  .pushsection .text
  .p2align 4
  .globl cods_fiber_switch
  .hidden cods_fiber_switch
  .type cods_fiber_switch, @function
cods_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $16, %rsp
  stmxcsr 8(%rsp)
  fnstcw (%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr 8(%rsp)
  fldcw (%rsp)
  addq $16, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size cods_fiber_switch, .-cods_fiber_switch
  .popsection
)");
#endif

namespace cods {

// ---- park depths ----

void ParkDepths::add(std::size_t bytes, std::size_t stored) {
  const auto depth = static_cast<u32>(bytes);  // below the 96 KiB stack
  auto bin = std::lower_bound(
      bins.begin(), bins.end(), depth,
      [](const std::pair<u32, u64>& b, u32 d) { return b.first < d; });
  if (bin == bins.end() || bin->first != depth) {
    bin = bins.insert(bin, {depth, 0});
  }
  ++bin->second;
  total_bytes += bytes;
  stored_bytes += stored;
  max_bytes = std::max<u64>(max_bytes, bytes);
}

void ParkDepths::merge(const ParkDepths& other) {
  std::vector<std::pair<u32, u64>> merged;
  merged.reserve(bins.size() + other.bins.size());
  auto mine = bins.begin();
  auto theirs = other.bins.begin();
  while (mine != bins.end() || theirs != other.bins.end()) {
    if (theirs == other.bins.end() ||
        (mine != bins.end() && mine->first < theirs->first)) {
      merged.push_back(*mine++);
    } else if (mine == bins.end() || theirs->first < mine->first) {
      merged.push_back(*theirs++);
    } else {
      merged.emplace_back(mine->first, mine->second + theirs->second);
      ++mine;
      ++theirs;
    }
  }
  bins = std::move(merged);
  total_bytes += other.total_bytes;
  stored_bytes += other.stored_bytes;
  max_bytes = std::max(max_bytes, other.max_bytes);
}

u64 ParkDepths::parks() const {
  u64 n = 0;
  for (const auto& [depth, count] : bins) n += count;
  return n;
}

u64 ParkDepths::percentile(double q) const {
  const u64 n = parks();
  if (n == 0) return 0;
  // Nearest rank: the ceil(q * n)-th smallest park, at least the first.
  const double wanted = std::ceil(q * static_cast<double>(n));
  const u64 rank = std::max<u64>(1, static_cast<u64>(wanted));
  u64 seen = 0;
  for (const auto& [depth, count] : bins) {
    seen += count;
    if (seen >= rank) return depth;
  }
  return max_bytes;
}

// ---- park slab ----

struct alignas(16) ParkSlab::Chunk {
  // Neighbours on its class's list of chunks with a free slot.
  Chunk* prev = nullptr;
  Chunk* next = nullptr;
  std::byte* free = nullptr;  // freed slots, linked by their first word
  u32 index = 0;              // position in ParkSlab::chunks_
  u32 payload = 0;            // bytes after this header
  u32 cls = 0;                // size class, or kDedicated
  u32 capacity = 0;           // slots
  u32 carved = 0;             // slots cut from the untouched tail
  u32 used = 0;               // slots held

  static constexpr u32 kDedicated = ~u32{0};
  std::byte* data() { return reinterpret_cast<std::byte*>(this + 1); }
};

namespace {

constexpr std::size_t slot_bytes(std::size_t cls) {
  return (cls + 1) * ParkSlab::kClassStep;
}
static_assert(ParkSlab::kMinSlots * ParkSlab::kLargestClass <=
              ParkSlab::kMaxChunkBytes);

// Under ASan the slab keeps every byte no copy holds poisoned, except a
// free slot's first word (its free-list link), so a copy read or
// written through a released slot is reported like a heap
// use-after-free.
void poison(std::byte* p, std::size_t n) {
#if defined(CODS_SIM_ASAN)
  __asan_poison_memory_region(p, n);
#else
  (void)p;
  (void)n;
#endif
}
void unpoison(std::byte* p, std::size_t n) {
#if defined(CODS_SIM_ASAN)
  __asan_unpoison_memory_region(p, n);
#else
  (void)p;
  (void)n;
#endif
}

}  // namespace

ParkSlab::~ParkSlab() {
  for (Chunk* chunk : chunks_) ::operator delete(chunk);
}

ParkSlab::Slot ParkSlab::acquire(std::size_t bytes) {
  if (bytes > kLargestClass) {
    Chunk* own = allocate((bytes + kClassStep - 1) & ~(kClassStep - 1));
    own->cls = Chunk::kDedicated;
    unpoison(own->data(), bytes);
    return Slot{own->data(), own};
  }
  const std::size_t cls = (bytes - 1) / kClassStep;
  if (cls >= partial_.size()) {
    partial_.resize(std::max(cls + 1, 2 * partial_.size()), nullptr);
  }
  Chunk* chunk = partial_[cls];
  if (chunk == nullptr) chunk = new_chunk(cls);
  std::byte* slot;
  if (chunk->free != nullptr) {
    slot = chunk->free;
    std::memcpy(&chunk->free, slot, sizeof chunk->free);
  } else {
    slot = chunk->data() + std::size_t{chunk->carved++} * slot_bytes(cls);
  }
  if (++chunk->used == chunk->capacity) unlink(chunk);
  unpoison(slot, bytes);
  return Slot{slot, chunk};
}

void ParkSlab::release(Slot slot) {
  Chunk* chunk = slot.chunk;
  if (chunk->cls == Chunk::kDedicated) {
    free_chunk(chunk);
    return;
  }
  const bool was_full = chunk->used == chunk->capacity;
  if (--chunk->used == 0) {
    // Empty: any class may carve it next, from its start.
    if (!was_full) unlink(chunk);
    chunk->free = nullptr;
    chunk->carved = 0;
    poison(chunk->data(), chunk->payload);
    pool_.push_back(chunk);
    return;
  }
  poison(slot.data, slot_bytes(chunk->cls));
  unpoison(slot.data, sizeof chunk->free);
  std::memcpy(slot.data, &chunk->free, sizeof chunk->free);
  chunk->free = slot.data;
  if (was_full) {
    // Back on its class's list, in front: the next park of this class
    // fills it before touching a chunk that may empty out.
    chunk->prev = nullptr;
    chunk->next = partial_[chunk->cls];
    if (chunk->next != nullptr) chunk->next->prev = chunk;
    partial_[chunk->cls] = chunk;
  }
}

ParkSlab::Chunk* ParkSlab::new_chunk(std::size_t cls) {
  const std::size_t slot = slot_bytes(cls);
  // A pooled chunk too small for kMinSlots of this class goes back to
  // the heap, which can coalesce it, rather than serve one or two slots.
  while (!pool_.empty() && pool_.back()->payload < kMinSlots * slot) {
    Chunk* small = pool_.back();
    pool_.pop_back();
    free_chunk(small);
  }
  Chunk* chunk;
  if (!pool_.empty()) {
    chunk = pool_.back();
    pool_.pop_back();
  } else {
    const std::size_t grown = std::bit_floor(std::max<u64>(bytes_ / 32, 1));
    chunk = allocate(std::clamp(grown, kMinSlots * slot, kMaxChunkBytes));
  }
  chunk->cls = static_cast<u32>(cls);
  chunk->capacity = static_cast<u32>(chunk->payload / slot);
  chunk->prev = nullptr;
  chunk->next = nullptr;
  partial_[cls] = chunk;
  return chunk;
}

ParkSlab::Chunk* ParkSlab::allocate(std::size_t payload) {
  auto* chunk = new (::operator new(sizeof(Chunk) + payload)) Chunk{};
  chunk->payload = static_cast<u32>(payload);
  poison(chunk->data(), payload);
  chunk->index = static_cast<u32>(chunks_.size());
  chunks_.push_back(chunk);
  bytes_ += sizeof(Chunk) + payload;
  peak_bytes_ = std::max(peak_bytes_, bytes_);
  return chunk;
}

void ParkSlab::free_chunk(Chunk* chunk) {
  Chunk* last = chunks_.back();
  chunks_[chunk->index] = last;
  last->index = chunk->index;
  chunks_.pop_back();
  bytes_ -= sizeof(Chunk) + chunk->payload;
  ::operator delete(chunk);
}

void ParkSlab::unlink(Chunk* chunk) {
  if (chunk->prev != nullptr) {
    chunk->prev->next = chunk->next;
  } else {
    partial_[chunk->cls] = chunk->next;
  }
  if (chunk->next != nullptr) chunk->next->prev = chunk->prev;
  chunk->prev = nullptr;
  chunk->next = nullptr;
}

// ---- park deltas ----

namespace {

u64 load_word(const std::byte* p) {
  u64 word;
  std::memcpy(&word, p, sizeof word);
  return word;
}

/// Bit i set when word i of the `n` (<= 64) words at `live` differs
/// from word i at `base`.
u64 differ_bits(const std::byte* live, const u64* base, std::size_t n) {
  u64 bits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    bits |= u64{load_word(live + i * ParkDeltas::kWordBytes) != base[i]} << i;
  }
  return bits;
}

}  // namespace

std::vector<ParkDeltas::Template>::iterator ParkDeltas::find(
    std::size_t depth) {
  return std::lower_bound(
      templates_.begin(), templates_.end(), depth,
      [](const Template& t, std::size_t d) { return t.depth < d; });
}

ParkDeltas::Saved ParkDeltas::save(const std::byte* frames,
                                   std::size_t depth) {
  CODS_CHECK(depth > 0 && depth % kWordBytes == 0,
             "simulate: a park depth must be a positive multiple of 8 B");
  const std::size_t words = depth / kWordBytes;
  auto it = find(depth);
  if (it == templates_.end() || it->depth != depth) {
    // The first park at this depth becomes its template and, equal to
    // it, needs no slot.
    templates_.insert(it, Template{depth, template_words_.size()});
    template_words_.resize(template_words_.size() + words);
    std::memcpy(template_words_.data() + template_words_.size() - words,
                frames, depth);
    return Saved{};
  }
  const std::size_t map_words = (words + 63) / 64;
  if (bitmap_.size() < map_words) bitmap_.resize(map_words);
  const u64* base = template_words_.data() + it->offset;
  std::size_t differ = 0;
  for (std::size_t m = 0; m < map_words; ++m) {
    const std::size_t first = m * 64;
    const u64 bits = differ_bits(frames + first * kWordBytes, base + first,
                                 std::min<std::size_t>(64, words - first));
    bitmap_[m] = bits;
    differ += static_cast<std::size_t>(std::popcount(bits));
  }
  if (differ == 0) return Saved{};
  const std::size_t bytes = (map_words + differ) * kWordBytes;
  const ParkSlab::Slot slot = slab_.acquire(bytes);
  std::memcpy(slot.data, bitmap_.data(), map_words * kWordBytes);
  std::byte* out = slot.data + map_words * kWordBytes;
  for (std::size_t m = 0; m < map_words; ++m) {
    for (u64 bits = bitmap_[m]; bits != 0; bits &= bits - 1) {
      const std::size_t word = m * 64 + std::countr_zero(bits);
      std::memcpy(out, frames + word * kWordBytes, kWordBytes);
      out += kWordBytes;
    }
  }
  return Saved{slot, bytes};
}

void ParkDeltas::restore(std::byte* frames, std::size_t depth,
                         ParkSlab::Slot slot) {
  const auto it = find(depth);
  CODS_CHECK(it != templates_.end() && it->depth == depth,
             "simulate: restoring a park depth that was never saved");
  std::memcpy(frames, template_words_.data() + it->offset, depth);
  if (slot.data == nullptr) return;  // equal to the template
  const std::size_t map_words = (depth / kWordBytes + 63) / 64;
  const std::byte* in = slot.data + map_words * kWordBytes;
  for (std::size_t m = 0; m < map_words; ++m) {
    for (u64 bits = load_word(slot.data + m * kWordBytes); bits != 0;
         bits &= bits - 1) {
      const std::size_t word = m * 64 + std::countr_zero(bits);
      std::memcpy(frames + word * kWordBytes, in, kWordBytes);
      in += kWordBytes;
    }
  }
  slab_.release(slot);
}

namespace {

struct Impl;

/// Entry point of every fiber. It takes no arguments (makecontext takes
/// a plain `void (*)()`, and the assembly switch "returns" into it from
/// a prepared frame); the engine and fiber identity travel through the
/// scheduler's thread-locals instead.
void fiber_trampoline();

thread_local Impl* t_impl = nullptr;

/// One switchable execution context: the scheduler (the thread's native
/// stack) or a rank fiber.
struct ContextRec {
  /// Lowest live stack address while switched out. The assembly switch
  /// stores its stack pointer here; the ucontext path stores a frame
  /// marker less kSwapSlack (switch_context).
  void* sp = nullptr;
#if !defined(CODS_SIM_ASM_SWITCH)
  ucontext_t ctx{};
#endif
#if defined(CODS_SIM_ASAN)
  void* fake_stack = nullptr;  // ASan fake-frame save slot
#endif
#if defined(CODS_SIM_TSAN)
  void* tsan = nullptr;  // TSan logical-thread handle
#endif
};

/// The per-fiber state that only a started fiber needs — saved context,
/// saved stack copy, parked thread-local state. Allocated only while a
/// fiber is live (started, not yet done) and recycled through a free
/// list, so at 10^6 ranks the engine holds peak-co-residency LiveFibers,
/// not one per rank. Pointer-stable (records live in a deque): a
/// suspended fiber's switch stored its stack pointer into the record by
/// address.
struct LiveFiber {
  ContextRec rec;
  /// The fiber's live stack, [rec.sp, shared stack top), as a delta
  /// against its depth's template while it is parked; no slot while it
  /// runs or while its stack equals the template.
  ParkSlab::Slot saved;
  /// Thread-local state parked here while the fiber is switched out.
  TaskClock::Snapshot clock{};
  TraceContext* trace = nullptr;
  std::unique_ptr<lock_order::HeldClasses> held;
};

/// The one stack every fiber runs on: SimEngine::kDefaultStackBytes of
/// read/write memory above a PROT_NONE guard page, so an overflowing
/// fiber faults instead of writing into whatever lies below.
class SharedStack {
 public:
  static constexpr auto kBytes =
      static_cast<std::size_t>(SimEngine::kDefaultStackBytes);

  SharedStack()
      : guard_bytes_(static_cast<std::size_t>(sysconf(_SC_PAGESIZE))) {
    void* map = mmap(nullptr, guard_bytes_ + kBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    CODS_CHECK(map != MAP_FAILED, "simulate: cannot map the fiber stack");
    map_ = static_cast<std::byte*>(map);
    CODS_CHECK(mprotect(map_, guard_bytes_, PROT_NONE) == 0,
               "simulate: cannot protect the fiber stack's guard page");
  }
  ~SharedStack() { munmap(map_, guard_bytes_ + kBytes); }
  SharedStack(const SharedStack&) = delete;
  SharedStack& operator=(const SharedStack&) = delete;

  std::byte* bottom() const { return map_ + guard_bytes_; }
  std::byte* top() const { return bottom() + kBytes; }
  bool contains(const void* p) const {
    const auto* b = static_cast<const std::byte*>(p);
    return b >= bottom() && b < top();
  }

 private:
  std::size_t guard_bytes_;  ///< one page
  std::byte* map_ = nullptr;
};

/// Always-resident per-rank record, kept to ~half a cache line so a
/// million-rank enactment's fiber table stays tens of MB. Everything
/// bigger lives in the pooled LiveFiber.
struct Fiber {
  enum class State : u8 { kNew, kReady, kRunning, kBlocked, kDone };

  State state = State::kNew;
  bool timed = false;      ///< current wait has a virtual deadline
  bool timed_out = false;  ///< the deadline fired (wait returns timeout)
  bool cancelled = false;  ///< unwound to break a deadlock
  /// Intrusive FIFO link while parked on a cv/mutex waiter list.
  i32 next_waiter = -1;
  /// Bumped at every wait registration; a timed-heap entry whose epoch
  /// no longer matches is stale (lazy deletion).
  u32 wait_epoch = 0;
  /// Virtual timestamp: the modelled seconds this rank's TaskClock had
  /// accumulated when it last yielded. Orders the ready queue.
  double vtime = 0.0;
  double deadline = 0.0;
  /// Wait channel (cv address) while State::kBlocked on a condvar.
  const void* wait_key = nullptr;
  LiveFiber* live = nullptr;  ///< null unless started and not yet done
};

/// Waiter list head/tail; members chain through Fiber::next_waiter (a
/// fiber waits on at most one channel at a time).
struct WaitList {
  i32 head = -1;
  i32 tail = -1;
};

/// Pointer hash of a wait channel.
struct ChannelHash {
  u64 operator()(const void* p) const {
    return mix64(static_cast<u64>(reinterpret_cast<std::uintptr_t>(p)));
  }
};

/// Wait channels -> waiter lists. Waiter registration is once per
/// block/unblock, the hottest path of a communication-bound enactment, and
/// the flat table reuses its slots instead of allocating a node per churn.
/// A list reference is invalidated by any later insertion.
using WaitTable = FlatTable<const void*, WaitList, ChannelHash>;

/// Pending virtual deadline (lazy deletion: a notify leaves the entry
/// behind; validity is re-derived from the fiber when popped).
struct TimedEntry {
  double deadline = 0.0;
  i32 fiber = -1;
  u32 epoch = 0;
};
/// Orders the heap like the std::set<pair<deadline, index>> it replaced:
/// earliest deadline first, smaller fiber index breaking ties.
struct TimedAfter {
  bool operator()(const TimedEntry& a, const TimedEntry& b) const {
    if (a.deadline != b.deadline) return a.deadline > b.deadline;
    return a.fiber > b.fiber;
  }
};

u64 read_peak_rss_bytes() {
#if defined(CODS_SIM_RUSAGE)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
#if defined(__APPLE__)
    return static_cast<u64>(usage.ru_maxrss);  // bytes
#else
    return static_cast<u64>(usage.ru_maxrss) * 1024;  // KiB
#endif
  }
#endif
  return 0;
}

struct Impl : blocking::SimHook {
  Impl(SimStats* stats, const std::function<void(i32)>& body)
      : stats_(stats), body_(body) {}

  // ---- scheduler ----

  void run(i32 ntasks) {
    fibers_.resize(static_cast<std::size_t>(ntasks));
    stats_->fibers = ntasks;
#if defined(CODS_SIM_TSAN)
    sched_.tsan = __tsan_get_current_fiber();
#endif
    blocking::SimHook* prev_hook = blocking::install_sim_hook(this);
    Impl* prev_impl = t_impl;
    t_impl = this;
    for (i32 index = 0; index < ntasks; ++index) {
      ready_.push(ReadyItem{0.0, next_seq_++, index});
    }
    // Env-gated progress heartbeat: with CODS_SIM_PROGRESS set, one
    // stderr line every ~2M context switches. A 10^6-rank wave runs for
    // minutes with no observable output, and a counter that stops moving
    // while completed_ sits at zero pinpoints which phase is grinding —
    // this is how the store-index quadratic was isolated. Off (the
    // default) it costs one predictable branch per event.
    const bool progress = std::getenv("CODS_SIM_PROGRESS") != nullptr;
    u64 next_report = u64{1} << 21;
    try {
      while (completed_ < ntasks) {
        if (progress && stats_->switches >= next_report) {
          next_report = stats_->switches + (u64{1} << 21);
          std::fprintf(stderr,
                       "[sim] switches=%llu completed=%d/%d blocked=%d "
                       "timed=%lld rebuilds=%llu\n",
                       static_cast<unsigned long long>(stats_->switches),
                       completed_, ntasks, blocked_,
                       static_cast<long long>(timed_live_),
                       static_cast<unsigned long long>(ready_.rebuilds()));
        }
        if (!ready_.empty()) {
          const ReadyItem item = ready_.pop();
          dispatch(fibers_[static_cast<std::size_t>(item.index)]);
          continue;
        }
        if (timed_live_ > 0) {
          fire_earliest_deadline();
          continue;
        }
        // Quiescent with no deadline pending: a true discrete-event
        // deadlock. Cancel every blocked fiber; their waits throw and
        // the ranks unwind like any failed operation.
        CODS_CHECK(blocked_ > 0,
                   "simulate: scheduler stalled with no blocked fibers");
        cancel_blocked();
      }
    } catch (...) {
      t_impl = prev_impl;
      blocking::install_sim_hook(prev_hook);
      throw;
    }
    t_impl = prev_impl;
    blocking::install_sim_hook(prev_hook);
    stats_->stacks = static_cast<i32>(live_pool_.size());
    stats_->arena_bytes = SharedStack::kBytes + deltas_.peak_bytes();
    stats_->ready_rebuilds = ready_.rebuilds();
    stats_->peak_rss_bytes = read_peak_rss_bytes();
    // Surface the lowest-index escaped exception, mirroring the pooled
    // executor's run() contract.
    std::sort(errors_.begin(), errors_.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    if (!errors_.empty()) std::rethrow_exception(errors_.front().second);
  }

  i32 index_of(const Fiber& f) const {
    return static_cast<i32>(&f - fibers_.data());
  }

  void dispatch(Fiber& f) {
    CODS_CHECK(f.state == Fiber::State::kNew || f.state == Fiber::State::kReady,
               "simulate: dispatched a fiber that is not runnable");
    if (f.state == Fiber::State::kNew) {
      prepare(f);
    } else {
      restore_stack(*f.live);
    }
    LiveFiber& live = *f.live;
    f.state = Fiber::State::kRunning;
    cur_ = &f;
    // Each fiber owns private thread-local clock and trace state; swap
    // it in for the fiber's slice and back out for the scheduler's.
    const TaskClock::Snapshot sched_clock = TaskClock::exchange(live.clock);
    TraceContext* sched_trace = TraceContext::exchange_current(live.trace);
    const bool held_tracked = lock_order::enabled();
    if (held_tracked) lock_order::exchange_held(live.held);
    switch_context(sched_, live.rec);
    if (held_tracked) lock_order::exchange_held(live.held);
    live.trace = TraceContext::exchange_current(sched_trace);
    live.clock = TaskClock::exchange(sched_clock);
    cur_ = nullptr;
    stats_->switches += 2;
    f.vtime = std::max(f.vtime, live.clock.elapsed);
    stats_->final_vtime = std::max(stats_->final_vtime, f.vtime);
    if (f.state == Fiber::State::kDone) {
      ++completed_;
      retire(f);
    } else {
      save_stack(live);
    }
  }

  /// Stores a parked fiber's live stack as a delta against the template
  /// of its depth.
  void save_stack(LiveFiber& live) {
    auto* sp = static_cast<std::byte*>(live.rec.sp);
    const auto depth = static_cast<std::size_t>(stack_.top() - sp);
#if defined(CODS_SIM_ASAN)
    // The fiber's frames carry redzones; lift them so the compare may
    // read.
    __asan_unpoison_memory_region(sp, depth);
#endif
    const ParkDeltas::Saved saved = deltas_.save(sp, depth);
    live.saved = saved.slot;
    stats_->park_depths.add(depth, saved.bytes);
  }

  /// Rebuilds a parked fiber's stack where it ran and frees its slot.
  /// Its frames come back without redzones: the shadow still describes
  /// the frames of whichever fiber ran there last.
  void restore_stack(LiveFiber& live) {
    auto* sp = static_cast<std::byte*>(live.rec.sp);
    const auto depth = static_cast<std::size_t>(stack_.top() - sp);
#if defined(CODS_SIM_ASAN)
    __asan_unpoison_memory_region(sp, depth);
#endif
    deltas_.restore(sp, depth, live.saved);
    live.saved = ParkSlab::Slot{};
  }

  void prepare(Fiber& f) {
    LiveFiber* live;
    if (!free_live_.empty()) {
      live = free_live_.back();
      free_live_.pop_back();
    } else {
      live = &live_pool_.emplace_back();
    }
    live->clock = TaskClock::Snapshot{};
    live->trace = nullptr;
    live->held.reset();
#if defined(CODS_SIM_ASAN)
    live->rec.fake_stack = nullptr;
#endif
#if defined(CODS_SIM_TSAN)
    live->rec.tsan = __tsan_create_fiber(0);
#endif
#if defined(CODS_SIM_ASM_SWITCH)
    live->rec.sp = first_frame(stack_.top());
#else
    CODS_CHECK(getcontext(&live->rec.ctx) == 0, "simulate: getcontext failed");
    live->rec.ctx.uc_stack.ss_sp = stack_.bottom();
    live->rec.ctx.uc_stack.ss_size = SharedStack::kBytes;
    live->rec.ctx.uc_link = &sched_.ctx;
    makecontext(&live->rec.ctx, fiber_trampoline, 0);
#endif
    f.live = live;
  }

#if defined(CODS_SIM_ASM_SWITCH)
  /// Builds, below `stack_top` (page-aligned), the frame cods_fiber_switch
  /// pops on a fiber's first entry: the scheduler thread's current MXCSR
  /// and x87 control word (what getcontext gave a new fiber), zeroed
  /// callee-saved registers, fiber_trampoline as the return address,
  /// and a null return address above it that ends unwinding. The ret
  /// leaves rsp at 8 mod 16, as a call would.
  static void* first_frame(std::byte* stack_top) {
    u32 mxcsr = 0;
    u16 fpu_control = 0;
    asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fpu_control));
    constexpr int kWords = 10;  // control words, 6 registers, 2 returns
    u64* frame = reinterpret_cast<u64*>(stack_top) - kWords;
#if defined(CODS_SIM_ASAN)
    // A retired fiber never returned from its frames, so their redzones
    // stay poisoned on the shared stack.
    __asan_unpoison_memory_region(frame, kWords * sizeof(u64));
#endif
    std::fill(frame, frame + kWords, u64{0});
    frame[0] = fpu_control;
    frame[1] = mxcsr;
    frame[8] = reinterpret_cast<u64>(&fiber_trampoline);
    return frame;
  }
#endif

  void retire(Fiber& f) {
    LiveFiber* live = f.live;
#if defined(CODS_SIM_TSAN)
    __tsan_destroy_fiber(live->rec.tsan);
    live->rec.tsan = nullptr;
#endif
    // Recycle the record for not-yet-started fibers: peak allocation
    // tracks co-resident ranks, not total ranks, so pipeline-shaped
    // workloads enact 1M ranks in a handful of records.
    free_live_.push_back(live);
    f.live = nullptr;
  }

  /// Swaps execution from `from` to `to`, keeping the sanitizers' view
  /// of the stacks coherent. `exiting` = `from` never runs again.
  void switch_context(ContextRec& from, ContextRec& to,
                      [[maybe_unused]] bool exiting = false) {
#if defined(CODS_SIM_ASAN)
    const bool to_sched = &to == &sched_;
    __sanitizer_start_switch_fiber(
        exiting ? nullptr : &from.fake_stack,
        to_sched ? sched_stack_bottom_ : stack_.bottom(),
        to_sched ? sched_stack_size_ : SharedStack::kBytes);
#endif
#if defined(CODS_SIM_TSAN)
    __tsan_switch_to_fiber(to.tsan, 0);
#endif
#if defined(CODS_SIM_ASM_SWITCH)
    cods_fiber_switch(&from.sp, to.sp);
#else
    if (&from != &sched_) {
      // swapcontext saves the registers into the record and resumes at
      // this frame's stack pointer, just above the marker.
      from.sp = std::max(frame_marker() - kSwapSlack, stack_.bottom());
    }
    CODS_CHECK(swapcontext(&from.ctx, &to.ctx) == 0,
               "simulate: swapcontext failed");
#endif
#if defined(CODS_SIM_ASAN)
    __sanitizer_finish_switch_fiber(from.fake_stack, nullptr, nullptr);
#endif
  }

  void make_ready(Fiber& f) {
    f.state = Fiber::State::kReady;
    --blocked_;
    ready_.push(ReadyItem{f.vtime, next_seq_++, index_of(f)});
  }

  /// Whether `p` lies on a fiber's stack: the shared stack or, when ASan
  /// moves locals to fake frames to catch use after return, the running
  /// fiber's fake stack.
  bool on_fiber_stack(const void* p) const {
#if defined(CODS_SIM_ASAN)
    if (__asan_addr_is_in_fake_stack(__asan_get_current_fake_stack(),
                                     const_cast<void*>(p), nullptr,
                                     nullptr) != nullptr) {
      return true;
    }
#endif
    return stack_.contains(p);
  }

  /// Appends `f` to the FIFO waiter list of `key` in `table`. A key on a
  /// fiber's stack is rejected: it is a different object, or garbage,
  /// whenever another fiber runs there, and two parked fibers' keys can
  /// collide at one address.
  void append_waiter(WaitTable& table, const void* key, Fiber& f) {
    CODS_CHECK(!on_fiber_stack(key),
               "simulate: wait channel on a fiber's stack (sync objects may "
               "not live on a fiber's stack)");
    const i32 index = index_of(f);
    f.next_waiter = -1;
    WaitList& list = *table.insert(key).first;
    if (list.tail < 0) {
      list.head = index;
    } else {
      fibers_[static_cast<std::size_t>(list.tail)].next_waiter = index;
    }
    list.tail = index;
  }

  /// Unlinks `index` from the waiter list of `key` (deadline firing:
  /// the fiber leaves the list without a notify).
  void unlink_waiter(WaitTable& table, const void* key, i32 index) {
    WaitList* list = table.find(key);
    CODS_CHECK(list != nullptr, "simulate: waiter not registered");
    i32 prev = -1;
    i32 cur = list->head;
    while (cur != index) {
      CODS_CHECK(cur >= 0, "simulate: waiter not on its wait list");
      prev = cur;
      cur = fibers_[static_cast<std::size_t>(cur)].next_waiter;
    }
    const i32 next = fibers_[static_cast<std::size_t>(cur)].next_waiter;
    if (prev < 0) {
      list->head = next;
    } else {
      fibers_[static_cast<std::size_t>(prev)].next_waiter = next;
    }
    if (list->tail == index) list->tail = prev;
    fibers_[static_cast<std::size_t>(index)].next_waiter = -1;
    if (list->head < 0) table.erase(key);
  }

  bool timed_entry_valid(const TimedEntry& e) const {
    const Fiber& f = fibers_[static_cast<std::size_t>(e.fiber)];
    return f.state == Fiber::State::kBlocked && f.timed &&
           f.wait_epoch == e.epoch;
  }

  void push_timed(double deadline, Fiber& f) {
    timed_.push_back(TimedEntry{deadline, index_of(f), f.wait_epoch});
    std::push_heap(timed_.begin(), timed_.end(), TimedAfter{});
    ++timed_live_;
    // Stale entries (waiters that were notified) pile up under lazy
    // deletion; compact when they outnumber the live ones 2:1.
    if (timed_.size() > 2 * static_cast<std::size_t>(timed_live_) + 64) {
      std::erase_if(timed_, [this](const TimedEntry& e) {
        return !timed_entry_valid(e);
      });
      std::make_heap(timed_.begin(), timed_.end(), TimedAfter{});
    }
  }

  void fire_earliest_deadline() {
    while (!timed_.empty()) {
      std::pop_heap(timed_.begin(), timed_.end(), TimedAfter{});
      const TimedEntry e = timed_.back();
      timed_.pop_back();
      if (!timed_entry_valid(e)) continue;  // stale (notified since)
      --timed_live_;
      Fiber& f = fibers_[static_cast<std::size_t>(e.fiber)];
      unlink_waiter(cv_waiters_, f.wait_key, e.fiber);
      f.timed_out = true;
      f.vtime = std::max(f.vtime, e.deadline);
      ++stats_->timeouts;
      make_ready(f);
      return;
    }
    CODS_CHECK(false, "simulate: timed waiter count out of sync");
  }

  void cancel_blocked() {
    for (Fiber& f : fibers_) {
      if (f.state != Fiber::State::kBlocked) continue;
      f.cancelled = true;
      f.next_waiter = -1;
      ++stats_->cancellations;
      make_ready(f);
    }
    cv_waiters_.clear();
    mutex_waiters_.clear();
    timed_.clear();
    timed_live_ = 0;
  }

  /// Parks the current fiber and returns once the scheduler resumes it.
  void suspend() {
    Fiber& f = *cur_;
    f.state = Fiber::State::kBlocked;
    ++blocked_;
    stats_->peak_blocked = std::max(stats_->peak_blocked, blocked_);
    switch_context(f.live->rec, sched_);
  }

  Fiber& require_fiber() {
    CODS_CHECK(cur_ != nullptr,
               "simulate: blocking wait outside any simulated rank");
    return *cur_;
  }

  [[noreturn]] static void throw_cancelled() {
    throw Error(
        "simulate: rank cancelled to break a discrete-event deadlock "
        "(every fiber blocked, no virtual deadline pending)");
  }

  // ---- blocking::SimHook (called from inside fibers) ----
  // The bodies intentionally acquire and release capabilities across
  // suspension points, which Clang's thread-safety analysis cannot
  // model; the fibers are cooperatively scheduled on one OS thread, so
  // the lock discipline the analysis protects still holds dynamically.

  // Out of line: wait() and wait_until() re-lock after every resume, and
  // an inlined contention loop would widen their frames, which every
  // parked copy holds.
  [[gnu::noinline]] void lock(Mutex& mu)
      CODS_NO_THREAD_SAFETY_ANALYSIS override {
    if (cur_ == nullptr) {
      // Scheduler-context acquisition: single-threaded, so any holder
      // would be a suspended fiber and the acquisition would deadlock.
      CODS_CHECK(mu.try_lock(),
                 "simulate: scheduler-context lock would block");
      return;
    }
    Fiber& f = *cur_;
    while (!mu.try_lock()) {
      ++stats_->mutex_waits;
      ++f.wait_epoch;
      append_waiter(mutex_waiters_, &mu, f);
      suspend();
      if (f.cancelled) throw_cancelled();
    }
  }

  void unlock(Mutex& mu) override {
    WaitList* list = mutex_waiters_.find(&mu);
    if (list == nullptr) return;
    // Wake every waiter; they re-contend deterministically in virtual
    // ready order and losers re-park.
    i32 index = list->head;
    mutex_waiters_.erase(&mu);
    while (index >= 0) {
      Fiber& f = fibers_[static_cast<std::size_t>(index)];
      const i32 next = f.next_waiter;
      f.next_waiter = -1;
      make_ready(f);
      index = next;
    }
  }

  /// Registers the running fiber as a waiter on `cv` and releases `mu`;
  /// `seconds` > 0 adds a virtual deadline. Out of line, and returns
  /// before the fiber parks: the waits' frames, which the parked copy
  /// holds, then carry none of its locals.
  [[gnu::noinline]] void register_wait(const void* cv, Mutex& mu, Fiber& f,
                                       double seconds)
      CODS_NO_THREAD_SAFETY_ANALYSIS {
    append_waiter(cv_waiters_, cv, f);  // may throw: register holding mu
    mu.unlock();
    f.wait_key = cv;
    f.timed = seconds > 0.0;
    f.timed_out = false;
    ++f.wait_epoch;
    if (f.timed) {
      // TaskClock::elapsed() is the fiber's live virtual clock (its
      // state is swapped into the thread while the fiber runs).
      f.deadline = TaskClock::elapsed() + seconds;
      push_timed(f.deadline, f);
    }
  }

  void wait(const void* cv, Mutex& mu)
      CODS_NO_THREAD_SAFETY_ANALYSIS override {
    Fiber& f = require_fiber();
    if (f.cancelled) throw_cancelled();
    register_wait(cv, mu, f, 0.0);
    suspend();
    f.wait_key = nullptr;
    mu.lock();
    if (f.cancelled) throw_cancelled();
  }

  bool wait_until(const void* cv, Mutex& mu, double seconds)
      CODS_NO_THREAD_SAFETY_ANALYSIS override {
    Fiber& f = require_fiber();
    if (f.cancelled) throw_cancelled();
    if (seconds <= 0.0) {
      ++stats_->timeouts;
      return true;
    }
    register_wait(cv, mu, f, seconds);
    suspend();
    f.wait_key = nullptr;
    f.timed = false;
    const bool timed_out = f.timed_out;
    mu.lock();
    if (!timed_out && f.cancelled) throw_cancelled();
    return timed_out;
  }

  void notify(const void* cv, bool all) override {
    ++stats_->notifies;
    WaitList* list = cv_waiters_.find(cv);
    if (list == nullptr) return;
    // FIFO wakeup: notify_one resumes the longest-parked waiter, the
    // deterministic counterpart of the native "some waiter" contract.
    if (all) {
      i32 index = list->head;
      cv_waiters_.erase(cv);
      while (index >= 0) {
        Fiber& f = fibers_[static_cast<std::size_t>(index)];
        const i32 next = f.next_waiter;
        f.next_waiter = -1;
        if (f.timed) --timed_live_;  // heap entry goes stale
        make_ready(f);
        index = next;
      }
      return;
    }
    Fiber& f = fibers_[static_cast<std::size_t>(list->head)];
    list->head = f.next_waiter;
    // The tail can only have been f when f was the sole waiter, in which
    // case the whole list goes away.
    if (list->head < 0) cv_waiters_.erase(cv);
    f.next_waiter = -1;
    if (f.timed) --timed_live_;
    make_ready(f);
  }

  // ---- state ----

#if !defined(CODS_SIM_ASM_SWITCH)
  /// Margin below frame_marker() that a parked fiber's copy includes:
  /// covers swapcontext's frame and any stack its caller adjusts after
  /// taking the marker.
  static constexpr std::ptrdiff_t kSwapSlack = 256;

  /// The frame address of a call that is never inlined, which lies just
  /// below its caller's stack pointer.
  [[gnu::noinline]] static std::byte* frame_marker() {
    return static_cast<std::byte*>(__builtin_frame_address(0));
  }
#endif

  SimStats* stats_;
  const std::function<void(i32)>& body_;
  SharedStack stack_;
  std::vector<Fiber> fibers_;
  std::deque<LiveFiber> live_pool_;
  std::vector<LiveFiber*> free_live_;
  /// Stack deltas of parked fibers; a slot is held from park to resume.
  ParkDeltas deltas_;
  std::vector<std::pair<i32, std::exception_ptr>> errors_;
  ContextRec sched_;
  /// The scheduler's native stack, learned at a fiber's first entry
  /// (ASan's switch hooks need the bounds of the stack switched to).
  const void* sched_stack_bottom_ = nullptr;
  std::size_t sched_stack_size_ = 0;
  Fiber* cur_ = nullptr;
  CalendarQueue ready_;
  WaitTable cv_waiters_{256};
  WaitTable mutex_waiters_{256};
  /// Lazy-deletion binary heap of virtual deadlines; timed_live_ counts
  /// the non-stale entries (the scheduler's quiescence test).
  std::vector<TimedEntry> timed_;
  i32 timed_live_ = 0;
  u64 next_seq_ = 0;
  i32 blocked_ = 0;
  i32 completed_ = 0;
};

void fiber_trampoline() {
  Impl* impl = t_impl;
#if defined(CODS_SIM_ASAN)
  // First entry to this fiber: complete the scheduler's switch and learn
  // the native stack's bounds for the switches back.
  __sanitizer_finish_switch_fiber(nullptr, &impl->sched_stack_bottom_,
                                  &impl->sched_stack_size_);
#endif
  Fiber* f = impl->cur_;
  const i32 index = impl->index_of(*f);
  try {
    impl->body_(index);
  } catch (...) {
    impl->errors_.emplace_back(index, std::current_exception());
  }
  f->state = Fiber::State::kDone;
  impl->switch_context(f->live->rec, impl->sched_, /*exiting=*/true);
  // Unreachable: a done fiber is never resumed.
}

}  // namespace

void SimEngine::run(i32 ntasks, const std::function<void(i32)>& body) {
  stats_ = SimStats{};
  if (ntasks <= 0) return;
  CODS_CHECK(blocking::sim_hook() == nullptr,
             "simulate: nested SimEngine runs on one thread");
  Impl impl(&stats_, body);
  impl.run(ntasks);
}

}  // namespace cods
