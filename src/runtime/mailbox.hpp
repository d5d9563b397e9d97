// The mailbox plane: per-rank message queues with MPI-style (source, tag)
// matching, shared by every ExecMode (docs/SIMULATION.md "Compact per-rank
// state").
//
// One flat vector of cells indexed by global rank, one shared Mutex and
// one CondVar per cell:
//
//   * A cell holds one message in its slot (the common rendezvous
//     pattern has one in-flight message per rank); payloads up to
//     kInlineBytes live inside the slot, so small control messages —
//     assignments, gather entries, barrier tokens — never touch the heap
//     while queued. Larger payloads keep the vector they were copied into
//     and are handed to the receiver without a second copy.
//   * Overflow spills to a lazily-allocated per-cell vector with a head
//     cursor (FIFO scan order: slot first, then spill from the head), so
//     receives are FIFO per (source, comm_tag) match.
//   * Blocking receives wait on the cell's CondVar. Under kPooled that
//     parks the OS thread inside the blocking::Observer bracket (the
//     work-stealing executor escalates); under kSimulate CondVar routes
//     the wait to the installed blocking::SimHook with a virtual
//     deadline, suspending only the fiber.
//
// Payloads are copied before the lock is taken, so the shared critical
// section is a slot move plus, rarely, a spill append.
#pragma once

#include <array>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "common/error.hpp"
#include "common/sync.hpp"
#include "common/types.hpp"

namespace cods {

inline constexpr i32 kAnySource = -1;

/// A delivered message. `comm_tag` combines the communicator id and user
/// tag so independent communicators never match each other's traffic.
struct Message {
  i32 src_global = -1;  ///< sender's *global* rank
  i64 comm_tag = 0;
  std::vector<std::byte> payload;
};

class MailboxPool {
 public:
  /// Payload bytes stored inside the cell itself.
  static constexpr std::size_t kInlineBytes = 24;

  explicit MailboxPool(i32 nranks)
      : cells_(static_cast<std::size_t>(nranks)) {}

  /// Delivers a payload to `dst`'s cell and wakes its receiver.
  void push(i32 dst, i32 src_global, i64 comm_tag,
            std::span<const std::byte> payload) {
    Stored s = store(src_global, comm_tag, payload);
    CondVar* cv;
    {
      MutexLock lock(mutex_);
      Cell& c = cell(dst);
      cv = &c.cv;
      if (!c.full) {
        c.slot = std::move(s);
        c.full = true;
      } else {
        if (c.spill == nullptr) c.spill = std::make_unique<Spill>();
        c.spill->q.push_back(std::move(s));
      }
    }
    cv->notify_all();
  }

  /// Blocks until a message with the given comm_tag (and source, unless
  /// kAnySource) is queued for `rank`, removes and returns it. FIFO per
  /// match. Throws after `timeout` so one failed rank cannot deadlock the
  /// run. Inlined into its caller, and `m` is built in the caller's return
  /// slot: a simulate fiber parks in here, and its stack copy holds every
  /// frame on the way.
  [[gnu::always_inline]] Message pop(i32 rank, i32 src_global, i64 comm_tag,
                                     std::chrono::seconds timeout) {
    Message m;
    MutexLock lock(mutex_);
    const WaitDeadline deadline(timeout);
    Cell& c = cell(rank);
    while (!take_locked(c, src_global, comm_tag, m)) {
      if (c.cv.wait_until(lock, deadline) == std::cv_status::timeout) {
        fail("recv timed out waiting for a matching message");
      }
    }
    return m;
  }

  /// Non-blocking pop: the first matching message, or nullopt when none
  /// is queued.
  std::optional<Message> try_pop(i32 rank, i32 src_global, i64 comm_tag) {
    MutexLock lock(mutex_);
    Message m;
    if (!take_locked(cell(rank), src_global, comm_tag, m)) return std::nullopt;
    return m;
  }

  /// Queued messages for `rank` (diagnostics).
  std::size_t size(i32 rank) {
    MutexLock lock(mutex_);
    const Cell& c = cell(rank);
    std::size_t n = c.full ? 1 : 0;
    if (c.spill != nullptr) n += c.spill->q.size() - c.spill->head;
    return n;
  }

 private:
  using Inline = std::array<std::byte, kInlineBytes>;

  /// One queued message, 48 bytes: small payloads inline, large ones in
  /// the vector the receiver's Message takes over.
  struct Stored {
    i64 comm_tag = 0;
    i32 src_global = -1;
    u32 size = 0;
    std::variant<Inline, std::vector<std::byte>> bytes;
  };

  struct Spill {
    std::vector<Stored> q;
    std::size_t head = 0;  ///< first live entry (front pops advance it)
  };

  /// 112 bytes: Stored slot + occupancy flag + spill pointer + CondVar.
  struct Cell {
    Stored slot;
    bool full = false;
    std::unique_ptr<Spill> spill;
    CondVar cv;
  };

  Cell& cell(i32 rank) CODS_REQUIRES(mutex_) {
    CODS_REQUIRE(rank >= 0 && rank < static_cast<i32>(cells_.size()),
                 "global rank out of range");
    return cells_[static_cast<std::size_t>(rank)];
  }

  static Stored store(i32 src_global, i64 comm_tag,
                      std::span<const std::byte> payload) {
    Stored s;
    s.comm_tag = comm_tag;
    s.src_global = src_global;
    s.size = static_cast<u32>(payload.size());
    if (payload.size() > kInlineBytes) {
      s.bytes.emplace<std::vector<std::byte>>(payload.begin(), payload.end());
    } else if (!payload.empty()) {
      std::memcpy(std::get<Inline>(s.bytes).data(), payload.data(),
                  payload.size());
    }
    return s;
  }

  static Message to_message(Stored&& s) {
    Message m;
    m.src_global = s.src_global;
    m.comm_tag = s.comm_tag;
    if (auto* heap = std::get_if<std::vector<std::byte>>(&s.bytes)) {
      m.payload = std::move(*heap);
    } else {
      const Inline& bytes = std::get<Inline>(s.bytes);
      m.payload.assign(bytes.begin(), bytes.begin() + s.size);
    }
    return m;
  }

  static bool matches(const Stored& s, i32 src_global, i64 comm_tag) {
    return s.comm_tag == comm_tag &&
           (src_global == kAnySource || s.src_global == src_global);
  }

  /// Moves the first queued match into `out`; false when none is queued.
  /// Out of line, so that pop()'s frame, which a parked simulate fiber's
  /// stack copy holds, carries none of its temporaries.
  [[gnu::noinline]] bool take_locked(Cell& c, i32 src_global, i64 comm_tag,
                                     Message& out) CODS_REQUIRES(mutex_) {
    if (!c.full) return false;  // spill is only fed while full
    if (matches(c.slot, src_global, comm_tag)) {
      out = to_message(std::move(c.slot));
      refill(c);
      return true;
    }
    if (c.spill == nullptr) return false;
    Spill& spill = *c.spill;
    for (std::size_t i = spill.head; i < spill.q.size(); ++i) {
      if (!matches(spill.q[i], src_global, comm_tag)) continue;
      out = to_message(std::move(spill.q[i]));
      if (i == spill.head) {
        advance_head(spill);
      } else {
        spill.q.erase(spill.q.begin() + static_cast<std::ptrdiff_t>(i));
      }
      return true;
    }
    return false;
  }

  void refill(Cell& c) CODS_REQUIRES(mutex_) {
    if (c.spill != nullptr && c.spill->head < c.spill->q.size()) {
      c.slot = std::move(c.spill->q[c.spill->head]);
      advance_head(*c.spill);
    } else {
      c.full = false;
    }
  }

  static void advance_head(Spill& spill) {
    ++spill.head;
    if (spill.head >= spill.q.size()) {
      spill.q.clear();
      spill.head = 0;
    }
  }

  Mutex mutex_{"runtime.mailbox"};
  std::vector<Cell> cells_ CODS_GUARDED_BY(mutex_);
};

}  // namespace cods
