// Cross-mode equivalence for ExecMode::kSimulate (docs/SIMULATION.md):
// the discrete-event engine must be observationally indistinguishable
// from the live dispatch modes. SimEngine unit tests pin the event
// semantics (deterministic order, virtual deadlines, FIFO wakeups,
// deadlock cancellation, stack recycling), the context switch itself
// (stack alignment, per-fiber FP control, callee-saved registers) and
// the shared stack (parked copies, stack-local wait channels, the guard
// page); runtime-level tests pin rank enactment; and a property suite
// drives generated topologies (via the shared src/wfgen generator) —
// fork-join, pipeline, diamond, in-situ bundles, fault-injected recovery
// and straggler speculation — through kSimulate vs kPooled,
// exact-comparing traces, WaveReports, ByteCounters, journals and
// critical-path phase decompositions.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cfenv>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/sync.hpp"
#include "runtime/park_slab.hpp"
#include "runtime/runtime.hpp"
#include "runtime/sim.hpp"
#include "support/seed_report.hpp"
#include "wfgen/enact.hpp"
#include "wfgen/oracle.hpp"

namespace cods {
namespace {

#if defined(__SANITIZE_THREAD__)
constexpr bool kTsan = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kTsan = true;
#else
constexpr bool kTsan = false;
#endif
#else
constexpr bool kTsan = false;
#endif

// ---------------------------------------------------------------------
// SimEngine unit tests: event semantics in isolation.
// ---------------------------------------------------------------------

TEST(SimEngine, RunsEveryTaskExactlyOnceInIndexOrder) {
  SimEngine sim;
  std::vector<i32> order;
  sim.run(64, [&](i32 task) { order.push_back(task); });
  ASSERT_EQ(order.size(), 64u);
  for (i32 t = 0; t < 64; ++t) EXPECT_EQ(order[static_cast<size_t>(t)], t);
  const SimStats& stats = sim.stats();
  EXPECT_EQ(stats.fibers, 64);
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_EQ(stats.cancellations, 0u);
  EXPECT_EQ(stats.peak_blocked, 0);
}

TEST(SimEngine, RecyclesStacksOfRetiredFibers) {
  // Non-blocking bodies run to completion one after another, so every
  // fiber after the first reuses the retired predecessor's stack: peak
  // allocation tracks co-residency, not the rank count.
  SimEngine sim;
  i32 ran = 0;
  sim.run(256, [&](i32) { ++ran; });
  EXPECT_EQ(ran, 256);
  EXPECT_EQ(sim.stats().fibers, 256);
  EXPECT_EQ(sim.stats().stacks, 1);
}

TEST(SimEngine, RendezvousWakesWaitersInFifoOrder) {
  // All fibers park until the last arrives; notify_all must release them
  // in registration order — the deterministic counterpart of "some
  // waiter wins" — and every parked fiber needs its own stack.
  constexpr i32 kN = 32;
  Mutex mu{"test.sim_rendezvous"};
  CondVar cv;
  i32 arrived = 0;
  std::vector<i32> wake_order;
  SimEngine sim;
  sim.run(kN, [&](i32 task) {
    MutexLock lock(mu);
    ++arrived;
    if (arrived == kN) cv.notify_all();
    while (arrived < kN) cv.wait(lock);
    wake_order.push_back(task);
  });
  ASSERT_EQ(wake_order.size(), static_cast<size_t>(kN));
  EXPECT_EQ(wake_order[0], kN - 1);  // the last arriver never blocked
  for (i32 i = 1; i < kN; ++i) {
    EXPECT_EQ(wake_order[static_cast<size_t>(i)], i - 1);
  }
  const SimStats& stats = sim.stats();
  EXPECT_EQ(stats.peak_blocked, kN - 1);
  EXPECT_EQ(stats.stacks, kN);
  EXPECT_EQ(stats.cancellations, 0u);
  EXPECT_GE(stats.notifies, 1u);
}

TEST(SimEngine, VirtualDeadlineFiresOnlyAtQuiescence) {
  // A one-hour timed wait resolves instantly — but only after every
  // runnable fiber has drained, mirroring live execution where a timeout
  // can only win once its wakeup is never coming.
  Mutex mu{"test.sim_timed"};
  CondVar cv;
  std::vector<std::string> events;
  SimEngine sim;
  const auto wall_start = std::chrono::steady_clock::now();
  sim.run(2, [&](i32 task) {
    if (task == 0) {
      MutexLock lock(mu);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::hours(1);
      EXPECT_EQ(cv.wait_until(lock, deadline), std::cv_status::timeout);
      events.push_back("timeout");
    } else {
      events.push_back("work");
    }
  });
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  EXPECT_EQ(events, (std::vector<std::string>{"work", "timeout"}));
  EXPECT_EQ(sim.stats().timeouts, 1u);
  EXPECT_LT(wall_seconds, 60.0);  // virtual, not wall-clock
}

TEST(SimEngine, NotificationBeatsTheVirtualDeadline) {
  Mutex mu{"test.sim_notify"};
  CondVar cv;
  SimEngine sim;
  sim.run(2, [&](i32 task) {
    if (task == 0) {
      MutexLock lock(mu);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::hours(1);
      EXPECT_EQ(cv.wait_until(lock, deadline), std::cv_status::no_timeout);
    } else {
      MutexLock lock(mu);
      cv.notify_one();
    }
  });
  EXPECT_EQ(sim.stats().timeouts, 0u);
  EXPECT_GE(sim.stats().notifies, 1u);
}

TEST(SimEngine, ContendedMutexParksTheFiber) {
  // Fiber 0 suspends on a cv while holding `a`, so fiber 1's MutexLock
  // must park in the hook (a live thread would block in pthreads) and
  // resume only after fiber 0 unwinds and releases.
  Mutex a{"test.sim_contended_a"};
  Mutex b{"test.sim_contended_b"};
  CondVar cv;
  std::vector<i32> order;
  SimEngine sim;
  sim.run(3, [&](i32 task) {
    if (task == 0) {
      MutexLock la(a);
      {
        MutexLock lb(b);
        cv.wait(lb);  // suspends while still holding `a`
      }
      order.push_back(0);
    } else if (task == 1) {
      MutexLock la(a);  // contended: fiber 0 holds `a` across its wait
      order.push_back(1);
    } else {
      MutexLock lb(b);
      cv.notify_one();
      order.push_back(2);
    }
  });
  EXPECT_EQ(order, (std::vector<i32>{2, 0, 1}));
  EXPECT_GE(sim.stats().mutex_waits, 1u);
}

TEST(SimEngine, DeadlockIsCancelledDeterministically) {
  // Nobody ever notifies: quiescence with no pending deadline is a
  // genuine deadlock, broken by cancelling every blocked fiber. The
  // waits throw cods::Error; run() rethrows the lowest-index failure.
  Mutex mu{"test.sim_deadlock"};
  CondVar cv;
  SimEngine sim;
  try {
    sim.run(2, [&](i32) {
      MutexLock lock(mu);
      cv.wait(lock);
    });
    FAIL() << "expected cods::Error from the cancelled waits";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(sim.stats().cancellations, 2u);
}

TEST(SimEngine, RethrowsTheLowestIndexFailure) {
  SimEngine sim;
  i32 survivors = 0;
  try {
    sim.run(8, [&](i32 task) {
      if (task == 3 || task == 5) {
        throw Error("boom " + std::to_string(task));
      }
      ++survivors;
    });
    FAIL() << "expected cods::Error";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), "boom 3");
  }
  EXPECT_EQ(survivors, 6);  // failures never stop the other fibers
  EXPECT_EQ(sim.stats().fibers, 8);
}

TEST(SimEngine, RejectsNestedRuns) {
  SimEngine outer;
  EXPECT_THROW(outer.run(1,
                         [](i32) {
                           SimEngine inner;
                           inner.run(1, [](i32) {});
                         }),
               Error);
}

// ---------------------------------------------------------------------
// The context switch: what a fiber must find intact across switches.
// ---------------------------------------------------------------------

/// Two fibers taking strict turns through one CondVar. pass() parks the
/// caller until the other fiber passes back (or has left), so every call
/// switches out to the scheduler and back in.
struct TurnTaking {
  Mutex mu{"test.sim_turns"};
  CondVar cv;
  i32 turn = 0;
  i32 running = 2;

  void pass(i32 me) {
    MutexLock lock(mu);
    turn = 1 - me;
    cv.notify_all();
    while (turn != me && running == 2) cv.wait(lock);
  }

  void leave() {
    MutexLock lock(mu);
    --running;
    cv.notify_all();
  }
};

/// Whether an alignas(A) local of a fresh frame is A-aligned. The address
/// goes through a volatile so the compiler cannot fold the test away.
template <std::size_t A>
[[gnu::noinline]] bool local_is_aligned() {
  alignas(A) unsigned char local[A] = {};
  volatile std::uintptr_t address =
      reinterpret_cast<std::uintptr_t>(&local[0]);
  return address % A == 0;
}

TEST(SimEngine, FreshFiberStackIsAbiAligned) {
  TurnTaking turns;
  SimEngine sim;
  sim.run(2, [&](i32 task) {
    EXPECT_TRUE(local_is_aligned<16>()) << "first entry, fiber " << task;
    EXPECT_TRUE(local_is_aligned<32>()) << "first entry, fiber " << task;
    turns.pass(task);
    EXPECT_TRUE(local_is_aligned<16>()) << "after resume, fiber " << task;
    EXPECT_TRUE(local_is_aligned<32>()) << "after resume, fiber " << task;
    turns.leave();
  });
  EXPECT_EQ(sim.stats().cancellations, 0u);
}

/// 1/3 rounded in the live rounding mode; volatile operands keep the
/// division at run time.
double one_third() {
  volatile double one = 1.0;
  volatile double three = 3.0;
  return one / three;
}

TEST(SimEngine, FloatingPointControlIsPerFiber) {
  const int caller_mode = std::fegetround();
  ASSERT_NE(caller_mode, FE_UPWARD);
  const double caller_third = one_third();
  ASSERT_EQ(std::fesetround(FE_UPWARD), 0);
  const double upward_third = one_third();
  ASSERT_EQ(std::fesetround(caller_mode), 0);
  ASSERT_GT(upward_third, caller_third);

  TurnTaking turns;
  SimEngine sim;
  sim.run(2, [&](i32 task) {
    if (task == 0) {
      EXPECT_EQ(std::fesetround(FE_UPWARD), 0);
      turns.pass(task);  // fiber 1 runs in between
      EXPECT_EQ(std::fegetround(), FE_UPWARD);
      EXPECT_EQ(one_third(), upward_third);
    } else {
      // A new fiber starts in the scheduler's mode, not its sibling's.
      EXPECT_EQ(std::fegetround(), caller_mode);
      EXPECT_EQ(one_third(), caller_third);
      turns.pass(task);
    }
    turns.leave();
  });
  const int after_mode = std::fegetround();
  const double after_third = one_third();
  std::fesetround(caller_mode);
  EXPECT_EQ(after_mode, caller_mode);
  EXPECT_EQ(after_third, caller_third);
}

struct Churned {
  std::array<u64, 8> ints{};
  std::array<double, 4> reals{};
  bool operator==(const Churned&) const = default;
};

/// Keeps more integer locals live across every yield() than there are
/// callee-saved registers, so all six (rbx, rbp, r12-r15 on x86-64) hold
/// values across the switch beneath each yield, unless a frame in
/// between saves them itself; the doubles live in stack slots. Not
/// inlined, and yield is an opaque call, so the allocation stays so.
/// Every live value, the loop counter included, depends on `seed`, so
/// two fibers churning in lockstep never hold equal registers.
[[gnu::noinline]] Churned churn_locals(u64 seed, u64 rounds,
                                       const std::function<void()>& yield) {
  u64 a = seed;
  u64 b = seed * 3;
  u64 c = seed * 5;
  u64 d = seed * 7;
  u64 e = seed * 11;
  u64 g = seed * 13;
  u64 h = seed * 17;
  u64 k = seed * 19;
  double x = static_cast<double>(seed) * 0.5;
  double y = static_cast<double>(seed) * 0.25;
  double z = static_cast<double>(seed) * 0.125;
  double w = static_cast<double>(seed) * 2.0;
  const u64 first = seed * 1000003;
  for (u64 i = first; i < first + rounds; ++i) {
    a += 1;
    b += a;
    c ^= b + i;
    d = d * 31 + c;
    e += d >> 3;
    g -= e & 0xff;
    h = (h << 1) ^ g;
    k += h | a;
    x += 1.0;
    y += 0.5;
    z -= 0.25;
    w += x;
    yield();
  }
  return Churned{{a, b, c, d, e, g, h, k}, {x, y, z, w}};
}

TEST(SimEngine, LocalsSurviveManySwitches) {
  constexpr u64 kYields = 10000;
  TurnTaking turns;
  std::array<Churned, 2> seen{};
  SimEngine sim;
  sim.run(2, [&](i32 task) {
    seen[static_cast<std::size_t>(task)] = churn_locals(
        static_cast<u64>(task) + 1, kYields, [&] { turns.pass(task); });
    turns.leave();
  });
  EXPECT_GE(sim.stats().switches, 4u * kYields);
  for (i32 task = 0; task < 2; ++task) {
    const auto expected =
        churn_locals(static_cast<u64>(task) + 1, kYields, [] {});
    EXPECT_EQ(seen[static_cast<std::size_t>(task)], expected)
        << "fiber " << task;
  }
}

// ---------------------------------------------------------------------
// The shared stack: every fiber runs on one stack, and a parked fiber's
// live frames are copied out and back.
// ---------------------------------------------------------------------

TEST(SimEngine, StackLocalWaitChannelIsRejected) {
  // On the shared stack a local CondVar is another fiber's memory while
  // its owner is parked, so the engine refuses it as a wait channel
  // instead of letting the wait run out its deadline.
  Mutex mu{"test.sim_stack_local"};
  SimEngine sim;
  try {
    sim.run(1, [&](i32) {
      CondVar local;
      MutexLock lock(mu);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::hours(1);
      local.wait_until(lock, deadline);
    });
    FAIL() << "expected cods::Error for a stack-local wait channel";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("may not live on a fiber's stack"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(sim.stats().timeouts, 0u);
}

/// Parks the caller until another fiber parks or leaves; with more than
/// one fiber running, every call switches out and back in.
struct Yielder {
  Mutex mu{"test.sim_yielder"};
  CondVar cv;
  u64 parks = 0;
  i32 running = 0;

  void yield() {
    MutexLock lock(mu);
    const u64 mine = ++parks;
    cv.notify_all();
    while (parks == mine && running > 1) cv.wait(lock);
  }

  void leave() {
    MutexLock lock(mu);
    --running;
    cv.notify_all();
  }
};

constexpr std::size_t kFrameWords = 64;  // 512 B of locals per level

u64 stamp(i32 fiber, i32 level, std::size_t word) {
  return (static_cast<u64>(fiber) << 40) ^ (static_cast<u64>(level) << 20) ^
         word;
}

/// Recurses `levels` deep. Each frame fills a volatile local array from
/// (fiber, level) and parks on the way down and on the way back up,
/// checking its array after every resume, so each parked copy is taken
/// at a different depth than the last. Returns the number of words found
/// changed; `deepest` receives the lowest frame address reached.
[[gnu::noinline]] u64 park_at_every_level(i32 fiber, i32 level, i32 levels,
                                          Yielder& yielder,
                                          std::uintptr_t& deepest) {
  volatile u64 cells[kFrameWords];
  for (std::size_t w = 0; w < kFrameWords; ++w) {
    cells[w] = stamp(fiber, level, w);
  }
  const auto check = [&] {
    u64 bad = 0;
    for (std::size_t w = 0; w < kFrameWords; ++w) {
      bad += cells[w] != stamp(fiber, level, w) ? 1 : 0;
    }
    return bad;
  };
  deepest = std::min(deepest, reinterpret_cast<std::uintptr_t>(
                                  __builtin_frame_address(0)));
  yielder.yield();
  u64 bad = check();
  if (level + 1 < levels) {
    bad += park_at_every_level(fiber, level + 1, levels, yielder, deepest);
    yielder.yield();
    bad += check();
  }
  return bad;
}

TEST(SimEngine, ParkedStacksSurviveInterleaving) {
  // 64 fibers recurse to depths from 1 to 40 KiB, so parked copies span
  // several pages and differ in length. Every fiber parks first at its
  // shallowest frame and later deeper, so its copies change size class,
  // and the deepest ones take chunks of their own.
  constexpr i32 kFibers = 64;
  const auto levels_of = [](i32 fiber) { return 2 + fiber * 78 / 63; };
  Yielder yielder;
  yielder.running = kFibers;
  std::vector<u64> bad(kFibers, ~u64{0});
  std::vector<std::uintptr_t> depth(kFibers, 0);
  SimEngine sim;
  sim.run(kFibers, [&](i32 task) {
    const auto entry =
        reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
    std::uintptr_t deepest = entry;
    bad[static_cast<std::size_t>(task)] =
        park_at_every_level(task, 0, levels_of(task), yielder, deepest);
    depth[static_cast<std::size_t>(task)] = entry - deepest;
    yielder.leave();
  });
  std::uintptr_t total_depth = 0;
  for (i32 task = 0; task < kFibers; ++task) {
    EXPECT_EQ(bad[static_cast<std::size_t>(task)], 0u) << "fiber " << task;
    total_depth += depth[static_cast<std::size_t>(task)];
  }
  const SimStats& stats = sim.stats();
  EXPECT_EQ(stats.cancellations, 0u);
  EXPECT_EQ(stats.stacks, kFibers);
  // Copies are freed on resume, so arena_bytes holds only what was parked
  // at once; the park histogram counts every copy. The deepest park is at
  // least as deep as the deepest recursion, and every fiber copied out at
  // least its own depth.
  const auto deepest = *std::max_element(depth.begin(), depth.end());
  EXPECT_GE(stats.park_depths.max_bytes, static_cast<u64>(deepest));
  EXPECT_GE(stats.park_depths.total_bytes, static_cast<u64>(total_depth));
}

/// All `n` fibers meet here; each round parks every fiber but the last.
struct Rounds {
  Mutex mu{"test.sim_rounds"};
  CondVar cv;
  i32 n = 0;
  i32 arrived = 0;
  i32 round = 0;

  void meet() {
    MutexLock lock(mu);
    const i32 mine = round;
    if (++arrived == n) {
      arrived = 0;
      ++round;
      cv.notify_all();
      return;
    }
    while (round == mine) cv.wait(lock);
  }
};

/// Meets `rounds` below a 1 KiB frame, so the park is that much deeper.
[[gnu::noinline]] u64 meet_deeper(Rounds& rounds, i32 fiber) {
  volatile u64 cells[128];
  for (std::size_t w = 0; w < 128; ++w) cells[w] = stamp(fiber, 1, w);
  rounds.meet();
  u64 bad = 0;
  for (std::size_t w = 0; w < 128; ++w) {
    bad += cells[w] != stamp(fiber, 1, w) ? 1 : 0;
  }
  return bad;
}

TEST(SimEngine, ResumedFibersGiveTheirSlotsBack) {
  // Every fiber parks shallow, then, resumed in turn, parks 1 KiB deeper:
  // the two parks of a weak-scaling rank. A resume frees the fiber's
  // copy, so the park slab peaks near one deep copy per fiber, not at a
  // shallow and a deep copy per fiber.
  constexpr i32 kFibers = 4096;
  Rounds rounds;
  rounds.n = kFibers;
  u64 bad = 0;
  SimEngine sim;
  sim.run(kFibers, [&](i32 task) {
    rounds.meet();
    bad += meet_deeper(rounds, task);
  });
  EXPECT_EQ(bad, 0u);
  const SimStats& stats = sim.stats();
  const ParkDepths& parks = stats.park_depths;
  EXPECT_EQ(parks.parks(), 2u * (kFibers - 1));
  const u64 shallow = parks.percentile(0.25);
  const u64 deep = parks.max_bytes;
  ASSERT_GE(deep, shallow + 1024);
  // Chunk headers and tails too short for another slot take up to a
  // tenth; keeping both copies would add the shallow depth on top.
  const u64 bound = kFibers * deep * 11 / 10 + 2 * ParkSlab::kMaxChunkBytes;
  ASSERT_LT(bound, kFibers * (shallow + deep))
      << "shallow " << shallow << " B, deep " << deep << " B";
  const u64 slab =
      stats.arena_bytes - static_cast<u64>(SimEngine::kDefaultStackBytes);
  EXPECT_LE(slab, bound) << "shallow " << shallow << " B, deep " << deep
                         << " B";
}

// Parked stacks are stored as deltas against the first park at the same
// depth. Each test below parks fibers below a frame of volatile locals
// and checks them after the resume, for one shape of delta.

/// The value a fiber's local word `w` holds while it parks.
using LocalValue = u64 (*)(i32 fiber, std::size_t w);

struct Parked {
  u64 bad = 0;            ///< locals found changed after the resume
  bool on_stack = false;  ///< locals on the shared stack, not ASan's
                          ///< fake stack, so the park's copy holds them
};

/// Meets `rounds` below kWords locals filled from `value`.
template <std::size_t kWords>
[[gnu::noinline]] Parked meet_with_locals(Rounds& rounds, i32 fiber,
                                          LocalValue value) {
  volatile u64 cells[kWords];
  for (std::size_t w = 0; w < kWords; ++w) cells[w] = value(fiber, w);
  const auto frame =
      reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
  const auto first = reinterpret_cast<std::uintptr_t>(&cells[0]);
  rounds.meet();
  Parked out;
  out.on_stack = first < frame && frame - first <= kWords * 8 + 1024;
  for (std::size_t w = 0; w < kWords; ++w) {
    out.bad += cells[w] != value(fiber, w) ? 1 : 0;
  }
  return out;
}

/// Runs `fibers` fibers that each park once below kWords locals.
template <std::size_t kWords>
std::vector<Parked> park_once_with_locals(SimEngine& sim, i32 fibers,
                                          LocalValue value) {
  Rounds rounds;
  rounds.n = fibers;
  std::vector<Parked> parked(static_cast<std::size_t>(fibers));
  sim.run(fibers, [&](i32 task) {
    parked[static_cast<std::size_t>(task)] =
        meet_with_locals<kWords>(rounds, task, value);
  });
  return parked;
}

TEST(SimEngine, ParkDeltaOfFramesEqualToTheTemplate) {
  // Every fiber parks the same 1 KiB of locals as the first, which made
  // the template, so no delta holds them.
  constexpr i32 kFibers = 64;
  SimEngine sim;
  const auto parked = park_once_with_locals<128>(
      sim, kFibers, [](i32, std::size_t w) { return w * 0x9e3779b97f4a7c15; });
  for (i32 task = 0; task < kFibers; ++task) {
    EXPECT_EQ(parked[static_cast<std::size_t>(task)].bad, 0u) << task;
  }
  const ParkDepths& parks = sim.stats().park_depths;
  EXPECT_EQ(parks.parks(), static_cast<u64>(kFibers - 1));
  EXPECT_LT(parks.stored_bytes, parks.total_bytes / 4);
}

TEST(SimEngine, ParkDeltaOfFramesThatDifferInEveryWord) {
  // Each fiber's locals differ from every other's in every word, so each
  // delta past the template's holds all 1 KiB of them.
  constexpr i32 kFibers = 64;
  constexpr std::size_t kWords = 128;
  SimEngine sim;
  const auto parked =
      park_once_with_locals<kWords>(sim, kFibers, [](i32 f, std::size_t w) {
        return stamp(f, 2, w);
      });
  for (i32 task = 0; task < kFibers; ++task) {
    EXPECT_EQ(parked[static_cast<std::size_t>(task)].bad, 0u) << task;
  }
  if (parked[0].on_stack) {
    EXPECT_GE(sim.stats().park_depths.stored_bytes,
              (kFibers - 2) * kWords * 8);
  }
}

TEST(SimEngine, ParkDeltaAgainstAnAtypicalFirstPark) {
  // The root rank parks first with locals no other fiber has, so the
  // template is the odd one out and every other delta holds the locals.
  constexpr i32 kFibers = 64;
  constexpr std::size_t kWords = 128;
  SimEngine sim;
  const auto parked =
      park_once_with_locals<kWords>(sim, kFibers, [](i32 f, std::size_t w) {
        return f == 0 ? ~u64{w} : u64{w};
      });
  for (i32 task = 0; task < kFibers; ++task) {
    EXPECT_EQ(parked[static_cast<std::size_t>(task)].bad, 0u) << task;
  }
  if (parked[0].on_stack) {
    EXPECT_GE(sim.stats().park_depths.stored_bytes,
              (kFibers - 2) * kWords * 8);
  }
}

TEST(SimEngine, ParkDeltasAtSeveralDepthsInOneRun) {
  // Fibers park at the depth of one of two frames, then at the other's:
  // several templates in one run, one of them a depth that is not a
  // whole bitmap word (64 words).
  constexpr i32 kFibers = 64;
  Rounds rounds;
  rounds.n = kFibers;
  std::vector<u64> bad(kFibers, ~u64{0});
  const LocalValue value = [](i32 f, std::size_t w) { return stamp(f, 3, w); };
  SimEngine sim;
  sim.run(kFibers, [&](i32 task) {
    u64 wrong = 0;
    if (task % 2 == 0) {
      wrong += meet_with_locals<100>(rounds, task, value).bad;
      wrong += meet_with_locals<37>(rounds, task, value).bad;
    } else {
      wrong += meet_with_locals<37>(rounds, task, value).bad;
      wrong += meet_with_locals<100>(rounds, task, value).bad;
    }
    bad[static_cast<std::size_t>(task)] = wrong;
  });
  for (i32 task = 0; task < kFibers; ++task) {
    EXPECT_EQ(bad[static_cast<std::size_t>(task)], 0u) << task;
  }
  const ParkDepths& parks = sim.stats().park_depths;
  EXPECT_EQ(parks.parks(), 2u * (kFibers - 1));
  ASSERT_GE(parks.bins.size(), 2u);
  EXPECT_TRUE(std::any_of(parks.bins.begin(), parks.bins.end(),
                          [](const std::pair<u32, u64>& bin) {
                            return bin.first / 8 % 64 != 0;
                          }));
}

TEST(SimEngine, ParkDeltaDeeperThanTheLargestSlabClass) {
  // 20 KiB of locals that differ per fiber: each delta past the template
  // outgrows the largest slab class and takes a chunk of its own.
  constexpr i32 kFibers = 8;
  constexpr std::size_t kWords = 2560;
  SimEngine sim;
  const auto parked =
      park_once_with_locals<kWords>(sim, kFibers, [](i32 f, std::size_t w) {
        return stamp(f, 4, w);
      });
  for (i32 task = 0; task < kFibers; ++task) {
    EXPECT_EQ(parked[static_cast<std::size_t>(task)].bad, 0u) << task;
  }
  if (parked[0].on_stack) {
    const ParkDepths& parks = sim.stats().park_depths;
    EXPECT_GT(parks.max_bytes, ParkSlab::kLargestClass);
    EXPECT_GT(parks.stored_bytes,
              (kFibers - 2) * ParkSlab::kLargestClass);
  }
}

/// Recurses `levels` frames deep, then meets `rounds`.
[[gnu::noinline]] u64 meet_below(Rounds& rounds, i32 levels) {
  volatile u64 pad[2];
  pad[0] = static_cast<u64>(levels);
  if (levels == 0) {
    rounds.meet();
    return pad[0];
  }
  pad[1] = meet_below(rounds, levels - 1);  // not a tail call
  return pad[0] + pad[1];
}

TEST(SimEngine, ParkTemplatesAtManyDistinctDepthsStayBounded) {
  // Each fiber parks once, at a depth no other fiber parks at: every
  // park makes its depth's template and takes no slab slot, and the
  // templates reserve at most twice the bytes parked.
  constexpr i32 kFibers = 256;
  Rounds rounds;
  rounds.n = kFibers;
  SimEngine sim;
  sim.run(kFibers, [&](i32 task) { meet_below(rounds, task); });
  const SimStats& stats = sim.stats();
  const ParkDepths& parks = stats.park_depths;
  ASSERT_EQ(parks.parks(), static_cast<u64>(kFibers - 1));
  ASSERT_EQ(parks.bins.size(), parks.parks());
  EXPECT_EQ(parks.stored_bytes, 0u);
  const u64 held =
      stats.arena_bytes - static_cast<u64>(SimEngine::kDefaultStackBytes);
  EXPECT_GE(held, parks.total_bytes);
  EXPECT_LE(held, 2 * parks.total_bytes);
}

/// Recurses until a frame lies below `floor`. Each level writes its own
/// locals and return address, so every page on the way down is touched.
[[gnu::noinline]] u64 recurse_below(std::uintptr_t floor) {
  volatile u64 pad[32];
  pad[0] = floor;
  if (reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0)) < floor) {
    return pad[0];
  }
  return recurse_below(floor) + pad[0];  // not a tail call
}

TEST(SimEngine, EveryFiberHasAGuardPage) {
  if (kTsan) GTEST_SKIP() << "death tests fork; TSan does not support it";
  // 4,096 fibers park, then the last one overflows: it must fault on the
  // guard page, not write into another fiber's frames.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  constexpr i32 kFibers = 4096;
  // The stack's size plus 1 KiB, measured from a frame just below the
  // stack top: inside the guard page, short of anything mapped beneath.
  constexpr std::uintptr_t kOverflow = SimEngine::kDefaultStackBytes + 1024;
  const auto overflow_last = [] {
    Mutex mu{"test.sim_guard"};
    CondVar cv;
    bool released = false;
    SimEngine sim;
    sim.run(kFibers, [&](i32 task) {
      MutexLock lock(mu);
      if (task + 1 < kFibers) {
        cv.wait(lock, [&] { return released; });
        return;
      }
      const auto here =
          reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
      recurse_below(here - kOverflow);
      released = true;
      cv.notify_all();
    });
  };
  EXPECT_DEATH(overflow_last(), "");
}

// ---------------------------------------------------------------------
// Runtime-level: rank enactment under kSimulate.
// ---------------------------------------------------------------------

std::vector<CoreLoc> grid_placement(const Cluster& cluster, i32 n) {
  std::vector<CoreLoc> placement;
  for (i32 r = 0; r < n; ++r) {
    placement.push_back(
        CoreLoc{r / cluster.cores_per_node(), r % cluster.cores_per_node()});
  }
  return placement;
}

struct RingRun {
  i64 checksum = 0;
  std::vector<double> task_times;
  size_t failures = 0;
};

RingRun run_ring(ExecMode mode) {
  const i32 n = 64;
  Cluster cluster(ClusterSpec{.num_nodes = 4, .cores_per_node = 16});
  Metrics metrics;
  HybridDart dart(cluster, metrics);
  Runtime runtime(dart);
  runtime.set_exec_mode(mode);
  runtime.set_exec_pool_size(8);
  std::atomic<i64> checksum{0};
  const auto failures =
      runtime.run_collect(grid_placement(cluster, n), [&](RankCtx& ctx) {
        const i32 r = ctx.global_rank;
        const i32 group = r / 8;
        const i32 next = group * 8 + (r + 1) % 8;
        const i32 prev = group * 8 + (r + 7) % 8;
        ctx.world.send_value<i32>(next, /*tag=*/group, r);
        const i32 got = ctx.world.recv_value<i32>(prev, /*tag=*/group);
        checksum.fetch_add(got);
      });
  RingRun out;
  out.checksum = checksum.load();
  out.task_times = runtime.last_task_times();
  out.failures = failures.size();
  if (mode == ExecMode::kSimulate) {
    EXPECT_EQ(runtime.last_sim_stats().fibers, n);
    EXPECT_EQ(runtime.last_exec_stats().total_spawned, 0);
  }
  return out;
}

TEST(SimulateRuntime, RingPipelineMatchesPooled) {
  const RingRun pooled = run_ring(ExecMode::kPooled);
  const RingRun sim = run_ring(ExecMode::kSimulate);
  EXPECT_EQ(pooled.failures, 0u);
  EXPECT_EQ(sim.failures, 0u);
  EXPECT_EQ(pooled.checksum, sim.checksum);
  // Modelled per-rank seconds are a pure function of the op sequence, so
  // they must agree bit for bit across dispatch modes.
  ASSERT_EQ(pooled.task_times.size(), sim.task_times.size());
  for (size_t r = 0; r < pooled.task_times.size(); ++r) {
    EXPECT_EQ(pooled.task_times[r], sim.task_times[r]) << "rank " << r;
  }
}

TEST(SimulateRuntime, SingleRankHonorsSimulateMode) {
  // Regression for the engine's old one-rank fast path that silently
  // forced a live thread: a single rank must still run as a fiber.
  Cluster cluster(ClusterSpec{.num_nodes = 1, .cores_per_node = 4});
  Metrics metrics;
  HybridDart dart(cluster, metrics);
  Runtime runtime(dart);
  runtime.set_exec_mode(ExecMode::kSimulate);
  bool ran = false;
  const auto failures =
      runtime.run_collect({CoreLoc{0, 0}}, [&](RankCtx& ctx) {
        ran = ctx.global_rank == 0;
      });
  EXPECT_TRUE(failures.empty());
  EXPECT_TRUE(ran);
  EXPECT_EQ(runtime.last_sim_stats().fibers, 1);
  EXPECT_EQ(runtime.last_exec_stats().total_spawned, 0);
}

TEST(SimulateRuntime, FailureOrderingMatchesPooled) {
  const auto run_failing = [](ExecMode mode) {
    Cluster cluster(ClusterSpec{.num_nodes = 2, .cores_per_node = 32});
    Metrics metrics;
    HybridDart dart(cluster, metrics);
    Runtime runtime(dart);
    runtime.set_exec_mode(mode);
    runtime.set_exec_pool_size(4);
    return runtime.run_collect(
        grid_placement(cluster, 64), [&](RankCtx& ctx) {
          if (ctx.global_rank % 7 == 3) {
            throw Error("rank " + std::to_string(ctx.global_rank));
          }
        });
  };
  const auto pooled = run_failing(ExecMode::kPooled);
  const auto sim = run_failing(ExecMode::kSimulate);
  ASSERT_EQ(pooled.size(), sim.size());
  ASSERT_FALSE(pooled.empty());
  for (size_t i = 0; i < pooled.size(); ++i) {
    EXPECT_EQ(pooled[i].global_rank, sim[i].global_rank);
    std::string pooled_what;
    std::string sim_what;
    try {
      std::rethrow_exception(pooled[i].error);
    } catch (const std::exception& e) {
      pooled_what = e.what();
    }
    try {
      std::rethrow_exception(sim[i].error);
    } catch (const std::exception& e) {
      sim_what = e.what();
    }
    EXPECT_EQ(pooled_what, sim_what);
  }
}

TEST(SimulateRuntime, RecvFromSilentPeerTimesOutVirtually) {
  // Rank 1 exits without sending: rank 0's bounded receive must fail by
  // its virtual deadline the moment the system quiesces — not after the
  // two wall-clock seconds a live mode would sleep.
  Cluster cluster(ClusterSpec{.num_nodes = 1, .cores_per_node = 4});
  Metrics metrics;
  HybridDart dart(cluster, metrics);
  Runtime runtime(dart);
  runtime.set_exec_mode(ExecMode::kSimulate);
  runtime.set_recv_timeout(std::chrono::seconds(2));
  const auto wall_start = std::chrono::steady_clock::now();
  const auto failures =
      runtime.run_collect(grid_placement(cluster, 2), [&](RankCtx& ctx) {
        if (ctx.global_rank == 0) {
          (void)ctx.world.recv_value<i32>(/*src=*/1, /*tag=*/0);
        }
      });
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].global_rank, 0);
  EXPECT_THROW(std::rethrow_exception(failures[0].error), Error);
  EXPECT_GE(runtime.last_sim_stats().timeouts, 1u);
  EXPECT_LT(wall_seconds, 1.5);
}

// ---------------------------------------------------------------------
// Property suite: seeded generated topologies through kSimulate vs
// kPooled. The hand-rolled topology builders that used to live here are
// replaced by the shared generator (src/wfgen); tests/fuzz sweeps the
// same harness over a much wider seed range.
// ---------------------------------------------------------------------

/// Enacts `spec` under kSimulate and kPooled: the two runs must be
/// observably identical (traces, WaveReports, ByteCounters, stored
/// bytes, critical-path decompositions, journals) and each must satisfy
/// the full oracle suite.
void expect_equivalent(const wfgen::ScenarioSpec& spec) {
  const wfgen::EnactResult sim =
      wfgen::enact(spec, {.mode = ExecMode::kSimulate});
  const wfgen::EnactResult pooled =
      wfgen::enact(spec, {.mode = ExecMode::kPooled});
  EXPECT_EQ(wfgen::diff_runs(sim, pooled), "");
  const wfgen::OracleReport sim_oracles = wfgen::check_oracles(spec, sim);
  EXPECT_TRUE(sim_oracles.ok()) << sim_oracles.to_string();
  const wfgen::OracleReport pooled_oracles =
      wfgen::check_oracles(spec, pooled);
  EXPECT_TRUE(pooled_oracles.ok()) << pooled_oracles.to_string();
}

/// One pinned topology across a seed sweep; cluster geometry, box
/// decompositions, version counts and coupling vars vary per seed.
void sweep_topology(wfgen::Topology topology,
                    std::initializer_list<u64> seeds) {
  wfgen::GenParams params;
  params.topology = topology;
  params.deterministic_crashes = true;
  for (const u64 seed : seeds) {
    CODS_SEED_TRACE("CODS_FUZZ_SEED", seed);
    expect_equivalent(wfgen::generate(seed, params));
  }
}

TEST(SimulateEquivalence, ForkJoinTopologies) {
  sweep_topology(wfgen::Topology::kForkJoin, {1, 2, 3, 4, 5, 6});
}

TEST(SimulateEquivalence, PipelineTopologies) {
  sweep_topology(wfgen::Topology::kPipeline, {11, 12, 13, 14});
}

TEST(SimulateEquivalence, DiamondTopologies) {
  sweep_topology(wfgen::Topology::kDiamond, {21, 22, 23, 24});
}

TEST(SimulateEquivalence, InSituBundleTopologies) {
  sweep_topology(wfgen::Topology::kInSituPair, {31, 32, 33});
}

/// Sequentially coupled stencil -> analyses chain (the montage-like
/// fanout the suite used to hand-roll): one simulation wave feeding
/// moments, histogram and downsampler consumers in the next wave.
TEST(SimulateEquivalence, StencilAnalysisFanout) {
  wfgen::ScenarioSpec spec;
  spec.seed = 23;
  spec.topology = wfgen::Topology::kForkJoin;
  spec.cluster = ClusterSpec{.num_nodes = 5, .cores_per_node = 4};
  spec.extents = {16, 16};

  wfgen::GenApp stencil;
  stencil.role = wfgen::AppRole::kStencil;
  stencil.app_id = 1;
  stencil.name = "stencil";
  stencil.procs = {2, 2};
  stencil.produces = {"temperature"};
  stencil.versions = 2;

  wfgen::GenApp moments;
  moments.role = wfgen::AppRole::kMoments;
  moments.app_id = 2;
  moments.name = "moments";
  moments.procs = {2, 1};
  moments.consumes = {"temperature"};
  moments.versions = 2;

  wfgen::GenApp histogram;
  histogram.role = wfgen::AppRole::kHistogram;
  histogram.app_id = 3;
  histogram.name = "histogram";
  histogram.procs = {1, 2};
  histogram.consumes = {"temperature"};
  histogram.versions = 2;

  wfgen::GenApp viz;
  viz.role = wfgen::AppRole::kDownsampler;
  viz.app_id = 4;
  viz.name = "viz";
  viz.procs = {2, 2};
  viz.consumes = {"temperature"};
  viz.produces = {"temperature_coarse"};
  viz.versions = 2;
  viz.factor = 2;

  spec.apps = {stencil, moments, histogram, viz};
  spec.edges = {{1, 2}, {1, 3}, {1, 4}};
  ASSERT_EQ(spec.dag().waves().size(), 2u);

  const wfgen::EnactResult sim =
      wfgen::enact(spec, {.mode = ExecMode::kSimulate});
  ASSERT_FALSE(sim.moments.empty());
  ASSERT_FALSE(sim.histograms.empty());
  expect_equivalent(spec);
}

/// Fault-injected fork-join (the chaos-soak shape): a scheduled crash
/// under heartbeat loss — detection, failover and re-execution must play
/// out identically in both modes. Seeds also vary transient-loss rates.
TEST(SimulateEquivalence, FaultInjectedTopologies) {
  for (const u64 seed : {u64{31}, u64{32}}) {
    CODS_SEED_TRACE("CODS_FUZZ_SEED", seed);
    wfgen::ScenarioSpec spec;
    spec.seed = seed;
    spec.topology = wfgen::Topology::kForkJoin;
    spec.cluster = ClusterSpec{.num_nodes = 4, .cores_per_node = 4};
    spec.extents = {16, 16};

    wfgen::GenApp producer;
    producer.role = wfgen::AppRole::kPatternProducer;
    producer.app_id = 1;
    producer.name = "producer";
    producer.procs = {4, 2};
    producer.produces = {"field"};
    producer.pattern_seed = seed;

    wfgen::GenApp consumer;
    consumer.role = wfgen::AppRole::kPatternConsumer;
    consumer.app_id = 2;
    consumer.name = "consumer";
    consumer.procs = {2, 2};
    consumer.consumes = {"field"};
    consumer.consume_seed = seed;

    spec.apps = {producer, consumer};
    spec.edges = {{1, 2}};
    spec.faulty = true;
    spec.fault.seed = seed;
    spec.fault.p_heartbeat = 0.05;
    spec.fault.p_transfer = (seed % 2 == 0) ? 0.05 : 0.0;
    spec.fault.crashes.push_back(
        NodeCrash{/*wave=*/0, /*node=*/0, /*after_ops=*/0});

    const wfgen::EnactResult pooled =
        wfgen::enact(spec, {.mode = ExecMode::kPooled});
    ASSERT_FALSE(pooled.reports.empty());
    EXPECT_EQ(pooled.reports[0].failed_nodes, (std::vector<i32>{0}));
    expect_equivalent(spec);
  }
}

/// Straggler speculation: a 50x slowdown on node 0 makes its tasks
/// stragglers, and speculation re-executes them — through the same
/// one-rank enactment path that once hardcoded a live thread.
TEST(SimulateEquivalence, SpeculationTopology) {
  wfgen::ScenarioSpec spec;
  spec.seed = 41;
  spec.topology = wfgen::Topology::kForkJoin;
  spec.cluster = ClusterSpec{.num_nodes = 4, .cores_per_node = 4};
  spec.extents = {16, 16};

  wfgen::GenApp producer;
  producer.role = wfgen::AppRole::kPatternProducer;
  producer.app_id = 1;
  producer.name = "producer";
  producer.procs = {4, 2};
  producer.produces = {"field"};
  producer.pattern_seed = 41;

  wfgen::GenApp consumer;
  consumer.role = wfgen::AppRole::kPatternConsumer;
  consumer.app_id = 2;
  consumer.name = "consumer";
  consumer.procs = {2, 2};
  consumer.consumes = {"field"};
  consumer.consume_seed = 41;

  spec.apps = {producer, consumer};
  spec.edges = {{1, 2}};
  spec.faulty = true;
  spec.fault.seed = 41;
  spec.fault.slowdowns.push_back(
      Slowdown{/*wave=*/0, /*node=*/0, /*factor=*/50.0});
  spec.speculation = true;

  const wfgen::EnactResult pooled =
      wfgen::enact(spec, {.mode = ExecMode::kPooled});
  ASSERT_FALSE(pooled.reports.empty());
  EXPECT_GT(pooled.reports[0].straggler_tasks, 0);
  EXPECT_EQ(pooled.reports[0].speculated_tasks,
            pooled.reports[0].straggler_tasks);
  expect_equivalent(spec);
}

/// Engine-level single-rank workflow: one app, one task, every mode —
/// the ledgers must agree (regression companion to the runtime-level
/// SingleRankHonorsSimulateMode pin).
TEST(SimulateEquivalence, SingleRankWorkflowIdenticalAcrossModes) {
  wfgen::ScenarioSpec spec;
  spec.seed = 9;
  spec.topology = wfgen::Topology::kPipeline;
  spec.cluster = ClusterSpec{.num_nodes = 1, .cores_per_node = 4};
  spec.extents = {8, 8};

  wfgen::GenApp solo;
  solo.role = wfgen::AppRole::kPatternProducer;
  solo.app_id = 1;
  solo.name = "solo";
  solo.procs = {1, 1};
  solo.produces = {"field"};
  solo.versions = 2;
  solo.pattern_seed = 9;
  spec.apps = {solo};

  const wfgen::EnactResult pooled =
      wfgen::enact(spec, {.mode = ExecMode::kPooled});
  EXPECT_GT(pooled.stored_bytes, 0u);
  const wfgen::EnactResult sim =
      wfgen::enact(spec, {.mode = ExecMode::kSimulate});
  EXPECT_EQ(wfgen::diff_runs(pooled, sim), "");
}

}  // namespace
}  // namespace cods
