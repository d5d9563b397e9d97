// Lock-order registry + annotated Mutex integration tests: inversions are
// detected and name both locks, try-lock takes no ordering edges, the
// hierarchy dump is deterministic, and ordering is checked per lock class:
// building locks interns nothing, and instances of one class share its
// edges. Fibers of the simulate engine are checked as threads are, each
// with its own held set.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/lock_order.hpp"
#include "common/sync.hpp"
#include "runtime/sim.hpp"

namespace cods {
namespace {

/// Cycle reports land here so EXPECT_THROW can observe them instead of
/// the default abort.
[[noreturn]] void throwing_handler(const std::string& description) {
  throw std::runtime_error(description);
}

class LockOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = lock_order::enabled();
    lock_order::set_enabled(true);  // release builds default to off
    previous_handler_ = lock_order::set_cycle_handler(&throwing_handler);
    lock_order::reset_edges_for_testing();
  }

  void TearDown() override {
    lock_order::reset_edges_for_testing();
    lock_order::set_cycle_handler(previous_handler_);
    lock_order::set_enabled(was_enabled_);
  }

  bool was_enabled_ = false;
  lock_order::CycleHandler previous_handler_ = nullptr;
};

TEST_F(LockOrderTest, NestedAcquisitionRecordsEdge) {
  Mutex a{"order.a"};
  Mutex b{"order.b"};
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  EXPECT_EQ(lock_order::edge_count(), 1u);
  EXPECT_EQ(lock_order::cycles_reported(), 0u);
  // The same nesting again is already validated: no new edge.
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  EXPECT_EQ(lock_order::edge_count(), 1u);
}

TEST_F(LockOrderTest, InversionDetectedNamingBothLocks) {
  Mutex a{"order.alpha"};
  Mutex b{"order.beta"};
  {
    MutexLock la(a);
    MutexLock lb(b);  // establishes alpha -> beta
  }
  std::string report;
  {
    MutexLock lb(b);
    try {
      MutexLock la(a);  // beta -> alpha closes the cycle
      FAIL() << "inversion not detected";
    } catch (const std::runtime_error& e) {
      report = e.what();
    }
  }
  EXPECT_NE(report.find("order.alpha"), std::string::npos) << report;
  EXPECT_NE(report.find("order.beta"), std::string::npos) << report;
  EXPECT_NE(report.find("lock-order cycle"), std::string::npos) << report;
  EXPECT_EQ(lock_order::cycles_reported(), 1u);
}

TEST_F(LockOrderTest, InversionAcrossThreadsDetected) {
  Mutex a{"xthread.a"};
  Mutex b{"xthread.b"};
  // Another thread establishes a -> b; the graph is process-wide, so this
  // thread's b -> a attempt must still trip even though neither thread
  // ever actually deadlocks.
  std::thread([&] {
    MutexLock la(a);
    MutexLock lb(b);
  }).join();
  MutexLock lb(b);
  EXPECT_THROW({ MutexLock la(a); }, std::runtime_error);
  EXPECT_EQ(lock_order::cycles_reported(), 1u);
}

TEST_F(LockOrderTest, TransitiveCycleDetected) {
  Mutex a{"chain.a"};
  Mutex b{"chain.b"};
  Mutex c{"chain.c"};
  {
    MutexLock la(a);
    MutexLock lb(b);  // a -> b
  }
  {
    MutexLock lb(b);
    MutexLock lc(c);  // b -> c
  }
  MutexLock lc(c);
  EXPECT_THROW({ MutexLock la(a); }, std::runtime_error);  // c -> a
}

TEST_F(LockOrderTest, RecursiveAcquisitionDetected) {
  Mutex a{"recursive.a"};
  MutexLock la(a);
  EXPECT_THROW(a.lock(), std::runtime_error);
  EXPECT_EQ(lock_order::cycles_reported(), 1u);
}

TEST_F(LockOrderTest, TryLockTakesNoEdges) {
  Mutex a{"try.a"};
  Mutex b{"try.b"};
  {
    MutexLock la(a);
    ASSERT_TRUE(b.try_lock());  // out-of-order try-lock is legitimate
    b.unlock();
  }
  EXPECT_EQ(lock_order::edge_count(), 0u);
  // So the reverse blocking order later is not a cycle.
  {
    MutexLock lb(b);
    MutexLock la(a);
  }
  EXPECT_EQ(lock_order::cycles_reported(), 0u);
}

TEST_F(LockOrderTest, SharedMutexParticipatesInOrdering) {
  SharedMutex s{"shared.s"};
  Mutex m{"shared.m"};
  {
    ReaderLock ls(s);
    MutexLock lm(m);  // s -> m (shared acquisitions take edges too)
  }
  MutexLock lm(m);
  EXPECT_THROW({ WriterLock ls(s); }, std::runtime_error);
}

TEST_F(LockOrderTest, HierarchyDumpIsSortedAndDeterministic) {
  Mutex a{"dump.a"};
  Mutex b{"dump.b"};
  Mutex c{"dump.c"};
  // Acquire in an order whose insertion sequence differs from the sorted
  // output: b -> c first, then a -> b and a -> c.
  {
    MutexLock lb(b);
    MutexLock lc(c);
  }
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  {
    MutexLock la(a);
    MutexLock lc(c);
  }
  const std::string expected =
      "dump.a -> dump.b\n"
      "dump.a -> dump.c\n"
      "dump.b -> dump.c\n";
  EXPECT_EQ(lock_order::dump_hierarchy(), expected);
  EXPECT_EQ(lock_order::dump_hierarchy(), expected);  // stable across calls
}

TEST_F(LockOrderTest, DisabledTrackingRecordsNothing) {
  lock_order::set_enabled(false);
  Mutex a{"off.a"};
  Mutex b{"off.b"};
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  EXPECT_EQ(lock_order::edge_count(), 0u);
  // Re-enabling starts from an empty graph: the nesting above was never
  // recorded. Repeating it now records it as a fresh edge. (No reverse
  // acquisition here — TSan's own lock-order detector would flag a
  // *physical* inversion even with our tracking off.)
  lock_order::set_enabled(true);
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  EXPECT_EQ(lock_order::edge_count(), 1u);
  EXPECT_EQ(lock_order::cycles_reported(), 0u);
}

int g_counted_cycles = 0;
void counting_handler(const std::string&) { ++g_counted_cycles; }

TEST_F(LockOrderTest, NonAbortingHandlerLetsExecutionContinue) {
  // A handler that merely records (a logging deployment) must not stop
  // the acquiring thread: the inversion is reported, the offending edge
  // is left out of the graph, and the lock is still taken.
  lock_order::set_cycle_handler(&counting_handler);
  g_counted_cycles = 0;
  const std::size_t before = lock_order::cycles_reported();
  Mutex a{"order.cont.a"};
  Mutex b{"order.cont.b"};
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  {
    MutexLock lb(b);
    MutexLock la(a);  // inversion: handler fires, acquisition proceeds
  }
  EXPECT_EQ(g_counted_cycles, 1);
  EXPECT_EQ(lock_order::cycles_reported(), before + 1);
  EXPECT_EQ(lock_order::edge_count(), 1u);  // the cycle edge is not kept
}

/// Takes a -> b, then b -> a (an inversion the counting handler lets
/// through), then c while still holding both.
void invert_then_nest(Mutex& a, Mutex& b, Mutex& c) {
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  MutexLock lb(b);
  MutexLock la(a);
  MutexLock lc(c);
}

TEST_F(LockOrderTest, ReportedCycleLeavesTheClassHeldOnBothPaths) {
  // Past a cycle its handler let through, the lock is taken and its
  // class held: the next acquisition records edges from it, on a thread
  // and on a simulated fiber alike.
  lock_order::set_cycle_handler(&counting_handler);
  g_counted_cycles = 0;
  Mutex a{"agree.thread.a"};
  Mutex b{"agree.thread.b"};
  Mutex c{"agree.thread.c"};
  invert_then_nest(a, b, c);
  Mutex sa{"agree.sim.a"};
  Mutex sb{"agree.sim.b"};
  Mutex sc{"agree.sim.c"};
  SimEngine sim;
  sim.run(1, [&](i32) { invert_then_nest(sa, sb, sc); });
  EXPECT_EQ(g_counted_cycles, 2);
  EXPECT_EQ(lock_order::dump_hierarchy(),
            "agree.sim.a -> agree.sim.b\n"
            "agree.sim.a -> agree.sim.c\n"
            "agree.sim.b -> agree.sim.c\n"
            "agree.thread.a -> agree.thread.b\n"
            "agree.thread.a -> agree.thread.c\n"
            "agree.thread.b -> agree.thread.c\n");
}

TEST_F(LockOrderTest, InversionAcrossInstancesOfTwoClassesDetected) {
  // Edges belong to classes: a1 -> b1 and then b2 -> a2 is an inversion
  // even though no single pair of instances was ever taken both ways.
  Mutex a1{"class.a"};
  Mutex b1{"class.b"};
  Mutex a2{"class.a"};
  Mutex b2{"class.b"};
  {
    MutexLock la(a1);
    MutexLock lb(b1);  // class.a -> class.b
  }
  std::string report;
  {
    MutexLock lb(b2);
    try {
      MutexLock la(a2);  // class.b -> class.a closes the cycle
      FAIL() << "class-level inversion not detected";
    } catch (const std::runtime_error& e) {
      report = e.what();
    }
  }
  EXPECT_NE(report.find("class.a"), std::string::npos) << report;
  EXPECT_NE(report.find("class.b"), std::string::npos) << report;
  EXPECT_EQ(lock_order::cycles_reported(), 1u);
  EXPECT_EQ(lock_order::edge_count(), 1u);
}

TEST_F(LockOrderTest, NestingTwoInstancesOfOneClassIsRecursive) {
  Mutex first{"class.same"};
  Mutex second{"class.same"};
  MutexLock l1(first);
  try {
    second.lock();
    second.unlock();
    FAIL() << "same-class nesting not reported";
  } catch (const std::runtime_error& e) {
    const std::string report = e.what();
    EXPECT_NE(report.find("acquiring 'class.same' while holding 'class.same'"),
              std::string::npos)
        << report;
  }
  EXPECT_EQ(lock_order::cycles_reported(), 1u);
  EXPECT_EQ(lock_order::edge_count(), 0u);
}

TEST_F(LockOrderTest, BuildingLocksInternsNoClass) {
  const std::size_t before = lock_order::class_count();
  std::vector<std::unique_ptr<Mutex>> locks;
  locks.reserve(100'000);
  for (int i = 0; i < 100'000; ++i) {
    locks.push_back(std::make_unique<Mutex>("class.built"));
  }
  EXPECT_EQ(lock_order::class_count(), before);
  // Taking every one of them interns their class once.
  for (const auto& mu : locks) {
    MutexLock lock(*mu);
  }
  EXPECT_EQ(lock_order::class_count(), before + 1);
  EXPECT_EQ(lock_order::edge_count(), 0u);
}

TEST_F(LockOrderTest, DisabledCheckerLeavesRegistryUntouched) {
  lock_order::set_enabled(false);
  const std::size_t classes = lock_order::class_count();
  Mutex a{"off.registry.a"};
  SharedMutex s{"off.registry.s"};
  {
    MutexLock la(a);
    ReaderLock ls(s);
  }
  ASSERT_TRUE(a.try_lock());
  a.unlock();
  {
    WriterLock ls(s);
  }
  EXPECT_EQ(lock_order::class_count(), classes);
  EXPECT_EQ(lock_order::edge_count(), 0u);
  EXPECT_EQ(lock_order::cycles_reported(), 0u);
}

TEST_F(LockOrderTest, InversionAcrossSimulatedFibersDetected) {
  // Fiber 0 runs to its end first, taking a then b; fiber 1 then takes b
  // then a. No fiber ever waits, yet the opposite orders close a cycle.
  Mutex a{"fiber.a"};
  Mutex b{"fiber.b"};
  SimEngine sim;
  try {
    sim.run(2, [&](i32 task) {
      Mutex& first = task == 0 ? a : b;
      Mutex& second = task == 0 ? b : a;
      MutexLock l1(first);
      MutexLock l2(second);
    });
    FAIL() << "inversion between simulated fibers not detected";
  } catch (const std::runtime_error& e) {
    const std::string report = e.what();
    EXPECT_NE(report.find("fiber.a"), std::string::npos) << report;
    EXPECT_NE(report.find("fiber.b"), std::string::npos) << report;
  }
  EXPECT_EQ(lock_order::cycles_reported(), 1u);
}

TEST_F(LockOrderTest, SimulatedFibersHoldLocksOfTheirOwn) {
  // Fiber 0 parks while it holds `held`; fiber 1 runs meanwhile and takes
  // `other`. The held set is per fiber, so no held -> other edge is
  // recorded, and fiber 0 still releases its own lock after the resume.
  Mutex held{"own.held"};
  Mutex other{"own.other"};
  Mutex gate_mu{"own.gate"};
  CondVar gate;
  bool open = false;
  SimEngine sim;
  sim.run(2, [&](i32 task) {
    if (task == 0) {
      MutexLock lh(held);
      MutexLock lg(gate_mu);
      gate.wait(lg, [&] { return open; });
      return;
    }
    {
      MutexLock lo(other);
    }
    MutexLock lg(gate_mu);
    open = true;
    gate.notify_all();
  });
  EXPECT_EQ(sim.stats().cancellations, 0u);
  EXPECT_EQ(lock_order::dump_hierarchy(), "own.held -> own.gate\n");
  EXPECT_EQ(lock_order::cycles_reported(), 0u);
  // The thread's own held set is empty again: a fresh a -> b nesting is
  // the only new edge.
  Mutex a{"own.after.a"};
  Mutex b{"own.after.b"};
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  EXPECT_EQ(lock_order::edge_count(), 2u);
}

}  // namespace
}  // namespace cods
