// Non-blocking receives (Comm::RecvRequest) and the bounded-receive paths:
// recv timeouts surface a dead/wedged peer as an Error instead of a hang.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "fault/fault.hpp"
#include "runtime/runtime.hpp"

namespace cods {
namespace {

class IrecvTest : public ::testing::Test {
 protected:
  std::vector<CoreLoc> block_placement(i32 n) {
    std::vector<CoreLoc> placement;
    for (i32 r = 0; r < n; ++r) placement.push_back(cluster_.core_loc(r));
    return placement;
  }

  Cluster cluster_{ClusterSpec{.num_nodes = 4, .cores_per_node = 4}};
  Metrics metrics_;
  HybridDart dart_{cluster_, metrics_};
  Runtime runtime_{dart_};
};

TEST_F(IrecvTest, TestPollsUntilMessageArrives) {
  std::atomic<bool> receiver_posted{false};
  runtime_.run(block_placement(2), [&](RankCtx& ctx) {
    if (ctx.world.rank() == 0) {
      auto request = ctx.world.irecv(1, 7);
      receiver_posted.store(true);
      // Poll until the (deliberately late) sender delivers.
      while (!request.test()) std::this_thread::yield();
      const Message m = request.wait();  // already claimed: returns it
      EXPECT_EQ(m.src_global, 1);
      ASSERT_EQ(m.payload.size(), sizeof(i64));
      i64 value;
      std::memcpy(&value, m.payload.data(), sizeof(value));
      EXPECT_EQ(value, 99);
    } else {
      while (!receiver_posted.load()) std::this_thread::yield();
      ctx.world.send_value<i64>(0, 7, 99);
    }
  });
}

TEST_F(IrecvTest, WaitBlocksUntilDelivery) {
  runtime_.run(block_placement(2), [&](RankCtx& ctx) {
    if (ctx.world.rank() == 0) {
      auto request = ctx.world.irecv(1, 3);
      const Message m = request.wait();
      EXPECT_EQ(m.src_global, 1);
    } else {
      ctx.world.send_value<i32>(0, 3, 1);
    }
  });
}

TEST_F(IrecvTest, AnySourceMatchesAllSenders) {
  runtime_.run(block_placement(4), [&](RankCtx& ctx) {
    if (ctx.world.rank() == 0) {
      std::set<i32> sources;
      for (i32 i = 0; i < 3; ++i) {
        auto request = ctx.world.irecv(kAnySource, 5);
        sources.insert(request.wait().src_global);
      }
      EXPECT_EQ(sources, (std::set<i32>{1, 2, 3}));
    } else {
      ctx.world.send_value<i32>(0, 5, ctx.world.rank());
    }
  });
}

TEST_F(IrecvTest, RecvFromSilentPeerTimesOut) {
  runtime_.set_recv_timeout(std::chrono::seconds(1));
  std::atomic<int> errors{0};
  try {
    runtime_.run(block_placement(2), [&](RankCtx& ctx) {
      if (ctx.world.rank() == 0) {
        try {
          (void)ctx.world.recv(1, 9);  // rank 1 never sends
        } catch (const Error&) {
          ++errors;
          throw;
        }
      }
    });
    FAIL() << "expected the timeout to propagate";
  } catch (const Error&) {
  }
  EXPECT_EQ(errors.load(), 1);
}

TEST_F(IrecvTest, RecvFromDeadNodeFailsFastButDrainsQueuedMessages) {
  FaultInjector injector(FaultSpec{});
  injector.begin_wave(0);
  RetryPolicy retry;
  retry.op_timeout = std::chrono::seconds(30);  // fail-fast must not wait
  dart_.set_fault(&injector, retry);
  runtime_.set_recv_timeout(retry.op_timeout);
  const auto start = std::chrono::steady_clock::now();
  std::atomic<int> node_down_errors{0};
  std::atomic<int> delivered{0};
  std::atomic<bool> died{false};
  try {
    // Ranks 0 and 4 are on different nodes (4 cores per node).
    runtime_.run(block_placement(5), [&](RankCtx& ctx) {
      if (ctx.world.rank() == 4) {
        ctx.world.send_value<i32>(0, 1, 77);  // lands before the "crash"
        injector.declare_dead(ctx.loc.node);
        died.store(true);
      } else if (ctx.world.rank() == 0) {
        while (!died.load()) std::this_thread::yield();
        // Already-delivered message is still readable after the death...
        EXPECT_EQ(ctx.world.recv_value<i32>(4, 1), 77);
        ++delivered;
        try {
          // ...but a recv with nothing queued fails fast, not by timeout.
          (void)ctx.world.recv(4, 2);
        } catch (const NodeDownError&) {
          ++node_down_errors;
          throw;
        }
      }
    });
    FAIL() << "expected the NodeDownError to propagate";
  } catch (const Error&) {
  }
  EXPECT_EQ(delivered.load(), 1);
  EXPECT_EQ(node_down_errors.load(), 1);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(10));
}

TEST(MailboxTimeout, PopThrowsAfterDeadline) {
  MailboxPool box(1);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(box.pop(0, 0, 1, std::chrono::seconds(1)), Error);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::milliseconds(900));
  EXPECT_LT(elapsed, std::chrono::seconds(10));
}

}  // namespace
}  // namespace cods
