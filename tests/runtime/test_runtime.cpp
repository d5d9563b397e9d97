#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "runtime/runtime.hpp"

namespace cods {
namespace {

class RuntimeTest : public ::testing::Test {
 protected:
  std::vector<CoreLoc> block_placement(i32 n) {
    std::vector<CoreLoc> placement;
    for (i32 r = 0; r < n; ++r) {
      placement.push_back(cluster_.core_loc(r));
    }
    return placement;
  }

  Cluster cluster_{ClusterSpec{.num_nodes = 4, .cores_per_node = 4}};
  Metrics metrics_;
  HybridDart dart_{cluster_, metrics_};
  Runtime runtime_{dart_};
};

TEST_F(RuntimeTest, RanksSeeWorldCommAndPlacement) {
  std::atomic<i32> sum{0};
  runtime_.run(block_placement(8), [&](RankCtx& ctx) {
    EXPECT_EQ(ctx.world.size(), 8);
    EXPECT_EQ(ctx.world.rank(), ctx.global_rank);
    EXPECT_EQ(ctx.loc.node, ctx.global_rank / 4);
    sum += ctx.global_rank;
  });
  EXPECT_EQ(sum.load(), 28);
}

TEST_F(RuntimeTest, PointToPointRoundTrip) {
  runtime_.run(block_placement(2), [&](RankCtx& ctx) {
    if (ctx.world.rank() == 0) {
      ctx.world.send_value<i64>(1, 3, 12345);
      EXPECT_EQ(ctx.world.recv_value<i64>(1, 4), 54321);
    } else {
      EXPECT_EQ(ctx.world.recv_value<i64>(0, 3), 12345);
      ctx.world.send_value<i64>(0, 4, 54321);
    }
  });
}

TEST_F(RuntimeTest, MessagesMatchOnTagAndSource) {
  runtime_.run(block_placement(3), [&](RankCtx& ctx) {
    if (ctx.world.rank() != 0) {
      // Both senders use distinct tags; rank 0 receives in reversed order.
      ctx.world.send_value<i32>(0, 10 + ctx.world.rank(), ctx.world.rank());
    } else {
      EXPECT_EQ(ctx.world.recv_value<i32>(2, 12), 2);
      EXPECT_EQ(ctx.world.recv_value<i32>(1, 11), 1);
      // kAnySource with explicit tag.
      ctx.world.barrier();
    }
    if (ctx.world.rank() != 0) ctx.world.barrier();
  });
}

TEST_F(RuntimeTest, RecvFromAnySource) {
  runtime_.run(block_placement(4), [&](RankCtx& ctx) {
    if (ctx.world.rank() == 0) {
      i32 total = 0;
      for (int i = 0; i < 3; ++i) total += ctx.world.recv_value<i32>(kAnySource, 7);
      EXPECT_EQ(total, 1 + 2 + 3);
    } else {
      ctx.world.send_value<i32>(0, 7, ctx.world.rank());
    }
  });
}

TEST_F(RuntimeTest, BarrierSynchronizes) {
  std::atomic<i32> before{0};
  std::atomic<bool> violated{false};
  runtime_.run(block_placement(8), [&](RankCtx& ctx) {
    ++before;
    ctx.world.barrier();
    if (before.load() != 8) violated = true;
  });
  EXPECT_FALSE(violated.load());
}

TEST_F(RuntimeTest, BcastDistributesPayload) {
  runtime_.run(block_placement(5), [&](RankCtx& ctx) {
    std::vector<std::byte> data;
    if (ctx.world.rank() == 2) {
      data = {std::byte{9}, std::byte{8}};
    }
    ctx.world.bcast(2, data);
    ASSERT_EQ(data.size(), 2u);
    EXPECT_EQ(data[0], std::byte{9});
  });
}

TEST_F(RuntimeTest, GatherCollectsInRankOrder) {
  runtime_.run(block_placement(4), [&](RankCtx& ctx) {
    const auto mine = static_cast<std::byte>(100 + ctx.world.rank());
    auto gathered = ctx.world.gather(0, std::span(&mine, 1));
    if (ctx.world.rank() == 0) {
      ASSERT_EQ(gathered.size(), 4u);
      for (i32 r = 0; r < 4; ++r) {
        EXPECT_EQ(gathered[static_cast<size_t>(r)][0],
                  static_cast<std::byte>(100 + r));
      }
    } else {
      EXPECT_TRUE(gathered.empty());
    }
  });
}

TEST_F(RuntimeTest, AllreduceSumAndMax) {
  runtime_.run(block_placement(6), [&](RankCtx& ctx) {
    EXPECT_EQ(ctx.world.allreduce_sum(i64{ctx.world.rank()}), 15);
    EXPECT_EQ(ctx.world.allreduce_max(i64{ctx.world.rank() % 4}), 3);
    EXPECT_DOUBLE_EQ(ctx.world.allreduce_sum(0.5), 3.0);
  });
}

TEST_F(RuntimeTest, SplitByColorFormsAppGroups) {
  // The paper's client-grouping pattern: clients colored by app id.
  runtime_.run(block_placement(8), [&](RankCtx& ctx) {
    const i32 color = ctx.world.rank() < 6 ? 1 : 2;  // app 1: 6 tasks, app 2: 2
    Comm app = ctx.world.split(color, /*key=*/ctx.world.rank());
    ASSERT_TRUE(app.valid());
    app.set_app_id(color);
    EXPECT_EQ(app.size(), color == 1 ? 6 : 2);
    // Ranks within the group are ordered by key = old world rank.
    EXPECT_EQ(app.rank(), color == 1 ? ctx.world.rank()
                                     : ctx.world.rank() - 6);
    // The new communicator is isolated: sum of world ranks within group.
    const i64 sum = app.allreduce_sum(i64{ctx.world.rank()});
    EXPECT_EQ(sum, color == 1 ? 15 : 13);
  });
}

TEST_F(RuntimeTest, SplitNegativeColorYieldsInvalidComm) {
  runtime_.run(block_placement(4), [&](RankCtx& ctx) {
    const i32 color = ctx.world.rank() == 3 ? -1 : 0;
    Comm sub = ctx.world.split(color, 0);
    if (ctx.world.rank() == 3) {
      EXPECT_FALSE(sub.valid());
    } else {
      ASSERT_TRUE(sub.valid());
      EXPECT_EQ(sub.size(), 3);
    }
  });
}

TEST_F(RuntimeTest, SplitKeyControlsRankOrder) {
  runtime_.run(block_placement(4), [&](RankCtx& ctx) {
    // Reverse the ordering via the key.
    Comm sub = ctx.world.split(0, /*key=*/-ctx.world.rank());
    EXPECT_EQ(sub.rank(), 3 - ctx.world.rank());
  });
}

TEST_F(RuntimeTest, SendAccountsShmVsNetworkBytes) {
  runtime_.run(block_placement(8), [&](RankCtx& ctx) {
    ctx.world.set_app_id(3);
    if (ctx.world.rank() == 0) {
      std::vector<std::byte> payload(100);
      ctx.world.send(1, 1, payload);  // same node (cores 0,1 of node 0)
      ctx.world.send(7, 1, payload);  // different node
    } else if (ctx.world.rank() == 1 || ctx.world.rank() == 7) {
      ctx.world.recv(0, 1);
    }
  });
  const auto c = metrics_.counters(3, TrafficClass::kIntraApp);
  EXPECT_EQ(c.shm_bytes, 100u);
  EXPECT_EQ(c.net_bytes, 100u);
}

TEST_F(RuntimeTest, SendsCrossTheRuntimesTransport) {
  // The dart a Runtime is built on journals its sends and applies its
  // injector to them; nothing is wired on the Runtime itself.
  TransferLog log;
  dart_.set_transfer_log(&log);
  runtime_.run(block_placement(8), [&](RankCtx& ctx) {
    ctx.world.set_app_id(3);
    if (ctx.world.rank() == 0) {
      ctx.world.send_value<i64>(7, 1, 42);
      ctx.world.send_value<i64>(0, 2, 42);  // self-send: not a transfer
      ctx.world.send(1, 3, {});             // empty: not a transfer
      (void)ctx.world.recv(0, 2);
    } else if (ctx.world.rank() == 1) {
      (void)ctx.world.recv(0, 3);
    } else if (ctx.world.rank() == 7) {
      EXPECT_EQ(ctx.world.recv_value<i64>(0, 1), 42);
    }
  });
  const auto records = log.snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].src, (CoreLoc{0, 0}));
  EXPECT_EQ(records[0].dst, (CoreLoc{1, 3}));
  EXPECT_EQ(records[0].bytes, sizeof(i64));
  EXPECT_EQ(records[0].cls, TrafficClass::kIntraApp);
  EXPECT_EQ(records[0].app_id, 3);

  FaultSpec spec;
  spec.p_send = 1.0;
  FaultInjector injector(spec);
  injector.begin_wave(0);
  RetryPolicy retry;
  retry.max_retries = 0;
  dart_.set_fault(&injector, retry);
  EXPECT_THROW(runtime_.run(block_placement(2),
                            [](RankCtx& ctx) {
                              if (ctx.world.rank() == 0) {
                                ctx.world.send_value<i64>(1, 1, 42);
                              }
                            }),
               RetriesExhaustedError);
  EXPECT_EQ(metrics_.count(0, "fault.exhausted"), 1u);
}

TEST_F(RuntimeTest, RankExceptionPropagates) {
  EXPECT_THROW(
      runtime_.run(block_placement(2),
                   [&](RankCtx& ctx) {
                     if (ctx.world.rank() == 1) fail("rank 1 exploded");
                   }),
      Error);
}

TEST_F(RuntimeTest, PlacementOutsideClusterRejected) {
  EXPECT_THROW(runtime_.run({CoreLoc{9, 0}}, [](RankCtx&) {}), Error);
  EXPECT_THROW(runtime_.run({CoreLoc{0, 7}}, [](RankCtx&) {}), Error);
}

TEST_F(RuntimeTest, ManyRanksInterleavedTraffic) {
  // Ring exchange across 16 ranks: rank r sends to r+1, receives from r-1.
  runtime_.run(block_placement(16), [&](RankCtx& ctx) {
    const i32 n = ctx.world.size();
    const i32 next = (ctx.world.rank() + 1) % n;
    const i32 prev = (ctx.world.rank() + n - 1) % n;
    ctx.world.send_value<i32>(next, 5, ctx.world.rank());
    EXPECT_EQ(ctx.world.recv_value<i32>(prev, 5), prev);
  });
}

}  // namespace
}  // namespace cods
