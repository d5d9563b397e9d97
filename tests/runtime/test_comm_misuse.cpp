// Misuse and boundary tests for the vmpi communicator surface.
#include <gtest/gtest.h>

#include "runtime/runtime.hpp"

namespace cods {
namespace {

class CommMisuseTest : public ::testing::Test {
 protected:
  std::vector<CoreLoc> block_placement(i32 n) {
    std::vector<CoreLoc> placement;
    for (i32 r = 0; r < n; ++r) placement.push_back(cluster_.core_loc(r));
    return placement;
  }

  Cluster cluster_{ClusterSpec{.num_nodes = 2, .cores_per_node = 4}};
  Metrics metrics_;
  HybridDart dart_{cluster_, metrics_};
  Runtime runtime_{dart_};
};

TEST_F(CommMisuseTest, DefaultCommIsInvalid) {
  Comm comm;
  EXPECT_FALSE(comm.valid());
  std::vector<std::byte> data;
  EXPECT_THROW(comm.send(0, 0, data), Error);
  EXPECT_THROW(comm.recv(0, 0), Error);
  EXPECT_THROW(comm.barrier(), Error);
  EXPECT_THROW(comm.global_rank(0), Error);
}

TEST_F(CommMisuseTest, RankOutOfRangeRejected) {
  EXPECT_THROW(runtime_.run(block_placement(2),
                            [&](RankCtx& ctx) {
                              ctx.world.send_value<i32>(5, 0, 1);
                            }),
               Error);
}

TEST_F(CommMisuseTest, TagOutOfRangeRejected) {
  EXPECT_THROW(runtime_.run(block_placement(1),
                            [&](RankCtx& ctx) {
                              std::vector<std::byte> data;
                              ctx.world.send(0, -1, data);
                            }),
               Error);
  EXPECT_THROW(runtime_.run(block_placement(1),
                            [&](RankCtx& ctx) {
                              std::vector<std::byte> data;
                              ctx.world.send(0, 1 << 23, data);
                            }),
               Error);
}

TEST_F(CommMisuseTest, TypedRecvSizeMismatchRejected) {
  EXPECT_THROW(runtime_.run(block_placement(2),
                            [&](RankCtx& ctx) {
                              if (ctx.world.rank() == 0) {
                                ctx.world.send_value<i32>(1, 1, 7);
                              } else {
                                ctx.world.recv_value<i64>(0, 1);  // wrong T
                              }
                            }),
               Error);
}

TEST_F(CommMisuseTest, SelfSendWorks) {
  runtime_.run(block_placement(1), [&](RankCtx& ctx) {
    ctx.world.send_value<i32>(0, 3, 99);
    EXPECT_EQ(ctx.world.recv_value<i32>(0, 3), 99);
  });
}

TEST_F(CommMisuseTest, SingleRankCollectivesAreNoOps) {
  runtime_.run(block_placement(1), [&](RankCtx& ctx) {
    ctx.world.barrier();
    EXPECT_EQ(ctx.world.allreduce_sum(i64{5}), 5);
    std::vector<std::byte> data{std::byte{1}};
    ctx.world.bcast(0, data);
    EXPECT_EQ(data.size(), 1u);
    const auto gathered = ctx.world.gather(0, data);
    ASSERT_EQ(gathered.size(), 1u);
    Comm self = ctx.world.split(0, 0);
    EXPECT_EQ(self.size(), 1);
  });
}

TEST_F(CommMisuseTest, ZeroBytePayloads) {
  runtime_.run(block_placement(2), [&](RankCtx& ctx) {
    if (ctx.world.rank() == 0) {
      ctx.world.send(1, 1, {});
    } else {
      const Message m = ctx.world.recv(0, 1);
      EXPECT_TRUE(m.payload.empty());
    }
  });
  // Empty sends move no accountable bytes.
  EXPECT_EQ(metrics_.counters(0, TrafficClass::kIntraApp).total(), 0u);
}

TEST_F(CommMisuseTest, CommHandleCopiesShareTheGroup) {
  runtime_.run(block_placement(2), [&](RankCtx& ctx) {
    Comm copy = ctx.world;  // value semantics, same comm id
    EXPECT_EQ(copy.id(), ctx.world.id());
    if (copy.rank() == 0) {
      copy.send_value<i32>(1, 2, 5);
    } else {
      EXPECT_EQ(ctx.world.recv_value<i32>(0, 2), 5);  // received via original
    }
  });
}

}  // namespace
}  // namespace cods
