// Tests for the extended vmpi surface: non-blocking receives, sendrecv,
// scatter, and alltoallv.
#include <gtest/gtest.h>

#include <atomic>

#include "runtime/runtime.hpp"

namespace cods {
namespace {

class CollectivesTest : public ::testing::Test {
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

TEST_F(CollectivesTest, IrecvTestPollsWithoutBlocking) {
  runtime_.run(block_placement(2), [&](RankCtx& ctx) {
    if (ctx.world.rank() == 0) {
      auto request = ctx.world.irecv(1, 5);
      // Nothing sent yet: test() may be false. Tell rank 1 to go ahead.
      ctx.world.send_value<i32>(1, 1, 1);
      // Poll until the message lands.
      while (!request.test()) {
        std::this_thread::yield();
      }
      const Message m = request.wait();
      EXPECT_EQ(m.payload.size(), sizeof(i64));
    } else {
      ctx.world.recv(0, 1);
      ctx.world.send_value<i64>(0, 5, 42);
    }
  });
}

TEST_F(CollectivesTest, IrecvWaitWithoutTest) {
  runtime_.run(block_placement(2), [&](RankCtx& ctx) {
    if (ctx.world.rank() == 0) {
      auto request = ctx.world.irecv(1, 9);
      i64 value;
      const Message m = request.wait();
      std::memcpy(&value, m.payload.data(), sizeof(value));
      EXPECT_EQ(value, 77);
    } else {
      ctx.world.send_value<i64>(0, 9, 77);
    }
  });
}

TEST_F(CollectivesTest, MultipleOutstandingIrecvs) {
  runtime_.run(block_placement(4), [&](RankCtx& ctx) {
    if (ctx.world.rank() == 0) {
      std::vector<Comm::RecvRequest> requests;
      for (i32 r = 1; r < 4; ++r) requests.push_back(ctx.world.irecv(r, 3));
      i32 total = 0;
      for (auto& request : requests) {
        const Message m = request.wait();
        i32 v;
        std::memcpy(&v, m.payload.data(), sizeof(v));
        total += v;
      }
      EXPECT_EQ(total, 6);
    } else {
      ctx.world.send_value<i32>(0, 3, ctx.world.rank());
    }
  });
}

TEST_F(CollectivesTest, SendrecvPairwiseExchange) {
  runtime_.run(block_placement(4), [&](RankCtx& ctx) {
    const i32 partner = ctx.world.rank() ^ 1;  // 0<->1, 2<->3
    const i32 mine = ctx.world.rank() * 10;
    const auto bytes =
        std::span(reinterpret_cast<const std::byte*>(&mine), sizeof(mine));
    const Message m = ctx.world.sendrecv(partner, 2, bytes);
    i32 theirs;
    std::memcpy(&theirs, m.payload.data(), sizeof(theirs));
    EXPECT_EQ(theirs, partner * 10);
  });
}

TEST_F(CollectivesTest, ScatterDistributesChunks) {
  runtime_.run(block_placement(4), [&](RankCtx& ctx) {
    std::vector<std::vector<std::byte>> chunks;
    if (ctx.world.rank() == 1) {  // non-zero root
      for (i32 r = 0; r < 4; ++r) {
        chunks.push_back(std::vector<std::byte>(
            static_cast<size_t>(r + 1), static_cast<std::byte>(r)));
      }
    }
    const auto mine = ctx.world.scatter(1, chunks);
    EXPECT_EQ(mine.size(), static_cast<size_t>(ctx.world.rank() + 1));
    for (std::byte b : mine) {
      EXPECT_EQ(b, static_cast<std::byte>(ctx.world.rank()));
    }
  });
}

TEST_F(CollectivesTest, ScatterRootValidatesChunkCount) {
  EXPECT_THROW(
      runtime_.run(block_placement(2),
                   [&](RankCtx& ctx) {
                     if (ctx.world.rank() == 0) {
                       std::vector<std::vector<std::byte>> chunks(1);
                       ctx.world.scatter(0, chunks);  // wrong chunk count
                     }
                     // rank 1 exits immediately; the root's error surfaces
                     // from run().
                   }),
      Error);
}

TEST_F(CollectivesTest, AlltoallvFullExchange) {
  runtime_.run(block_placement(4), [&](RankCtx& ctx) {
    const i32 me = ctx.world.rank();
    // Rank i sends (i * 4 + j) to rank j.
    std::vector<std::vector<std::byte>> send(4);
    for (i32 j = 0; j < 4; ++j) {
      const i32 value = me * 4 + j;
      send[static_cast<size_t>(j)].resize(sizeof(i32));
      std::memcpy(send[static_cast<size_t>(j)].data(), &value, sizeof(value));
    }
    const auto recv = ctx.world.alltoallv(send);
    ASSERT_EQ(recv.size(), 4u);
    for (i32 i = 0; i < 4; ++i) {
      i32 value;
      std::memcpy(&value, recv[static_cast<size_t>(i)].data(), sizeof(value));
      EXPECT_EQ(value, i * 4 + me);
    }
  });
}

TEST_F(CollectivesTest, AlltoallvVariableSizes) {
  runtime_.run(block_placement(3), [&](RankCtx& ctx) {
    const i32 me = ctx.world.rank();
    std::vector<std::vector<std::byte>> send(3);
    for (i32 j = 0; j < 3; ++j) {
      send[static_cast<size_t>(j)].assign(
          static_cast<size_t>(me + j + 1), static_cast<std::byte>(me));
    }
    const auto recv = ctx.world.alltoallv(send);
    for (i32 i = 0; i < 3; ++i) {
      EXPECT_EQ(recv[static_cast<size_t>(i)].size(),
                static_cast<size_t>(i + me + 1));
      if (!recv[static_cast<size_t>(i)].empty()) {
        EXPECT_EQ(recv[static_cast<size_t>(i)][0], static_cast<std::byte>(i));
      }
    }
  });
}

TEST_F(CollectivesTest, AlltoallvOnSplitComms) {
  // Two app groups do independent all-to-alls without crosstalk.
  runtime_.run(block_placement(8), [&](RankCtx& ctx) {
    const i32 color = ctx.world.rank() / 4;
    Comm app = ctx.world.split(color, ctx.world.rank());
    std::vector<std::vector<std::byte>> send(4);
    for (i32 j = 0; j < 4; ++j) {
      send[static_cast<size_t>(j)].assign(1,
                                          static_cast<std::byte>(color * 100));
    }
    const auto recv = app.alltoallv(send);
    for (const auto& buf : recv) {
      ASSERT_EQ(buf.size(), 1u);
      EXPECT_EQ(buf[0], static_cast<std::byte>(color * 100));
    }
  });
}

}  // namespace
}  // namespace cods
