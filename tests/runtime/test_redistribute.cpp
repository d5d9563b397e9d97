// Tests for the "single MPI meta-application" M x N baseline: producers
// and consumers in one communicator exchanging overlap regions directly.
#include <gtest/gtest.h>

#include <atomic>

#include "core/layout.hpp"
#include "geometry/redistribution.hpp"
#include "runtime/redistribute.hpp"

namespace cods {
namespace {

class MetaRedistributeTest : public ::testing::Test {
 protected:
  Cluster cluster_{ClusterSpec{.num_nodes = 4, .cores_per_node = 4}};
  Metrics metrics_;
  HybridDart dart_{cluster_, metrics_};
  Runtime runtime_{dart_};

  std::vector<CoreLoc> block_placement(i32 n) {
    std::vector<CoreLoc> placement;
    for (i32 r = 0; r < n; ++r) placement.push_back(cluster_.core_loc(r));
    return placement;
  }
};

TEST_F(MetaRedistributeTest, MxNContentCorrect) {
  // 8 producers (4x2) -> 4 consumers (2x2) over a 16x16 domain.
  const Decomposition src = blocked({16, 16}, {4, 2});
  const Decomposition dst = blocked({16, 16}, {2, 2});
  std::atomic<u64> bad{0};
  runtime_.run(block_placement(12), [&](RankCtx& ctx) {
    const i32 rank = ctx.world.rank();
    if (rank < 8) {
      // Producer: fill my box with the global pattern and send overlaps.
      const Box mine = src.owned_boxes(rank)[0];
      std::vector<std::byte> data(box_bytes(mine, 8));
      fill_pattern(data, mine, 8, 77);
      const auto stats = meta_redistribute_send(ctx.world, src, rank, dst,
                                                /*consumer_rank0=*/8, data, 8);
      EXPECT_GT(stats.bytes_sent, 0u);
    } else {
      const i32 dst_rank = rank - 8;
      const Box mine = dst.owned_boxes(dst_rank)[0];
      std::vector<std::byte> out(box_bytes(mine, 8));
      const auto stats = meta_redistribute_recv(ctx.world, src,
                                                /*producer_rank0=*/0, dst,
                                                dst_rank, out, 8);
      EXPECT_EQ(stats.bytes_received, box_bytes(mine, 8));
      bad += verify_pattern(out, mine, 8, 77);
    }
  });
  EXPECT_EQ(bad.load(), 0u);
}

TEST_F(MetaRedistributeTest, BytesMatchAnalyticVolumes) {
  const Decomposition src = blocked({12, 12}, {3, 2});
  const Decomposition dst = blocked({12, 12}, {2, 3});
  const u64 expected_cells = total_cells(redistribution_volumes(src, dst));
  std::atomic<u64> sent{0};
  std::atomic<u64> received{0};
  runtime_.run(block_placement(12), [&](RankCtx& ctx) {
    const i32 rank = ctx.world.rank();
    if (rank < 6) {
      const Box mine = src.owned_boxes(rank)[0];
      std::vector<std::byte> data(box_bytes(mine, 8));
      sent += meta_redistribute_send(ctx.world, src, rank, dst, 6, data, 8)
                  .bytes_sent;
    } else {
      const Box mine = dst.owned_boxes(rank - 6)[0];
      std::vector<std::byte> out(box_bytes(mine, 8));
      received +=
          meta_redistribute_recv(ctx.world, src, 0, dst, rank - 6, out, 8)
              .bytes_received;
    }
  });
  EXPECT_EQ(sent.load(), expected_cells * 8);
  EXPECT_EQ(received.load(), expected_cells * 8);
}

TEST_F(MetaRedistributeTest, PeerCountsMatchFanOut) {
  // 4 producers -> 2 consumers in 1-D: every consumer hears from exactly 2
  // producers, every producer sends to exactly 1 consumer.
  const Decomposition src = blocked({16}, {4});
  const Decomposition dst = blocked({16}, {2});
  runtime_.run(block_placement(6), [&](RankCtx& ctx) {
    const i32 rank = ctx.world.rank();
    if (rank < 4) {
      const Box mine = src.owned_boxes(rank)[0];
      std::vector<std::byte> data(box_bytes(mine, 8));
      const auto stats =
          meta_redistribute_send(ctx.world, src, rank, dst, 4, data, 8);
      EXPECT_EQ(stats.peers, 1);
    } else {
      const Box mine = dst.owned_boxes(rank - 4)[0];
      std::vector<std::byte> out(box_bytes(mine, 8));
      const auto stats =
          meta_redistribute_recv(ctx.world, src, 0, dst, rank - 4, out, 8);
      EXPECT_EQ(stats.peers, 2);
    }
  });
}

TEST_F(MetaRedistributeTest, NonBlockedRejected) {
  const Decomposition cyc({16}, {4}, Dist::kCyclic);
  const Decomposition blk = blocked({16}, {2});
  runtime_.run(block_placement(1), [&](RankCtx& ctx) {
    std::vector<std::byte> buf(1024);
    EXPECT_THROW(
        meta_redistribute_send(ctx.world, cyc, 0, blk, 0, buf, 8), Error);
    EXPECT_THROW(
        meta_redistribute_recv(ctx.world, blk, 0, cyc, 0, buf, 8), Error);
  });
}

TEST_F(MetaRedistributeTest, UndersizedBuffersRejected) {
  const Decomposition src = blocked({16}, {2});
  runtime_.run(block_placement(1), [&](RankCtx& ctx) {
    std::vector<std::byte> tiny(8);
    EXPECT_THROW(
        meta_redistribute_send(ctx.world, src, 0, src, 0, tiny, 8), Error);
    EXPECT_THROW(
        meta_redistribute_recv(ctx.world, src, 0, src, 0, tiny, 8), Error);
  });
}

}  // namespace
}  // namespace cods
