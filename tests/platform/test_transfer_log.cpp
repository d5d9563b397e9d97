#include <gtest/gtest.h>

#include <thread>

#include "dart/dart.hpp"
#include "platform/transfer_log.hpp"

namespace cods {
namespace {

TransferRecord make_record(i32 src_node, i32 dst_node, u64 bytes,
                           bool net, i32 app = 1) {
  TransferRecord r;
  r.src = CoreLoc{src_node, 0};
  r.dst = CoreLoc{dst_node, 0};
  r.bytes = bytes;
  r.via_network = net;
  r.app_id = app;
  r.model_time = 1e-4;
  return r;
}

TEST(TransferLog, RecordsAndSnapshots) {
  TransferLog log;
  log.record(make_record(0, 1, 100, true));
  log.record(make_record(0, 0, 50, false));
  EXPECT_EQ(log.size(), 2u);
  const auto records = log.snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].bytes, 100u);
  EXPECT_TRUE(records[0].via_network);
  EXPECT_FALSE(records[1].via_network);
}

TEST(TransferLog, CapacityBoundsAndDropCount) {
  TransferLog log(/*capacity=*/3);
  for (int i = 0; i < 5; ++i) log.record(make_record(0, 1, 1, true));
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.dropped(), 2u);
}

TEST(TransferLog, ThreadSafeRecording) {
  TransferLog log;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 500; ++i) log.record(make_record(0, 1, 1, true));
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(log.size(), 2000u);
}

TEST(TransferLog, AttachedToDartCapturesTransfers) {
  Cluster cluster(ClusterSpec{.num_nodes = 2, .cores_per_node = 2});
  Metrics metrics;
  HybridDart dart(cluster, metrics);
  TransferLog log;
  dart.set_transfer_log(&log);

  std::vector<std::byte> window(64);
  dart.expose(1, 7, window);
  PullOp op{Endpoint{0, {0, 0}}, Endpoint{1, {1, 0}}, 7, /*bytes=*/32,
            /*app_id=*/3, TrafficClass::kInterApp, nullptr};
  dart.pull(std::span(&op, 1));
  ASSERT_EQ(log.size(), 1u);
  const auto records = log.snapshot();
  EXPECT_EQ(records[0].bytes, 32u);
  EXPECT_TRUE(records[0].via_network);
  EXPECT_EQ(records[0].app_id, 3);
  EXPECT_GT(records[0].model_time, 0.0);

  // Detach: no further records.
  dart.set_transfer_log(nullptr);
  dart.pull(std::span(&op, 1));
  EXPECT_EQ(log.size(), 1u);
}

}  // namespace
}  // namespace cods
