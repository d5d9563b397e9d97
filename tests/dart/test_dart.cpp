#include <gtest/gtest.h>

#include <cstring>

#include "dart/dart.hpp"
#include "health/task_clock.hpp"

namespace cods {
namespace {

using namespace cods::literals;

class DartTest : public ::testing::Test {
 protected:
  std::vector<std::byte> bytes(std::initializer_list<int> values) {
    std::vector<std::byte> out;
    for (int v : values) out.push_back(static_cast<std::byte>(v));
    return out;
  }

  Cluster cluster_{ClusterSpec{.num_nodes = 4, .cores_per_node = 4}};
  Metrics metrics_;
  HybridDart dart_{cluster_, metrics_};
};

TEST_F(DartTest, TransportSelectionByNode) {
  EXPECT_EQ(dart_.select_transport({0, 0}, {0, 3}),
            TransportKind::kSharedMemory);
  EXPECT_EQ(dart_.select_transport({0, 0}, {1, 0}), TransportKind::kRdma);
  EXPECT_EQ(dart_.select_transport({2, 1}, {2, 1}),
            TransportKind::kSharedMemory);
}

TEST_F(DartTest, ExposeWindowLookup) {
  auto buf = bytes({1, 2, 3, 4});
  dart_.expose(7, 42, buf);
  EXPECT_TRUE(dart_.has_window(7, 42));
  EXPECT_FALSE(dart_.has_window(7, 43));
  EXPECT_FALSE(dart_.has_window(8, 42));
  const auto win = dart_.window(7, 42);
  EXPECT_EQ(win.size(), 4u);
  EXPECT_EQ(win.data(), buf.data());
  dart_.withdraw(7, 42);
  EXPECT_FALSE(dart_.has_window(7, 42));
  EXPECT_THROW(dart_.window(7, 42), Error);
}

TEST_F(DartTest, DoubleExposeThrows) {
  auto buf = bytes({1});
  dart_.expose(1, 1, buf);
  EXPECT_THROW(dart_.expose(1, 1, buf), Error);
  dart_.withdraw(1, 1);
  EXPECT_NO_THROW(dart_.expose(1, 1, buf));
}

TEST_F(DartTest, OneOpPullCopiesRemoteData) {
  auto remote_buf = bytes({10, 20, 30, 40, 50});
  dart_.expose(1, 5, remote_buf);
  std::vector<std::byte> dst(3);
  PullOp op;
  op.local = {0, {1, 0}};
  op.remote = {1, {0, 0}};
  op.key = 5;
  op.bytes = dst.size();
  op.app_id = 2;
  op.copy = [&dst](std::span<const std::byte> w) {
    std::memcpy(dst.data(), w.data() + 1, dst.size());
  };
  const double t = dart_.pull(std::span(&op, 1));
  EXPECT_GT(t, 0.0);
  EXPECT_EQ(dst, bytes({20, 30, 40}));
  // Cross-node => network bytes.
  EXPECT_EQ(metrics_.counters(2, TrafficClass::kInterApp).net_bytes, 3u);
}

TEST_F(DartTest, PullBatchExecutesAllCopies) {
  auto win_a = bytes({1, 2});
  auto win_b = bytes({3, 4});
  dart_.expose(1, 1, win_a);
  dart_.expose(2, 2, win_b);
  std::vector<std::byte> out(4);
  std::vector<PullOp> ops(2);
  ops[0].local = {0, {0, 0}};
  ops[0].remote = {1, {0, 1}};  // shm
  ops[0].key = 1;
  ops[0].bytes = 2;
  ops[0].app_id = 5;
  ops[0].copy = [&out](std::span<const std::byte> w) {
    std::memcpy(out.data(), w.data(), 2);
  };
  ops[1].local = {0, {0, 0}};
  ops[1].remote = {2, {3, 0}};  // network
  ops[1].key = 2;
  ops[1].bytes = 2;
  ops[1].app_id = 5;
  ops[1].copy = [&out](std::span<const std::byte> w) {
    std::memcpy(out.data() + 2, w.data(), 2);
  };
  const double t = dart_.pull(ops);
  EXPECT_GT(t, 0.0);
  EXPECT_EQ(out, bytes({1, 2, 3, 4}));
  const auto c = metrics_.counters(5, TrafficClass::kInterApp);
  EXPECT_EQ(c.shm_bytes, 2u);
  EXPECT_EQ(c.net_bytes, 2u);
}

TEST_F(DartTest, PullMissingWindowThrows) {
  std::vector<PullOp> ops(1);
  ops[0].remote = {9, {0, 0}};
  ops[0].key = 123;
  EXPECT_THROW(dart_.pull(ops), Error);
}

TEST_F(DartTest, ShmPullFasterThanNetworkPull) {
  auto win = bytes({0});
  win.resize(1_MiB);
  dart_.expose(1, 1, win);
  std::vector<PullOp> shm(1);
  shm[0] = PullOp{{0, {0, 0}}, {1, {0, 1}}, 1, 1_MiB, 0,
                  TrafficClass::kInterApp, nullptr};
  std::vector<PullOp> net(1);
  net[0] = PullOp{{0, {2, 0}}, {1, {0, 1}}, 1, 1_MiB, 0,
                  TrafficClass::kInterApp, nullptr};
  EXPECT_LT(dart_.pull(shm), dart_.pull(net));
}

TEST_F(DartTest, RpcRecordsControlTraffic) {
  const Endpoint a{0, {0, 0}};
  const Endpoint b{1, {1, 0}};
  const double t = dart_.rpc(a, b, 3);
  EXPECT_GT(t, 0.0);
  EXPECT_GT(metrics_.counters(0, TrafficClass::kControl).net_bytes, 0u);
}

TEST_F(DartTest, SendAccountsIntraAppFromSenderToReceiver) {
  TransferLog log;
  dart_.set_transfer_log(&log);
  const Endpoint sender{0, {0, 0}};
  const Endpoint receiver{5, {1, 2}};
  TaskClock::install();
  dart_.send(sender, receiver, 3, 64);
  dart_.send(sender, sender, 3, 64);    // self-send: nothing crosses
  dart_.send(sender, receiver, 3, 0);   // empty payload: nothing moves
  // Sends are buffered: the sender's modelled clock does not advance.
  EXPECT_EQ(TaskClock::elapsed(), 0.0);
  TaskClock::uninstall();
  EXPECT_EQ(metrics_.counters(3, TrafficClass::kIntraApp),
            (ByteCounters{0, 64, 1}));
  const auto records = log.snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].src, sender.loc);
  EXPECT_EQ(records[0].dst, receiver.loc);
  EXPECT_EQ(records[0].cls, TrafficClass::kIntraApp);
  EXPECT_EQ(records[0].model_time,
            dart_.cost_model().flow_time(Flow{sender.loc, receiver.loc, 64}));
}

}  // namespace
}  // namespace cods
