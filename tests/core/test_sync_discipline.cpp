// Regression tests for the racy configuration paths surfaced while
// annotating the concurrency-bearing classes (docs/CONCURRENCY.md):
// CodsSpace::op_timeout_, HybridDart::transfer_log_/fault_, and
// Runtime::recv_timeout_ used to be plain fields written while reader
// threads were live. They are atomics now; these tests hammer each
// writer/reader pair so the TSan CI job proves the fix.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "core/cods.hpp"
#include "dart/dart.hpp"
#include "fault/fault.hpp"
#include "runtime/runtime.hpp"

namespace cods {
namespace {

using std::chrono::seconds;

TEST(SyncDiscipline, OpTimeoutAdjustedWhileClientsWait) {
  Cluster cluster{ClusterSpec{.num_nodes = 2, .cores_per_node = 2}};
  Metrics metrics;
  CodsSpace space(cluster, metrics, Box{{0, 0}, {15, 15}});
  CodsClient producer(space, Endpoint{cluster.global_core({0, 0}), {0, 0}},
                      1);

  const Box box{{0, 0}, {7, 7}};
  std::vector<std::byte> data(box_bytes(box, 8));
  fill_pattern(data, box, 8, 3);

  std::atomic<bool> stop{false};
  // The engine-side writer: shortens/restores the default wait bound while
  // clients are mid-wait (the fault-recovery path does exactly this).
  std::thread writer([&] {
    int i = 0;
    while (!stop.load()) {
      space.set_op_timeout(seconds(1 + (i++ & 7)));
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        // wait_version reads op_timeout() to compute its deadline; the
        // version already exists after the first put, so it returns
        // immediately once published.
        const seconds bound = space.op_timeout();
        EXPECT_GE(bound.count(), 1);
        EXPECT_LE(bound.count(), 120);
        if (space.latest_version("flow") >= 0) {
          space.wait_version("flow", 0);
        }
      }
    });
  }

  producer.put_seq("flow", 0, box, data, 8);
  for (auto& r : readers) r.join();
  stop.store(true);
  writer.join();
  space.wait_version("flow", 0, seconds(5));
}

/// One-op pull of the first `buf.size()` bytes of the remote window `key`.
void pull_one(HybridDart& dart, const Endpoint& local, const Endpoint& remote,
              u64 key, std::span<std::byte> buf) {
  PullOp op{local, remote, key, buf.size(), /*app_id=*/1,
            TrafficClass::kInterApp, [buf](std::span<const std::byte> w) {
              std::memcpy(buf.data(), w.data(), buf.size());
            }};
  dart.pull(std::span(&op, 1));
}

TEST(SyncDiscipline, TransferLogAttachedWhileTransfersRun) {
  Cluster cluster{ClusterSpec{.num_nodes = 2, .cores_per_node = 2}};
  Metrics metrics;
  HybridDart dart{cluster, metrics};
  TransferLog log;

  const Endpoint local{cluster.global_core({0, 0}), {0, 0}};
  const Endpoint remote{cluster.global_core({1, 0}), {1, 0}};
  std::vector<std::byte> window(256);
  dart.expose(remote.client_id, 7, window);

  // Attach/detach raced with the transfer paths reading the pointer; both
  // sides are acquire/release atomics now.
  std::atomic<bool> stop{false};
  std::thread toggler([&] {
    while (!stop.load()) {
      dart.set_transfer_log(&log);
      dart.set_transfer_log(nullptr);
    }
  });

  std::vector<std::thread> movers;
  for (int t = 0; t < 3; ++t) {
    movers.emplace_back([&] {
      std::vector<std::byte> buf(64);
      for (int i = 0; i < 1000; ++i) pull_one(dart, local, remote, 7, buf);
    });
  }
  for (auto& m : movers) m.join();
  stop.store(true);
  toggler.join();

  dart.set_transfer_log(&log);
  EXPECT_EQ(dart.transfer_log(), &log);
  EXPECT_LE(log.size(), size_t{1} << 16);
}

TEST(SyncDiscipline, FaultInjectorAttachedWhileTransfersRun) {
  Cluster cluster{ClusterSpec{.num_nodes = 2, .cores_per_node = 2}};
  Metrics metrics;
  HybridDart dart{cluster, metrics};
  FaultInjector injector{FaultSpec{}};  // no faults scheduled, just presence

  const Endpoint local{cluster.global_core({0, 0}), {0, 0}};
  const Endpoint remote{cluster.global_core({1, 0}), {1, 0}};
  std::vector<std::byte> window(256);
  dart.expose(remote.client_id, 9, window);

  std::atomic<bool> stop{false};
  std::thread toggler([&] {
    while (!stop.load()) {
      dart.set_fault(&injector);
      dart.set_fault(nullptr);
    }
  });

  std::vector<std::thread> movers;
  for (int t = 0; t < 3; ++t) {
    movers.emplace_back([&] {
      std::vector<std::byte> buf(64);
      for (int i = 0; i < 500; ++i) pull_one(dart, local, remote, 9, buf);
    });
  }
  for (auto& m : movers) m.join();
  stop.store(true);
  toggler.join();
}

TEST(SyncDiscipline, RecvTimeoutAdjustedWhileRanksRun) {
  Cluster cluster{ClusterSpec{.num_nodes = 2, .cores_per_node = 2}};
  Metrics metrics;
  HybridDart dart(cluster, metrics);
  Runtime runtime(dart);

  std::vector<CoreLoc> placement;
  for (i32 n = 0; n < 2; ++n) {
    for (i32 c = 0; c < 2; ++c) placement.push_back({n, c});
  }

  runtime.run(placement, [](RankCtx& ctx) {
    for (int i = 0; i < 100; ++i) {
      // Rank 0 plays the engine adjusting the bound mid-run; every rank
      // reads it and exchanges a message so the recv path (which loads
      // the timeout) runs concurrently with the stores.
      if (ctx.world.rank() == 0) {
        ctx.runtime->set_recv_timeout(seconds(30 + (i & 3)));
      }
      const seconds bound = ctx.runtime->recv_timeout();
      EXPECT_GE(bound.count(), 30);
      const i32 peer = ctx.world.rank() ^ 1;
      ctx.world.send_value(peer, 5, i);
      EXPECT_EQ(ctx.world.recv_value<int>(peer, 5), i);
    }
  });
}

}  // namespace
}  // namespace cods
