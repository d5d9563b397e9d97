#include <gtest/gtest.h>

#include <thread>

#include "core/cods.hpp"

namespace cods {
namespace {

class CodsTest : public ::testing::Test {
 protected:
  CodsTest()
      : cluster_(ClusterSpec{.num_nodes = 4, .cores_per_node = 4}),
        space_(cluster_, metrics_, Box{{0, 0}, {15, 15}}) {}

  CodsClient client(i32 node, i32 core, i32 app_id) {
    const CoreLoc loc{node, core};
    return CodsClient(space_, Endpoint{cluster_.global_core(loc), loc},
                      app_id);
  }

  std::vector<std::byte> pattern_data(const Box& box, u64 seed) {
    std::vector<std::byte> data(box_bytes(box, 8));
    fill_pattern(data, box, 8, seed);
    return data;
  }

  Cluster cluster_{ClusterSpec{.num_nodes = 4, .cores_per_node = 4}};
  Metrics metrics_;
  CodsSpace space_;
};

TEST_F(CodsTest, SeqPutGetRoundTripSameRegion) {
  CodsClient producer = client(0, 0, 1);
  CodsClient consumer = client(1, 0, 2);
  const Box box{{0, 0}, {7, 7}};
  const auto data = pattern_data(box, 5);
  const PutResult put = producer.put_seq("temp", 0, box, data, 8);
  EXPECT_EQ(put.bytes, data.size());
  EXPECT_GT(put.dht_cores, 0);
  EXPECT_GT(put.model_time, 0.0);

  std::vector<std::byte> out(box_bytes(box, 8));
  const GetResult get = consumer.get_seq("temp", 0, box, out, 8);
  EXPECT_EQ(get.bytes, data.size());
  EXPECT_EQ(get.sources, 1);
  EXPECT_FALSE(get.cache_hit);
  EXPECT_EQ(verify_pattern(out, box, 8, 5), 0u);
}

TEST_F(CodsTest, SeqGetSubRegion) {
  CodsClient producer = client(0, 0, 1);
  CodsClient consumer = client(2, 1, 2);
  const Box box{{0, 0}, {15, 15}};
  producer.put_seq("v", 0, box, pattern_data(box, 9), 8);
  const Box region{{3, 5}, {9, 12}};
  std::vector<std::byte> out(box_bytes(region, 8));
  const GetResult get = consumer.get_seq("v", 0, region, out, 8);
  EXPECT_EQ(get.bytes, box_bytes(region, 8));
  EXPECT_EQ(verify_pattern(out, region, 8, 9), 0u);
}

TEST_F(CodsTest, SeqMxNRedistribution) {
  // 4 producers each own a quadrant; one consumer reads a centred window
  // straddling all four.
  const std::vector<Box> quads = {
      Box{{0, 0}, {7, 7}}, Box{{0, 8}, {7, 15}},
      Box{{8, 0}, {15, 7}}, Box{{8, 8}, {15, 15}}};
  for (int p = 0; p < 4; ++p) {
    CodsClient producer = client(p, 0, 1);
    producer.put_seq("u", 2, quads[static_cast<size_t>(p)],
                     pattern_data(quads[static_cast<size_t>(p)], 1), 8);
  }
  CodsClient consumer = client(0, 1, 2);
  const Box window{{4, 4}, {11, 11}};
  std::vector<std::byte> out(box_bytes(window, 8));
  const GetResult get = consumer.get_seq("u", 2, window, out, 8);
  EXPECT_EQ(get.sources, 4);
  EXPECT_EQ(verify_pattern(out, window, 8, 1), 0u);
}

TEST_F(CodsTest, SeqLocalityUsesSharedMemory) {
  CodsClient producer = client(2, 0, 1);
  const Box box{{0, 0}, {7, 7}};
  producer.put_seq("v", 0, box, pattern_data(box, 2), 8);
  metrics_.reset();

  // Consumer on the same node as the stored data: all bytes via shm.
  CodsClient local_consumer = client(2, 3, 5);
  std::vector<std::byte> out(box_bytes(box, 8));
  local_consumer.get_seq("v", 0, box, out, 8);
  EXPECT_EQ(metrics_.counters(5, TrafficClass::kInterApp).net_bytes, 0u);
  EXPECT_EQ(metrics_.counters(5, TrafficClass::kInterApp).shm_bytes,
            box_bytes(box, 8));

  // Consumer on another node: all bytes via network.
  metrics_.reset();
  CodsClient remote_consumer = client(3, 0, 6);
  remote_consumer.get_seq("v", 0, box, out, 8);
  EXPECT_EQ(metrics_.counters(6, TrafficClass::kInterApp).shm_bytes, 0u);
  EXPECT_EQ(metrics_.counters(6, TrafficClass::kInterApp).net_bytes,
            box_bytes(box, 8));
}

TEST_F(CodsTest, SeqGetUncoveredRegionThrows) {
  CodsClient producer = client(0, 0, 1);
  producer.put_seq("v", 0, Box{{0, 0}, {7, 7}},
                   pattern_data(Box{{0, 0}, {7, 7}}, 1), 8);
  CodsClient consumer = client(1, 0, 2);
  std::vector<std::byte> out(box_bytes(Box{{0, 0}, {9, 9}}, 8));
  EXPECT_THROW(consumer.get_seq("v", 0, Box{{0, 0}, {9, 9}}, out, 8), Error);
  EXPECT_THROW(consumer.get_seq("v", 1, Box{{0, 0}, {7, 7}}, out, 8), Error);
}

TEST_F(CodsTest, ScheduleCacheHitsAcrossVersions) {
  CodsClient producer = client(0, 0, 1);
  CodsClient consumer = client(1, 0, 2);
  const Box box{{0, 0}, {7, 7}};
  for (i32 version = 0; version < 3; ++version) {
    producer.put_seq("iter", version, box, pattern_data(box, 10 + version),
                     8);
    std::vector<std::byte> out(box_bytes(box, 8));
    const GetResult get = consumer.get_seq("iter", version, box, out, 8);
    EXPECT_EQ(get.cache_hit, version > 0);
    EXPECT_EQ(get.dht_cores > 0, version == 0);  // queries only on miss
    EXPECT_EQ(verify_pattern(out, box, 8, 10u + static_cast<u64>(version)),
              0u);
  }
  EXPECT_EQ(consumer.schedule_cache_size(), 1u);
}

TEST_F(CodsTest, ScheduleCacheDisabled) {
  CodsClient producer = client(0, 0, 1);
  CodsClient consumer = client(1, 0, 2);
  consumer.set_schedule_cache_enabled(false);
  const Box box{{0, 0}, {7, 7}};
  for (i32 version = 0; version < 2; ++version) {
    producer.put_seq("it", version, box, pattern_data(box, 3), 8);
    std::vector<std::byte> out(box_bytes(box, 8));
    const GetResult get = consumer.get_seq("it", version, box, out, 8);
    EXPECT_FALSE(get.cache_hit);
    EXPECT_GT(get.dht_cores, 0);
  }
  // A repeat read of the same version has no other cache to answer it: it
  // queries the DHT again and pays the query round trips.
  const u64 control_before = metrics_.total(TrafficClass::kControl).transfers;
  std::vector<std::byte> out(box_bytes(box, 8));
  const GetResult repeat = consumer.get_seq("it", 1, box, out, 8);
  EXPECT_FALSE(repeat.cache_hit);
  EXPECT_GT(repeat.dht_cores, 0);
  EXPECT_GT(metrics_.total(TrafficClass::kControl).transfers, control_before);
  EXPECT_EQ(verify_pattern(out, box, 8, 3), 0u);
  EXPECT_EQ(consumer.schedule_cache_size(), 0u);
}

TEST_F(CodsTest, ScheduleCacheFallsBackWhenLayoutChanges) {
  CodsClient consumer = client(1, 0, 2);
  const Box whole{{0, 0}, {7, 7}};
  // Version 0: a single producer stores the whole region.
  CodsClient producer = client(0, 0, 1);
  producer.put_seq("w", 0, whole, pattern_data(whole, 4), 8);
  std::vector<std::byte> out(box_bytes(whole, 8));
  consumer.get_seq("w", 0, whole, out, 8);
  // Version 1: the region is stored as two halves — the cached single-source
  // schedule no longer matches and must be rebuilt via the DHT.
  const Box top{{0, 0}, {3, 7}};
  const Box bottom{{4, 0}, {7, 7}};
  CodsClient p2 = client(2, 0, 1);
  CodsClient p3 = client(3, 0, 1);
  p2.put_seq("w", 1, top, pattern_data(top, 4), 8);
  p3.put_seq("w", 1, bottom, pattern_data(bottom, 4), 8);
  const GetResult get = consumer.get_seq("w", 1, whole, out, 8);
  EXPECT_FALSE(get.cache_hit);
  EXPECT_EQ(get.sources, 2);
  EXPECT_EQ(verify_pattern(out, whole, 8, 4), 0u);
}

TEST_F(CodsTest, ContPutGetDirectTransfer) {
  const Box box{{0, 0}, {7, 7}};
  CodsClient producer = client(0, 0, 1);
  CodsClient consumer = client(0, 2, 2);  // same node -> shm
  producer.put_cont("stream", 0, box, pattern_data(box, 8), 8);
  std::vector<std::byte> out(box_bytes(box, 8));
  const GetResult get = consumer.get_cont("stream", 0, box, out, 8);
  EXPECT_EQ(get.sources, 1);
  EXPECT_EQ(get.dht_cores, 0);  // concurrent coupling needs no DHT lookup
  EXPECT_EQ(verify_pattern(out, box, 8, 8), 0u);
  EXPECT_EQ(metrics_.counters(2, TrafficClass::kInterApp).net_bytes, 0u);
  EXPECT_GT(metrics_.counters(2, TrafficClass::kInterApp).shm_bytes, 0u);
}

TEST_F(CodsTest, ContConsumerWaitsForProducer) {
  const Box box{{0, 0}, {3, 3}};
  std::vector<std::byte> out(box_bytes(box, 8));
  GetResult get;
  std::thread consumer_thread([&] {
    CodsClient consumer = client(1, 0, 2);
    get = consumer.get_cont("late", 1, box, out, 8);
  });
  // Publish after the consumer started waiting.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  CodsClient producer = client(0, 0, 1);
  producer.put_cont("late", 1, box, pattern_data(box, 6), 8);
  consumer_thread.join();
  EXPECT_EQ(verify_pattern(out, box, 8, 6), 0u);
  EXPECT_EQ(get.sources, 1);
}

TEST_F(CodsTest, ContMultipleProducersOneConsumer) {
  const Box left{{0, 0}, {7, 7}};
  const Box right{{0, 8}, {7, 15}};
  CodsClient p1 = client(0, 0, 1);
  CodsClient p2 = client(1, 0, 1);
  p1.put_cont("mx", 0, left, pattern_data(left, 3), 8);
  p2.put_cont("mx", 0, right, pattern_data(right, 3), 8);
  CodsClient consumer = client(2, 0, 2);
  const Box window{{2, 4}, {5, 11}};
  std::vector<std::byte> out(box_bytes(window, 8));
  const GetResult get = consumer.get_cont("mx", 0, window, out, 8);
  EXPECT_EQ(get.sources, 2);
  EXPECT_EQ(verify_pattern(out, window, 8, 3), 0u);
}

TEST_F(CodsTest, ContScheduleCacheAcrossIterations) {
  const Box box{{0, 0}, {7, 7}};
  CodsClient producer = client(0, 0, 1);
  CodsClient consumer = client(1, 0, 2);
  for (i32 version = 0; version < 3; ++version) {
    producer.put_cont("it", version, box, pattern_data(box, 20 + version), 8);
    std::vector<std::byte> out(box_bytes(box, 8));
    const GetResult get = consumer.get_cont("it", version, box, out, 8);
    EXPECT_EQ(get.cache_hit, version > 0);
    EXPECT_EQ(verify_pattern(out, box, 8, 20u + static_cast<u64>(version)),
              0u);
  }
}

TEST_F(CodsTest, RetireFreesMemoryAndRecords) {
  const Box box{{0, 0}, {7, 7}};
  CodsClient producer = client(0, 0, 1);
  producer.put_seq("v", 0, box, pattern_data(box, 1), 8);
  producer.put_cont("c", 0, box, pattern_data(box, 1), 8);
  EXPECT_GT(space_.stored_bytes(), 0u);
  space_.retire("v", 0);
  space_.retire("c", 0);
  EXPECT_EQ(space_.stored_bytes(), 0u);
  CodsClient consumer = client(1, 0, 2);
  std::vector<std::byte> out(box_bytes(box, 8));
  EXPECT_THROW(consumer.get_seq("v", 0, box, out, 8), Error);
}

TEST_F(CodsTest, WindowKeyDeterministicAndDiscriminating) {
  const Box a{{0, 0}, {3, 3}};
  const Box b{{0, 0}, {3, 4}};
  EXPECT_EQ(CodsSpace::window_key("v", 1, a), CodsSpace::window_key("v", 1, a));
  EXPECT_NE(CodsSpace::window_key("v", 1, a), CodsSpace::window_key("v", 2, a));
  EXPECT_NE(CodsSpace::window_key("v", 1, a), CodsSpace::window_key("w", 1, a));
  EXPECT_NE(CodsSpace::window_key("v", 1, a), CodsSpace::window_key("v", 1, b));
}

TEST_F(CodsTest, PutSizeMismatchRejected) {
  CodsClient producer = client(0, 0, 1);
  const Box box{{0, 0}, {3, 3}};
  std::vector<std::byte> wrong(7);
  EXPECT_THROW(producer.put_seq("v", 0, box, wrong, 8), Error);
  EXPECT_THROW(producer.put_cont("v", 0, box, wrong, 8), Error);
}

TEST_F(CodsTest, DomainMustBeOriginAnchored) {
  EXPECT_THROW(CodsSpace(cluster_, metrics_, Box{{1, 1}, {8, 8}}), Error);
}

TEST_F(CodsTest, ConcurrentClientsStressRoundTrip) {
  // 4 producers and 4 consumers on different threads; each producer owns a
  // quadrant, each consumer reads one full row of quadrants.
  const std::vector<Box> quads = {
      Box{{0, 0}, {7, 7}}, Box{{0, 8}, {7, 15}},
      Box{{8, 0}, {15, 7}}, Box{{8, 8}, {15, 15}}};
  std::vector<std::thread> threads;
  for (int p = 0; p < 4; ++p) {
    threads.emplace_back([&, p] {
      CodsClient producer = client(p, 0, 1);
      producer.put_cont("s", 0, quads[static_cast<size_t>(p)],
                        pattern_data(quads[static_cast<size_t>(p)], 2), 8);
    });
  }
  std::atomic<u64> failures{0};
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&, c] {
      CodsClient consumer = client(c, 1, 2);
      const Box row{{c < 2 ? 0 : 8, 0}, {c < 2 ? 7 : 15, 15}};
      std::vector<std::byte> out(box_bytes(row, 8));
      consumer.get_cont("s", 0, row, out, 8);
      failures += verify_pattern(out, row, 8, 2);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0u);
}

}  // namespace
}  // namespace cods
