// MailboxPool tests: payload storage and matching on one cell, plus
// contention — many producers and consumers on live OS threads sharing
// one cell, exercising the annotated Mutex/CondVar pair under load (TSan
// CI subset).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "runtime/mailbox.hpp"

namespace cods {
namespace {

constexpr auto kTimeout = std::chrono::seconds(30);

/// Pushes `value` to rank 0 in a payload of `bytes` (>= sizeof(int)).
void push_value(MailboxPool& box, i32 src, i64 tag, int value,
                std::size_t bytes = sizeof(int)) {
  std::vector<std::byte> payload(bytes, std::byte{0x5a});
  std::memcpy(payload.data(), &value, sizeof(int));
  box.push(/*dst=*/0, src, tag, payload);
}

int value_of(const Message& m) {
  int value = 0;
  std::memcpy(&value, m.payload.data(), sizeof(int));
  return value;
}

std::vector<std::byte> pattern(std::size_t bytes) {
  std::vector<std::byte> out(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    out[i] = static_cast<std::byte>(i * 7 + 1);
  }
  return out;
}

TEST(MailboxPool, InlineAndHeapPayloadsRoundTripAtTheBoundary) {
  static_assert(MailboxPool::kInlineBytes == 24);
  MailboxPool box(1);
  const auto small = pattern(MailboxPool::kInlineBytes);      // inline
  const auto large = pattern(MailboxPool::kInlineBytes + 1);  // heap
  box.push(0, 3, 1, small);
  box.push(0, 3, 1, large);  // spills behind the occupied slot
  box.push(0, 3, 1, {});
  const Message a = box.pop(0, 3, 1, kTimeout);
  const Message b = box.pop(0, 3, 1, kTimeout);
  const Message c = box.pop(0, 3, 1, kTimeout);
  EXPECT_EQ(a.payload, small);
  EXPECT_EQ(b.payload, large);
  EXPECT_TRUE(c.payload.empty());
  EXPECT_EQ(a.src_global, 3);
  EXPECT_EQ(b.comm_tag, 1);
  EXPECT_EQ(box.size(0), 0u);
}

TEST(MailboxPool, SpilledMessagesStayFifoPerSourceAndTag) {
  MailboxPool box(1);
  // Three interleaved streams: only the first message fits the slot,
  // the rest spill. Matched pops must return each stream in send order.
  for (int i = 0; i < 5; ++i) {
    push_value(box, 1, 7, 100 + i);
    push_value(box, 2, 7, 200 + i, /*bytes=*/64);
    push_value(box, 1, 8, 300 + i);
  }
  EXPECT_EQ(box.size(0), 15u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(value_of(box.pop(0, 2, 7, kTimeout)), 200 + i);
  }
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(value_of(box.pop(0, kAnySource, 8, kTimeout)), 300 + i);
  }
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(value_of(box.pop(0, 1, 7, kTimeout)), 100 + i);
  }
  EXPECT_EQ(box.size(0), 0u);
}

TEST(MailboxPool, TryPopMissesEmptyAndNonMatchingCells) {
  MailboxPool box(2);
  EXPECT_FALSE(box.try_pop(0, kAnySource, 7).has_value());
  push_value(box, 1, 7, 42);
  EXPECT_FALSE(box.try_pop(0, 2, 7).has_value());           // wrong source
  EXPECT_FALSE(box.try_pop(0, kAnySource, 8).has_value());  // wrong tag
  EXPECT_FALSE(box.try_pop(1, kAnySource, 7).has_value());  // wrong rank
  EXPECT_EQ(box.size(0), 1u);
  const auto m = box.try_pop(0, kAnySource, 7);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(value_of(*m), 42);
  EXPECT_EQ(m->src_global, 1);
  EXPECT_FALSE(box.try_pop(0, kAnySource, 7).has_value());
}

TEST(MailboxPool, RejectsOutOfRangeRank) {
  MailboxPool box(2);
  const std::vector<std::byte> payload(4);
  EXPECT_THROW(box.push(2, 0, 1, payload), Error);
  EXPECT_THROW(box.push(-1, 0, 1, payload), Error);
  EXPECT_THROW((void)box.try_pop(2, kAnySource, 1), Error);
  EXPECT_THROW((void)box.pop(-1, kAnySource, 1, kTimeout), Error);
  EXPECT_THROW((void)box.size(5), Error);
}

TEST(MailboxContention, ManyProducersManyConsumersDeliverEverything) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 500;
  MailboxPool box(1);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&box, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        push_value(box, p, 1, p * kPerProducer + i);
      }
    });
  }

  std::atomic<int> consumed{0};
  std::vector<std::set<int>> seen(kConsumers);
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&, c] {
      while (true) {
        const int n = consumed.fetch_add(1);
        if (n >= kProducers * kPerProducer) break;
        const Message m = box.pop(0, kAnySource, 1, kTimeout);
        seen[c].insert(value_of(m));
      }
    });
  }
  for (auto& t : producers) t.join();
  for (auto& t : consumers) t.join();

  // Every message delivered exactly once across all consumers.
  std::set<int> all;
  size_t total = 0;
  for (const auto& s : seen) {
    total += s.size();
    all.insert(s.begin(), s.end());
  }
  EXPECT_EQ(total, static_cast<size_t>(kProducers * kPerProducer));
  EXPECT_EQ(all.size(), static_cast<size_t>(kProducers * kPerProducer));
  EXPECT_EQ(box.size(0), 0u);
}

TEST(MailboxContention, SelectiveMatchingUnderLoadIsFifoPerSource) {
  MailboxPool box(1);
  constexpr int kPerSource = 300;
  std::vector<std::thread> producers;
  for (int src = 0; src < 3; ++src) {
    producers.emplace_back([&box, src] {
      for (int i = 0; i < kPerSource; ++i) {
        // Odd sources send heap-sized payloads: both storage paths race.
        push_value(box, src, 7, i, src % 2 == 1 ? 64 : sizeof(int));
      }
    });
  }

  // One consumer per source: matched pops must preserve per-source FIFO
  // even while other sources' messages interleave in the queue.
  std::vector<std::thread> consumers;
  for (int src = 0; src < 3; ++src) {
    consumers.emplace_back([&box, src] {
      for (int i = 0; i < kPerSource; ++i) {
        const Message m = box.pop(0, src, 7, kTimeout);
        EXPECT_EQ(m.src_global, src);
        EXPECT_EQ(value_of(m), i);
      }
    });
  }
  for (auto& t : producers) t.join();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(box.size(0), 0u);
}

TEST(MailboxContention, ConcurrentTryPopDrainsExactlyOnce) {
  MailboxPool box(1);
  constexpr int kMessages = 1000;
  std::atomic<int> delivered{0};

  std::thread producer([&] {
    for (int i = 0; i < kMessages; ++i) push_value(box, 0, 3, i);
  });
  std::thread poller([&] {
    while (delivered.load() < kMessages) {
      if (box.try_pop(0, kAnySource, 3).has_value()) delivered.fetch_add(1);
    }
  });
  std::thread blocker([&] {
    while (delivered.load() < kMessages) {
      const auto got = box.try_pop(0, kAnySource, 3);
      if (got.has_value()) {
        delivered.fetch_add(1);
      } else {
        std::this_thread::yield();
      }
    }
  });
  producer.join();
  poller.join();
  blocker.join();
  EXPECT_EQ(delivered.load(), kMessages);
  EXPECT_EQ(box.size(0), 0u);
}

}  // namespace
}  // namespace cods
