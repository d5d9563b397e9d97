// Many workflow servers in one process: a benchmark or a campaign builds a
// fresh WorkflowServer per run, so what one server leaves behind in
// process-global state accumulates with the number of runs. The lock-order
// registry is the one global every Mutex meets; it is keyed on lock
// classes, so it must stop growing after the first server, and the
// process's heap and resident set must stay flat from run to run. All are
// checked with the checker forced on and forced off.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>
#if __has_include(<malloc.h>)
#include <malloc.h>  // mallinfo2 (glibc)
#endif

#include "apps/synthetic.hpp"
#include "common/lock_order.hpp"
#include "workflow/engine.hpp"

namespace cods {
namespace {

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

constexpr int kServers = 32;

/// Bounds between the second server and the last. The first server grows
/// the heap, the fiber stack pool and the per-thread scratch buffers to
/// their working size; from the second on, a server reuses them. One
/// server of this size raises VmRSS by about 7 MiB the first time (1,024
/// DHT tables, 5,120 ranks' stacks, mailboxes and store entries).
///
/// Heap in use after a server is gone is the precise measure: servers 2
/// to 32 moved it by 10-11 KiB, in optimized and debug builds, with the
/// checker on and off. A leak of one std::string per Mutex built, which
/// the lock-order registry used to keep, moves it by 1.9 MiB.
constexpr u64 kHeapSlackKib = 64;
/// VmRSS also counts free heap the allocator keeps, so it swings with
/// where the top of the heap ends: up to 1.3 MiB from one server to the
/// next in a debug build (52-56 KiB over all 32 servers in an optimized
/// one). The bound catches growth that outruns the swing.
constexpr u64 kRssSlackKib = 4096;

/// Heap bytes in use, in KiB: glibc's mallinfo2, chunks from the arenas
/// plus blocks mapped on their own. 0 where unavailable.
u64 heap_in_use_kib() {
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
  const struct mallinfo2 info = mallinfo2();
  return static_cast<u64>(info.uordblks + info.hblkhd) / 1024;
#else
  return 0;
#endif
}

/// VmRSS of this process in KiB, from /proc/self/status; 0 where the file
/// or the field is missing.
u64 vm_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    u64 kib = 0;
    fields >> kib;
    return kib;
  }
  return 0;
}

/// One coupled run under kSimulate: 4,096 producer ranks put a 128 x 128
/// field, 1,024 consumer ranks get and verify it, over 1,024 nodes (1,024
/// DHT tables). Returns the consumers' mismatching cells.
u64 run_one_server() {
  constexpr i64 kExtent = 128;
  const Cluster cluster(ClusterSpec{.num_nodes = 1024, .cores_per_node = 4});
  Metrics metrics;
  WorkflowServer server(cluster, metrics,
                        Box{{0, 0}, {kExtent - 1, kExtent - 1}});
  auto mismatches = std::make_shared<std::atomic<u64>>(0);
  AppSpec producer;
  producer.app_id = 1;
  producer.name = "producer";
  producer.dec = blocked({kExtent, kExtent}, {64, 64});
  AppSpec consumer;
  consumer.app_id = 2;
  consumer.name = "consumer";
  consumer.dec = blocked({kExtent, kExtent}, {32, 32});
  PatternConsumerConfig verify;
  verify.mismatches = mismatches;
  server.register_app(producer, make_pattern_producer({}));
  server.register_app(consumer, make_pattern_consumer(verify),
                      /*consumes_var=*/"field");
  DagSpec dag;
  dag.add_app(1);
  dag.add_app(2);
  dag.add_dependency(1, 2);
  WorkflowOptions options;
  options.strategy = MappingStrategy::kRoundRobin;
  options.exec_mode = ExecMode::kSimulate;
  server.run(dag, options);
  EXPECT_EQ(server.wave_reports().size(), 2u);
  return mismatches->load();
}

class ManyServers : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    was_enabled_ = lock_order::enabled();
    lock_order::set_enabled(GetParam());
  }
  void TearDown() override { lock_order::set_enabled(was_enabled_); }

  bool was_enabled_ = false;
};

TEST_P(ManyServers, RegistryAndResidentSetStayFlat) {
  std::vector<std::size_t> classes;
  std::vector<u64> heap_kib;
  std::vector<u64> rss_kib;
  for (int i = 0; i < kServers; ++i) {
    EXPECT_EQ(run_one_server(), 0u) << "server " << i + 1;
    classes.push_back(lock_order::class_count());
    heap_kib.push_back(heap_in_use_kib());
    rss_kib.push_back(vm_rss_kib());
  }
  if (GetParam()) {
    // The runs take locks on this thread outside the fibers (set-up,
    // metrics, the space), so the checker has classes to intern.
    EXPECT_GT(classes.front(), 0u);
  }
  EXPECT_EQ(classes.back(), classes.front())
      << "the lock-order registry grew between server 1 and server "
      << kServers;
  if (kSanitized) {
    GTEST_SKIP() << "sanitizer allocators keep freed memory in quarantine";
  }
  EXPECT_LE(heap_kib.back(), heap_kib[1] + kHeapSlackKib)
      << "heap in use after server 2: " << heap_kib[1]
      << " KiB, after server " << kServers << ": " << heap_kib.back()
      << " KiB";
  ASSERT_GT(rss_kib[1], 0u) << "no VmRSS in /proc/self/status";
  EXPECT_LE(rss_kib.back(), rss_kib[1] + kRssSlackKib)
      << "VmRSS after server 2: " << rss_kib[1] << " KiB, after server "
      << kServers << ": " << rss_kib.back() << " KiB";
}

INSTANTIATE_TEST_SUITE_P(Checker, ManyServers, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? std::string("On")
                                             : std::string("Off");
                         });

}  // namespace
}  // namespace cods
