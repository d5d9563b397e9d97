// Hot-path microbenchmarks (docs/PERF.md): sharded vs single-mutex
// metrics recording under concurrent ranks, interned vs string counter
// ids, the schedule cache on repeated retrievals, the simulate-mode
// fiber switch, and simulate-mode park and resume copies.
//
//   build/bench/micro_hotpath --benchmark_counters_tabular=true
//
// The "Legacy" baselines reproduce the pre-sharding registry (one global
// mutex in front of plain maps) so the speedup is measured against the
// design the sharded registry replaced, not against a strawman.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/sync.hpp"
#include "core/cods.hpp"
#include "runtime/sim.hpp"

namespace {

using namespace cods;

// --------------------------------------------------------------------------
// Metrics recording throughput: all threads hammer one registry.
// --------------------------------------------------------------------------

/// The previous Metrics design: every mutation takes one global mutex.
class LegacyMetrics {
 public:
  void record(i32 app_id, TrafficClass cls, u64 bytes, bool via_network) {
    std::scoped_lock lock(mutex_);
    ByteCounters& c = counters_[{app_id, cls}];
    if (via_network) {
      c.net_bytes += bytes;
    } else {
      c.shm_bytes += bytes;
    }
    ++c.transfers;
  }
  void add_count(i32 app_id, const std::string& name, u64 n = 1) {
    std::scoped_lock lock(mutex_);
    event_counts_[{app_id, name}] += n;
  }

 private:
  std::mutex mutex_;
  std::map<std::pair<i32, TrafficClass>, ByteCounters> counters_;
  std::map<std::pair<i32, std::string>, u64> event_counts_;
};

LegacyMetrics g_legacy;
Metrics g_sharded;

void BM_LegacyMetricsRecord(benchmark::State& state) {
  const i32 app = state.thread_index() % 4;
  for (auto _ : state) {
    g_legacy.record(app, TrafficClass::kInterApp, 4096, true);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LegacyMetricsRecord)->Threads(1)->Threads(8)->UseRealTime();

void BM_ShardedMetricsRecord(benchmark::State& state) {
  const i32 app = state.thread_index() % 4;
  for (auto _ : state) {
    g_sharded.record(app, TrafficClass::kInterApp, 4096, true);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardedMetricsRecord)->Threads(1)->Threads(8)->UseRealTime();

void BM_LegacyMetricsNamedCount(benchmark::State& state) {
  const i32 app = state.thread_index() % 4;
  for (auto _ : state) {
    g_legacy.add_count(app, "fault.retries");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LegacyMetricsNamedCount)->Threads(1)->Threads(8)->UseRealTime();

void BM_ShardedMetricsInternedCount(benchmark::State& state) {
  const i32 app = state.thread_index() % 4;
  static const Metrics::CounterId id = g_sharded.intern("fault.retries");
  for (auto _ : state) {
    g_sharded.add_count(app, id);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardedMetricsInternedCount)
    ->Threads(1)
    ->Threads(8)
    ->UseRealTime();

// --------------------------------------------------------------------------
// Repeated retrieval latency: a DHT query per get vs the schedule cache's
// fast path, which reuses the cached source list and skips the query.
// --------------------------------------------------------------------------

struct GetBenchState {
  Cluster cluster{ClusterSpec{.num_nodes = 4, .cores_per_node = 4}};
  Metrics metrics;
  CodsSpace space{cluster, metrics, Box{{0, 0}, {255, 255}}};
  std::vector<std::byte> out;

  GetBenchState() {
    // Four producers each store one quadrant so a full-domain get has a
    // multi-source schedule and a multi-node DHT query.
    const std::vector<Box> quads = {
        Box{{0, 0}, {127, 127}}, Box{{0, 128}, {127, 255}},
        Box{{128, 0}, {255, 127}}, Box{{128, 128}, {255, 255}}};
    for (int p = 0; p < 4; ++p) {
      const CoreLoc loc{p, 0};
      CodsClient producer(space, Endpoint{cluster.global_core(loc), loc}, 1);
      std::vector<std::byte> data(box_bytes(quads[static_cast<size_t>(p)], 8));
      fill_pattern(data, quads[static_cast<size_t>(p)], 8, 1);
      producer.put_seq("field", 0, quads[static_cast<size_t>(p)], data, 8);
    }
    out.resize(box_bytes(Box{{0, 0}, {255, 255}}, 8));
  }
};

void BM_RepeatedGetSeq(benchmark::State& state) {
  static GetBenchState s;
  const CoreLoc loc{1, 1};
  CodsClient consumer(s.space, Endpoint{s.cluster.global_core(loc), loc}, 2);
  const bool schedule_cache = state.range(0) == 1;
  consumer.set_schedule_cache_enabled(schedule_cache);
  const Box whole{{0, 0}, {255, 255}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        consumer.get_seq("field", 0, whole, s.out, 8));
  }
  state.SetLabel(schedule_cache ? "schedule-cache" : "uncached");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RepeatedGetSeq)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);

// --------------------------------------------------------------------------
// Simulate-mode context switch: two SimEngine fibers ping-pong through a
// CondVar, so every pass parks one fiber and resumes the other. The
// per_switch counter (printed as e.g. "55ns") divides wall time by
// SimStats::switches, so it includes the scheduler's dispatch and the
// CondVar hook, not only the register swap.
// --------------------------------------------------------------------------

void BM_SimFiberPingPong(benchmark::State& state) {
  constexpr i32 kPasses = 10000;
  u64 switches = 0;
  for (auto _ : state) {
    Mutex mu{"bench.sim_ping_pong"};
    CondVar cv;
    i32 turn = 0;
    i32 running = 2;
    SimEngine sim;
    sim.run(2, [&](i32 me) {
      MutexLock lock(mu);
      for (i32 i = 0; i < kPasses; ++i) {
        turn = 1 - me;
        cv.notify_one();
        while (turn != me && running == 2) cv.wait(lock);
      }
      --running;
      cv.notify_one();
    });
    switches += sim.stats().switches;
  }
  state.counters["per_switch"] = benchmark::Counter(
      static_cast<double>(switches),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_SimFiberPingPong)->Unit(benchmark::kMillisecond);

// --------------------------------------------------------------------------
// Park and resume copies: N fibers park once shallow, then, resumed in
// turn, once 1 KiB deeper — the two parks of a weak-scaling rank (its
// split, then its barrier). per_park divides wall time by the parks
// (SimStats::switches / 2 less one first dispatch per fiber), so it
// includes the dispatch and the CondVar hook around each save and
// restore; stored_B_per_park is what a park's delta held on average, and
// slab_B_per_fiber is SimStats::arena_bytes less the shared stack, over
// N. The EveryWordDiffers variant fills the deep frame per fiber, so its
// 1 KiB of locals differ from the template in every word: the most
// compare-and-scatter work a park of that depth can take.
// --------------------------------------------------------------------------

/// All fibers of a run meet here; each meeting parks every fiber but the
/// last to arrive.
struct Meeting {
  Mutex mu{"bench.sim_meeting"};
  CondVar cv;
  i32 fibers = 0;
  i32 arrived = 0;
  i32 round = 0;

  void meet() {
    MutexLock lock(mu);
    const i32 mine = round;
    if (++arrived == fibers) {
      arrived = 0;
      ++round;
      cv.notify_all();
      return;
    }
    while (round == mine) cv.wait(lock);
  }
};

[[gnu::noinline]] void meet_below_1k(Meeting& meeting) {
  volatile u64 frame[128];
  frame[0] = 1;
  meeting.meet();
  frame[127] = frame[0];
}

[[gnu::noinline]] void meet_below_1k_of_own(Meeting& meeting, i32 fiber) {
  volatile u64 frame[128];
  for (u64 w = 0; w < 128; ++w) {
    frame[w] = (static_cast<u64>(fiber) << 32 | w) * 0x9e3779b97f4a7c15;
  }
  meeting.meet();
  frame[127] = frame[0];
}

void sim_park_two_depths(benchmark::State& state, bool every_word_differs) {
  const auto fibers = static_cast<i32>(state.range(0));
  u64 parks = 0;
  u64 stored = 0;
  u64 slab_bytes = 0;
  for (auto _ : state) {
    Meeting meeting;
    meeting.fibers = fibers;
    SimEngine sim;
    sim.run(fibers, [&](i32 fiber) {
      meeting.meet();
      if (every_word_differs) {
        meet_below_1k_of_own(meeting, fiber);
      } else {
        meet_below_1k(meeting);
      }
    });
    parks += sim.stats().switches / 2 - static_cast<u64>(fibers);
    stored += sim.stats().park_depths.stored_bytes;
    slab_bytes = sim.stats().arena_bytes -
                 static_cast<u64>(SimEngine::kDefaultStackBytes);
  }
  state.counters["per_park"] = benchmark::Counter(
      static_cast<double>(parks),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["stored_B_per_park"] =
      static_cast<double>(stored) / static_cast<double>(std::max<u64>(parks, 1));
  state.counters["slab_B_per_fiber"] = static_cast<double>(slab_bytes) / fibers;
}

void BM_SimParkTwoDepths(benchmark::State& state) {
  sim_park_two_depths(state, /*every_word_differs=*/false);
}
BENCHMARK(BM_SimParkTwoDepths)->Arg(4096)->Arg(65536)
    ->Unit(benchmark::kMillisecond);

void BM_SimParkTwoDepthsEveryWordDiffers(benchmark::State& state) {
  sim_park_two_depths(state, /*every_word_differs=*/true);
}
BENCHMARK(BM_SimParkTwoDepthsEveryWordDiffers)->Arg(4096)->Arg(65536)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
