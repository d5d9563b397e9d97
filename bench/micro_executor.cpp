// Enactment-scaling microbenchmark (docs/PERF.md "Enactment scaling"):
//
//   1. run_collect dispatch on the bounded work-stealing executor
//      (ExecMode::kPooled) at 256 / 1k / 4k ranks, on a pipelined
//      ring-of-8 body (each rank sends to its successor then blocks on
//      its predecessor — the enactment pattern the pool is built for).
//      Reports wall time plus the thread-count evidence: total threads
//      spawned and the peak number simultaneously live.
//   2. comm-graph construction: the sweep-based dimension adjacency on
//      a 512- and a 4096-rank-per-side redistribution.
//
// Usage:
//   micro_executor [--smoke] [--out BENCH_executor.json]
//
// --smoke caps the rank sweep at 256 and skips repetitions so the CI
// Release job can run it in seconds; the JSON schema is unchanged.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "geometry/redistribution.hpp"
#include "platform/metrics.hpp"
#include "runtime/runtime.hpp"

using namespace cods;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct DispatchResult {
  i32 ranks = 0;
  double pooled_ms = 0;
  ExecutorStats pooled_stats;
};

/// Pipelined ring-of-8 body: send_value never blocks (buffered), the
/// recv_value from the predecessor does. Thousands of mailbox waits per
/// run, which is exactly the blocking-escalation path run_collect's pool
/// has to absorb without falling back to one thread per rank.
DispatchResult bench_dispatch(i32 n, int reps) {
  Cluster cluster(
      ClusterSpec{.num_nodes = (n + 63) / 64, .cores_per_node = 64});
  std::vector<CoreLoc> placement;
  for (i32 r = 0; r < n; ++r) {
    placement.push_back(
        CoreLoc{r / cluster.cores_per_node(), r % cluster.cores_per_node()});
  }
  const auto body = [](RankCtx& ctx) {
    const i32 r = ctx.global_rank;
    const i32 group = r / 8;
    const i32 next = group * 8 + (r + 1) % 8;
    const i32 prev = group * 8 + (r + 7) % 8;
    ctx.world.send_value<i32>(next, /*tag=*/group, r);
    (void)ctx.world.recv_value<i32>(prev, /*tag=*/group);
  };

  DispatchResult result;
  result.ranks = n;
  for (int rep = 0; rep < reps; ++rep) {
    Metrics metrics;
    HybridDart dart(cluster, metrics);
    Runtime runtime(dart);
    runtime.set_exec_mode(ExecMode::kPooled);
    const double t0 = now_ms();
    const auto failures = runtime.run_collect(placement, body);
    const double elapsed = now_ms() - t0;
    if (!failures.empty()) {
      std::fprintf(stderr, "rank failures during bench run\n");
      std::exit(1);
    }
    if (rep == 0 || elapsed < result.pooled_ms) result.pooled_ms = elapsed;
    result.pooled_stats = runtime.last_exec_stats();
  }
  return result;
}

struct CommGraphResult {
  i64 ranks_per_side = 0;
  double sweep_ms = 0;
  size_t transfers = 0;
};

/// 1-D redistribution between two decompositions with misaligned block
/// sizes: the sweep sorts the O(nprocs) ownership segments and merges
/// them in one pass.
CommGraphResult bench_comm_graph(i32 nprocs, int reps) {
  const i64 extent = static_cast<i64>(nprocs) * 257;
  DimSpec src_dim;
  src_dim.extent = extent;
  src_dim.nprocs = nprocs;
  src_dim.dist = Dist::kBlocked;
  DimSpec dst_dim;
  dst_dim.extent = extent;
  dst_dim.nprocs = nprocs;
  dst_dim.dist = Dist::kBlockCyclic;
  dst_dim.block = 193;
  const Decomposition src({src_dim});
  const Decomposition dst({dst_dim});

  CommGraphResult result;
  result.ranks_per_side = nprocs;
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = now_ms();
    const auto sweep = redistribution_volumes(src, dst);
    const double sweep_ms = now_ms() - t0;
    if (rep == 0 || sweep_ms < result.sweep_ms) result.sweep_ms = sweep_ms;
    result.transfers = sweep.size();
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_executor.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out file.json]\n",
                   argv[0]);
      return 2;
    }
  }
  const int reps = smoke ? 1 : 3;

  std::printf("run_collect dispatch: pooled (ring-of-8 pipeline body)\n");
  std::printf("%-7s %12s %16s %16s\n", "ranks", "pooled ms",
              "pooled spawned", "pooled peak_live");
  std::vector<DispatchResult> dispatch;
  for (i32 n : std::vector<i32>{256, 1024, 4096}) {
    if (smoke && n > 256) break;
    const DispatchResult r = bench_dispatch(n, reps);
    dispatch.push_back(r);
    std::printf("%-7d %12.2f %16d %16d\n", r.ranks, r.pooled_ms,
                r.pooled_stats.total_spawned, r.pooled_stats.peak_live);
  }

  std::printf("\ncomm-graph build: sweep (1-D, blocked -> block-cyclic)\n");
  std::printf("%-12s %12s %12s\n", "ranks/side", "sweep ms", "transfers");
  std::vector<CommGraphResult> graphs;
  for (i32 nprocs : std::vector<i32>{512, 4096}) {
    if (smoke && nprocs > 512) break;
    const CommGraphResult g = bench_comm_graph(nprocs, reps);
    graphs.push_back(g);
    std::printf("%-12lld %12.3f %12zu\n",
                static_cast<long long>(g.ranks_per_side), g.sweep_ms,
                g.transfers);
  }

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"smoke\": %s,\n  \"dispatch\": [\n",
               smoke ? "true" : "false");
  for (size_t i = 0; i < dispatch.size(); ++i) {
    const DispatchResult& r = dispatch[i];
    std::fprintf(
        out,
        "    {\"ranks\": %d, \"pooled_ms\": %.3f,"
        " \"pooled_threads_spawned\": %d,"
        " \"pooled_peak_live\": %d, \"pooled_pool_size\": %d,"
        " \"pooled_escalations\": %d}%s\n",
        r.ranks, r.pooled_ms, r.pooled_stats.total_spawned,
        r.pooled_stats.peak_live,
        r.pooled_stats.pool_size, r.pooled_stats.escalations,
        i + 1 < dispatch.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"comm_graph\": [\n");
  for (size_t i = 0; i < graphs.size(); ++i) {
    const CommGraphResult& g = graphs[i];
    std::fprintf(out,
                 "    {\"ranks_per_side\": %lld, \"sweep_ms\": %.3f,"
                 " \"transfers\": %zu}%s\n",
                 static_cast<long long>(g.ranks_per_side), g.sweep_ms,
                 g.transfers,
                 i + 1 < graphs.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
