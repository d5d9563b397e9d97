#include "bodies.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

namespace perfbench {

using namespace cods;

void CallCounters::reset() {
  for (auto* counter : {&puts, &put_dht_cores, &gets, &get_bytes,
                        &get_sources, &get_dht_cores, &seq_gets,
                        &schedule_hits, &lookup_hits, &tasks}) {
    counter->store(0, std::memory_order_relaxed);
  }
}

CallCounters& call_counters() {
  static CallCounters counters;
  return counters;
}

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

bool tracing() { return recorder().active(); }

/// Scope of one rank-body invocation: a fresh rank id and the body span.
class Body {
 public:
  Body() : rank_(tracing() ? recorder().next_rank() : 0), span_(rank_, kRankBody) {
    if (tracing()) call_counters().tasks.fetch_add(1, kRelaxed);
  }
  int rank() const { return rank_; }

 private:
  int rank_;
  Span span_;
};

PutResult put(int me, CodsClient& client, bool sequential,
              const std::string& var, i32 version, const Box& box,
              std::span<const std::byte> data, u64 elem) {
  PutResult result;
  {
    Span span(me, sequential ? kPutSeq : kPutCont);
    result = sequential ? client.put_seq(var, version, box, data, elem)
                        : client.put_cont(var, version, box, data, elem);
  }
  if (tracing()) {
    CallCounters& c = call_counters();
    c.puts.fetch_add(1, kRelaxed);
    c.put_dht_cores.fetch_add(static_cast<u64>(result.dht_cores), kRelaxed);
  }
  return result;
}

GetResult get(int me, CodsClient& client, bool sequential,
              const std::string& var, i32 version, const Box& box,
              std::span<std::byte> out, u64 elem) {
  GetResult result;
  {
    Span span(me, sequential ? kGetSeq : kGetCont);
    result = sequential ? client.get_seq(var, version, box, out, elem)
                        : client.get_cont(var, version, box, out, elem);
  }
  if (tracing()) {
    CallCounters& c = call_counters();
    c.gets.fetch_add(1, kRelaxed);
    c.get_bytes.fetch_add(result.bytes, kRelaxed);
    c.get_sources.fetch_add(static_cast<u64>(result.sources), kRelaxed);
    c.get_dht_cores.fetch_add(static_cast<u64>(result.dht_cores), kRelaxed);
    if (result.cache_hit) c.schedule_hits.fetch_add(1, kRelaxed);
    if (sequential) c.seq_gets.fetch_add(1, kRelaxed);
    if (result.lookup_cache_hit) c.lookup_hits.fetch_add(1, kRelaxed);
  }
  return result;
}

void send(int me, const Comm& comm, i32 dst, i32 tag,
          std::span<const std::byte> payload) {
  Span span(me, kSend);
  comm.send(dst, tag, payload);
}

Message recv(int me, const Comm& comm, i32 src, i32 tag) {
  Span span(me, kRecv);
  return comm.recv(src, tag);
}

void barrier(int me, const Comm& comm) {
  Span span(me, kBarrier);
  comm.barrier();
}

template <typename Reduce>
auto allreduce(int me, Reduce&& reduce) {
  Span span(me, kAllreduce);
  return reduce();
}

u64 pattern_seed(const PatternCfg& cfg, i32 version, size_t v) {
  return cfg.seed + static_cast<u64>(version) + v * 1000;
}

void produce(int me, AppCtx& ctx, const PatternCfg& cfg) {
  const u64 elem = ctx.spec->elem_size;
  for (i32 version = 0; version < cfg.nversions; ++version) {
    for (const Box& box : ctx.my_boxes()) {
      std::vector<std::byte> data(box_bytes(box, elem));
      for (size_t v = 0; v < cfg.vars.size(); ++v) {
        fill_pattern(data, box, elem, pattern_seed(cfg, version, v));
        put(me, *ctx.cods, cfg.sequential, cfg.vars[v], version, box, data,
            elem);
      }
    }
  }
  barrier(me, ctx.comm);
}

void consume(int me, AppCtx& ctx, const PatternCfg& cfg) {
  const u64 elem = ctx.spec->elem_size;
  for (i32 version = 0; version < cfg.nversions; ++version) {
    for (const Box& box : ctx.my_boxes()) {
      std::vector<std::byte> out(box_bytes(box, elem));
      for (size_t v = 0; v < cfg.vars.size(); ++v) {
        get(me, *ctx.cods, cfg.sequential, cfg.vars[v], version, box, out,
            elem);
        const u64 bad =
            verify_pattern(out, box, elem, pattern_seed(cfg, version, v));
        if (cfg.mismatches) cfg.mismatches->fetch_add(bad);
      }
    }
  }
  barrier(me, ctx.comm);
}

/// Local stencil grid with one ghost layer in every direction.
struct StencilGrid {
  Box interior;
  std::vector<i64> ext;
  std::vector<double> u;
  std::vector<double> next;

  explicit StencilGrid(const Box& box) : interior(box) {
    u64 cells = 1;
    for (int d = 0; d < box.ndim(); ++d) {
      ext.push_back(box.extent(d));
      cells *= static_cast<u64>(box.extent(d) + 2);
    }
    u.assign(cells, 0.0);
    next.assign(cells, 0.0);
  }

  int nd() const { return interior.ndim(); }

  size_t idx(const i64* local) const {
    size_t offset = 0;
    for (int d = 0; d < nd(); ++d) {
      offset = offset * static_cast<size_t>(ext[static_cast<size_t>(d)] + 2) +
               static_cast<size_t>(local[d] + 1);
    }
    return offset;
  }

  double& at(const i64* local) { return u[idx(local)]; }
};

template <typename Fn>
void for_each_interior(const StencilGrid& grid, Fn&& fn) {
  i64 local[kMaxDims] = {0, 0, 0, 0};
  for (;;) {
    fn(local);
    int d = grid.nd() - 1;
    for (; d >= 0; --d) {
      if (++local[d] < grid.ext[static_cast<size_t>(d)]) break;
      local[d] = 0;
    }
    if (d < 0) break;
  }
}

/// Visits the cells of one face layer: dimension `dim` fixed at `fixed`.
template <typename Fn>
void for_each_face(StencilGrid& grid, int dim, i64 fixed, Fn&& fn) {
  i64 local[kMaxDims] = {0, 0, 0, 0};
  local[dim] = fixed;
  for (;;) {
    fn(grid.at(local));
    int d = grid.nd() - 1;
    for (; d >= 0; --d) {
      if (d == dim) continue;
      if (++local[d] < grid.ext[static_cast<size_t>(d)]) break;
      local[d] = 0;
    }
    if (d < 0) break;
  }
}

}  // namespace

AppFn pattern_producer(PatternCfg cfg) {
  return [cfg](AppCtx& ctx) {
    {
      Body body;
      produce(body.rank(), ctx, cfg);
    }
    if (cfg.completions) cfg.completions->push_back(mark_now());
  };
}

AppFn pattern_consumer(PatternCfg cfg) {
  return [cfg](AppCtx& ctx) {
    {
      Body body;
      consume(body.rank(), ctx, cfg);
    }
    if (cfg.completions) cfg.completions->push_back(mark_now());
  };
}

AppFn pattern_relay(PatternCfg consume_cfg, PatternCfg produce_cfg) {
  return [consume_cfg, produce_cfg](AppCtx& ctx) {
    Body body;
    consume(body.rank(), ctx, consume_cfg);
    produce(body.rank(), ctx, produce_cfg);
  };
}

AppFn stencil(StencilCfg cfg) {
  return [cfg](AppCtx& ctx) {
    Body body;
    const int me = body.rank();
    const Decomposition& dec = ctx.spec->dec;
    for (int d = 0; d < dec.ndim(); ++d) {
      CODS_REQUIRE(dec.dim(d).dist == Dist::kBlocked,
                   "the stencil simulation needs a blocked decomposition");
    }
    const auto boxes = ctx.my_boxes();
    CODS_CHECK(boxes.size() == 1, "blocked task owns one box");
    StencilGrid grid(boxes[0]);
    const Point g = dec.rank_to_grid(ctx.task.rank);

    const Box domain = dec.domain_box();
    for_each_interior(grid, [&](const i64* local) {
      double value = 1.0;
      for (int d = 0; d < grid.nd(); ++d) {
        const double x =
            static_cast<double>(grid.interior.lb[d] + local[d] + 1) /
            static_cast<double>(domain.extent(d) + 1);
        value *= std::sin(x * 3.14159265358979323846);
      }
      grid.at(local) = value;
    });

    std::vector<std::byte> payload(box_bytes(grid.interior, sizeof(double)));
    std::vector<double> face;
    for (i32 iter = 0; iter < cfg.iterations; ++iter) {
      // Halo exchange: buffered sends first, then the matching receives.
      struct Pending {
        i32 nbr;
        int dim;
        int dir;
      };
      std::vector<Pending> pending;
      for (int d = 0; d < grid.nd(); ++d) {
        for (int dir : {-1, +1}) {
          Point ng = g;
          ng[d] += dir;
          if (ng[d] < 0 || ng[d] >= dec.dim(d).nprocs) continue;
          const i32 nbr = dec.grid_to_rank(ng);
          face.clear();
          for_each_face(grid, d, dir > 0 ? grid.ext[static_cast<size_t>(d)] - 1 : 0,
                        [&face](double& cell) { face.push_back(cell); });
          const i32 tag = 100 + iter * 8 + d * 2 + (dir > 0 ? 1 : 0);
          send(me, ctx.comm, nbr, tag,
               std::span(reinterpret_cast<const std::byte*>(face.data()),
                         face.size() * sizeof(double)));
          pending.push_back(Pending{nbr, d, dir});
        }
      }
      for (const Pending& p : pending) {
        const i32 tag = 100 + iter * 8 + p.dim * 2 + (p.dir > 0 ? 0 : 1);
        const Message m = recv(me, ctx.comm, p.nbr, tag);
        size_t cursor = 0;
        for_each_face(grid, p.dim,
                      p.dir > 0 ? grid.ext[static_cast<size_t>(p.dim)] : -1,
                      [&](double& cell) {
                        std::memcpy(&cell,
                                    m.payload.data() + cursor * sizeof(double),
                                    sizeof(double));
                        ++cursor;
                      });
      }

      // Explicit diffusion step (Dirichlet zero at the global boundary).
      for_each_interior(grid, [&](const i64* local) {
        double neighbours = 0.0;
        i64 probe[kMaxDims];
        std::memcpy(probe, local, sizeof(probe));
        for (int d = 0; d < grid.nd(); ++d) {
          probe[d] = local[d] - 1;
          neighbours += grid.at(probe);
          probe[d] = local[d] + 1;
          neighbours += grid.at(probe);
          probe[d] = local[d];
        }
        const double centre = grid.at(local);
        grid.next[grid.idx(local)] =
            centre + cfg.alpha * (neighbours - 2.0 * grid.nd() * centre);
      });
      std::swap(grid.u, grid.next);

      auto* values = reinterpret_cast<double*>(payload.data());
      size_t cursor = 0;
      for_each_interior(grid, [&](const i64* local) {
        values[cursor++] = grid.at(local);
      });
      if (cfg.throttle != nullptr && iter >= kAckLag) {
        cfg.throttle->wait_version("ack", iter - kAckLag);
      }
      put(me, *ctx.cods, /*sequential=*/false, cfg.var, iter, grid.interior,
          payload, sizeof(double));
    }
    barrier(me, ctx.comm);
  };
}

AppFn moments(MomentsCfg cfg) {
  return [cfg](AppCtx& ctx) {
    Body body;
    const int me = body.rank();
    for (i32 iter = 0; iter < cfg.iterations; ++iter) {
      double local_min = std::numeric_limits<double>::infinity();
      double local_max = -std::numeric_limits<double>::infinity();
      double local_sum = 0.0;
      u64 local_cells = 0;
      for (const Box& box : ctx.my_boxes()) {
        std::vector<std::byte> out(box_bytes(box, sizeof(double)));
        get(me, *ctx.cods, /*sequential=*/false, cfg.var, iter, box, out,
            sizeof(double));
        const auto* values = reinterpret_cast<const double*>(out.data());
        const u64 n = box.volume();
        for (u64 i = 0; i < n; ++i) {
          local_min = std::min(local_min, values[i]);
          local_max = std::max(local_max, values[i]);
          local_sum += values[i];
        }
        local_cells += n;
      }
      const Comm& comm = ctx.comm;
      const double gmin =
          allreduce(me, [&] { return comm.allreduce_min(local_min); });
      const double gmax =
          allreduce(me, [&] { return comm.allreduce_max(local_max); });
      const double gsum =
          allreduce(me, [&] { return comm.allreduce_sum(local_sum); });
      const i64 gcells = allreduce(me, [&] {
        return comm.allreduce_sum(static_cast<i64>(local_cells));
      });
      if (comm.rank() != 0) continue;
      if (cfg.out) {
        CODS_CHECK(static_cast<size_t>(iter) < cfg.out->size(),
                   "analysis output vector too small");
        (*cfg.out)[static_cast<size_t>(iter)] =
            Moments{gmin, gmax, gsum / static_cast<double>(gcells)};
      }
      if (cfg.retire_in != nullptr) {
        {
          Span span(me, kRetire);
          cfg.retire_in->retire_older_than(cfg.var, 2);
        }
        const Box& anchor = ctx.spec->dec.domain_box();
        cfg.retire_in->post_cont("ack", iter, Box{anchor.lb, anchor.lb},
                                 std::vector<std::byte>(sizeof(double)),
                                 ctx.cods->endpoint());
      }
      if (cfg.iteration_ends) cfg.iteration_ends->push_back(mark_now());
    }
    barrier(me, ctx.comm);
  };
}

AppFn histogram(HistogramConfig cfg) {
  CODS_REQUIRE(cfg.bins >= 1, "histogram needs at least one bin");
  CODS_REQUIRE(cfg.hi > cfg.lo, "histogram range must be non-empty");
  return [cfg](AppCtx& ctx) {
    Body body;
    const int me = body.rank();
    const double width = (cfg.hi - cfg.lo) / static_cast<double>(cfg.bins);
    for (i32 iter = 0; iter < cfg.iterations; ++iter) {
      std::vector<i64> counts(static_cast<size_t>(cfg.bins), 0);
      for (const Box& box : ctx.my_boxes()) {
        std::vector<std::byte> out(box_bytes(box, sizeof(double)));
        get(me, *ctx.cods, /*sequential=*/false, cfg.var, iter, box, out,
            sizeof(double));
        const auto* values = reinterpret_cast<const double*>(out.data());
        for (u64 i = 0; i < box.volume(); ++i) {
          i64 bin = static_cast<i64>((values[i] - cfg.lo) / width);
          bin = std::clamp<i64>(bin, 0, cfg.bins - 1);
          ++counts[static_cast<size_t>(bin)];
        }
      }
      for (i64& count : counts) {
        const i64 local = count;
        count = allreduce(me, [&] { return ctx.comm.allreduce_sum(local); });
      }
      if (ctx.comm.rank() == 0 && cfg.out) {
        CODS_CHECK(static_cast<size_t>(iter) < cfg.out->size(),
                   "histogram output vector too small");
        (*cfg.out)[static_cast<size_t>(iter)] = counts;
      }
    }
    barrier(me, ctx.comm);
  };
}

AppFn downsampler(DownsampleConfig cfg) {
  CODS_REQUIRE(cfg.factor >= 1, "downsample factor must be positive");
  return [cfg](AppCtx& ctx) {
    Body body;
    const int me = body.rank();
    const i64 f = cfg.factor;
    for (i32 iter = 0; iter < cfg.iterations; ++iter) {
      for (const Box& box : ctx.my_boxes()) {
        for (int d = 0; d < box.ndim(); ++d) {
          CODS_REQUIRE(box.extent(d) % f == 0,
                       "downsample factor must divide the local extent");
          CODS_REQUIRE(box.lb[d] % f == 0,
                       "task region must be aligned to the factor");
        }
        std::vector<std::byte> fine(box_bytes(box, sizeof(double)));
        get(me, *ctx.cods, /*sequential=*/false, cfg.in_var, iter, box, fine,
            sizeof(double));
        const auto* in = reinterpret_cast<const double*>(fine.data());

        Box coarse;
        coarse.lb = Point::zeros(box.ndim());
        coarse.ub = Point::zeros(box.ndim());
        for (int d = 0; d < box.ndim(); ++d) {
          coarse.lb[d] = box.lb[d] / f;
          coarse.ub[d] = (box.ub[d] + 1) / f - 1;
        }
        std::vector<double> out(coarse.volume(), 0.0);
        const double norm = std::pow(static_cast<double>(f), box.ndim());
        Point cursor = box.lb;
        for (;;) {
          Point cc = Point::zeros(box.ndim());
          for (int d = 0; d < box.ndim(); ++d) cc[d] = cursor[d] / f;
          out[cell_offset(coarse, cc)] += in[cell_offset(box, cursor)] / norm;
          int d = box.ndim() - 1;
          for (; d >= 0; --d) {
            if (++cursor[d] <= box.ub[d]) break;
            cursor[d] = box.lb[d];
          }
          if (d < 0) break;
        }
        put(me, *ctx.cods, /*sequential=*/true, cfg.out_var, iter, coarse,
            std::span(reinterpret_cast<const std::byte*>(out.data()),
                      out.size() * sizeof(double)),
            sizeof(double));
      }
    }
    barrier(me, ctx.comm);
  };
}

void run_workflow(WorkflowServer& server, const DagSpec& dag,
                  const WorkflowOptions& options) {
  Span span(kMainRank, kWorkflowRun);
  server.run(dag, options);
}

}  // namespace perfbench
