#include "partition/partitioner.hpp"

#include <algorithm>
#include <numeric>
#include <optional>

#include "common/rng.hpp"

namespace cods {

namespace {

i64 ceil_div(i64 a, i64 b) { return (a + b - 1) / b; }

constexpr int kRefinePasses = 8;    ///< refinement sweeps per level
constexpr i32 kCoarsenTarget = 96;  ///< stop coarsening near this many vertices

struct CoarseLevel {
  Graph graph;
  std::vector<i32> fine_to_coarse;
};

/// Heavy-edge matching + contraction. `merge_cap` bounds the combined
/// weight of a matched pair so coarse vertices stay placeable. Returns
/// nullopt when the graph no longer shrinks meaningfully.
std::optional<CoarseLevel> coarsen_once(const Graph& g, i64 merge_cap,
                                        Rng& rng) {
  std::vector<i32> order(static_cast<size_t>(g.nvtx));
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);

  std::vector<i32> match(static_cast<size_t>(g.nvtx), -1);
  i32 ncoarse = 0;
  std::vector<i32> fine_to_coarse(static_cast<size_t>(g.nvtx), -1);
  for (i32 v : order) {
    if (match[static_cast<size_t>(v)] != -1) continue;
    i32 best = -1;
    i64 best_w = -1;
    for (i64 e = g.xadj[static_cast<size_t>(v)];
         e < g.xadj[static_cast<size_t>(v) + 1]; ++e) {
      const i32 u = g.adjncy[static_cast<size_t>(e)];
      if (match[static_cast<size_t>(u)] != -1) continue;
      if (g.vwgt[static_cast<size_t>(v)] + g.vwgt[static_cast<size_t>(u)] >
          merge_cap)
        continue;
      if (g.adjwgt[static_cast<size_t>(e)] > best_w) {
        best_w = g.adjwgt[static_cast<size_t>(e)];
        best = u;
      }
    }
    if (best >= 0) {
      match[static_cast<size_t>(v)] = best;
      match[static_cast<size_t>(best)] = v;
      fine_to_coarse[static_cast<size_t>(v)] = ncoarse;
      fine_to_coarse[static_cast<size_t>(best)] = ncoarse;
      ++ncoarse;
    } else {
      match[static_cast<size_t>(v)] = v;
      fine_to_coarse[static_cast<size_t>(v)] = ncoarse;
      ++ncoarse;
    }
  }
  if (ncoarse >= g.nvtx * 9 / 10) return std::nullopt;  // stalled

  std::vector<i64> cvwgt(static_cast<size_t>(ncoarse), 0);
  for (i32 v = 0; v < g.nvtx; ++v) {
    cvwgt[static_cast<size_t>(fine_to_coarse[static_cast<size_t>(v)])] +=
        g.vwgt[static_cast<size_t>(v)];
  }
  std::vector<std::tuple<i32, i32, i64>> cedges;
  cedges.reserve(g.adjncy.size() / 2);
  for (i32 v = 0; v < g.nvtx; ++v) {
    const i32 cv = fine_to_coarse[static_cast<size_t>(v)];
    for (i64 e = g.xadj[static_cast<size_t>(v)];
         e < g.xadj[static_cast<size_t>(v) + 1]; ++e) {
      const i32 cu =
          fine_to_coarse[static_cast<size_t>(g.adjncy[static_cast<size_t>(e)])];
      if (cv < cu) {  // each undirected edge once
        cedges.emplace_back(cv, cu, g.adjwgt[static_cast<size_t>(e)]);
      }
    }
  }
  CoarseLevel level;
  level.graph = Graph::from_edges(ncoarse, cedges, std::move(cvwgt));
  level.fine_to_coarse = std::move(fine_to_coarse);
  return level;
}

std::vector<i64> part_weights(const Graph& g, std::span<const i32> part,
                              i32 nparts) {
  std::vector<i64> w(static_cast<size_t>(nparts), 0);
  for (i32 v = 0; v < g.nvtx; ++v) {
    w[static_cast<size_t>(part[static_cast<size_t>(v)])] +=
        g.vwgt[static_cast<size_t>(v)];
  }
  return w;
}

/// Greedy graph growing on the coarsest graph under the hard capacity.
std::vector<i32> initial_partition(const Graph& g, i32 nparts, i64 cap,
                                   Rng& rng) {
  std::vector<i32> part(static_cast<size_t>(g.nvtx), -1);
  if (nparts == 1) {
    std::fill(part.begin(), part.end(), 0);
    return part;
  }
  std::vector<i64> weight(static_cast<size_t>(nparts), 0);
  // Grow each region towards an even share of the total weight.
  const i64 target = std::min(cap, ceil_div(g.total_vertex_weight(), nparts));
  i32 assigned = 0;

  std::vector<i32> perm(static_cast<size_t>(g.nvtx));
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin(), perm.end(), rng);
  size_t seed_cursor = 0;
  auto next_seed = [&]() -> i32 {
    while (seed_cursor < perm.size() &&
           part[static_cast<size_t>(perm[seed_cursor])] != -1) {
      ++seed_cursor;
    }
    return seed_cursor < perm.size() ? perm[seed_cursor] : -1;
  };

  for (i32 p = 0; p < nparts && assigned < g.nvtx; ++p) {
    std::vector<i64> connectivity(static_cast<size_t>(g.nvtx), 0);
    std::vector<i32> frontier;
    auto add_to_region = [&](i32 v) {
      part[static_cast<size_t>(v)] = p;
      weight[static_cast<size_t>(p)] += g.vwgt[static_cast<size_t>(v)];
      ++assigned;
      for (i64 e = g.xadj[static_cast<size_t>(v)];
           e < g.xadj[static_cast<size_t>(v) + 1]; ++e) {
        const i32 u = g.adjncy[static_cast<size_t>(e)];
        if (part[static_cast<size_t>(u)] != -1) continue;
        if (connectivity[static_cast<size_t>(u)] == 0) frontier.push_back(u);
        connectivity[static_cast<size_t>(u)] +=
            g.adjwgt[static_cast<size_t>(e)];
      }
    };
    const i32 seed = next_seed();
    if (seed < 0) break;
    add_to_region(seed);
    while (weight[static_cast<size_t>(p)] < target && assigned < g.nvtx) {
      // Pick frontier vertex with max connectivity that fits.
      i32 best = -1;
      i64 best_conn = -1;
      size_t best_idx = 0;
      for (size_t i = 0; i < frontier.size(); ++i) {
        const i32 u = frontier[i];
        if (part[static_cast<size_t>(u)] != -1) continue;  // stale entry
        if (weight[static_cast<size_t>(p)] + g.vwgt[static_cast<size_t>(u)] >
            cap)
          continue;
        if (connectivity[static_cast<size_t>(u)] > best_conn) {
          best_conn = connectivity[static_cast<size_t>(u)];
          best = u;
          best_idx = i;
        }
      }
      if (best < 0) {
        // Disconnected or everything too heavy: jump to a fresh seed.
        const i32 s = next_seed();
        if (s < 0 ||
            weight[static_cast<size_t>(p)] + g.vwgt[static_cast<size_t>(s)] >
                cap)
          break;
        add_to_region(s);
        continue;
      }
      frontier[best_idx] = frontier.back();
      frontier.pop_back();
      add_to_region(best);
    }
  }
  // Leftovers: lightest part with room; if coarse-vertex granularity
  // leaves no part with room, overfill the lightest part — the fine-level
  // repair pass restores the hard bound.
  for (i32 v = 0; v < g.nvtx; ++v) {
    if (part[static_cast<size_t>(v)] != -1) continue;
    i32 best = -1;
    i32 lightest = 0;
    for (i32 p = 0; p < nparts; ++p) {
      const i64 w = weight[static_cast<size_t>(p)];
      if (w < weight[static_cast<size_t>(lightest)]) lightest = p;
      if (w + g.vwgt[static_cast<size_t>(v)] > cap) continue;
      if (best < 0 || w < weight[static_cast<size_t>(best)]) best = p;
    }
    if (best < 0) best = lightest;
    part[static_cast<size_t>(v)] = best;
    weight[static_cast<size_t>(best)] += g.vwgt[static_cast<size_t>(v)];
  }
  return part;
}

/// Per-vertex connectivity to each neighbouring part: a small vector of
/// (part, summed edge weight), ascending by part, entries > 0 only.
using PartConn = std::vector<std::pair<i32, i64>>;

void conn_add(PartConn& row, i32 p, i64 w) {
  auto it = std::lower_bound(
      row.begin(), row.end(), p,
      [](const std::pair<i32, i64>& a, i32 b) { return a.first < b; });
  if (it != row.end() && it->first == p) {
    it->second += w;
    if (it->second == 0) row.erase(it);
  } else {
    row.insert(it, {p, w});
  }
}

i64 conn_to(const PartConn& row, i32 p) {
  auto it = std::lower_bound(
      row.begin(), row.end(), p,
      [](const std::pair<i32, i64>& a, i32 b) { return a.first < b; });
  return (it != row.end() && it->first == p) ? it->second : 0;
}

/// Greedy boundary refinement (FM-style single-vertex moves) with
/// incrementally maintained gains: each vertex's part-connectivity row is
/// built once, O(E), and a move only touches the mover's neighbours'
/// rows. Interior vertices — one row entry, their own part — are
/// rejected in O(1) per pass instead of re-scanning their edges, which
/// is most of the graph once the partition is locally good.
void refine(const Graph& g, std::vector<i32>& part, i32 nparts, i64 cap,
            Rng& rng) {
  if (nparts <= 1 || g.nvtx == 0) return;
  std::vector<i64> weight = part_weights(g, part, nparts);
  std::vector<PartConn> conn(static_cast<size_t>(g.nvtx));
  for (i32 v = 0; v < g.nvtx; ++v) {
    for (i64 e = g.xadj[static_cast<size_t>(v)];
         e < g.xadj[static_cast<size_t>(v) + 1]; ++e) {
      conn_add(conn[static_cast<size_t>(v)],
               part[static_cast<size_t>(g.adjncy[static_cast<size_t>(e)])],
               g.adjwgt[static_cast<size_t>(e)]);
    }
  }
  std::vector<i32> order(static_cast<size_t>(g.nvtx));
  std::iota(order.begin(), order.end(), 0);
  for (int pass = 0; pass < kRefinePasses; ++pass) {
    std::shuffle(order.begin(), order.end(), rng);
    bool moved = false;
    for (i32 v : order) {
      const i32 from = part[static_cast<size_t>(v)];
      const PartConn& row = conn[static_cast<size_t>(v)];
      if (row.empty()) continue;  // isolated vertex: no gain anywhere
      if (row.size() == 1 && row.front().first == from) continue;  // interior
      const i64 conn_from = conn_to(row, from);
      i32 best = from;
      i64 best_gain = 0;
      for (const auto& [p, w] : row) {
        if (p == from) continue;
        if (weight[static_cast<size_t>(p)] + g.vwgt[static_cast<size_t>(v)] >
            cap)
          continue;
        const i64 gain = w - conn_from;
        const bool better =
            gain > best_gain ||
            (gain == best_gain && gain > 0 &&
             weight[static_cast<size_t>(p)] <
                 weight[static_cast<size_t>(best)]);
        if (better) {
          best_gain = gain;
          best = p;
        }
      }
      if (best != from) {
        part[static_cast<size_t>(v)] = best;
        weight[static_cast<size_t>(from)] -= g.vwgt[static_cast<size_t>(v)];
        weight[static_cast<size_t>(best)] += g.vwgt[static_cast<size_t>(v)];
        for (i64 e = g.xadj[static_cast<size_t>(v)];
             e < g.xadj[static_cast<size_t>(v) + 1]; ++e) {
          PartConn& u_row =
              conn[static_cast<size_t>(g.adjncy[static_cast<size_t>(e)])];
          conn_add(u_row, from, -g.adjwgt[static_cast<size_t>(e)]);
          conn_add(u_row, best, g.adjwgt[static_cast<size_t>(e)]);
        }
        moved = true;
      }
    }
    if (!moved) break;
  }
}

/// Moves vertices out of overfull parts until the capacity holds.
void repair_capacity(const Graph& g, std::vector<i32>& part, i32 nparts,
                     i64 cap) {
  std::vector<i64> weight = part_weights(g, part, nparts);
  for (;;) {
    i32 over = -1;
    for (i32 p = 0; p < nparts; ++p) {
      if (weight[static_cast<size_t>(p)] > cap) {
        over = p;
        break;
      }
    }
    if (over < 0) return;
    // Cheapest vertex (by cut increase) in the overfull part that fits a
    // destination part.
    i32 best_v = -1;
    i32 best_p = -1;
    i64 best_cost = 0;
    for (i32 v = 0; v < g.nvtx; ++v) {
      if (part[static_cast<size_t>(v)] != over) continue;
      for (i32 p = 0; p < nparts; ++p) {
        if (p == over) continue;
        if (weight[static_cast<size_t>(p)] + g.vwgt[static_cast<size_t>(v)] >
            cap)
          continue;
        i64 cost = 0;
        for (i64 e = g.xadj[static_cast<size_t>(v)];
             e < g.xadj[static_cast<size_t>(v) + 1]; ++e) {
          const i32 q =
              part[static_cast<size_t>(g.adjncy[static_cast<size_t>(e)])];
          if (q == over) cost += g.adjwgt[static_cast<size_t>(e)];
          if (q == p) cost -= g.adjwgt[static_cast<size_t>(e)];
        }
        if (best_v < 0 || cost < best_cost) {
          best_v = v;
          best_p = p;
          best_cost = cost;
        }
      }
    }
    CODS_CHECK(best_v >= 0, "capacity repair failed (infeasible instance)");
    weight[static_cast<size_t>(over)] -= g.vwgt[static_cast<size_t>(best_v)];
    weight[static_cast<size_t>(best_p)] += g.vwgt[static_cast<size_t>(best_v)];
    part[static_cast<size_t>(best_v)] = best_p;
  }
}

/// The full multilevel pipeline: coarsen, partition the coarsest graph,
/// then project back and refine level by level.
std::vector<i32> multilevel_partition(const Graph& g, i32 nparts, i64 cap,
                                      Rng& rng) {
  std::vector<CoarseLevel> levels;
  const Graph* current = &g;
  while (current->nvtx > std::max<i32>(kCoarsenTarget, nparts * 2)) {
    auto level = coarsen_once(*current, cap, rng);
    if (!level) break;
    levels.push_back(std::move(*level));
    current = &levels.back().graph;
  }

  std::vector<i32> part = initial_partition(*current, nparts, cap, rng);
  refine(*current, part, nparts, cap, rng);

  for (auto it = levels.rbegin(); it != levels.rend(); ++it) {
    const Graph& fine =
        (std::next(it) == levels.rend()) ? g : std::next(it)->graph;
    std::vector<i32> fine_part(static_cast<size_t>(fine.nvtx));
    for (i32 v = 0; v < fine.nvtx; ++v) {
      fine_part[static_cast<size_t>(v)] =
          part[static_cast<size_t>(it->fine_to_coarse[static_cast<size_t>(v)])];
    }
    part = std::move(fine_part);
    refine(fine, part, nparts, cap, rng);
  }

  repair_capacity(g, part, nparts, cap);
  return part;
}

}  // namespace

PartitionResult kway_partition(const Graph& g, i32 nparts,
                               PartitionOptions options) {
  CODS_REQUIRE(nparts >= 1, "nparts must be positive");
  g.validate();
  const i64 total = g.total_vertex_weight();
  const i64 cap = options.max_part_weight > 0 ? options.max_part_weight
                                              : ceil_div(total, nparts);
  CODS_REQUIRE(cap >= 1, "part capacity must be positive");
  CODS_REQUIRE(total <= static_cast<i64>(nparts) * cap,
               "infeasible: total vertex weight exceeds total capacity");
  for (i64 w : g.vwgt) {
    CODS_REQUIRE(w <= cap, "a single vertex exceeds the part capacity");
  }

  Rng rng(options.seed);
  PartitionResult result;
  result.part = multilevel_partition(g, nparts, cap, rng);
  result.edge_cut = g.edge_cut(result.part);
  const auto weights = part_weights(g, result.part, nparts);
  result.max_weight = weights.empty()
                          ? 0
                          : *std::max_element(weights.begin(), weights.end());
  return result;
}

bool partition_valid(const Graph& g, std::span<const i32> part, i32 nparts,
                     i64 max_part_weight) {
  if (static_cast<i32>(part.size()) != g.nvtx) return false;
  std::vector<i64> weight(static_cast<size_t>(nparts), 0);
  for (i32 v = 0; v < g.nvtx; ++v) {
    const i32 p = part[static_cast<size_t>(v)];
    if (p < 0 || p >= nparts) return false;
    weight[static_cast<size_t>(p)] += g.vwgt[static_cast<size_t>(v)];
  }
  for (i64 w : weight) {
    if (max_part_weight > 0 && w > max_part_weight) return false;
  }
  return true;
}

}  // namespace cods
