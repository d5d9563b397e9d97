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
  std::vector<i32> first_member;  // per coarse vertex; its mate is match[]
  first_member.reserve(static_cast<size_t>(g.nvtx));
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
    } else {
      match[static_cast<size_t>(v)] = v;
      fine_to_coarse[static_cast<size_t>(v)] = ncoarse;
    }
    first_member.push_back(v);
    ++ncoarse;
  }
  if (ncoarse >= g.nvtx * 9 / 10) return std::nullopt;  // stalled

  // Each coarse row merges its (at most two) members' rows, unsorted: a
  // dense marker holds each neighbour's slot in the row being built.
  CoarseLevel level;
  Graph& cg = level.graph;
  cg.nvtx = ncoarse;
  cg.vwgt.assign(static_cast<size_t>(ncoarse), 0);
  cg.xadj.assign(static_cast<size_t>(ncoarse) + 1, 0);
  std::vector<i32> adjncy;
  std::vector<i64> adjwgt;
  adjncy.reserve(g.adjncy.size());
  adjwgt.reserve(g.adjncy.size());
  std::vector<i64> slot(static_cast<size_t>(ncoarse), -1);
  for (i32 c = 0; c < ncoarse; ++c) {
    const i32 v = first_member[static_cast<size_t>(c)];
    const i32 mate = match[static_cast<size_t>(v)];
    const i64 row = static_cast<i64>(adjncy.size());
    for (const i32 m : {v, mate}) {
      cg.vwgt[static_cast<size_t>(c)] += g.vwgt[static_cast<size_t>(m)];
      for (i64 e = g.xadj[static_cast<size_t>(m)];
           e < g.xadj[static_cast<size_t>(m) + 1]; ++e) {
        const i32 cu = fine_to_coarse[static_cast<size_t>(
            g.adjncy[static_cast<size_t>(e)])];
        if (cu == c) continue;
        i64& at = slot[static_cast<size_t>(cu)];
        if (at < 0) {
          at = static_cast<i64>(adjncy.size());
          adjncy.push_back(cu);
          adjwgt.push_back(0);
        }
        adjwgt[static_cast<size_t>(at)] += g.adjwgt[static_cast<size_t>(e)];
      }
      if (mate == v) break;
    }
    // Reset the marker and drop zero-weight entries, as from_edges does.
    i64 kept = row;
    for (i64 i = row; i < static_cast<i64>(adjncy.size()); ++i) {
      slot[static_cast<size_t>(adjncy[static_cast<size_t>(i)])] = -1;
      if (adjwgt[static_cast<size_t>(i)] == 0) continue;
      adjncy[static_cast<size_t>(kept)] = adjncy[static_cast<size_t>(i)];
      adjwgt[static_cast<size_t>(kept++)] = adjwgt[static_cast<size_t>(i)];
    }
    adjncy.resize(static_cast<size_t>(kept));
    adjwgt.resize(static_cast<size_t>(kept));
    cg.xadj[static_cast<size_t>(c) + 1] = kept;
  }
  // The coarse graph is symmetric, so its transpose is itself with every
  // row ascending by neighbour: scattering row c into its neighbours' rows
  // in ascending c gives the CSR Graph::from_edges builds from the
  // contracted edge list.
  cg.adjncy.resize(adjncy.size());
  cg.adjwgt.resize(adjwgt.size());
  std::vector<i64> fill(cg.xadj.begin(), cg.xadj.end() - 1);
  for (i32 c = 0; c < ncoarse; ++c) {
    for (i64 i = cg.xadj[static_cast<size_t>(c)];
         i < cg.xadj[static_cast<size_t>(c) + 1]; ++i) {
      i64& at = fill[static_cast<size_t>(adjncy[static_cast<size_t>(i)])];
      cg.adjncy[static_cast<size_t>(at)] = c;
      cg.adjwgt[static_cast<size_t>(at++)] = adjwgt[static_cast<size_t>(i)];
    }
  }
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

  // Connectivity of unassigned vertices to the growing region; every
  // non-zero entry of an unassigned vertex is on the frontier, so clearing
  // the frontier's entries resets it for the next region.
  std::vector<i64> connectivity(static_cast<size_t>(g.nvtx), 0);
  std::vector<i32> frontier;
  for (i32 p = 0; p < nparts && assigned < g.nvtx; ++p) {
    for (i32 u : frontier) connectivity[static_cast<size_t>(u)] = 0;
    frontier.clear();
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

/// Per-vertex connectivity to each neighbouring part: (part, summed edge
/// weight) entries, ascending by part, weights > 0 only. Every row lives
/// in one flat array, vertex v's in slots [xadj[v], xadj[v] + deg(v)):
/// each entry has a neighbour in its part, so deg(v) slots always suffice.
class PartConn {
 public:
  using Entry = std::pair<i32, i64>;

  /// Every vertex's row under `part`, merged through a dense marker that
  /// holds each part's slot in the row being built.
  PartConn(const Graph& g, std::span<const i32> part, i32 nparts)
      : xadj_(g.xadj), slots_(g.adjncy.size()),
        size_(static_cast<size_t>(g.nvtx), 0) {
    std::vector<i32> at(static_cast<size_t>(nparts), -1);
    for (i32 v = 0; v < g.nvtx; ++v) {
      Entry* first = slots_.data() + xadj_[static_cast<size_t>(v)];
      i32& size = size_[static_cast<size_t>(v)];
      for (i64 e = g.xadj[static_cast<size_t>(v)];
           e < g.xadj[static_cast<size_t>(v) + 1]; ++e) {
        const i64 w = g.adjwgt[static_cast<size_t>(e)];
        if (w == 0) continue;
        const i32 p =
            part[static_cast<size_t>(g.adjncy[static_cast<size_t>(e)])];
        i32& slot = at[static_cast<size_t>(p)];
        if (slot < 0) {
          slot = size++;
          first[slot] = {p, 0};
        }
        first[slot].second += w;
      }
      for (i32 i = 0; i < size; ++i) {
        at[static_cast<size_t>(first[i].first)] = -1;
      }
      std::sort(first, first + size);
    }
  }

  std::span<const Entry> row(i32 v) const {
    return {slots_.data() + xadj_[static_cast<size_t>(v)],
            static_cast<size_t>(size_[static_cast<size_t>(v)])};
  }

  i64 to(i32 v, i32 p) const {
    const auto r = row(v);
    const auto it = std::lower_bound(r.begin(), r.end(), p, by_part);
    return (it != r.end() && it->first == p) ? it->second : 0;
  }

  /// Adds `w` (non-zero) to v's entry for part p, dropping it at zero.
  void add(i32 v, i32 p, i64 w) {
    Entry* first = slots_.data() + xadj_[static_cast<size_t>(v)];
    i32& size = size_[static_cast<size_t>(v)];
    Entry* last = first + size;
    Entry* it = std::lower_bound(first, last, p, by_part);
    if (it != last && it->first == p) {
      it->second += w;
      if (it->second == 0) {
        std::copy(it + 1, last, it);
        --size;
      }
    } else {
      std::copy_backward(it, last, last + 1);
      *it = {p, w};
      ++size;
    }
  }

 private:
  static bool by_part(const Entry& a, i32 b) { return a.first < b; }

  const std::vector<i64>& xadj_;
  std::vector<Entry> slots_;
  std::vector<i32> size_;
};

/// Greedy boundary refinement (FM-style single-vertex moves) with
/// incrementally maintained gains: each vertex's part-connectivity row is
/// built once, O(E), and a move only touches the mover's neighbours'
/// rows. Interior vertices — one row entry, their own part — are
/// rejected in O(1) per pass instead of re-scanning their edges, which
/// is most of the graph once the partition is locally good. Zero-weight
/// edges carry no gain and are left out of the rows.
void refine(const Graph& g, std::vector<i32>& part, i32 nparts, i64 cap,
            Rng& rng) {
  if (nparts <= 1 || g.nvtx == 0) return;
  std::vector<i64> weight = part_weights(g, part, nparts);
  PartConn conn(g, part, nparts);
  std::vector<i32> order(static_cast<size_t>(g.nvtx));
  std::iota(order.begin(), order.end(), 0);
  for (int pass = 0; pass < kRefinePasses; ++pass) {
    std::shuffle(order.begin(), order.end(), rng);
    bool moved = false;
    for (i32 v : order) {
      const i32 from = part[static_cast<size_t>(v)];
      const auto row = conn.row(v);
      if (row.empty()) continue;  // isolated vertex: no gain anywhere
      if (row.size() == 1 && row.front().first == from) continue;  // interior
      const i64 conn_from = conn.to(v, from);
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
          const i64 w = g.adjwgt[static_cast<size_t>(e)];
          if (w == 0) continue;
          const i32 u = g.adjncy[static_cast<size_t>(e)];
          conn.add(u, from, -w);
          conn.add(u, best, w);
        }
        moved = true;
      }
    }
    if (!moved) break;
  }
}

/// Moves vertices out of overfull parts until the capacity holds. Each
/// move takes, from the lowest-index overfull part, the (vertex, part)
/// pair with the least cut increase, the first in ascending (vertex,
/// part) order among equals. A move never fills a part past the cap, so
/// the overfull parts are repaired in index order.
void repair_capacity(const Graph& g, std::vector<i32>& part, i32 nparts,
                     i64 cap) {
  std::vector<i64> weight = part_weights(g, part, nparts);
  std::vector<std::vector<i32>> members(static_cast<size_t>(nparts));
  for (i32 v = 0; v < g.nvtx; ++v) {
    members[static_cast<size_t>(part[static_cast<size_t>(v)])].push_back(v);
  }
  // Parts the lightest vertex still fits, ascending: every destination.
  const i64 room =
      cap - (g.nvtx == 0 ? 0 : *std::min_element(g.vwgt.begin(), g.vwgt.end()));
  std::vector<i32> open;
  for (i32 p = 0; p < nparts; ++p) {
    if (weight[static_cast<size_t>(p)] <= room) open.push_back(p);
  }
  const auto reopen = [&](i32 p) {
    const auto it = std::lower_bound(open.begin(), open.end(), p);
    const bool listed = it != open.end() && *it == p;
    if (weight[static_cast<size_t>(p)] <= room) {
      if (!listed) open.insert(it, p);
    } else if (listed) {
      open.erase(it);
    }
  };
  std::vector<i64> conn(static_cast<size_t>(nparts), 0);
  std::vector<i32> touched;
  for (i32 over = 0; over < nparts; ++over) {
    while (weight[static_cast<size_t>(over)] > cap) {
      i32 best_v = -1;
      i32 best_p = -1;
      i64 best_cost = 0;
      for (i32 v : members[static_cast<size_t>(over)]) {
        const i64 vw = g.vwgt[static_cast<size_t>(v)];
        for (i64 e = g.xadj[static_cast<size_t>(v)];
             e < g.xadj[static_cast<size_t>(v) + 1]; ++e) {
          const i32 q =
              part[static_cast<size_t>(g.adjncy[static_cast<size_t>(e)])];
          if (conn[static_cast<size_t>(q)] == 0) touched.push_back(q);
          conn[static_cast<size_t>(q)] += g.adjwgt[static_cast<size_t>(e)];
        }
        // Moving v to p costs conn[over] - conn[p]: parts v has no weight
        // to all cost conn[over], so only the first open one competes.
        const i64 base = conn[static_cast<size_t>(over)];
        const auto fits = [&](i32 p) {
          return p != over && weight[static_cast<size_t>(p)] + vw <= cap;
        };
        i32 p_v = -1;
        i64 cost_v = 0;
        const auto consider = [&](i32 p, i64 cost) {
          if (p_v < 0 || cost < cost_v || (cost == cost_v && p < p_v)) {
            p_v = p;
            cost_v = cost;
          }
        };
        for (i32 q : touched) {
          if (conn[static_cast<size_t>(q)] != 0 && fits(q)) {
            consider(q, base - conn[static_cast<size_t>(q)]);
          }
        }
        for (i32 p : open) {
          if (conn[static_cast<size_t>(p)] == 0 && fits(p)) {
            consider(p, base);
            break;
          }
        }
        for (i32 q : touched) conn[static_cast<size_t>(q)] = 0;
        touched.clear();
        if (p_v >= 0 && (best_v < 0 || cost_v < best_cost)) {
          best_v = v;
          best_p = p_v;
          best_cost = cost_v;
        }
      }
      CODS_CHECK(best_v >= 0, "capacity repair failed (infeasible instance)");
      const i64 vw = g.vwgt[static_cast<size_t>(best_v)];
      weight[static_cast<size_t>(over)] -= vw;
      weight[static_cast<size_t>(best_p)] += vw;
      part[static_cast<size_t>(best_v)] = best_p;
      auto& from = members[static_cast<size_t>(over)];
      from.erase(std::lower_bound(from.begin(), from.end(), best_v));
      auto& to = members[static_cast<size_t>(best_p)];
      to.insert(std::lower_bound(to.begin(), to.end(), best_v), best_v);
      reopen(over);
      reopen(best_p);
    }
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
  for (i64 w : g.adjwgt) {
    CODS_REQUIRE(w >= 0, "edge weight must be non-negative");
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
