#include "geometry/redistribution.hpp"

#include <algorithm>
#include <array>

namespace cods {

namespace {

/// Sparse per-dimension adjacency: for each src process coordinate, the
/// list of (dst process coordinate, shared cell count) with count > 0.
struct DimAdjacency {
  // adj[ra] = { (rb, cells), ... }
  std::vector<std::vector<std::pair<i32, i64>>> adj;
};

/// Pair-table build: every (ra, rb) pair, closed-form overlap count per
/// src segment. O(pa * pb * segs-per-proc); the better choice when one
/// side has few procs but many segments.
DimAdjacency dim_adjacency_allpairs(const Decomposition& src,
                                    const Decomposition& dst, int d, i64 lo,
                                    i64 hi) {
  DimAdjacency out;
  const i32 pa = src.dim(d).nprocs;
  const i32 pb = dst.dim(d).nprocs;
  out.adj.resize(static_cast<size_t>(pa));
  for (i32 ra = 0; ra < pa; ++ra) {
    const auto segs = src.owned_segments_dim(d, ra, lo, hi);
    for (i32 rb = 0; rb < pb; ++rb) {
      i64 cells = 0;
      for (const Segment& s : segs) {
        cells += dst.owned_count_dim_in(d, rb, s.first, s.second);
      }
      if (cells > 0) out.adj[static_cast<size_t>(ra)].emplace_back(rb, cells);
    }
  }
  return out;
}

/// Sweep build: ownership partitions [lo, hi] on each side, so the two
/// tagged segment lists are disjoint and, once sorted, a two-pointer
/// merge emits every overlapping (src seg, dst seg) piece — at most
/// Sa + Sb of them — in O((Sa + Sb) log(Sa + Sb)) total, instead of
/// touching all pa * pb pairs.
DimAdjacency dim_adjacency_sweep(const Decomposition& src,
                                 const Decomposition& dst, int d, i64 lo,
                                 i64 hi) {
  struct TaggedSeg {
    i64 lo;
    i64 hi;
    i32 proc;
  };
  const i32 pa = src.dim(d).nprocs;
  const i32 pb = dst.dim(d).nprocs;
  std::vector<TaggedSeg> sa;
  std::vector<TaggedSeg> sb;
  for (i32 ra = 0; ra < pa; ++ra) {
    for (const Segment& s : src.owned_segments_dim(d, ra, lo, hi)) {
      sa.push_back(TaggedSeg{s.first, s.second, ra});
    }
  }
  for (i32 rb = 0; rb < pb; ++rb) {
    for (const Segment& s : dst.owned_segments_dim(d, rb, lo, hi)) {
      sb.push_back(TaggedSeg{s.first, s.second, rb});
    }
  }
  const auto by_lo = [](const TaggedSeg& a, const TaggedSeg& b) {
    return a.lo < b.lo;
  };
  std::sort(sa.begin(), sa.end(), by_lo);
  std::sort(sb.begin(), sb.end(), by_lo);

  DimAdjacency out;
  out.adj.resize(static_cast<size_t>(pa));
  size_t i = 0;
  size_t j = 0;
  while (i < sa.size() && j < sb.size()) {
    const i64 l = std::max(sa[i].lo, sb[j].lo);
    const i64 h = std::min(sa[i].hi, sb[j].hi);
    if (l <= h) {
      out.adj[static_cast<size_t>(sa[i].proc)].emplace_back(sb[j].proc,
                                                            h - l + 1);
    }
    if (sa[i].hi < sb[j].hi) {
      ++i;
    } else {
      ++j;
    }
  }
  // A cyclic layout visits the same (ra, rb) pair once per cycle; fold
  // the pieces so each row is ascending in rb with one entry per dst
  // proc — byte-identical to the all-pairs build.
  for (auto& row : out.adj) {
    std::sort(row.begin(), row.end());
    size_t w = 0;
    for (size_t k = 0; k < row.size(); ++k) {
      if (w > 0 && row[w - 1].first == row[k].first) {
        row[w - 1].second += row[k].second;
      } else {
        row[w++] = row[k];
      }
    }
    row.resize(w);
  }
  return out;
}

/// Upper-bound estimate of the tagged segment count one side contributes
/// to the sweep: one segment per (proc, cycle) intersecting [lo, hi].
i64 segment_estimate(const Decomposition& dec, int d, i64 lo, i64 hi) {
  const i64 len = hi - lo + 1;
  if (len <= 0) return 0;
  const i64 cycle = dec.effective_block(d) * dec.dim(d).nprocs;
  const i64 cycles = len / cycle + 2;
  return std::min<i64>(len, cycles * dec.dim(d).nprocs);
}

DimAdjacency dim_adjacency(const Decomposition& src, const Decomposition& dst,
                           int d, i64 lo, i64 hi) {
  const i64 src_segs = segment_estimate(src, d, lo, hi);
  const i64 sweep_cost = src_segs + segment_estimate(dst, d, lo, hi);
  const i64 allpairs_cost =
      static_cast<i64>(src.dim(d).nprocs) * dst.dim(d).nprocs +
      static_cast<i64>(dst.dim(d).nprocs) * src_segs;
  // The sweep wins whenever segment counts track proc counts (blocked
  // layouts — the common case). An element-cyclic dst over a huge domain
  // with few procs is the one shape where enumerating its segments costs
  // more than the closed-form pair table; keep the old build there.
  if (sweep_cost <= allpairs_cost) {
    return dim_adjacency_sweep(src, dst, d, lo, hi);
  }
  return dim_adjacency_allpairs(src, dst, d, lo, hi);
}

}  // namespace

namespace {

std::vector<TransferVolume> volumes_from_adjacency(
    const std::vector<DimAdjacency>& per_dim, const Decomposition& src,
    const Decomposition& dst) {
  using Row = std::vector<std::pair<i32, i64>>;
  const int nd = src.ndim();
  // Row-major dst rank strides (last dimension fastest).
  std::array<i64, kMaxDims> stride{};
  i64 s = 1;
  for (int d = nd - 1; d >= 0; --d) {
    stride[static_cast<size_t>(d)] = s;
    s *= dst.dim(d).nprocs;
  }
  // Src ranks cover the whole process grid, so the pair count is the
  // product over dimensions of each dimension's adjacency entries.
  u64 total = 1;
  for (const DimAdjacency& dim : per_dim) {
    u64 entries = 0;
    for (const Row& row : dim.adj) entries += row.size();
    total *= entries;
  }
  std::vector<TransferVolume> out;
  out.reserve(total);
  // Enumerate src ranks; for each, walk the product of its per-dim
  // adjacency lists as an odometer, so only non-zero (src, dst) pairs are
  // touched. rank[d] and cells[d] hold the dst rank and cell product of
  // dimensions before d, so a step recomputes only the dimensions it
  // changed: O(1) per volume in the common case.
  std::array<const Row*, kMaxDims> rows{};
  std::array<size_t, kMaxDims> idx{};
  std::array<i64, kMaxDims + 1> rank{};
  std::array<u64, kMaxDims + 1> cells{};
  cells[0] = 1;
  for (i32 sa = 0; sa < src.ntasks(); ++sa) {
    const Point ga = src.rank_to_grid(sa);
    bool empty = false;
    for (int d = 0; d < nd && !empty; ++d) {
      rows[static_cast<size_t>(d)] =
          &per_dim[static_cast<size_t>(d)].adj[static_cast<size_t>(ga[d])];
      empty = rows[static_cast<size_t>(d)]->empty();
    }
    if (empty) continue;
    int d = 0;  // idx is all zero: the previous walk wrapped every digit
    for (;;) {
      for (; d < nd; ++d) {
        const auto& [rb, cnt] =
            (*rows[static_cast<size_t>(d)])[idx[static_cast<size_t>(d)]];
        rank[static_cast<size_t>(d) + 1] =
            rank[static_cast<size_t>(d)] + rb * stride[static_cast<size_t>(d)];
        cells[static_cast<size_t>(d) + 1] =
            cells[static_cast<size_t>(d)] * static_cast<u64>(cnt);
      }
      out.push_back(TransferVolume{
          sa, static_cast<i32>(rank[static_cast<size_t>(nd)]),
          cells[static_cast<size_t>(nd)]});
      for (d = nd - 1; d >= 0; --d) {
        if (++idx[static_cast<size_t>(d)] <
            rows[static_cast<size_t>(d)]->size())
          break;
        idx[static_cast<size_t>(d)] = 0;
      }
      if (d < 0) break;
    }
  }
  return out;
}

}  // namespace

std::vector<TransferVolume> redistribution_volumes(
    const Decomposition& src, const Decomposition& dst,
    const std::optional<Box>& region) {
  CODS_REQUIRE(src.ndim() == dst.ndim(),
               "coupled decompositions must share dimensionality");
  const int nd = src.ndim();
  const Box window = region ? *region : src.domain_box();
  CODS_REQUIRE(window.ndim() == nd, "region dimensionality mismatch");
  std::vector<DimAdjacency> per_dim;
  per_dim.reserve(static_cast<size_t>(nd));
  for (int d = 0; d < nd; ++d) {
    per_dim.push_back(dim_adjacency(src, dst, d, window.lb[d], window.ub[d]));
  }
  return volumes_from_adjacency(per_dim, src, dst);
}

std::vector<Segment> intersect_segments(const std::vector<Segment>& a,
                                        const std::vector<Segment>& b) {
  std::vector<Segment> out;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const i64 lo = std::max(a[i].first, b[j].first);
    const i64 hi = std::min(a[i].second, b[j].second);
    if (lo <= hi) out.emplace_back(lo, hi);
    if (a[i].second < b[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

std::vector<Box> overlap_boxes(const Decomposition& src, i32 sa,
                               const Decomposition& dst, i32 db,
                               const std::optional<Box>& region,
                               size_t max_boxes) {
  CODS_REQUIRE(src.ndim() == dst.ndim(),
               "coupled decompositions must share dimensionality");
  const int nd = src.ndim();
  const Box window = region ? *region : src.domain_box();
  const Point ga = src.rank_to_grid(sa);
  const Point gb = dst.rank_to_grid(db);

  std::vector<std::vector<Segment>> per_dim(static_cast<size_t>(nd));
  size_t count = 1;
  for (int d = 0; d < nd; ++d) {
    const auto sd = src.owned_segments_dim(d, static_cast<i32>(ga[d]),
                                           window.lb[d], window.ub[d]);
    const auto dd = dst.owned_segments_dim(d, static_cast<i32>(gb[d]),
                                           window.lb[d], window.ub[d]);
    per_dim[static_cast<size_t>(d)] = intersect_segments(sd, dd);
    count *= per_dim[static_cast<size_t>(d)].size();
    if (count == 0) return {};
    CODS_CHECK(count <= max_boxes, "overlap enumeration exceeds max_boxes");
  }

  std::vector<Box> out;
  out.reserve(count);
  std::array<size_t, kMaxDims> idx{};
  for (;;) {
    Box b;
    b.lb = Point::zeros(nd);
    b.ub = Point::zeros(nd);
    for (int d = 0; d < nd; ++d) {
      const Segment& s =
          per_dim[static_cast<size_t>(d)][idx[static_cast<size_t>(d)]];
      b.lb[d] = s.first;
      b.ub[d] = s.second;
    }
    out.push_back(b);
    int d = nd - 1;
    for (; d >= 0; --d) {
      if (++idx[static_cast<size_t>(d)] < per_dim[static_cast<size_t>(d)].size())
        break;
      idx[static_cast<size_t>(d)] = 0;
    }
    if (d < 0) break;
  }
  return out;
}

u64 total_cells(const std::vector<TransferVolume>& transfers) {
  u64 total = 0;
  for (const TransferVolume& t : transfers) total += t.cells;
  return total;
}

}  // namespace cods
