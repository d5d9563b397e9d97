#include "geometry/decomposition.hpp"

#include <algorithm>
#include <array>

namespace cods {

std::string to_string(Dist dist) {
  switch (dist) {
    case Dist::kBlocked: return "blocked";
    case Dist::kCyclic: return "cyclic";
    case Dist::kBlockCyclic: return "block-cyclic";
  }
  return "?";
}

namespace {

i64 ceil_div(i64 a, i64 b) { return (a + b - 1) / b; }

/// Count of integers j in [a, b] with j % p == r (all non-negative).
i64 count_congruent(i64 a, i64 b, i64 p, i64 r) {
  if (a > b) return 0;
  auto upto = [&](i64 x) -> i64 {  // count j in [0, x] with j % p == r
    if (x < r) return 0;
    return (x - r) / p + 1;
  };
  return upto(b) - (a > 0 ? upto(a - 1) : 0);
}

}  // namespace

Decomposition::Decomposition(std::vector<i64> extents, std::vector<i32> procs,
                             Dist dist, i64 block) {
  CODS_REQUIRE(extents.size() == procs.size(),
               "extent/process tuples must have equal length");
  dims_.reserve(extents.size());
  for (size_t d = 0; d < extents.size(); ++d) {
    dims_.push_back(DimSpec{extents[d], procs[d], dist, block});
  }
  validate();
}

Decomposition::Decomposition(std::vector<DimSpec> dims)
    : dims_(std::move(dims)) {
  validate();
}

void Decomposition::validate() {
  CODS_REQUIRE(!dims_.empty() && dims_.size() <= kMaxDims,
               "decomposition dimension out of range");
  i64 ntasks = 1;
  for (const DimSpec& ds : dims_) {
    CODS_REQUIRE(ds.extent >= 1, "domain extent must be positive");
    CODS_REQUIRE(ds.nprocs >= 1, "process count must be positive");
    if (ds.dist == Dist::kBlockCyclic) {
      CODS_REQUIRE(ds.block >= 1, "block size must be positive");
    }
    ntasks *= ds.nprocs;
    CODS_REQUIRE(ntasks <= (1 << 24), "too many tasks");
  }
  ntasks_ = static_cast<i32>(ntasks);
}

Box Decomposition::domain_box() const {
  Box b;
  b.lb = Point::zeros(ndim());
  b.ub = Point::zeros(ndim());
  for (int d = 0; d < ndim(); ++d) b.ub[d] = dim(d).extent - 1;
  return b;
}

u64 Decomposition::domain_cells() const {
  u64 v = 1;
  for (int d = 0; d < ndim(); ++d) v *= static_cast<u64>(dim(d).extent);
  return v;
}

i64 Decomposition::effective_block(int d) const {
  const DimSpec& ds = dim(d);
  switch (ds.dist) {
    case Dist::kBlocked: return ceil_div(ds.extent, ds.nprocs);
    case Dist::kCyclic: return 1;
    case Dist::kBlockCyclic: return ds.block;
  }
  return 1;
}

Point Decomposition::rank_to_grid(i32 rank) const {
  CODS_REQUIRE(rank >= 0 && rank < ntasks_, "rank out of range");
  Point g = Point::zeros(ndim());
  i32 rest = rank;
  for (int d = ndim() - 1; d >= 0; --d) {
    g[d] = rest % dim(d).nprocs;
    rest /= dim(d).nprocs;
  }
  return g;
}

i32 Decomposition::grid_to_rank(const Point& grid) const {
  CODS_REQUIRE(grid.nd == ndim(), "grid coordinate dimensionality mismatch");
  i64 rank = 0;
  for (int d = 0; d < ndim(); ++d) {
    CODS_REQUIRE(grid[d] >= 0 && grid[d] < dim(d).nprocs,
                 "grid coordinate out of range");
    rank = rank * dim(d).nprocs + grid[d];
  }
  return static_cast<i32>(rank);
}

i32 Decomposition::owner_in_dim(int d, i64 x) const {
  CODS_REQUIRE(x >= 0 && x < dim(d).extent, "cell coordinate out of range");
  return static_cast<i32>((x / effective_block(d)) % dim(d).nprocs);
}

i32 Decomposition::owner_of(const Point& cell) const {
  CODS_REQUIRE(cell.nd == ndim(), "cell dimensionality mismatch");
  Point g = Point::zeros(ndim());
  for (int d = 0; d < ndim(); ++d) g[d] = owner_in_dim(d, cell[d]);
  return grid_to_rank(g);
}

i64 Decomposition::owned_count_dim(int d, i32 r) const {
  return owned_count_dim_in(d, r, 0, dim(d).extent - 1);
}

i64 Decomposition::owned_count_dim_in(int d, i32 r, i64 lo, i64 hi) const {
  const DimSpec& ds = dim(d);
  CODS_REQUIRE(r >= 0 && r < ds.nprocs, "process coordinate out of range");
  lo = std::max<i64>(lo, 0);
  hi = std::min<i64>(hi, ds.extent - 1);
  if (lo > hi) return 0;
  const i64 b = effective_block(d);
  const i64 p = ds.nprocs;
  const i64 jlo = lo / b;
  const i64 jhi = hi / b;
  const i64 nblocks = count_congruent(jlo, jhi, p, r);
  if (nblocks == 0) return 0;
  i64 total = nblocks * b;
  if (jlo % p == r) total -= lo - jlo * b;  // trim head of first block
  if (jhi % p == r) total -= jhi * b + b - 1 - hi;  // trim tail of last block
  return total;
}

u64 Decomposition::owned_cells(i32 rank) const {
  return owned_cells_in(rank, domain_box());
}

u64 Decomposition::owned_cells_in(i32 rank, const Box& region) const {
  CODS_REQUIRE(region.ndim() == ndim(), "region dimensionality mismatch");
  const Point g = rank_to_grid(rank);
  u64 v = 1;
  for (int d = 0; d < ndim(); ++d) {
    v *= static_cast<u64>(owned_count_dim_in(d, static_cast<i32>(g[d]),
                                             region.lb[d], region.ub[d]));
    if (v == 0) return 0;
  }
  return v;
}

std::vector<Segment> Decomposition::owned_segments_dim(int d, i32 r, i64 lo,
                                                       i64 hi) const {
  std::vector<Segment> segments;
  append_owned_segments(d, r, lo, hi, segments);
  return segments;
}

void Decomposition::append_owned_segments(int d, i32 r, i64 lo, i64 hi,
                                          std::vector<Segment>& out) const {
  const DimSpec& ds = dim(d);
  CODS_REQUIRE(r >= 0 && r < ds.nprocs, "process coordinate out of range");
  lo = std::max<i64>(lo, 0);
  hi = std::min<i64>(hi, ds.extent - 1);
  if (lo > hi) return;
  const i64 b = effective_block(d);
  const i64 p = ds.nprocs;
  // First block index >= lo/b that is congruent to r (mod p).
  i64 j = lo / b;
  j += (r - j % p + p) % p;
  for (; j * b <= hi; j += p) {
    const i64 s = std::max(lo, j * b);
    const i64 e = std::min(hi, j * b + b - 1);
    if (s <= e) out.emplace_back(s, e);
  }
}

std::vector<Box> Decomposition::owned_boxes(i32 rank,
                                            size_t max_boxes) const {
  return owned_boxes_in(rank, domain_box(), max_boxes);
}

std::vector<Box> Decomposition::owned_boxes_in(i32 rank, const Box& region,
                                               size_t max_boxes) const {
  CODS_REQUIRE(region.ndim() == ndim(), "region dimensionality mismatch");
  const Point g = rank_to_grid(rank);
  // Every dimension's segments in one reused buffer: dimension d owns
  // segments[first[d], first[d + 1]). Called per rank on every put and
  // get (AppCtx::my_boxes), so the only allocation left is the result.
  static thread_local std::vector<Segment> segments;
  // An element-cyclic layout of a huge domain can need millions of
  // segments; do not keep that much memory pinned after such a call.
  if (segments.capacity() > 4096) segments = {};
  segments.clear();
  std::array<size_t, kMaxDims + 1> first{};
  size_t count = 1;
  for (int d = 0; d < ndim(); ++d) {
    const auto du = static_cast<size_t>(d);
    first[du] = segments.size();
    append_owned_segments(d, static_cast<i32>(g[d]), region.lb[d],
                          region.ub[d], segments);
    count *= segments.size() - first[du];
    if (count == 0) return {};
    CODS_CHECK(count <= max_boxes,
               "ownership enumeration exceeds max_boxes; use the analytic "
               "overlap counting path instead");
  }
  first[static_cast<size_t>(ndim())] = segments.size();
  std::vector<Box> boxes;
  boxes.reserve(count);
  // Odometer over the per-dimension segments, last dimension fastest.
  std::array<size_t, kMaxDims> idx{};  // absolute segment indices
  std::copy_n(first.begin(), kMaxDims, idx.begin());
  for (;;) {
    Box b;
    b.lb = Point::zeros(ndim());
    b.ub = Point::zeros(ndim());
    for (int d = 0; d < ndim(); ++d) {
      const Segment& s = segments[idx[static_cast<size_t>(d)]];
      b.lb[d] = s.first;
      b.ub[d] = s.second;
    }
    boxes.push_back(b);
    int d = ndim() - 1;
    for (; d >= 0; --d) {
      const auto du = static_cast<size_t>(d);
      if (++idx[du] < first[du + 1]) break;
      idx[du] = first[du];
    }
    if (d < 0) break;
  }
  return boxes;
}

i64 Decomposition::dim_overlap(int d, i32 ra, const Decomposition& other,
                               i32 rb) const {
  CODS_REQUIRE(dim(d).extent == other.dim(d).extent,
               "coupled decompositions must share the domain extent");
  // Iterate the side with fewer ownership segments; count the other side
  // inside each segment with the O(1) closed form.
  const i64 extent = dim(d).extent;
  const i64 period_a = effective_block(d) * dim(d).nprocs;
  const i64 period_b = other.effective_block(d) * other.dim(d).nprocs;
  const Decomposition* iter = this;
  const Decomposition* count = &other;
  i32 ri = ra;
  i32 rc = rb;
  if (period_b > period_a) {  // fewer segments on the larger-period side
    std::swap(iter, count);
    std::swap(ri, rc);
  }
  i64 total = 0;
  for (const Segment& s : iter->owned_segments_dim(d, ri, 0, extent - 1)) {
    total += count->owned_count_dim_in(d, rc, s.first, s.second);
  }
  return total;
}

std::string Decomposition::to_string() const {
  std::string s = "dec{";
  for (int d = 0; d < ndim(); ++d) {
    if (d) s += " x ";
    const DimSpec& ds = dim(d);
    s += std::to_string(ds.extent) + "/" + std::to_string(ds.nprocs) + ":" +
         cods::to_string(ds.dist);
    if (ds.dist == Dist::kBlockCyclic) {
      // Appending the pieces separately sidesteps a GCC 12 -Wrestrict
      // false positive on the chained-temporary form (GCC PR105651).
      s += "(";
      s += std::to_string(ds.block);
      s += ")";
    }
  }
  return s + "}";
}

bool operator==(const Decomposition& a, const Decomposition& b) {
  if (a.ndim() != b.ndim()) return false;
  for (int d = 0; d < a.ndim(); ++d) {
    const DimSpec& x = a.dim(d);
    const DimSpec& y = b.dim(d);
    if (x.extent != y.extent || x.nprocs != y.nprocs || x.dist != y.dist)
      return false;
    if (x.dist == Dist::kBlockCyclic && x.block != y.block) return false;
  }
  return true;
}

Decomposition blocked(std::vector<i64> extents, std::vector<i32> procs) {
  return Decomposition(std::move(extents), std::move(procs), Dist::kBlocked);
}

}  // namespace cods
