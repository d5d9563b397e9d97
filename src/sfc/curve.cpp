#include "sfc/curve.hpp"

#include <algorithm>

namespace cods {

namespace {

// Skilling's transpose representation: X[i] holds the i-th coordinate's
// `bits` bits; after axes_to_transpose the Hilbert index is the MSB-first
// interleave of X[0..n).
void axes_to_transpose(u32* x, int bits, int n) {
  const u32 m = u32{1} << (bits - 1);
  // Inverse undo.
  for (u32 q = m; q > 1; q >>= 1) {
    const u32 p = q - 1;
    for (int i = 0; i < n; ++i) {
      if (x[i] & q) {
        x[0] ^= p;  // invert
      } else {
        const u32 t = (x[0] ^ x[i]) & p;
        x[0] ^= t;
        x[i] ^= t;
      }
    }
  }
  // Gray encode.
  for (int i = 1; i < n; ++i) x[i] ^= x[i - 1];
  u32 t = 0;
  for (u32 q = m; q > 1; q >>= 1) {
    if (x[n - 1] & q) t ^= q - 1;
  }
  for (int i = 0; i < n; ++i) x[i] ^= t;
}

void transpose_to_axes(u32* x, int bits, int n) {
  const u32 N = u32{2} << (bits - 1);
  // Gray decode by H ^ (H/2).
  u32 t = x[n - 1] >> 1;
  for (int i = n - 1; i > 0; --i) x[i] ^= x[i - 1];
  x[0] ^= t;
  // Undo excess work.
  for (u32 q = 2; q != N; q <<= 1) {
    const u32 p = q - 1;
    for (int i = n - 1; i >= 0; --i) {
      if (x[i] & q) {
        x[0] ^= p;
      } else {
        const u32 t2 = (x[0] ^ x[i]) & p;
        x[0] ^= t2;
        x[i] ^= t2;
      }
    }
  }
}

u64 interleave(const u32* x, int bits, int n) {
  u64 out = 0;
  for (int bit = bits - 1; bit >= 0; --bit) {
    for (int i = 0; i < n; ++i) {
      out = (out << 1) | ((x[i] >> bit) & 1u);
    }
  }
  return out;
}

void deinterleave(u64 index, u32* x, int bits, int n) {
  for (int i = 0; i < n; ++i) x[i] = 0;
  for (int bit = bits - 1; bit >= 0; --bit) {
    for (int i = 0; i < n; ++i) {
      const int shift = bit * n + (n - 1 - i);
      x[i] |= static_cast<u32>((index >> shift) & 1u) << bit;
    }
  }
}

}  // namespace

SfcCurve::SfcCurve(CurveKind kind, int ndim, int bits)
    : kind_(kind), ndim_(ndim), bits_(bits) {
  CODS_REQUIRE(ndim >= 1 && ndim <= kMaxDims, "curve dimension out of range");
  CODS_REQUIRE(bits >= 1 && ndim * bits <= 62, "curve bits out of range");
}

u64 SfcCurve::encode(const Point& p) const {
  CODS_REQUIRE(p.nd == ndim_, "point dimensionality mismatch");
  u32 x[kMaxDims] = {};
  for (int i = 0; i < ndim_; ++i) {
    CODS_REQUIRE(p[i] >= 0 && p[i] < side(), "coordinate outside curve grid");
    x[i] = static_cast<u32>(p[i]);
  }
  if (ndim_ == 1) return static_cast<u64>(x[0]);
  if (kind_ == CurveKind::kHilbert) axes_to_transpose(x, bits_, ndim_);
  return interleave(x, bits_, ndim_);
}

Point SfcCurve::decode(u64 index) const {
  CODS_REQUIRE(index < size(), "index outside curve");
  Point p = Point::zeros(ndim_);
  if (ndim_ == 1) {
    p[0] = static_cast<i64>(index);
    return p;
  }
  u32 x[kMaxDims] = {};
  deinterleave(index, x, bits_, ndim_);
  if (kind_ == CurveKind::kHilbert) transpose_to_axes(x, bits_, ndim_);
  for (int i = 0; i < ndim_; ++i) p[i] = x[i];
  return p;
}

int SfcCurve::bits_for_extent(i64 extent) {
  CODS_REQUIRE(extent >= 1, "extent must be positive");
  int bits = 1;
  while ((i64{1} << bits) < extent) ++bits;
  return bits;
}

namespace {

struct SpanCollector {
  const SfcCurve& curve;
  const Box& query;
  std::vector<IndexSpan> spans;

  // cube: anchored at `anchor` with side 2^side_log2.
  void visit(const Point& anchor, int side_log2) {
    // Intersection test against query.
    const i64 side = i64{1} << side_log2;
    bool inside = true;
    for (int d = 0; d < curve.ndim(); ++d) {
      const i64 lo = anchor[d];
      const i64 hi = anchor[d] + side - 1;
      if (hi < query.lb[d] || lo > query.ub[d]) return;  // disjoint
      if (lo < query.lb[d] || hi > query.ub[d]) inside = false;
    }
    if (inside || side_log2 == 0) {
      // Aligned subcube => contiguous aligned index range.
      const u64 cells = u64{1} << (curve.ndim() * side_log2);
      const u64 base = curve.encode(anchor) & ~(cells - 1);
      spans.push_back(IndexSpan{base, base + cells - 1});
      return;
    }
    // Recurse into the 2^ndim children.
    const i64 half = side / 2;
    const int nchild = 1 << curve.ndim();
    for (int c = 0; c < nchild; ++c) {
      Point child = anchor;
      for (int d = 0; d < curve.ndim(); ++d) {
        if (c & (1 << d)) child[d] += half;
      }
      visit(child, side_log2 - 1);
    }
  }
};

/// Sorted, merged spans covering exactly the cells of `query`.
std::vector<IndexSpan> exact_spans(const SfcCurve& curve, const Box& query) {
  SpanCollector collector{curve, query, {}};
  collector.visit(Point::zeros(curve.ndim()), curve.bits());
  auto& spans = collector.spans;
  std::sort(spans.begin(), spans.end(),
            [](const IndexSpan& a, const IndexSpan& b) { return a.lo < b.lo; });
  // Merge adjacent/overlapping spans, in place.
  size_t merged = 0;
  for (const IndexSpan& s : spans) {
    if (merged > 0 && s.lo <= spans[merged - 1].hi + 1) {
      spans[merged - 1].hi = std::max(spans[merged - 1].hi, s.hi);
    } else {
      spans[merged++] = s;
    }
  }
  spans.resize(merged);
  return std::move(spans);
}

}  // namespace

std::vector<IndexSpan> box_spans(const SfcCurve& curve, const Box& query,
                                 int min_side_log2) {
  CODS_REQUIRE(query.ndim() == curve.ndim(),
               "query dimensionality mismatch");
  CODS_REQUIRE(query.valid(), "query box is empty");
  CODS_REQUIRE(min_side_log2 >= 0 && min_side_log2 <= curve.bits(),
               "span granularity out of range");
  const int g = min_side_log2;
  if (g == 0) return exact_spans(curve, query);
  // The cells of side 2^g that meet the query are exactly the cells of
  // the coarse query q >> g (floor division keeps this true for
  // coordinates outside the grid). By the coarsening identity in
  // curve.hpp, the fine indices of the cell with coarse index c are
  // [c, c + 1) * 2^(ndim*g). So the coarse query's exact spans, scaled,
  // cover the same fine indices as covering each such cell whole, and
  // both lists come out merged, hence equal.
  Box coarse_query = query;
  for (int d = 0; d < curve.ndim(); ++d) {
    coarse_query.lb[d] >>= g;
    coarse_query.ub[d] >>= g;
  }
  if (g == curve.bits()) {
    // One coarse cell: the whole curve, if the query meets the grid.
    for (int d = 0; d < curve.ndim(); ++d) {
      if (coarse_query.ub[d] < 0 || coarse_query.lb[d] > 0) return {};
    }
    return {IndexSpan{0, curve.size() - 1}};
  }
  const SfcCurve coarse(curve.kind(), curve.ndim(), curve.bits() - g);
  std::vector<IndexSpan> spans = exact_spans(coarse, coarse_query);
  const int shift = curve.ndim() * g;
  for (IndexSpan& s : spans) {
    s.lo <<= shift;
    s.hi = ((s.hi + 1) << shift) - 1;
  }
  return spans;
}

u64 span_cells(const std::vector<IndexSpan>& spans) {
  u64 total = 0;
  for (const IndexSpan& s : spans) total += s.hi - s.lo + 1;
  return total;
}

}  // namespace cods
