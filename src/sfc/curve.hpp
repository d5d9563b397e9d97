// Space-filling curves over a 2^bits x ... x 2^bits cell grid, used to
// linearize the application's Cartesian domain into the 1-D index space
// that backs the CoDS distributed hash table (paper §IV-A, Fig. 6).
//
// Hilbert encoding follows Skilling's transpose algorithm ("Programming the
// Hilbert curve", AIP Conf. Proc. 707, 2004). A Morton (Z-order) curve is
// provided for the locality ablation study.
//
// Both curves share the aligned-subcube property: an axis-aligned subcube of
// side 2^k occupies one contiguous, 2^(n*k)-aligned index range. box_spans()
// exploits this to turn a bounding-box query into a short list of index
// spans without visiting individual cells.
//
// Both curves also coarsen exactly: for g in [0, bits),
//   SfcCurve(kind, n, bits).encode(p) >> (n*g)
//       == SfcCurve(kind, n, bits - g).encode(p >> g),
// i.e. the top n*(bits-g) index bits are the coarse curve's index of the
// cell of side 2^g holding p. For Morton this is the bit interleave. For
// Hilbert, Skilling's step at bit q rewrites only bits below q, and the
// Gray code and the final XOR mask of a high bit depend only on higher
// bits, so the top levels never see the low ones. box_spans() with
// min_side_log2 = g > 0 runs on the coarse curve because of this.
#pragma once

#include <vector>

#include "geometry/box.hpp"

namespace cods {

enum class CurveKind { kHilbert, kMorton };

/// A contiguous inclusive range [lo, hi] of SFC indices.
struct IndexSpan {
  u64 lo = 0;
  u64 hi = 0;

  friend bool operator==(const IndexSpan& a, const IndexSpan& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
};

/// Space-filling curve over an ndim-dimensional grid with 2^bits cells per
/// dimension. Total index space size is 2^(ndim*bits), which must fit u64.
class SfcCurve {
 public:
  SfcCurve(CurveKind kind, int ndim, int bits);

  CurveKind kind() const { return kind_; }
  int ndim() const { return ndim_; }
  int bits() const { return bits_; }

  /// Number of indices in the curve: 2^(ndim*bits).
  u64 size() const { return u64{1} << (ndim_ * bits_); }

  /// Side length of the grid: 2^bits.
  i64 side() const { return i64{1} << bits_; }

  /// Point (each coordinate in [0, 2^bits)) -> curve index.
  u64 encode(const Point& p) const;

  /// Curve index -> point. Inverse of encode.
  Point decode(u64 index) const;

  /// Smallest bits value whose grid covers `extent` cells per dimension.
  static int bits_for_extent(i64 extent);

 private:
  CurveKind kind_;
  int ndim_;
  int bits_;
};

/// Decomposes a box query into the sorted, merged list of curve index spans
/// covering exactly the box's cells. `min_side_log2` = g > 0 coarsens the
/// result: every aligned subcube of side 2^g that merely intersects the
/// query is covered whole, trading span count for over-coverage
/// (CodsDht::owner_nodes routes queries by the owners of these cells, but
/// walks the subcubes itself instead of listing spans). It is computed as the
/// exact spans of the query's coarse cells on the curve with bits - g
/// levels, each scaled by 2^(ndim*g).
std::vector<IndexSpan> box_spans(const SfcCurve& curve, const Box& query,
                                 int min_side_log2 = 0);

/// Total number of indices covered by a span list.
u64 span_cells(const std::vector<IndexSpan>& spans);

}  // namespace cods
