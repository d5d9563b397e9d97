// Oracles for box_spans' coarse path: min_side_log2 = g > 0 runs the span
// recursion on the curve with bits - g levels and scales the result. That
// rests on the coarsening identity (curve.hpp), checked here exhaustively
// on small curves, and must give the spans of the fine-curve recursion it
// replaced, kept below as a test-local copy.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "sfc/curve.hpp"

namespace cods {
namespace {

Point shifted(const Point& p, int g) {
  Point out = p;
  for (int d = 0; d < p.nd; ++d) out[d] >>= g;
  return out;
}

class CoarseningIdentity
    : public ::testing::TestWithParam<std::tuple<CurveKind, int>> {};

TEST_P(CoarseningIdentity, TopIndexBitsAreTheCoarseCurvesIndex) {
  const auto& [kind, nd] = GetParam();
  // Largest bits with at most 2^12 points: every point of every curve.
  for (int bits = 1; nd * bits <= 12; ++bits) {
    const SfcCurve curve(kind, nd, bits);
    for (int g = 0; g <= bits; ++g) {
      const int shift = nd * g;
      for (u64 i = 0; i < curve.size(); ++i) {
        const Point p = curve.decode(i);
        const u64 fine = curve.encode(p);
        ASSERT_EQ(fine, i);
        if (g == bits) {
          // The 0-level curve has one cell, index 0.
          ASSERT_EQ(fine >> shift, 0u);
          continue;
        }
        const SfcCurve coarse(kind, nd, bits - g);
        ASSERT_EQ(fine >> shift, coarse.encode(shifted(p, g)))
            << "bits " << bits << ", g " << g << ", index " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CoarseningIdentity,
    ::testing::Combine(::testing::Values(CurveKind::kHilbert,
                                         CurveKind::kMorton),
                       ::testing::Values(2, 3, 4)));

// The fine-curve recursion box_spans ran before the coarse path: subcubes
// are emitted whole when inside the query or, at side 2^g, when they
// merely intersect it; each anchor is encoded through all `bits` levels.
struct ReferenceCollector {
  const SfcCurve& curve;
  const Box& query;
  int min_side_log2;
  std::vector<IndexSpan> spans;

  void visit(const Point& anchor, int side_log2) {
    const i64 side = i64{1} << side_log2;
    bool inside = true;
    for (int d = 0; d < curve.ndim(); ++d) {
      const i64 lo = anchor[d];
      const i64 hi = anchor[d] + side - 1;
      if (hi < query.lb[d] || lo > query.ub[d]) return;
      if (lo < query.lb[d] || hi > query.ub[d]) inside = false;
    }
    if (inside || (side_log2 <= min_side_log2 && side_log2 > 0) ||
        side_log2 == 0) {
      const u64 cells = u64{1} << (curve.ndim() * side_log2);
      const u64 base = curve.encode(anchor) & ~(cells - 1);
      spans.push_back(IndexSpan{base, base + cells - 1});
      return;
    }
    const i64 half = side / 2;
    for (int c = 0; c < (1 << curve.ndim()); ++c) {
      Point child = anchor;
      for (int d = 0; d < curve.ndim(); ++d) {
        if (c & (1 << d)) child[d] += half;
      }
      visit(child, side_log2 - 1);
    }
  }
};

std::vector<IndexSpan> reference_spans(const SfcCurve& curve, const Box& query,
                                       int min_side_log2) {
  ReferenceCollector collector{curve, query, min_side_log2, {}};
  collector.visit(Point::zeros(curve.ndim()), curve.bits());
  auto spans = collector.spans;
  std::sort(spans.begin(), spans.end(),
            [](const IndexSpan& a, const IndexSpan& b) { return a.lo < b.lo; });
  std::vector<IndexSpan> merged;
  for (const IndexSpan& s : spans) {
    if (!merged.empty() && s.lo <= merged.back().hi + 1) {
      merged.back().hi = std::max(merged.back().hi, s.hi);
    } else {
      merged.push_back(s);
    }
  }
  return merged;
}

/// A random box with corners in [lo, hi] per dimension.
Box random_box(Rng& rng, int nd, i64 lo, i64 hi) {
  Box q;
  q.lb = Point::zeros(nd);
  q.ub = Point::zeros(nd);
  for (int d = 0; d < nd; ++d) {
    const i64 a = rng.range(lo, hi);
    const i64 b = rng.range(lo, hi);
    q.lb[d] = std::min(a, b);
    q.ub[d] = std::max(a, b);
  }
  return q;
}

class CoarseSpans
    : public ::testing::TestWithParam<std::tuple<CurveKind, int>> {};

TEST_P(CoarseSpans, MatchFineCurveRecursionAtEveryGranularity) {
  const auto& [kind, nd] = GetParam();
  Rng rng(static_cast<u64>(1000 + nd));
  for (int bits = 1; bits <= 16 / nd; ++bits) {
    const SfcCurve curve(kind, nd, bits);
    for (int g = 0; g <= bits; ++g) {
      for (int trial = 0; trial < 25; ++trial) {
        const Box q = random_box(rng, nd, 0, curve.side() - 1);
        ASSERT_EQ(box_spans(curve, q, g), reference_spans(curve, q, g))
            << "bits " << bits << ", g " << g << ", box " << q.to_string();
      }
    }
  }
}

TEST_P(CoarseSpans, MatchFineCurveRecursionForBoxesPastTheGrid) {
  // Queries that stick out of the grid on either side (floor division of
  // negative corners) or miss it entirely.
  const auto& [kind, nd] = GetParam();
  Rng rng(static_cast<u64>(2000 + nd));
  const int bits = std::min(5, 16 / nd);
  const SfcCurve curve(kind, nd, bits);
  for (int g = 0; g <= bits; ++g) {
    for (int trial = 0; trial < 40; ++trial) {
      const Box q =
          random_box(rng, nd, -curve.side() / 2, curve.side() * 3 / 2);
      ASSERT_EQ(box_spans(curve, q, g), reference_spans(curve, q, g))
          << "g " << g << ", box " << q.to_string();
    }
  }
}

TEST_P(CoarseSpans, WholeCurveAtFullGranularity) {
  const auto& [kind, nd] = GetParam();
  const SfcCurve curve(kind, nd, 3);
  Box cell;
  cell.lb = Point::zeros(nd);
  cell.ub = Point::zeros(nd);
  for (int d = 0; d < nd; ++d) cell.lb[d] = cell.ub[d] = 5;
  ASSERT_EQ(box_spans(curve, cell, 3),
            (std::vector<IndexSpan>{{0, curve.size() - 1}}));
  for (int d = 0; d < nd; ++d) cell.lb[d] = cell.ub[d] = 8;  // off the grid
  EXPECT_TRUE(box_spans(curve, cell, 3).empty());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CoarseSpans,
    ::testing::Combine(::testing::Values(CurveKind::kHilbert,
                                         CurveKind::kMorton),
                       ::testing::Values(1, 2, 3, 4)));

}  // namespace
}  // namespace cods
