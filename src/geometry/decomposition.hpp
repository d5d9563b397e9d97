// Data decomposition descriptors (paper §III-B): a regular n-D domain, a
// process layout, a distribution type and a block size. The three supported
// distributions — blocked, cyclic and block-cyclic — are unified as
// block-cyclic with different block sizes (HPF semantics):
//   blocked      : block = ceil(extent / nprocs), a single cycle
//   cyclic       : block = 1
//   block-cyclic : user-specified block
// Along each dimension, cell x belongs to process coordinate
// (x / block) mod nprocs; ownership therefore factorizes per dimension,
// which the overlap computations below exploit.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "geometry/box.hpp"

namespace cods {

enum class Dist { kBlocked, kCyclic, kBlockCyclic };

std::string to_string(Dist dist);

/// Per-dimension slice of a decomposition.
struct DimSpec {
  i64 extent = 0;   ///< domain size along this dimension (s_i in the paper)
  i32 nprocs = 1;   ///< process layout along this dimension (p_i)
  Dist dist = Dist::kBlocked;
  i64 block = 1;    ///< block size (only consulted for kBlockCyclic)
};

/// An inclusive cell interval [lo, hi] along one dimension.
using Segment = std::pair<i64, i64>;

/// Describes how a regular multidimensional domain is partitioned among the
/// computation tasks of one data-parallel application.
class Decomposition {
 public:
  Decomposition() = default;

  /// Uniform constructor: same distribution type in every dimension.
  /// `extents` and `procs` must have equal size in [1, kMaxDims].
  Decomposition(std::vector<i64> extents, std::vector<i32> procs, Dist dist,
                i64 block = 1);

  /// Fully general per-dimension constructor.
  explicit Decomposition(std::vector<DimSpec> dims);

  int ndim() const { return static_cast<int>(dims_.size()); }
  const DimSpec& dim(int d) const { return dims_[static_cast<size_t>(d)]; }

  /// Total number of tasks (product of the process layout).
  i32 ntasks() const { return ntasks_; }

  /// The whole domain as a box anchored at the origin.
  Box domain_box() const;

  /// Total number of cells in the domain.
  u64 domain_cells() const;

  /// Effective block size along dimension d after resolving the dist type.
  i64 effective_block(int d) const;

  /// Row-major rank <-> process-grid coordinate conversions
  /// (last dimension varies fastest).
  Point rank_to_grid(i32 rank) const;
  i32 grid_to_rank(const Point& grid) const;

  /// Process coordinate owning cell x along dimension d.
  i32 owner_in_dim(int d, i64 x) const;

  /// Rank owning a given cell.
  i32 owner_of(const Point& cell) const;

  /// Number of cells along dimension d owned by process coordinate r.
  i64 owned_count_dim(int d, i32 r) const;

  /// Number of cells in [lo, hi] along dimension d owned by process
  /// coordinate r. Closed form, O(1).
  i64 owned_count_dim_in(int d, i32 r, i64 lo, i64 hi) const;

  /// Total cells owned by a rank.
  u64 owned_cells(i32 rank) const;

  /// Cells of `region` owned by `rank` (region clamped to the domain).
  u64 owned_cells_in(i32 rank, const Box& region) const;

  /// Contiguous segments owned along dimension d by process coordinate r,
  /// clamped to [lo, hi]. Ascending, disjoint.
  std::vector<Segment> owned_segments_dim(int d, i32 r, i64 lo, i64 hi) const;

  /// The set of boxes owned by `rank`, as the Cartesian product of per-dim
  /// segments. Throws if the box count would exceed `max_boxes`
  /// (guards against enumerating element-cyclic layouts of huge domains).
  std::vector<Box> owned_boxes(i32 rank, size_t max_boxes = 1 << 20) const;

  /// owned_boxes clipped to `region`.
  std::vector<Box> owned_boxes_in(i32 rank, const Box& region,
                                  size_t max_boxes = 1 << 20) const;

  /// Number of cells along dim d owned by BOTH process coordinate `ra` of
  /// this decomposition and `rb` of `other` (other must share the extent).
  i64 dim_overlap(int d, i32 ra, const Decomposition& other, i32 rb) const;

  std::string to_string() const;

  friend bool operator==(const Decomposition& a, const Decomposition& b);

 private:
  void validate();
  /// owned_segments_dim, appended to `out`.
  void append_owned_segments(int d, i32 r, i64 lo, i64 hi,
                             std::vector<Segment>& out) const;

  std::vector<DimSpec> dims_;
  i32 ntasks_ = 0;
};

/// Convenience: blocked decomposition of `extents` over `procs`.
Decomposition blocked(std::vector<i64> extents, std::vector<i32> procs);

}  // namespace cods
