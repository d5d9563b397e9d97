// M x N redistribution between two decompositions of a common domain
// (the classic coupled-code data redistribution problem, paper §I/§II).
// Volumes are computed analytically per dimension — ownership factorizes,
// so the pairwise overlap is a product of per-dimension overlap counts —
// which keeps the cost independent of the number of domain cells.
#pragma once

#include <optional>
#include <vector>

#include "geometry/decomposition.hpp"

namespace cods {

/// One producer-task -> consumer-task transfer, in cells.
struct TransferVolume {
  i32 src_rank = 0;
  i32 dst_rank = 0;
  u64 cells = 0;
};

/// All (src, dst) task pairs with a non-empty overlap between the data owned
/// by `src` tasks and the data owned by `dst` tasks, restricted to `region`
/// (defaults to the whole domain). Sparse: zero-volume pairs are skipped by
/// construction via per-dimension adjacency.
std::vector<TransferVolume> redistribution_volumes(
    const Decomposition& src, const Decomposition& dst,
    const std::optional<Box>& region = std::nullopt);

/// Exact overlap region between task `sa` of `src` and task `db` of `dst`,
/// as a list of disjoint boxes (Cartesian product of per-dim intersected
/// segments). Used on the live data path to move real cells.
std::vector<Box> overlap_boxes(const Decomposition& src, i32 sa,
                               const Decomposition& dst, i32 db,
                               const std::optional<Box>& region = std::nullopt,
                               size_t max_boxes = 1 << 20);

/// Sum of `cells` over a transfer list.
u64 total_cells(const std::vector<TransferVolume>& transfers);

/// Per-dimension intersection of two ascending disjoint segment lists.
std::vector<Segment> intersect_segments(const std::vector<Segment>& a,
                                        const std::vector<Segment>& b);

}  // namespace cods
