// Brute-force oracle for redistribution_volumes (tests only).
//
// Every (src rank, dst rank) pair is tried; its shared cells are the
// product over dimensions of the dst coordinate's closed-form count
// (owned_count_dim_in) summed over the src coordinate's owned segments.
// It shares no code with the production sweep, adjacency rows or
// odometer, so agreement pins all three.
#pragma once

#include <optional>
#include <vector>

#include "geometry/redistribution.hpp"

namespace cods {
namespace testing {

/// The pairs with a non-empty overlap inside `region` (default: the src
/// domain), ascending by src rank then dst rank — the production order.
inline std::vector<TransferVolume> redistribution_volumes_allpairs(
    const Decomposition& src, const Decomposition& dst,
    const std::optional<Box>& region = std::nullopt) {
  const int nd = src.ndim();
  const Box window = region ? *region : src.domain_box();
  std::vector<TransferVolume> out;
  for (i32 sa = 0; sa < src.ntasks(); ++sa) {
    const Point ga = src.rank_to_grid(sa);
    for (i32 db = 0; db < dst.ntasks(); ++db) {
      const Point gb = dst.rank_to_grid(db);
      u64 cells = 1;
      for (int d = 0; d < nd && cells > 0; ++d) {
        i64 shared = 0;
        for (const Segment& s : src.owned_segments_dim(
                 d, static_cast<i32>(ga[d]), window.lb[d], window.ub[d])) {
          shared += dst.owned_count_dim_in(d, static_cast<i32>(gb[d]),
                                           s.first, s.second);
        }
        cells *= static_cast<u64>(shared);
      }
      if (cells > 0) out.push_back(TransferVolume{sa, db, cells});
    }
  }
  return out;
}

}  // namespace testing
}  // namespace cods
