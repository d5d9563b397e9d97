#include "geometry/halo.hpp"

#include <algorithm>
#include <array>

namespace cods {

Decomposition blocked_view(const Decomposition& dec) {
  std::vector<DimSpec> dims;
  dims.reserve(static_cast<size_t>(dec.ndim()));
  for (int d = 0; d < dec.ndim(); ++d) {
    DimSpec ds = dec.dim(d);
    ds.dist = Dist::kBlocked;
    dims.push_back(ds);
  }
  return Decomposition(std::move(dims));
}

std::vector<TransferVolume> halo_volumes(const Decomposition& dec,
                                         int ghost_width) {
  CODS_REQUIRE(ghost_width >= 0, "ghost width must be non-negative");
  for (int d = 0; d < dec.ndim(); ++d) {
    CODS_REQUIRE(dec.dim(d).dist == Dist::kBlocked,
                 "halo exchange requires a blocked decomposition; wrap the "
                 "app's coupling decomposition with blocked_view()");
  }
  std::vector<TransferVolume> out;
  if (ghost_width == 0) return out;
  // Each process coordinate's owned extent per dimension (0 at the ragged
  // edge when the extent does not divide evenly), and each dimension's
  // row-major rank stride: the neighbour one step along d is rank ±
  // stride[d]. The grid coordinate advances as an odometer, last
  // dimension fastest, like the ranks.
  const int nd = dec.ndim();
  std::array<std::vector<i64>, kMaxDims> counts;
  std::array<i32, kMaxDims> stride{};
  i32 next_stride = 1;
  for (int d = nd - 1; d >= 0; --d) {
    const auto dd = static_cast<size_t>(d);
    stride[dd] = next_stride;
    next_stride *= dec.dim(d).nprocs;
    for (i32 p = 0; p < dec.dim(d).nprocs; ++p) {
      counts[dd].push_back(dec.owned_count_dim(d, p));
    }
  }
  std::array<i32, kMaxDims> g{};
  for (i32 rank = 0; rank < dec.ntasks(); ++rank) {
    std::array<i64, kMaxDims> local{};
    bool empty = false;
    for (int d = 0; d < nd; ++d) {
      const auto dd = static_cast<size_t>(d);
      local[dd] = counts[dd][static_cast<size_t>(g[dd])];
      if (local[dd] == 0) empty = true;
    }
    for (int d = 0; d < nd && !empty; ++d) {
      const auto dd = static_cast<size_t>(d);
      for (int dir : {-1, +1}) {
        const i32 ng = g[dd] + dir;
        if (ng < 0 || ng >= dec.dim(d).nprocs) continue;
        if (counts[dd][static_cast<size_t>(ng)] == 0) continue;
        // Cells this rank sends to the neighbour: a slab of up to
        // ghost_width layers times the cross-sectional face area.
        u64 face = 1;
        for (int e = 0; e < nd; ++e) {
          if (e != d) face *= static_cast<u64>(local[static_cast<size_t>(e)]);
        }
        const u64 layers =
            static_cast<u64>(std::min<i64>(ghost_width, local[dd]));
        out.push_back(
            TransferVolume{rank, rank + dir * stride[dd], face * layers});
      }
    }
    for (int d = nd - 1; d >= 0; --d) {
      const auto dd = static_cast<size_t>(d);
      if (++g[dd] < dec.dim(d).nprocs) break;
      g[dd] = 0;
    }
  }
  return out;
}

}  // namespace cods
