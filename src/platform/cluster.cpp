#include "platform/cluster.hpp"

#include <algorithm>
#include <cmath>

namespace cods {

namespace {

// Near-cubic factorization n = a*b*c with a >= b >= c, minimizing a - c.
std::array<i32, 3> factorize_torus(i32 n) {
  std::array<i32, 3> best = {n, 1, 1};
  i32 best_spread = n;
  for (i32 c = 1; c * c * c <= n; ++c) {
    if (n % c) continue;
    const i32 rest = n / c;
    for (i32 b = c; b * b <= rest; ++b) {
      if (rest % b) continue;
      const i32 a = rest / b;
      const i32 spread = a - c;
      if (spread < best_spread) {
        best_spread = spread;
        best = {a, b, c};
      }
    }
  }
  return best;
}

}  // namespace

Cluster::Cluster(ClusterSpec spec) : spec_(spec) {
  CODS_REQUIRE(spec_.num_nodes >= 1, "cluster needs at least one node");
  CODS_REQUIRE(spec_.cores_per_node >= 1, "nodes need at least one core");
  if (spec_.torus == std::array<i32, 3>{0, 0, 0}) {
    torus_dims_ = factorize_torus(spec_.num_nodes);
  } else {
    torus_dims_ = spec_.torus;
    CODS_REQUIRE(
        static_cast<i64>(torus_dims_[0]) * torus_dims_[1] * torus_dims_[2] >=
            spec_.num_nodes,
        "torus volume smaller than node count");
  }
}

CoreLoc Cluster::core_loc(i32 global_core) const {
  CODS_REQUIRE(global_core >= 0 && global_core < total_cores(),
               "core id out of range");
  return CoreLoc{global_core / spec_.cores_per_node,
                 global_core % spec_.cores_per_node};
}

i32 Cluster::global_core(const CoreLoc& loc) const {
  CODS_REQUIRE(loc.node >= 0 && loc.node < spec_.num_nodes &&
                   loc.core >= 0 && loc.core < spec_.cores_per_node,
               "core location out of range");
  return loc.node * spec_.cores_per_node + loc.core;
}

std::array<i32, 3> Cluster::torus_coord(i32 node) const {
  CODS_REQUIRE(node >= 0 && node < spec_.num_nodes, "node id out of range");
  const i32 xy = torus_dims_[0] * torus_dims_[1];
  return {node % torus_dims_[0], (node / torus_dims_[0]) % torus_dims_[1],
          node / xy};
}

i32 Cluster::hops(i32 node_a, i32 node_b) const {
  const auto a = torus_coord(node_a);
  const auto b = torus_coord(node_b);
  i32 total = 0;
  for (int d = 0; d < 3; ++d) {
    const i32 dim = torus_dims_[static_cast<size_t>(d)];
    const i32 fwd = ((b[static_cast<size_t>(d)] - a[static_cast<size_t>(d)]) %
                         dim + dim) % dim;
    total += std::min(fwd, dim - fwd);
  }
  return total;
}

void Cluster::route_links(i32 node_a, i32 node_b,
                          std::vector<u64>& links) const {
  // Dimension-order routing, shortest direction per dimension. Link id
  // encodes (torus position, dim, direction): pos * 6 + dim * 2 + (sign>0).
  links.clear();
  auto cur = torus_coord(node_a);
  const auto dst = torus_coord(node_b);
  for (int d = 0; d < 3; ++d) {
    const i32 dim = torus_dims_[static_cast<size_t>(d)];
    if (dim <= 1) continue;
    i32 fwd = ((dst[static_cast<size_t>(d)] - cur[static_cast<size_t>(d)]) %
                   dim + dim) % dim;
    const bool forward = fwd <= dim - fwd;
    i32 steps = forward ? fwd : dim - fwd;
    while (steps-- > 0) {
      const i32 xy = torus_dims_[0] * torus_dims_[1];
      const i32 node = cur[0] + cur[1] * torus_dims_[0] + cur[2] * xy;
      links.push_back(static_cast<u64>(node) * 6 + static_cast<u64>(d) * 2 +
                      (forward ? 1 : 0));
      auto& c = cur[static_cast<size_t>(d)];
      c = ((c + (forward ? 1 : -1)) % dim + dim) % dim;
    }
  }
}

std::string Cluster::to_string() const {
  return "cluster{" + std::to_string(spec_.num_nodes) + " nodes x " +
         std::to_string(spec_.cores_per_node) + " cores, torus " +
         std::to_string(torus_dims_[0]) + "x" + std::to_string(torus_dims_[1]) +
         "x" + std::to_string(torus_dims_[2]) + "}";
}

}  // namespace cods
