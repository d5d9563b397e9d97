// Test-side background pricing for flow lists. The cost model prices a
// batch against background traffic only from node-pair loads
// (CostModel::batch_time_of_pairs); tests written in terms of Flows
// convert each flow to its node pair, which prices bit for bit as the
// flows themselves would (docs/COST_MODEL.md "Two entries").
#pragma once

#include <vector>

#include "platform/cost_model.hpp"

namespace cods::test {

/// One NodePairBytes per flow, in flow order.
inline std::vector<NodePairBytes> to_pairs(const std::vector<Flow>& flows) {
  std::vector<NodePairBytes> pairs;
  pairs.reserve(flows.size());
  for (const Flow& f : flows) {
    pairs.push_back(NodePairBytes{f.src.node, f.dst.node, f.bytes});
  }
  return pairs;
}

/// Completion time of `primary` while `background` contends for the same
/// resources.
inline double batch_time_with_background(const CostModel& model,
                                         const std::vector<Flow>& primary,
                                         const std::vector<Flow>& background) {
  return model.batch_time_of_pairs(to_pairs(primary), to_pairs(background));
}

}  // namespace cods::test
