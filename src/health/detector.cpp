#include "health/detector.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace cods {

namespace {

/// Upper clamp on phi: beyond this the survival probability underflows
/// double precision anyway, and a finite ceiling keeps comparisons total.
constexpr double kMaxPhi = 40.0;

}  // namespace

const char* to_string(NodeHealth state) {
  switch (state) {
    case NodeHealth::kAlive: return "alive";
    case NodeHealth::kSuspect: return "suspect";
    case NodeHealth::kQuarantined: return "quarantined";
    case NodeHealth::kProbation: return "probation";
    case NodeHealth::kDead: return "dead";
  }
  return "?";
}

FailureDetector::FailureDetector(DetectorConfig config, i32 num_nodes)
    : config_(config), nodes_(static_cast<size_t>(num_nodes)) {
  CODS_REQUIRE(num_nodes >= 1, "detector needs at least one node");
  CODS_REQUIRE(config_.heartbeat_period > 0.0,
               "heartbeat period must be positive");
  CODS_REQUIRE(config_.phi_suspect <= config_.phi_quarantine &&
                   config_.phi_quarantine <= config_.phi_dead,
               "phi thresholds must be ordered suspect <= quarantine <= dead");
  CODS_REQUIRE(config_.min_missed_dead >= 1, "death gate needs >= 1 miss");
  // Bootstrap every node with one nominal interval so phi is defined from
  // the very first sweep (a node that never speaks still accrues suspicion
  // against the configured period).
  for (Node& n : nodes_) {
    n.intervals.push_back(config_.heartbeat_period);
  }
}

void FailureDetector::heartbeat(i32 node, double now) {
  Node& n = nodes_[static_cast<size_t>(node)];
  if (n.state == NodeHealth::kDead) return;  // death is terminal
  if (n.last_arrival >= 0.0) {
    const double interval = now - n.last_arrival;
    if (static_cast<i32>(n.intervals.size()) < kDetectorWindow) {
      n.intervals.push_back(interval);
    } else {
      n.intervals[n.next_slot] = interval;
      n.next_slot = (n.next_slot + 1) % n.intervals.size();
    }
  }
  n.last_arrival = now;
  n.missed = 0;
  n.first_missing = -1.0;
  switch (n.state) {
    case NodeHealth::kAlive:
    case NodeHealth::kProbation:
      break;  // probation is only served by evaluate() ticks
    case NodeHealth::kSuspect:
      n.state = NodeHealth::kAlive;
      break;
    case NodeHealth::kQuarantined:
      // A quarantined node that speaks again is readmitted gradually: it
      // must serve probation before the mapper trusts it with tasks.
      n.state = NodeHealth::kProbation;
      n.probation_left = config_.probation_rounds;
      break;
    case NodeHealth::kDead:
      break;
  }
}

double FailureDetector::phi_of(const Node& n, double now) const {
  // Never heard from: suspicion accrues from the detector's own start
  // (virtual time 0) against the bootstrapped nominal interval, so a node
  // that crashes before its first heartbeat is still detectable.
  const double last_arrival = std::max(n.last_arrival, 0.0);
  double mean = 0.0;
  for (double v : n.intervals) mean += v;
  mean /= static_cast<double>(n.intervals.size());
  double var = 0.0;
  for (double v : n.intervals) var += (v - mean) * (v - mean);
  var /= static_cast<double>(n.intervals.size());
  const double floor = kMinStddevFrac * mean;
  const double stddev = std::max(std::sqrt(var), floor);
  const double elapsed = now - last_arrival;
  const double z = (elapsed - mean) / stddev;
  // P(a live node is still silent after `elapsed`) under the Gaussian
  // inter-arrival model; phi is its negated decimal log.
  const double q = 0.5 * std::erfc(z / std::sqrt(2.0));
  if (q <= 0.0) return kMaxPhi;
  return std::min(-std::log10(q), kMaxPhi);
}

double FailureDetector::phi(i32 node, double now) const {
  return phi_of(nodes_[static_cast<size_t>(node)], now);
}

void FailureDetector::evaluate(i32 node, double now, bool missed) {
  Node& n = nodes_[static_cast<size_t>(node)];
  if (n.state == NodeHealth::kDead) return;
  if (missed) {
    ++n.missed;
    if (n.first_missing < 0.0) n.first_missing = now;
  }
  const double suspicion = phi_of(n, now);
  switch (n.state) {
    case NodeHealth::kAlive:
      if (suspicion >= config_.phi_quarantine) {
        n.state = NodeHealth::kQuarantined;
      } else if (suspicion >= config_.phi_suspect) {
        n.state = NodeHealth::kSuspect;
      }
      break;
    case NodeHealth::kSuspect:
      if (suspicion >= config_.phi_quarantine) {
        n.state = NodeHealth::kQuarantined;
      } else if (suspicion < config_.phi_suspect) {
        n.state = NodeHealth::kAlive;
      }
      break;
    case NodeHealth::kQuarantined:
      // heartbeat() moves quarantined -> probation; here suspicion can
      // only deepen. Death needs both the phi threshold and a run of
      // truly missed rounds (see DetectorConfig::min_missed_dead).
      if (suspicion >= config_.phi_dead &&
          n.missed >= config_.min_missed_dead) {
        n.state = NodeHealth::kDead;
        n.declared_dead = now;
      }
      break;
    case NodeHealth::kProbation:
      if (suspicion >= config_.phi_quarantine) {
        n.state = NodeHealth::kQuarantined;  // relapsed
      } else if (!missed) {
        if (--n.probation_left <= 0) n.state = NodeHealth::kAlive;
      }
      break;
    case NodeHealth::kDead:
      break;
  }
}

NodeHealth FailureDetector::state(i32 node) const {
  return nodes_[static_cast<size_t>(node)].state;
}

i32 FailureDetector::consecutive_missed(i32 node) const {
  return nodes_[static_cast<size_t>(node)].missed;
}

double FailureDetector::first_missing_time(i32 node) const {
  return nodes_[static_cast<size_t>(node)].first_missing;
}

double FailureDetector::declared_dead_time(i32 node) const {
  return nodes_[static_cast<size_t>(node)].declared_dead;
}

std::vector<i32> FailureDetector::nodes_in(NodeHealth state) const {
  std::vector<i32> out;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].state == state) out.push_back(static_cast<i32>(i));
  }
  return out;
}

bool FailureDetector::unsettled() const {
  return std::any_of(nodes_.begin(), nodes_.end(), [](const Node& n) {
    return n.state == NodeHealth::kSuspect ||
           n.state == NodeHealth::kQuarantined ||
           n.state == NodeHealth::kProbation;
  });
}

}  // namespace cods
