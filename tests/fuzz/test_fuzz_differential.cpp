// Differential fuzzing: every generated scenario is enacted under both
// ExecMode::kSimulate and ExecMode::kPooled and the two runs must be
// observably identical — traces, wave reports, byte ledgers, stored
// bytes, critical-path decompositions, outputs and journals (as
// multisets). Both runs additionally pass the full oracle suite, so a
// divergence *and* an absolute violation each point at the guilty seed.
#include <gtest/gtest.h>

#include "fuzz/fuzz_common.hpp"

namespace cods {
namespace {

using testing::dump_scenario;
using testing::enact_checked;
using testing::expect_oracles;

constexpr u64 kDefaultBase = 9100;
constexpr i32 kDefaultCount = 80;

void check_differential(u64 seed) {
  CODS_SEED_TRACE("CODS_FUZZ_SEED", seed);
  // Wave-start crashes only: a mid-wave crash fires on the Nth op of a
  // cross-thread counter, so its exact trigger point is schedule-dependent
  // under live exec modes. The kSimulate-only sweeps keep that coverage.
  wfgen::GenParams params;
  params.deterministic_crashes = true;
  const wfgen::ScenarioSpec spec = wfgen::generate(seed, params);
  SCOPED_TRACE("topology=" + wfgen::to_string(spec.topology) +
               " apps=" + std::to_string(spec.apps.size()) +
               (spec.faulty ? " faulty" : " clean"));
  wfgen::EnactResult sim;
  wfgen::EnactResult pooled;
  if (!enact_checked(spec, {.mode = ExecMode::kSimulate}, sim)) return;
  if (!enact_checked(spec, {.mode = ExecMode::kPooled}, pooled)) return;
  const std::string diff = wfgen::diff_runs(sim, pooled);
  if (!diff.empty()) {
    dump_scenario(spec);
    ADD_FAILURE() << "scenario seed " << seed
                  << " diverges between kSimulate and kPooled: " << diff;
  }
  expect_oracles(spec, sim, "kSimulate");
  expect_oracles(spec, pooled, "kPooled");
}

TEST(FuzzDifferential, GeneratedScenariosAgreeAcrossModes) {
  const u64 base = testing::fuzz_base_seed(kDefaultBase);
  const i32 count = testing::fuzz_count(kDefaultCount);
  for (i32 i = 0; i < count; ++i) {
    check_differential(base + static_cast<u64>(i));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace cods
