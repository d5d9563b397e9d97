// Oracle fuzzing: a wide kSimulate-only sweep (simulate enacts scenarios
// in milliseconds, so this suite carries the bulk of the ≥200-scenario
// budget) plus negative tests proving the comparator and the oracles
// actually fire — a fuzz harness whose failure paths are never executed
// is indistinguishable from one that asserts nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <tuple>

#include "fuzz/fuzz_common.hpp"

namespace cods {
namespace {

using testing::enact_checked;
using testing::expect_oracles;

bool has_violation(const wfgen::OracleReport& report,
                   const std::string& prefix) {
  return std::any_of(report.violations.begin(), report.violations.end(),
                     [&prefix](const std::string& v) {
                       return v.rfind(prefix, 0) == 0;
                     });
}

std::vector<std::string> clock_violations(const wfgen::OracleReport& report) {
  std::vector<std::string> out;
  for (const std::string& v : report.violations) {
    if (v.rfind("clock: ", 0) == 0) out.push_back(v);
  }
  return out;
}

/// The clock oracle as it stood before the span index: a std::map of
/// every span by id (the last of a shared id wins) and a std::map of
/// track begins, over the stream in its given order.
std::vector<std::string> clock_map_reference(const wfgen::EnactResult& run) {
  std::map<u64, const TraceSpan*> by_id;
  for (const TraceSpan& span : run.spans) by_id[span.id] = &span;
  std::map<u64, double> track_begin;
  size_t clock_violations = 0;
  size_t nesting_violations = 0;
  for (const TraceSpan& span : run.spans) {
    if (span.begin < 0.0 || span.duration < 0.0) {
      ++clock_violations;
      continue;
    }
    if ((span.flags & TraceFlags::kInstant) != 0 && span.duration != 0.0) {
      ++clock_violations;
      continue;
    }
    const u64 track = span.id >> TraceRecorder::kSeqBits;
    const auto it = track_begin.find(track);
    if ((span.flags & TraceFlags::kSequential) != 0) {
      if (it != track_begin.end() && span.begin < it->second) {
        ++clock_violations;
      }
      track_begin[track] = span.begin;
    }
    if (span.parent != 0) {
      const auto parent = by_id.find(span.parent);
      if (parent != by_id.end() && span.begin < parent->second->begin) {
        ++nesting_violations;
      }
    }
  }
  std::vector<std::string> out;
  if (clock_violations != 0) {
    out.push_back("clock: " + std::to_string(clock_violations) +
                  " spans violate per-track monotonicity/well-formedness");
  }
  if (nesting_violations != 0) {
    out.push_back("clock: " + std::to_string(nesting_violations) +
                  " spans begin before their parent span");
  }
  return out;
}

constexpr u64 kDefaultBase = 91000;
constexpr i32 kDefaultCount = 120;

TEST(FuzzOracles, GeneratedScenariosSatisfyAllInvariants) {
  const u64 base = testing::fuzz_base_seed(kDefaultBase);
  const i32 count = testing::fuzz_count(kDefaultCount);
  std::set<wfgen::Topology> seen;
  i32 faulty = 0;
  for (i32 i = 0; i < count; ++i) {
    const u64 seed = base + static_cast<u64>(i);
    CODS_SEED_TRACE("CODS_FUZZ_SEED", seed);
    const wfgen::ScenarioSpec spec = wfgen::generate(seed);
    seen.insert(spec.topology);
    faulty += spec.faulty ? 1 : 0;
    wfgen::EnactResult run;
    if (!enact_checked(spec, {.mode = ExecMode::kSimulate}, run)) continue;
    expect_oracles(spec, run, "kSimulate");
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The default sweep must exercise the whole sampler, not one corner.
  if (count >= kDefaultCount) {
    EXPECT_EQ(seen.size(), 4u) << "sweep missed a topology";
    EXPECT_GT(faulty, 0) << "sweep never sampled a fault overlay";
    EXPECT_LT(faulty, count) << "sweep never sampled a clean scenario";
  }
}

// --- negative controls: planted defects must be caught -----------------

TEST(FuzzOracles, DiffRunsFlagsPlantedDivergence) {
  // A clean scenario: the planted defects below must be the only thing
  // the comparator/oracles can possibly object to.
  wfgen::GenParams params;
  params.allow_faults = false;
  const wfgen::ScenarioSpec spec = wfgen::generate(7, params);
  wfgen::EnactResult run;
  ASSERT_TRUE(enact_checked(spec, {.mode = ExecMode::kSimulate}, run));
  ASSERT_EQ(wfgen::diff_runs(run, run), "");

  wfgen::EnactResult tampered = run;
  tampered.stored_bytes += 1;
  EXPECT_NE(wfgen::diff_runs(run, tampered), "");

  tampered = run;
  tampered.mismatches = 3;
  EXPECT_NE(wfgen::diff_runs(run, tampered), "");

  tampered = run;
  tampered.chrome_json += " ";
  EXPECT_NE(wfgen::diff_runs(run, tampered), "");

  tampered = run;
  ASSERT_FALSE(tampered.reports.empty());
  tampered.reports[0].attempts += 1;
  EXPECT_NE(wfgen::diff_runs(run, tampered), "");

  tampered = run;
  ASSERT_FALSE(tampered.journal.empty());
  tampered.journal[0].bytes += 8;
  EXPECT_NE(wfgen::diff_runs(run, tampered), "");

  tampered = run;
  ASSERT_FALSE(tampered.inter.empty());
  tampered.inter.begin()->second.transfers += 1;
  EXPECT_NE(wfgen::diff_runs(run, tampered), "");
}

TEST(FuzzOracles, OraclesFlagPlantedViolations) {
  wfgen::GenParams params;
  params.allow_faults = false;
  const wfgen::ScenarioSpec spec = wfgen::generate(7, params);
  wfgen::EnactResult run;
  ASSERT_TRUE(enact_checked(spec, {.mode = ExecMode::kSimulate}, run));
  ASSERT_TRUE(wfgen::check_oracles(spec, run).ok());

  // Data corruption.
  wfgen::EnactResult tampered = run;
  tampered.mismatches = 1;
  EXPECT_FALSE(wfgen::check_oracles(spec, tampered).ok());

  // Stored bytes drifting from what the spec implies.
  tampered = run;
  tampered.stored_bytes += 8;
  EXPECT_FALSE(wfgen::check_oracles(spec, tampered).ok());

  // Byte conservation: a journal record the ledger never saw. The
  // diagnostic names the duplicated record as the one no span matches.
  tampered = run;
  ASSERT_FALSE(tampered.journal.empty());
  tampered.journal.push_back(tampered.journal.front());
  {
    const TransferRecord& r = tampered.journal.front();
    std::ostringstream unmatched;
    unmatched << "log(app=" << r.app_id << ",cls=" << static_cast<int>(r.cls)
              << ",net=" << r.via_network << ",bytes=" << r.bytes
              << ",t=" << r.model_time << ") has no ledger span";
    const wfgen::OracleReport report = wfgen::check_oracles(spec, tampered);
    EXPECT_TRUE(has_violation(
        report, "ledger != journal: trace ledger does not reconcile with "
                "the transfer log: " +
                    std::to_string(tampered.journal.size() - 1) +
                    " ledger span(s) vs " +
                    std::to_string(tampered.journal.size()) +
                    " journal record(s); first divergence at #"))
        << report.to_string();
    EXPECT_NE(report.to_string().find(unmatched.str()), std::string::npos)
        << report.to_string();
  }

  // Journal overflow forfeits exact reconciliation.
  tampered = run;
  tampered.journal_dropped = 1;
  EXPECT_FALSE(wfgen::check_oracles(spec, tampered).ok());

  // Clock: a span running backwards in time.
  tampered = run;
  ASSERT_FALSE(tampered.spans.empty());
  tampered.spans.back().duration = -1.0;
  EXPECT_FALSE(wfgen::check_oracles(spec, tampered).ok());

  // Clock: a child that begins before its parent.
  tampered = run;
  {
    std::map<u64, double> begins;
    for (const TraceSpan& s : tampered.spans) begins[s.id] = s.begin;
    TraceSpan* child = nullptr;
    for (TraceSpan& s : tampered.spans) {
      const auto parent = begins.find(s.parent);
      if (s.parent != 0 && parent != begins.end() && parent->second > 0.0) {
        child = &s;
        s.begin = parent->second * 0.5;
        break;
      }
    }
    ASSERT_NE(child, nullptr);
    EXPECT_TRUE(has_violation(wfgen::check_oracles(spec, tampered),
                              "clock: 1 spans begin before their parent"));
  }

  // Clock: a sequential span that begins before its predecessor on the
  // same track.
  tampered = run;
  {
    const TraceSpan* prev = nullptr;
    bool planted = false;
    for (TraceSpan& s : tampered.spans) {
      if ((s.flags & TraceFlags::kSequential) == 0) continue;
      if (prev != nullptr && prev->id >> TraceRecorder::kSeqBits ==
                                 s.id >> TraceRecorder::kSeqBits &&
          prev->begin > 0.0) {
        s.begin = prev->begin * 0.5;
        planted = true;
        break;
      }
      prev = &s;
    }
    ASSERT_TRUE(planted);
    EXPECT_TRUE(has_violation(wfgen::check_oracles(spec, tampered),
                              "clock: 1 spans violate per-track"));
  }

  // Faults: a clean run claiming recovery activity.
  tampered = run;
  ASSERT_FALSE(tampered.reports.empty());
  tampered.reports[0].attempts = 2;
  EXPECT_FALSE(wfgen::check_oracles(spec, tampered).ok());

  // Faults: a node death nobody scheduled.
  tampered = run;
  tampered.dead_nodes.push_back(0);
  EXPECT_FALSE(wfgen::check_oracles(spec, tampered).ok());

  // Schedule: a rogue task mapped to a node that doesn't exist.
  tampered = run;
  ASSERT_FALSE(tampered.placements.empty());
  auto& placement = tampered.placements.begin()->second;
  const i32 app_id = tampered.placements.begin()->first;
  placement.assign(TaskId{app_id, /*rank=*/1 << 20},
                   CoreLoc{spec.cluster.num_nodes + 7, 0});
  EXPECT_FALSE(wfgen::check_oracles(spec, tampered).ok());

  // Byte conservation under speculation: a faulty scenario whose
  // straggler speculation fires, so its untraced speculative copies
  // journal records that no ledger span mirrors.
  const wfgen::ScenarioSpec speculative = wfgen::generate(93);
  wfgen::EnactResult spec_run;
  ASSERT_TRUE(
      enact_checked(speculative, {.mode = ExecMode::kSimulate}, spec_run));
  i32 speculated = 0;
  for (const WaveReport& wave : spec_run.reports) {
    speculated += wave.speculated_tasks;
  }
  ASSERT_GT(speculated, 0);
  ASSERT_TRUE(wfgen::check_oracles(speculative, spec_run).ok())
      << wfgen::check_oracles(speculative, spec_run).to_string();

  // A ledger span with no journal record.
  tampered = spec_run;
  const auto leaf = std::find_if(
      spec_run.spans.begin(), spec_run.spans.end(), [](const TraceSpan& s) {
        return (s.flags & TraceFlags::kLedger) != 0;
      });
  ASSERT_NE(leaf, spec_run.spans.end());
  TraceSpan unjournaled = *leaf;
  unjournaled.id = spec_run.spans.back().id + 1;
  unjournaled.bytes += u64{1} << 40;
  tampered.spans.push_back(unjournaled);
  EXPECT_TRUE(has_violation(wfgen::check_oracles(speculative, tampered),
                            "ledger != journal: 1 ledger span(s) have no "
                            "matching journal record"));

  // A second ledger span of an entry the journal holds no more often than
  // the ledger does: a match consumes its journal record.
  tampered = spec_run;
  {
    using Entry = std::tuple<i32, TrafficClass, bool, u64, double>;
    std::map<Entry, int> surplus;  // journal count minus ledger count
    for (const TransferRecord& r : spec_run.journal) {
      ++surplus[{r.app_id, r.cls, r.via_network, r.bytes, r.model_time}];
    }
    const auto entry = [](const TraceSpan& s) {
      return Entry{s.app_id, s.cls, s.cat == SpanCategory::kTransferNet,
                   s.bytes, s.duration};
    };
    for (const TraceSpan& s : spec_run.spans) {
      if ((s.flags & TraceFlags::kLedger) != 0) --surplus[entry(s)];
    }
    const auto twin = std::find_if(
        spec_run.spans.begin(), spec_run.spans.end(),
        [&](const TraceSpan& s) {
          return (s.flags & TraceFlags::kLedger) != 0 && surplus[entry(s)] == 0;
        });
    ASSERT_NE(twin, spec_run.spans.end());
    TraceSpan copy = *twin;
    copy.id = spec_run.spans.back().id + 1;
    tampered.spans.push_back(copy);
    EXPECT_TRUE(has_violation(wfgen::check_oracles(speculative, tampered),
                              "ledger != journal: 1 ledger span(s) have no "
                              "matching journal record"));
  }

  // A journal record beyond the ledger's is what speculation leaves; the
  // ledger check lets it pass (the metrics check is what objects).
  tampered = spec_run;
  tampered.journal.push_back(tampered.journal.front());
  EXPECT_FALSE(has_violation(wfgen::check_oracles(speculative, tampered),
                             "ledger != journal"));
}

TEST(FuzzOracles, ClockOracleMatchesMapReference) {
  for (const u64 seed : {7, 27, 93}) {
    CODS_SEED_NOTE(seed);
    const wfgen::ScenarioSpec spec = wfgen::generate(seed);
    wfgen::EnactResult run;
    ASSERT_TRUE(enact_checked(spec, {.mode = ExecMode::kSimulate}, run));
    std::mt19937_64 rng(seed);

    // Spans that share an id: copies of every fifth span, some begun
    // earlier and some later, inserted at random positions.
    wfgen::EnactResult duplicated = run;
    for (size_t i = 0; i < run.spans.size(); i += 5) {
      TraceSpan copy = run.spans[i];
      copy.begin = i % 2 == 0 ? copy.begin * 0.5 : copy.begin + 1.0;
      const size_t at = rng() % (duplicated.spans.size() + 1);
      duplicated.spans.insert(duplicated.spans.begin() + at, copy);
    }
    for (const wfgen::EnactResult* stream : {&run, &duplicated}) {
      wfgen::EnactResult shuffled = *stream;
      std::shuffle(shuffled.spans.begin(), shuffled.spans.end(), rng);
      const wfgen::EnactResult* shuffled_run = &shuffled;
      for (const wfgen::EnactResult* r : {stream, shuffled_run}) {
        const std::vector<std::string> expected = clock_map_reference(*r);
        if (r != &run) {
          EXPECT_FALSE(expected.empty());
        }
        EXPECT_EQ(clock_violations(wfgen::check_oracles(spec, *r)), expected);
      }
    }
  }
}

TEST(FuzzOracles, OracleReportFormatsOneViolationPerLine) {
  wfgen::OracleReport report;
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.to_string(), "");
  report.violations = {"first", "second"};
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.to_string(), "first\nsecond");
}

}  // namespace
}  // namespace cods
