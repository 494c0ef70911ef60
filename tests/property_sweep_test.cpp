// Property sweep: every registered heuristic, under both communication
// models, over seeded random DAG x platform scenarios plus hand-picked
// degenerate workloads.  Each (scenario, scheduler) pair is pushed
// through the full invariant battery of tests/support/invariants.hpp:
// validation, makespan lower bounds, replay dominance, serialize
// round-trip, and communication bounds.
//
// Scenarios come in two flavours: fully-connected platforms
// (scenario_sweep) and sparse routed topologies -- ring, star, random
// connected, line, two-node, 2D mesh, torus, fat tree, heterogeneous-cost
// meshes (seeded ':het'/':hot' link costs), and non-default routing
// policies (':alt'/':swp') -- where messages between non-adjacent
// processors are store-and-forward chains validated hop by hop against
// the scenario's RoutingTable (routed_scenario_sweep).
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "sched/replay.hpp"
#include "support/frozen_oracle.hpp"
#include "support/invariants.hpp"
#include "support/scenario.hpp"
#include "util/env_knobs.hpp"

namespace oneport {
namespace {

using testsupport::Scenario;
using testsupport::check_all_invariants;

// A small chunk size exercises ILHA's load-balancing quota far more
// than the paper's default of 38 on these small DAGs.  The registry is
// rebuilt per scenario so routed scenarios thread their RoutingTable to
// every heuristic.
std::vector<SchedulerEntry> registry_for(const Scenario& scenario) {
  return builtin_schedulers(SchedulerConfig{
      .ilha_chunk_size = 5, .routing = scenario.routing_ptr()});
}

void sweep_scenario(const Scenario& scenario) {
  for (const SchedulerEntry& entry : registry_for(scenario)) {
    SCOPED_TRACE(scenario.description + " scheduler=" + entry.name);
    const Schedule schedule = entry.run(scenario.graph, scenario.platform);
    const std::vector<std::string> violations =
        check_all_invariants(scenario, schedule, entry.model);
    for (const std::string& v : violations) ADD_FAILURE() << v;
  }
}

class PropertySweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PropertySweepTest, AllHeuristicsSatisfyAllInvariants) {
  const std::uint64_t base = GetParam();
  for (const Scenario& scenario : testsupport::scenario_sweep(base, 6)) {
    sweep_scenario(scenario);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySweepTest,
                         ::testing::Values<std::uint64_t>(101, 211, 307, 401,
                                                          503, 601, 701));

TEST(PropertySweepEdgeCases, AllHeuristicsSatisfyAllInvariants) {
  for (const Scenario& scenario : testsupport::edge_case_scenarios()) {
    sweep_scenario(scenario);
  }
}

// Workload-family axis (ISSUE-10): the ML-training and microservice
// generators plus graphs that took a DOT/JSON export -> import round
// trip through graph/dot_import get the same verification depth as the
// synthetic kernels.  Count 8 = two full rotations through the four
// workload variants per base seed.
class WorkloadPropertySweepTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WorkloadPropertySweepTest, AllHeuristicsSatisfyAllInvariants) {
  const std::uint64_t base = GetParam();
  for (const Scenario& scenario :
       testsupport::workload_scenario_sweep(base, 8)) {
    sweep_scenario(scenario);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkloadPropertySweepTest,
                         ::testing::Values<std::uint64_t>(151, 257, 353));

// Sparse-topology axis (the ISSUE-3 tentpole, grown by ISSUE-4/5):
// every heuristic under both communication models over ring / star /
// random-connected / line / two-node / 2D-mesh / torus / fat-tree
// networks plus heterogeneous-cost meshes and non-default routing
// policies (alternating XY, cost-aware shortest-weighted-path), with
// store-and-forward chains checked hop by hop against the scenario's
// RoutingTable by the invariant battery.  Count 10 = one full rotation
// through every topology shape.
class RoutedPropertySweepTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoutedPropertySweepTest, AllHeuristicsSatisfyAllInvariants) {
  const std::uint64_t base = GetParam();
  for (const Scenario& scenario : testsupport::routed_scenario_sweep(base, 10)) {
    sweep_scenario(scenario);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutedPropertySweepTest,
                         ::testing::Values<std::uint64_t>(131, 233, 337,
                                                          433, 541));

// Extended mode for CI/nightly: ONEPORT_SWEEP_SEEDS=<count> deepens the
// default 7x6 sweep with <count> extra seeded sweeps -- no rebuild
// needed, just the environment variable.
TEST(PropertySweepExtended, HonorsEnvSeedCount) {
  const long extra = env::integer(env::Knob::kSweepSeeds, 0);
  if (extra <= 0) {
    GTEST_SKIP() << "set ONEPORT_SWEEP_SEEDS=<count> to deepen the sweep";
  }
  for (long i = 0; i < extra; ++i) {
    const auto base = static_cast<std::uint64_t>(900101 + 97 * i);
    SCOPED_TRACE("extended base seed " + std::to_string(base));
    for (const Scenario& scenario : testsupport::scenario_sweep(base, 6)) {
      sweep_scenario(scenario);
    }
    for (const Scenario& scenario :
         testsupport::routed_scenario_sweep(base + 7, 10)) {
      sweep_scenario(scenario);
    }
  }
}

// Frozen-oracle pin: every (scenario, scheduler[, trace]) row of the
// static, dynamic, heterogeneous-routed, routed-scale and
// fixed-allocation rotations must reproduce the committed makespan and
// schedule digest exactly (tests/support/frozen_oracle.hpp).  The table was recorded with the reference
// timeline, so this is the bit-identity differential against it, frozen.
TEST(PropertySweepDifferential, SchedulesMatchFrozenOracle) {
  const std::vector<testsupport::FrozenRow> actual =
      testsupport::compute_frozen_rows();
  const std::span<const testsupport::FrozenRow> expected =
      testsupport::frozen_rows();
  std::size_t first_diff = 0;
  while (first_diff < actual.size() && first_diff < expected.size() &&
         actual[first_diff] == expected[first_diff]) {
    ++first_diff;
  }
  const bool same =
      actual.size() == expected.size() && first_diff == actual.size();
  EXPECT_TRUE(same) << actual.size() << " rows computed, " << expected.size()
                    << " pinned; first difference at row " << first_diff
                    << ".  Actual table:\n"
                    << testsupport::format_frozen_rows(actual);
}

// Cross-model dominance: for one fixed heuristic (HEFT), relaxing its
// one-port schedule to macro-dataflow rules via replay can only shrink
// the makespan -- the quantified version of "the one-port model is the
// pessimistic one" (§2.3), checked per scenario rather than per run.
TEST(PropertySweepModels, OnePortRelaxationNeverHurts) {
  const SchedulerEntry heft = find_scheduler("heft-oneport");
  for (const Scenario& scenario : testsupport::scenario_sweep(4242, 12)) {
    const Schedule one_port = heft.run(scenario.graph, scenario.platform);
    const Schedule relaxed =
        asap_replay(one_port, scenario.graph, scenario.platform,
                    CommModel::kMacroDataflow);
    EXPECT_LE(relaxed.makespan(), one_port.makespan() + 1e-7)
        << scenario.description;
  }
}

}  // namespace
}  // namespace oneport
