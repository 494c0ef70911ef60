#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "core/heft.hpp"
#include "core/registry.hpp"
#include "exact/branch_bound.hpp"
#include "exact/fork_optimal.hpp"
#include "exact/reductions.hpp"
#include "exact/two_partition.hpp"
#include "sched/validate.hpp"
#include "support/scenario.hpp"
#include "testbeds/testbeds.hpp"

namespace oneport::exact {
namespace {

// ---------------------------------------------------------- 2-PARTITION

TEST(TwoPartition, FindsACertificate) {
  const std::vector<std::int64_t> values{3, 1, 1, 2, 2, 1};  // sum 10
  const auto half = two_partition(values);
  ASSERT_TRUE(half.has_value());
  std::int64_t sum = 0;
  for (const std::size_t i : *half) sum += values[i];
  EXPECT_EQ(sum, 5);
}

TEST(TwoPartition, OddSumHasNoSolution) {
  EXPECT_FALSE(two_partition({1, 1, 1}).has_value());
}

TEST(TwoPartition, DominantValueHasNoSolution) {
  EXPECT_FALSE(two_partition({1, 1, 4}).has_value());  // sum 6, 4 > 3
}

TEST(TwoPartition, EmptyAndInvalid) {
  EXPECT_FALSE(two_partition({}).has_value());
  EXPECT_THROW(two_partition({0}), std::invalid_argument);
  EXPECT_THROW(two_partition({-1, 1}), std::invalid_argument);
}

TEST(TwoPartition, SingletonPair) {
  const auto half = two_partition({7, 7});
  ASSERT_TRUE(half.has_value());
  EXPECT_EQ(half->size(), 1u);
}

// ------------------------------------------------------- fork optimum

TEST(ForkOptimal, Section2ExampleIsFive) {
  const ForkInstance inst{1.0, std::vector<double>(6, 1.0),
                          std::vector<double>(6, 1.0), 1.0, 1.0};
  const ForkOptimum opt = solve_fork_one_port_optimal(inst);
  EXPECT_DOUBLE_EQ(opt.makespan, 5.0);
  // One optimal solution keeps three children local (paper §2.3).
  EXPECT_EQ(opt.local_children.size(), 3u);
  const RealizedFork realized = realize_fork_schedule(inst, opt);
  EXPECT_TRUE(validate_one_port(realized.schedule, realized.graph,
                                realized.platform)
                  .ok());
  EXPECT_DOUBLE_EQ(realized.schedule.makespan(), 5.0);
}

TEST(ForkOptimal, AllLocalWhenCommsDominate) {
  const ForkInstance inst{1.0, {1.0, 1.0}, {100.0, 100.0}, 1.0, 1.0};
  const ForkOptimum opt = solve_fork_one_port_optimal(inst);
  EXPECT_EQ(opt.local_children.size(), 2u);
  EXPECT_DOUBLE_EQ(opt.makespan, 3.0);
}

TEST(ForkOptimal, AllRemoteWhenCommsAreFree) {
  const ForkInstance inst{1.0, {5.0, 5.0, 5.0}, {0.0, 0.0, 0.0}, 1.0, 1.0};
  const ForkOptimum opt = solve_fork_one_port_optimal(inst);
  EXPECT_TRUE(opt.local_children.empty());
  EXPECT_DOUBLE_EQ(opt.makespan, 6.0);
}

TEST(ForkOptimal, MatchesHeuristicLowerBound) {
  // The exact optimum can never exceed what one-port HEFT finds.
  const ForkInstance inst{2.0, {3.0, 1.0, 4.0, 1.0, 5.0},
                          {2.0, 6.0, 1.0, 3.0, 2.0}, 1.0, 1.0};
  const ForkOptimum opt = solve_fork_one_port_optimal(inst);
  const TaskGraph g = fork_instance_graph(inst);
  const Platform p = make_homogeneous_platform(6, 1.0, 1.0);
  const Schedule s = heft(g, p, {.model = EftEngine::Model::kOnePort});
  EXPECT_TRUE(validate_one_port(s, g, p).ok());
  EXPECT_LE(opt.makespan, s.makespan() + 1e-9);
  const RealizedFork realized = realize_fork_schedule(inst, opt);
  EXPECT_TRUE(validate_one_port(realized.schedule, realized.graph,
                                realized.platform)
                  .ok());
  EXPECT_NEAR(realized.schedule.makespan(), opt.makespan, 1e-9);
}

TEST(ForkOptimal, CapsInstanceSize) {
  ForkInstance inst;
  inst.parent_weight = 1.0;
  inst.child_weights.assign(25, 1.0);
  inst.child_data.assign(25, 1.0);
  EXPECT_THROW(solve_fork_one_port_optimal(inst), std::invalid_argument);
}

// -------------------------------------------------------- Theorem 1

TEST(Theorem1, YesInstanceMeetsTheBound) {
  const std::vector<std::int64_t> values{3, 1, 1, 2, 2, 1};  // 2S = 10
  const auto half = two_partition(values);
  ASSERT_TRUE(half.has_value());

  const ForkSchedInstance inst = make_fork_sched_instance(values);
  // T = 10nK + 5 * 2S + 20K with n=6, K = 2S+1 = 11, 2S = 10.
  EXPECT_DOUBLE_EQ(inst.time_bound, 10 * 6 * 11 + 5 * 10 + 20 * 11);
  EXPECT_DOUBLE_EQ(inst.w_min, 10 * 11);
  EXPECT_EQ(inst.fork.child_weights.size(), 2u * 6u + 3u);

  const RealizedFork realized = realize_theorem1_schedule(values, *half);
  EXPECT_TRUE(validate_one_port(realized.schedule, realized.graph,
                                realized.platform)
                  .ok());
  EXPECT_NEAR(realized.schedule.makespan(), inst.time_bound, 1e-9);

  // And the exhaustive optimum agrees that the bound is reachable.
  const ForkOptimum opt = solve_fork_one_port_optimal(inst.fork);
  EXPECT_NEAR(opt.makespan, inst.time_bound, 1e-9);
}

TEST(Theorem1, NoInstanceExceedsTheBound) {
  const std::vector<std::int64_t> values{1, 1, 4};  // sum 6, no partition
  ASSERT_FALSE(two_partition(values).has_value());
  const ForkSchedInstance inst = make_fork_sched_instance(values);
  const ForkOptimum opt = solve_fork_one_port_optimal(inst.fork);
  EXPECT_GT(opt.makespan, inst.time_bound + 1e-9);
}

TEST(Theorem1, WeightsSatisfyTheConstructionInvariants) {
  const std::vector<std::int64_t> values{2, 3, 5, 2};
  const ForkSchedInstance inst = make_fork_sched_instance(values);
  // w_min <= w_i <= 2 w_min for all 2n value+dummy children (paper's
  // remark); the n balancing dummies sit exactly at w_min.
  for (std::size_t i = 0; i < 2 * values.size(); ++i) {
    EXPECT_GE(inst.fork.child_weights[i], inst.w_min);
    EXPECT_LE(inst.fork.child_weights[i], 2.0 * inst.w_min);
  }
  for (std::size_t i = values.size(); i < 2 * values.size(); ++i) {
    EXPECT_DOUBLE_EQ(inst.fork.child_weights[i], inst.w_min);
  }
  // d_i = w_i everywhere.
  EXPECT_EQ(inst.fork.child_data, inst.fork.child_weights);
}

// -------------------------------------------------------- Theorem 2

TEST(Theorem2, InstanceShape) {
  const std::vector<std::int64_t> values{2, 2, 3, 3};  // 2S = 10
  const CommSchedInstance inst = make_comm_sched_instance(values);
  EXPECT_EQ(inst.graph.num_tasks(), 3u * 4u + 1u);
  EXPECT_EQ(inst.platform.num_processors(), 2 * 4 + 1);
  EXPECT_DOUBLE_EQ(inst.time_bound, 10.0);  // 2S (see reductions.cpp note)
  // v_i and v_{n+i} share processor P_i.
  for (std::size_t i = 1; i <= 4; ++i) {
    EXPECT_EQ(inst.allocation[i], inst.allocation[4 + i]);
    EXPECT_EQ(inst.allocation[2 * 4 + i], static_cast<ProcId>(4 + i));
  }
}

TEST(Theorem2, YesInstanceMeetsTheBound) {
  const std::vector<std::int64_t> values{2, 2, 3, 3};
  const auto half = two_partition(values);
  ASSERT_TRUE(half.has_value());
  const CommSchedInstance inst = make_comm_sched_instance(values);
  const Schedule s = realize_theorem2_schedule(inst, values, *half);
  const ValidationResult check =
      validate_one_port(s, inst.graph, inst.platform);
  EXPECT_TRUE(check.ok()) << check.message();
  EXPECT_NEAR(s.makespan(), inst.time_bound, 1e-9);
  // Allocation is the fixed one.
  for (TaskId v = 0; v < inst.graph.num_tasks(); ++v) {
    EXPECT_EQ(s.task(v).proc, inst.allocation[v]);
  }
  EXPECT_NEAR(solve_comm_sched_optimal(inst, values), inst.time_bound, 1e-9);
}

TEST(Theorem2, NoInstanceExceedsTheBound) {
  const std::vector<std::int64_t> values{1, 1, 4};
  ASSERT_FALSE(two_partition(values).has_value());
  const CommSchedInstance inst = make_comm_sched_instance(values);
  EXPECT_GT(solve_comm_sched_optimal(inst, values),
            inst.time_bound + 1e-9);
}

// --------------------------------------- two_partition x fork_optimal
//
// Latent-gap fix (ISSUE-10 satellite): the two solvers were never
// cross-checked on instances where both apply.  Theorem 1's reduction
// ties them: 2-PARTITION(values) has a solution IFF the fork-scheduling
// optimum meets the constructed time bound.  Sweep the differential
// over a pool of small multisets covering yes-instances, odd sums, and
// dominant values.

TEST(TwoPartitionForkDifferential, ReductionAgreesOnSmallMultisets) {
  const std::vector<std::vector<std::int64_t>> instances = {
      {1, 1},          {1, 2},       {2, 2},       {1, 1, 2},
      {1, 2, 3},       {2, 2, 4},    {1, 1, 4},    {3, 3, 3, 1},
      {5, 4, 3, 2},    {1, 1, 1, 1}, {2, 3, 5, 2}, {7, 7},
      {2, 4, 6, 8, 10}, {1, 2, 3, 4, 5, 5},
  };
  for (const auto& values : instances) {
    SCOPED_TRACE(::testing::Message() << "instance size " << values.size());
    const auto half = two_partition(values);
    const ForkSchedInstance inst = make_fork_sched_instance(values);
    const ForkOptimum opt = solve_fork_one_port_optimal(inst.fork);
    if (half.has_value()) {
      EXPECT_LE(opt.makespan, inst.time_bound + 1e-9);
      // The proof-following schedule built from the DP's certificate must
      // land exactly on T -- including for unequal-cardinality halves
      // such as {1, 1} | {2}, which the balancing dummies absorb.
      const RealizedFork proof = realize_theorem1_schedule(values, *half);
      EXPECT_NEAR(proof.schedule.makespan(), inst.time_bound, 1e-9);
      const ValidationResult proof_check =
          validate_one_port(proof.schedule, proof.graph, proof.platform);
      EXPECT_TRUE(proof_check.ok()) << proof_check.message();
      // ... and the optimum realizes a validator-clean schedule at (or
      // under) the bound.
      const RealizedFork realized = realize_fork_schedule(inst.fork, opt);
      const ValidationResult check = validate_one_port(
          realized.schedule, realized.graph, realized.platform);
      EXPECT_TRUE(check.ok()) << check.message();
      EXPECT_NEAR(realized.schedule.makespan(), opt.makespan, 1e-9);
    } else {
      EXPECT_GT(opt.makespan, inst.time_bound + 1e-9);
    }
  }
}

TEST(TwoPartitionForkDifferential, DegenerateInputBattery) {
  // 1 task on 1 processor: every exact path must agree on w * t.
  {
    TaskGraph g;
    g.add_task(3.0, "only");
    g.finalize();
    const Platform p({2.0}, 1.0);
    const BranchBoundResult bb = branch_bound_lower_bound(g, p);
    EXPECT_TRUE(bb.proven_optimal);
    EXPECT_DOUBLE_EQ(bb.lower_bound, 6.0);
    EXPECT_DOUBLE_EQ(bb.incumbent, 6.0);
  }
  // Single-child fork: local vs remote is the whole decision space, and
  // remote = parent + data + child can never strictly beat local =
  // parent + child, so local must win with positive data and at worst
  // tie at zero data.
  {
    const ForkInstance costly_send{1.0, {2.0}, {10.0}, 1.0, 1.0};
    const ForkOptimum opt = solve_fork_one_port_optimal(costly_send);
    EXPECT_EQ(opt.local_children.size(), 1u);
    EXPECT_DOUBLE_EQ(opt.makespan, 3.0);
  }
  {
    const ForkInstance free_send{1.0, {5.0}, {0.0}, 1.0, 1.0};
    const ForkOptimum opt = solve_fork_one_port_optimal(free_send);
    EXPECT_DOUBLE_EQ(opt.makespan, 6.0);
  }
  // Degenerate 2-PARTITION shapes.
  EXPECT_FALSE(two_partition({2}).has_value());    // single value
  EXPECT_TRUE(two_partition({1, 1}).has_value());  // smallest yes
  EXPECT_THROW(two_partition({1, 0, 1}), std::invalid_argument);
}

// ------------------------------------------------- branch and bound

/// Independent brute-force MD optimum: the same semi-active enumeration
/// branch_bound performs, but with no bounds, no pruning, no symmetry
/// breaking and no budget -- a deliberately dumb oracle for small
/// instances.
double brute_force_md_optimum(const TaskGraph& g, const Platform& platform) {
  const std::size_t n = g.num_tasks();
  std::vector<int> proc(n, -1);
  std::vector<double> finish(n, 0.0);
  std::vector<double> avail(
      static_cast<std::size_t>(platform.num_processors()), 0.0);
  double best = std::numeric_limits<double>::infinity();
  std::size_t scheduled = 0;

  auto ready = [&](TaskId v) {
    if (proc[v] >= 0) return false;
    for (const EdgeRef& e : g.predecessors(v)) {
      if (proc[e.task] < 0) return false;
    }
    return true;
  };

  std::function<void()> recurse = [&]() {
    if (scheduled == n) {
      double makespan = 0.0;
      for (const double f : finish) makespan = std::max(makespan, f);
      best = std::min(best, makespan);
      return;
    }
    for (TaskId v = 0; v < n; ++v) {
      if (!ready(v)) continue;
      for (int p = 0; p < platform.num_processors(); ++p) {
        double start = avail[static_cast<std::size_t>(p)];
        for (const EdgeRef& e : g.predecessors(v)) {
          const double comm =
              proc[e.task] == p
                  ? 0.0
                  : platform.comm_time(e.data, proc[e.task], p);
          start = std::max(start, finish[e.task] + comm);
        }
        const double f = start + platform.exec_time(g.weight(v), p);
        const double prev_avail = avail[static_cast<std::size_t>(p)];
        proc[v] = p;
        finish[v] = f;
        avail[static_cast<std::size_t>(p)] = f;
        ++scheduled;
        recurse();
        --scheduled;
        avail[static_cast<std::size_t>(p)] = prev_avail;
        proc[v] = -1;
        finish[v] = 0.0;
      }
    }
  };
  recurse();
  return best;
}

TEST(BranchBound, MatchesBruteForceOnSmallInstances) {
  // Seeded small DAGs (<= 8 tasks) on 2-3 heterogeneous processors: the
  // pruned search and the dumb oracle must land on the same MD optimum,
  // and the search must prove it.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    testbeds::RandomDagOptions dag;
    dag.seed = seed;
    dag.layers = 3;
    dag.max_width = 2;
    dag.comm_ratio = static_cast<double>(seed % 4);
    const TaskGraph g = testbeds::make_random_layered(dag);
    ASSERT_LE(g.num_tasks(), 6u);  // layers=3 x max_width=2
    const Platform p = seed % 2 == 0 ? Platform({1.0, 2.0, 3.0}, 0.5)
                                     : Platform({1.0, 1.5}, 2.0);
    const BranchBoundResult bb = branch_bound_lower_bound(g, p);
    ASSERT_TRUE(bb.proven_optimal) << "seed " << seed;
    const double brute = brute_force_md_optimum(g, p);
    EXPECT_NEAR(bb.lower_bound, brute, 1e-9) << "seed " << seed;
    EXPECT_NEAR(bb.incumbent, brute, 1e-9) << "seed " << seed;
  }
}

TEST(BranchBound, NeverExceedsForkOnePortOptimum) {
  // The MD relaxation can only be <= the one-port optimum; on zero-data
  // forks the models coincide, so the bound is tight there.
  const ForkInstance zero_data{1.0, {5.0, 5.0, 5.0}, {0.0, 0.0, 0.0}, 1.0,
                               1.0};
  const ForkOptimum opt = solve_fork_one_port_optimal(zero_data);
  const TaskGraph g = fork_instance_graph(zero_data);
  const Platform p = make_homogeneous_platform(4, 1.0, 1.0);
  const BranchBoundResult bb = branch_bound_lower_bound(g, p);
  EXPECT_TRUE(bb.proven_optimal);
  EXPECT_NEAR(bb.lower_bound, opt.makespan, 1e-9);

  const ForkInstance with_data{2.0, {3.0, 1.0, 4.0, 1.0, 5.0},
                               {2.0, 6.0, 1.0, 3.0, 2.0}, 1.0, 1.0};
  const ForkOptimum opt2 = solve_fork_one_port_optimal(with_data);
  const TaskGraph g2 = fork_instance_graph(with_data);
  const Platform p2 = make_homogeneous_platform(6, 1.0, 1.0);
  const BranchBoundResult bb2 = branch_bound_lower_bound(g2, p2);
  EXPECT_LE(bb2.lower_bound, opt2.makespan + 1e-9);
}

TEST(BranchBound, AnytimeBudgetStaysSound) {
  // Starve the search: every truncated bound must stay a lower bound on
  // the proven optimum and never fall below the search-free root bound.
  testbeds::RandomDagOptions dag;
  dag.seed = 97;
  dag.layers = 4;
  dag.max_width = 2;
  dag.comm_ratio = 2.0;
  const TaskGraph g = testbeds::make_random_layered(dag);
  const Platform p({1.0, 2.0, 2.5}, 1.0);
  const BranchBoundResult full =
      branch_bound_lower_bound(g, p, {.node_budget = 5'000'000});
  ASSERT_TRUE(full.proven_optimal);
  // max_search_tasks = 0 forces the no-search path: root bound only.
  const BranchBoundResult root =
      branch_bound_lower_bound(g, p, {.node_budget = 1, .max_search_tasks = 0});
  EXPECT_FALSE(root.proven_optimal);
  for (const std::uint64_t budget : {1ull, 10ull, 100ull, 1000ull}) {
    const BranchBoundResult partial =
        branch_bound_lower_bound(g, p, {.node_budget = budget});
    EXPECT_LE(partial.lower_bound, full.lower_bound + 1e-9)
        << "budget " << budget;
    EXPECT_GE(partial.lower_bound, root.lower_bound - 1e-9)
        << "budget " << budget;
    EXPECT_GT(partial.lower_bound, 0.0) << "budget " << budget;
  }
}

TEST(BranchBound, OversizedInstanceGetsRootBoundOnly) {
  const TaskGraph g = testbeds::make_lu(12);  // 66 tasks > default cap 64
  const Platform p = make_paper_platform();
  const BranchBoundResult bb = branch_bound_lower_bound(g, p);
  EXPECT_FALSE(bb.proven_optimal);
  EXPECT_EQ(bb.nodes_expanded, 0u);
  EXPECT_GT(bb.lower_bound, 0.0);
  // Root bound is at least the load bound W / aggregate speed.
  EXPECT_GE(bb.lower_bound, g.total_weight() / p.aggregate_speed() - 1e-9);
}

/// Soundness over the seeded scenario rotation (ISSUE-10 satellite):
/// for every scenario, lower_bound <= the best makespan over ALL
/// registered heuristics under their respective models; on provably
/// closed small instances the brute-force oracle attains the bound.
void check_lb_soundness(const testsupport::Scenario& scenario) {
  BranchBoundOptions options;
  options.node_budget = 20'000;
  options.routing = scenario.routing_ptr();
  const BranchBoundResult bb =
      branch_bound_lower_bound(scenario.graph, scenario.platform, options);
  double best = std::numeric_limits<double>::infinity();
  const std::vector<SchedulerEntry> registry = builtin_schedulers(
      SchedulerConfig{.ilha_chunk_size = 5, .routing = scenario.routing_ptr()});
  for (const SchedulerEntry& entry : registry) {
    const Schedule schedule = entry.run(scenario.graph, scenario.platform);
    best = std::min(best, schedule.makespan());
    EXPECT_LE(bb.lower_bound, schedule.makespan() + 1e-7)
        << scenario.description << " scheduler=" << entry.name;
  }
  // proven => attainable: the independent oracle reaches the bound
  // exactly.  Only affordable where the unpruned enumeration is small.
  if (bb.proven_optimal && !scenario.routing &&
      scenario.graph.num_tasks() <= 6 &&
      scenario.platform.num_processors() <= 3) {
    const double brute =
        brute_force_md_optimum(scenario.graph, scenario.platform);
    EXPECT_NEAR(bb.lower_bound, brute, 1e-9) << scenario.description;
    EXPECT_LE(bb.lower_bound, best + 1e-7) << scenario.description;
  }
}

TEST(BranchBoundSoundness, LowerBoundsEveryHeuristicOnScenarioRotation) {
  for (const std::uint64_t base : {101ull, 307ull, 503ull}) {
    for (const testsupport::Scenario& scenario :
         testsupport::scenario_sweep(base, 6)) {
      SCOPED_TRACE(scenario.description);
      check_lb_soundness(scenario);
    }
  }
  for (const testsupport::Scenario& scenario :
       testsupport::edge_case_scenarios()) {
    SCOPED_TRACE(scenario.description);
    check_lb_soundness(scenario);
  }
}

TEST(BranchBoundSoundness, LowerBoundsHoldOnWorkloadFamilies) {
  for (const testsupport::Scenario& scenario :
       testsupport::workload_scenario_sweep(151, 8)) {
    SCOPED_TRACE(scenario.description);
    check_lb_soundness(scenario);
  }
}

TEST(BranchBoundSoundness, RoutedScenariosUseRoutedDistances) {
  // Sparse platforms: the bound must cost routed messages by their hop
  // sums (the link matrix holds +inf for non-adjacent pairs) and still
  // floor every heuristic's store-and-forward schedule.
  for (const testsupport::Scenario& scenario :
       testsupport::routed_scenario_sweep(131, 10)) {
    SCOPED_TRACE(scenario.description);
    check_lb_soundness(scenario);
  }
}

TEST(BranchBoundSoundness, IgnoresUncheckedTableDistances) {
  // from_tables checks neither table.  Here `dist` claims 100 per item
  // between two processors whose direct link costs 1, so a bound read
  // from distances() (21, "proven optimal") would exceed the 12 that
  // heft-oneport reaches: a on P0, b after it, c on P1 once a's message
  // arrives at 2.  The search must cost the route from its hops.
  TaskGraph g;
  const TaskId a = g.add_task(1.0);
  g.add_edge(a, g.add_task(10.0), 1.0);
  g.add_edge(a, g.add_task(10.0), 1.0);
  g.finalize();
  const Platform platform = make_homogeneous_platform(2);
  Matrix<double> dist(2, 2, 100.0);
  dist(0, 0) = dist(1, 1) = 0.0;
  Matrix<int> next(2, 2, 0);
  next(0, 1) = next(1, 1) = 1;
  const RoutingTable table =
      RoutingTable::from_tables(2, std::move(dist), std::move(next));
  BranchBoundOptions options;
  options.routing = &table;
  const BranchBoundResult bb = branch_bound_lower_bound(g, platform, options);
  const Schedule schedule = heft(g, platform, {.routing = &table});
  ASSERT_TRUE(validate_one_port(schedule, g, platform).ok());
  EXPECT_DOUBLE_EQ(schedule.makespan(), 12.0);
  EXPECT_TRUE(bb.proven_optimal);
  EXPECT_DOUBLE_EQ(bb.lower_bound, 12.0);
}

TEST(Theorem2, IffPropertyOnSmallInstances) {
  // Exhaustive check of the reduction on all multisets from a small pool:
  // optimum == 2S iff 2-PARTITION has a solution.
  const std::vector<std::vector<std::int64_t>> instances = {
      {1, 1},       {1, 2},       {2, 2, 4},    {1, 2, 3},
      {1, 1, 1, 1}, {5, 4, 3, 2}, {3, 3, 3, 1}, {2, 4, 6, 8, 10},
  };
  for (const auto& values : instances) {
    const CommSchedInstance inst = make_comm_sched_instance(values);
    const double opt = solve_comm_sched_optimal(inst, values);
    const bool feasible = two_partition(values).has_value();
    if (feasible) {
      EXPECT_NEAR(opt, inst.time_bound, 1e-9);
    } else {
      EXPECT_GT(opt, inst.time_bound + 1e-9);
    }
  }
}

}  // namespace
}  // namespace oneport::exact
