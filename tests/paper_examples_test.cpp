// End-to-end regeneration of every number the paper states outside its
// figures: the §2.3 worked example, the §4.4 toy example, the §5.2
// platform bounds, and the FORK-JOIN analytic speedup cap of §5.3.
#include <gtest/gtest.h>

#include "analysis/metrics.hpp"
#include "core/heft.hpp"
#include "core/ilha.hpp"
#include "exact/fork_optimal.hpp"
#include "platform/load_balance.hpp"
#include "sched/replay.hpp"
#include "sched/validate.hpp"
#include "testbeds/testbeds.hpp"

namespace oneport {
namespace {

// ------------------------------------------------------------- §2.3

class Section23Example : public ::testing::Test {
 protected:
  const TaskGraph graph = testbeds::make_fork(
      1.0, std::vector<double>(6, 1.0), std::vector<double>(6, 1.0));
  const Platform platform = make_homogeneous_platform(5, 1.0, 1.0);
};

TEST_F(Section23Example, MacroDataflowMakespanIsThree) {
  const Schedule s =
      heft(graph, platform, {.model = CommModel::kMacroDataflow});
  EXPECT_TRUE(validate_macro_dataflow(s, graph, platform).ok());
  EXPECT_DOUBLE_EQ(s.makespan(), 3.0);
}

TEST_F(Section23Example, MacroAllocationCostsSixUnderOnePort) {
  const Schedule macro =
      heft(graph, platform, {.model = CommModel::kMacroDataflow});
  const Schedule replayed =
      asap_replay(macro, graph, platform, CommModel::kOnePort);
  EXPECT_TRUE(validate_one_port(replayed, graph, platform).ok());
  EXPECT_DOUBLE_EQ(replayed.makespan(), 6.0);
}

TEST_F(Section23Example, OnePortOptimumIsFive) {
  const exact::ForkInstance inst{1.0, std::vector<double>(6, 1.0),
                                 std::vector<double>(6, 1.0), 1.0, 1.0};
  EXPECT_DOUBLE_EQ(exact::solve_fork_one_port_optimal(inst).makespan, 5.0);
}

TEST_F(Section23Example, OnePortHeuristicsReachTheOptimum) {
  const Schedule h =
      heft(graph, platform, {.model = CommModel::kOnePort});
  EXPECT_DOUBLE_EQ(h.makespan(), 5.0);
  const Schedule i = ilha(graph, platform,
                          {.model = CommModel::kOnePort,
                           .chunk_size = 8});
  EXPECT_DOUBLE_EQ(i.makespan(), 5.0);
}

// ------------------------------------------------------------- §4.4 toy

TEST(Section44Toy, IlhaHalvesMessagesAtEqualOrBetterMakespan) {
  TaskGraph g;
  const TaskId a0 = g.add_task(1.0);
  const TaskId b0 = g.add_task(1.0);
  std::vector<TaskId> a_kids, b_kids, shared;
  for (int i = 0; i < 3; ++i) a_kids.push_back(g.add_task(1.0));
  for (int i = 0; i < 2; ++i) shared.push_back(g.add_task(1.0));
  for (int i = 0; i < 3; ++i) b_kids.push_back(g.add_task(1.0));
  for (const TaskId c : a_kids) g.add_edge(a0, c, 1.0);
  for (const TaskId c : shared) {
    g.add_edge(a0, c, 1.0);
    g.add_edge(b0, c, 1.0);
  }
  for (const TaskId c : b_kids) g.add_edge(b0, c, 1.0);
  g.finalize();
  const Platform p = make_homogeneous_platform(2, 1.0, 1.0);

  const Schedule hs = heft(g, p, {.model = CommModel::kOnePort});
  const Schedule is = ilha(g, p, {.model = CommModel::kOnePort,
                                  .chunk_size = 8});
  EXPECT_LE(is.makespan(), hs.makespan() + 1e-9);
  EXPECT_LT(is.num_comms(), hs.num_comms());
}

// ------------------------------------------------------------- §5.2

TEST(Section52, PlatformBounds) {
  const Platform p = make_paper_platform();
  EXPECT_EQ(perfect_balance_chunk(p), 38);
  EXPECT_NEAR(speedup_upper_bound(p), 7.6, 1e-12);
  const std::vector<int> dist = optimal_distribution(p, 38);
  EXPECT_DOUBLE_EQ(distribution_makespan(p, dist), 30.0);
}

// ------------------------------------------------------------- §5.3

TEST(Section53, ForkJoinRatioApproachesItsCap) {
  // s <= w*t/c + 1 = 1.6 for t=6, c=10, w=1; the paper measures
  // 1.53-1.58 and argues that is near-optimal.
  const Platform p = make_paper_platform();
  const TaskGraph g = testbeds::make_fork_join(150, 10.0);
  const Schedule h = heft(g, p, {.model = CommModel::kOnePort});
  const Schedule i = ilha(g, p, {.model = CommModel::kOnePort,
                                 .chunk_size = 38});
  const double cap = 1.0 * 6.0 / 10.0 + 1.0;
  for (const Schedule* s : {&h, &i}) {
    const double ratio = analysis::speedup(g, p, *s);
    EXPECT_GT(ratio, 1.4);
    EXPECT_LT(ratio, cap + 0.05);
  }
  // HEFT and ILHA coincide on this kernel (Figure 7).
  EXPECT_DOUBLE_EQ(h.makespan(), i.makespan());
}

TEST(Section53, LinearAlgebraKernelsLandInThePaperBand) {
  // Small-instance smoke check that the one-port ratios live in the right
  // neighbourhood (full sweeps are in bench/).
  const Platform p = make_paper_platform();
  const TaskGraph lu = testbeds::make_lu(100, 10.0);
  const double r = analysis::speedup(
      lu, p, ilha(lu, p, {.model = CommModel::kOnePort,
                          .chunk_size = 4}));
  EXPECT_GT(r, 3.5);
  EXPECT_LT(r, 6.5);
}

TEST(Section53, StencilIsCommBound) {
  const Platform p = make_paper_platform();
  const TaskGraph st = testbeds::make_stencil(60, 10.0);
  const double r = analysis::speedup(
      st, p, ilha(st, p, {.model = CommModel::kOnePort,
                          .chunk_size = 38}));
  EXPECT_GT(r, 1.8);
  EXPECT_LT(r, 3.5);
}

}  // namespace
}  // namespace oneport
