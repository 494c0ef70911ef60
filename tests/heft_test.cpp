#include <gtest/gtest.h>

#include "analysis/metrics.hpp"
#include "core/heft.hpp"
#include "core/priorities.hpp"
#include "sched/validate.hpp"
#include "testbeds/testbeds.hpp"

namespace oneport {
namespace {

TEST(Priorities, AveragedBottomLevelsUseHarmonicMeans) {
  TaskGraph g;
  g.add_task(2.0);
  g.add_task(1.0);
  g.add_edge(0, 1, 3.0);
  g.finalize();
  const Platform p({2.0, 2.0}, 4.0);  // H(t) = 2, H(link) = 4
  const auto bl = averaged_bottom_levels(g, p);
  EXPECT_DOUBLE_EQ(bl[1], 1.0 * 2.0);
  EXPECT_DOUBLE_EQ(bl[0], 2.0 * 2.0 + 3.0 * 4.0 + 2.0);
}

TEST(Heft, SingleTaskGoesToFastestProcessor) {
  TaskGraph g;
  g.add_task(4.0);
  g.finalize();
  const Platform p({3.0, 1.0, 2.0}, 1.0);
  const Schedule s = heft(g, p, {.model = CommModel::kOnePort});
  EXPECT_EQ(s.task(0).proc, 1);
  EXPECT_DOUBLE_EQ(s.makespan(), 4.0);
}

TEST(Heft, ChainStaysOnOneProcessorWhenCommsAreExpensive) {
  TaskGraph g;
  for (int i = 0; i < 5; ++i) g.add_task(1.0);
  for (TaskId v = 0; v + 1 < 5; ++v) g.add_edge(v, v + 1, 100.0);
  g.finalize();
  const Platform p({1.0, 1.0, 1.0}, 1.0);
  const Schedule s = heft(g, p, {.model = CommModel::kOnePort});
  for (TaskId v = 1; v < 5; ++v) EXPECT_EQ(s.task(v).proc, s.task(0).proc);
  EXPECT_EQ(s.num_comms(), 0u);
  EXPECT_DOUBLE_EQ(s.makespan(), 5.0);
}

TEST(Heft, IndependentTasksSpreadAcrossProcessors) {
  TaskGraph g;
  for (int i = 0; i < 4; ++i) g.add_task(1.0);
  g.finalize();
  const Platform p({1.0, 1.0}, 1.0);
  const Schedule s = heft(g, p, {.model = CommModel::kOnePort});
  // Two tasks per processor, makespan 2.
  EXPECT_DOUBLE_EQ(s.makespan(), 2.0);
}

TEST(Heft, TieBreaksTowardLowerProcessorId) {
  TaskGraph g;
  g.add_task(1.0);
  g.finalize();
  const Platform p({2.0, 2.0, 2.0}, 1.0);
  const Schedule s = heft(g, p, {});
  EXPECT_EQ(s.task(0).proc, 0);
}

TEST(Heft, MacroModelOnSection2Fork) {
  // The §2.3 example: macro HEFT finds the makespan-3 schedule.
  const TaskGraph g = testbeds::make_fork(1.0, std::vector<double>(6, 1.0),
                                          std::vector<double>(6, 1.0));
  const Platform p = make_homogeneous_platform(5, 1.0, 1.0);
  const Schedule s = heft(g, p, {.model = CommModel::kMacroDataflow});
  EXPECT_TRUE(validate_macro_dataflow(s, g, p).ok());
  EXPECT_DOUBLE_EQ(s.makespan(), 3.0);
}

TEST(Heft, OnePortModelOnSection2Fork) {
  // Port-aware HEFT avoids the serialization trap and reaches the
  // one-port optimum of 5.
  const TaskGraph g = testbeds::make_fork(1.0, std::vector<double>(6, 1.0),
                                          std::vector<double>(6, 1.0));
  const Platform p = make_homogeneous_platform(5, 1.0, 1.0);
  const Schedule s = heft(g, p, {.model = CommModel::kOnePort});
  EXPECT_TRUE(validate_one_port(s, g, p).ok());
  EXPECT_DOUBLE_EQ(s.makespan(), 5.0);
}

TEST(Heft, InsertionBasedGapUse) {
  // Two entry tasks and a heavy independent task: the light successor
  // should slot into the idle gap before the heavy task's finish.
  TaskGraph g;
  const TaskId heavy = g.add_task(10.0);
  const TaskId src = g.add_task(1.0);
  const TaskId child = g.add_task(1.0);
  g.add_edge(src, child, 0.5);
  g.finalize();
  (void)heavy;
  const Platform p({1.0, 1.0}, 1.0);
  const Schedule s = heft(g, p, {.model = CommModel::kOnePort});
  EXPECT_TRUE(validate_one_port(s, g, p).ok());
  EXPECT_DOUBLE_EQ(s.makespan(), 10.0);
}

TEST(Heft, ZeroWeightTasksAreLegal) {
  TaskGraph g;
  g.add_task(0.0);
  g.add_task(0.0);
  g.add_edge(0, 1, 1.0);
  g.finalize();
  const Platform p({1.0, 1.0}, 1.0);
  const Schedule s = heft(g, p, {.model = CommModel::kOnePort});
  EXPECT_TRUE(validate_one_port(s, g, p).ok());
}

TEST(Heft, ParentsBeforeChildrenAlways) {
  const TaskGraph g = testbeds::make_laplace(12, 10.0);
  const Platform p = make_paper_platform();
  const Schedule s = heft(g, p, {.model = CommModel::kOnePort});
  for (TaskId u = 0; u < g.num_tasks(); ++u) {
    for (const EdgeRef& e : g.successors(u)) {
      EXPECT_GE(s.task(e.task).start, s.task(u).finish - 1e-9);
    }
  }
}

TEST(Heft, MakespanAboveAreaLowerBound) {
  // No schedule can beat total-work / aggregate-speed.
  const TaskGraph g = testbeds::make_lu(25, 10.0);
  const Platform p = make_paper_platform();
  const Schedule s = heft(g, p, {.model = CommModel::kOnePort});
  EXPECT_GE(s.makespan(), g.total_weight() / p.aggregate_speed() - 1e-9);
}

TEST(Heft, DeterministicAcrossRuns) {
  const TaskGraph g = testbeds::make_doolittle(15, 10.0);
  const Platform p = make_paper_platform();
  const Schedule a = heft(g, p, {.model = CommModel::kOnePort});
  const Schedule b = heft(g, p, {.model = CommModel::kOnePort});
  EXPECT_DOUBLE_EQ(a.makespan(), b.makespan());
  for (TaskId v = 0; v < g.num_tasks(); ++v) {
    EXPECT_EQ(a.task(v).proc, b.task(v).proc);
    EXPECT_DOUBLE_EQ(a.task(v).start, b.task(v).start);
  }
}

}  // namespace
}  // namespace oneport
