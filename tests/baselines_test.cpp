// Tests for the extra baselines (min-min / max-min / GDL) and the ILHA
// chunk-size autotuner.
#include <gtest/gtest.h>

#include "core/autotune.hpp"
#include "core/gdl.hpp"
#include "core/heft.hpp"
#include "core/minmin.hpp"
#include "platform/routing.hpp"
#include "sched/validate.hpp"
#include "testbeds/testbeds.hpp"

namespace oneport {
namespace {

TEST(MinMin, SingleTaskOnFastest) {
  TaskGraph g;
  g.add_task(3.0);
  g.finalize();
  const Platform p({2.0, 1.0}, 1.0);
  const Schedule s = min_min(g, p, {});
  EXPECT_EQ(s.task(0).proc, 1);
}

TEST(MinMin, PrefersShortTasksFirst) {
  // Independent tasks of very different sizes on one processor: min-min
  // commits the small ones first, max-min the big one.
  TaskGraph g;
  const TaskId small = g.add_task(1.0);
  const TaskId big = g.add_task(10.0);
  g.finalize();
  const Platform p({1.0}, 1.0);
  const Schedule mm = min_min(g, p, {});
  EXPECT_LT(mm.task(small).start, mm.task(big).start);
  const Schedule xm = min_min(g, p, {.max_min = true});
  EXPECT_LT(xm.task(big).start, xm.task(small).start);
}

TEST(MinMin, ValidOnTestbedsBothModels) {
  const Platform p = make_paper_platform();
  const TaskGraph g = testbeds::make_lu(12, 10.0);
  const Schedule one = min_min(g, p, {.model = CommModel::kOnePort});
  EXPECT_TRUE(validate_one_port(one, g, p).ok());
  const Schedule macro =
      min_min(g, p, {.model = CommModel::kMacroDataflow});
  EXPECT_TRUE(validate_macro_dataflow(macro, g, p).ok());
  const Schedule max = min_min(g, p, {.model = CommModel::kOnePort,
                                      .max_min = true});
  EXPECT_TRUE(validate_one_port(max, g, p).ok());
}

TEST(MinMin, SupportsRouting) {
  const TaskGraph g = testbeds::make_stencil(6, 4.0);
  const RoutedPlatform ring =
      make_topology_platform("ring", {1, 1, 2, 2}, 1.0);
  const Schedule s = min_min(g, ring.platform,
                             {.model = CommModel::kOnePort,
                              .routing = &ring.routing});
  EXPECT_TRUE(validate_one_port(s, g, ring.platform).ok());
}

TEST(Gdl, FavorsFasterProcessors) {
  // Equal EFT choices resolved by the Delta(v, p) speed bonus.
  TaskGraph g;
  g.add_task(4.0);
  g.finalize();
  const Platform p({3.0, 1.0, 2.0}, 1.0);
  const Schedule s = gdl(g, p, {});
  EXPECT_EQ(s.task(0).proc, 1);
}

TEST(Gdl, ValidOnTestbedsBothModels) {
  const Platform p = make_paper_platform();
  const TaskGraph g = testbeds::make_doolittle(12, 10.0);
  const Schedule one = gdl(g, p, {.model = CommModel::kOnePort});
  EXPECT_TRUE(validate_one_port(one, g, p).ok());
  const Schedule macro =
      gdl(g, p, {.model = CommModel::kMacroDataflow});
  EXPECT_TRUE(validate_macro_dataflow(macro, g, p).ok());
}

TEST(Gdl, Deterministic) {
  const TaskGraph g = testbeds::make_laplace(8, 10.0);
  const Platform p = make_paper_platform();
  const Schedule a = gdl(g, p, {});
  const Schedule b = gdl(g, p, {});
  for (TaskId v = 0; v < g.num_tasks(); ++v) {
    EXPECT_EQ(a.task(v).proc, b.task(v).proc);
  }
}

TEST(Autotune, PicksTheBestCandidate) {
  const TaskGraph g = testbeds::make_lu(20, 10.0);
  const Platform p = make_paper_platform();
  const IlhaAutotuneResult result = ilha_autotune(
      g, p, {.model = CommModel::kOnePort}, {10, 20, 38});
  ASSERT_EQ(result.trials.size(), 3u);
  for (const auto& [b, makespan] : result.trials) {
    EXPECT_GE(makespan, result.makespan - 1e-9)
        << "B=" << b << " beat the reported winner";
  }
  EXPECT_DOUBLE_EQ(result.schedule.makespan(), result.makespan);
  EXPECT_TRUE(validate_one_port(result.schedule, g, p).ok());
}

TEST(Autotune, DefaultCandidatesSpanTheRange) {
  const TaskGraph g = testbeds::make_laplace(10, 10.0);
  const Platform p = make_paper_platform();
  const IlhaAutotuneResult result = ilha_autotune(g, p);
  // Defaults for the paper platform: {10, 24, 38, 76}.
  ASSERT_EQ(result.trials.size(), 4u);
  EXPECT_EQ(result.trials.front().first, 10);
  EXPECT_EQ(result.trials.back().first, 76);
}

TEST(Autotune, DeduplicatesCandidates) {
  const TaskGraph g = testbeds::make_laplace(6, 10.0);
  const Platform p = make_paper_platform();
  const IlhaAutotuneResult result =
      ilha_autotune(g, p, {}, {20, 20, 10, 10});
  EXPECT_EQ(result.trials.size(), 2u);
  EXPECT_EQ(result.trials.front().first, 10);
}

}  // namespace
}  // namespace oneport
