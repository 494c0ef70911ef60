#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/gantt.hpp"
#include "analysis/metrics.hpp"
#include "core/heft.hpp"
#include "testbeds/testbeds.hpp"

namespace oneport::analysis {
namespace {

TEST(Metrics, SequentialTimeUsesFastestProcessor) {
  TaskGraph g;
  g.add_task(2.0);
  g.add_task(3.0);
  g.finalize();
  const Platform p({4.0, 2.0}, 1.0);
  EXPECT_DOUBLE_EQ(sequential_time(g, p), 10.0);
}

TEST(Metrics, SpeedupIsSequentialOverMakespan) {
  TaskGraph g;
  g.add_task(2.0);
  g.add_task(2.0);
  g.finalize();
  const Platform p({1.0, 1.0}, 1.0);
  Schedule s(2);
  s.place_task(0, 0, 0.0, 2.0);
  s.place_task(1, 1, 0.0, 2.0);
  EXPECT_DOUBLE_EQ(speedup(g, p, s), 2.0);
}

TEST(Metrics, StatsAccounting) {
  TaskGraph g;
  g.add_task(1.0);
  g.add_task(3.0);
  g.add_edge(0, 1, 2.0);
  g.finalize();
  const Platform p({1.0, 1.0}, 1.0);
  Schedule s(2);
  s.place_task(0, 0, 0.0, 1.0);
  s.add_comm({0, 1, 0, 1, 1.0, 3.0});
  s.place_task(1, 1, 3.0, 6.0);
  const ScheduleStats stats = compute_stats(g, p, s);
  EXPECT_DOUBLE_EQ(stats.makespan, 6.0);
  EXPECT_EQ(stats.num_comms, 1u);
  EXPECT_DOUBLE_EQ(stats.total_comm_time, 2.0);
  ASSERT_EQ(stats.busy.size(), 2u);
  EXPECT_DOUBLE_EQ(stats.busy[0], 1.0);
  EXPECT_DOUBLE_EQ(stats.busy[1], 3.0);
  EXPECT_DOUBLE_EQ(stats.load_imbalance, 1.5);
  EXPECT_DOUBLE_EQ(stats.mean_utilization, 2.0 / 6.0);
}

TEST(Gantt, AsciiShowsComputeAndPorts) {
  const TaskGraph g = testbeds::make_fork(1.0, {1.0, 1.0}, {1.0, 1.0});
  const Platform p = make_homogeneous_platform(2, 1.0, 1.0);
  const Schedule s = heft(g, p, {.model = CommModel::kOnePort});
  std::ostringstream oss;
  write_gantt_ascii(oss, s, p, {.width = 40});
  const std::string out = oss.str();
  EXPECT_NE(out.find("P0 cpu"), std::string::npos);
  EXPECT_NE(out.find('#'), std::string::npos);
  EXPECT_NE(out.find("makespan"), std::string::npos);
}

TEST(Gantt, AsciiWithoutPorts) {
  const TaskGraph g = testbeds::make_fork(1.0, {1.0}, {1.0});
  const Platform p = make_homogeneous_platform(2, 1.0, 1.0);
  const Schedule s = heft(g, p, {});
  std::ostringstream oss;
  write_gantt_ascii(oss, s, p, {.width = 40, .show_ports = false});
  EXPECT_EQ(oss.str().find("send"), std::string::npos);
}

TEST(Gantt, SvgContainsRectangles) {
  const TaskGraph g = testbeds::make_fork(1.0, {1.0, 1.0}, {1.0, 1.0});
  const Platform p = make_homogeneous_platform(2, 1.0, 1.0);
  const Schedule s = heft(g, p, {.model = CommModel::kOnePort});
  std::ostringstream oss;
  write_gantt_svg(oss, s, p);
  const std::string out = oss.str();
  EXPECT_NE(out.find("<svg"), std::string::npos);
  EXPECT_NE(out.find("<rect"), std::string::npos);
  EXPECT_NE(out.find("</svg>"), std::string::npos);
}

TEST(Experiment, FigureTablePairsHeftWithIlhaFromRunSweep) {
  const Platform platform = make_paper_platform();
  const std::vector<SweepResult> rows = run_sweep(
      make_sweep_grid({"LAPLACE"}, {6, 10}, {"heft-oneport", "ilha-oneport"},
                      testbeds::kPaperCommRatio, 38),
      platform);
  ASSERT_EQ(rows.size(), 4u);
  const csv::Table table = figure_table(rows);
  ASSERT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.rows()[0][0], "6");
  EXPECT_EQ(table.rows()[1][0], "10");
  for (const SweepResult& r : rows) {
    EXPECT_GT(r.speedup, 0.0) << r.point.scheduler;
    EXPECT_GT(r.makespan, 0.0) << r.point.scheduler;
  }
  // Rows that do not pair up -- an odd count, ILHA before HEFT, or two
  // sizes in one pair -- are rejected rather than misprinted.
  EXPECT_THROW((void)figure_table({rows[0], rows[1], rows[2]}),
               std::invalid_argument);
  EXPECT_THROW((void)figure_table({rows[1], rows[0]}), std::invalid_argument);
  EXPECT_THROW((void)figure_table({rows[0], rows[3]}), std::invalid_argument);
}

TEST(Experiment, FigureTableReportsIlhaGain) {
  std::vector<SweepResult> rows(2);
  rows[0].point.scheduler = "heft-oneport";
  rows[0].speedup = 4.0;
  rows[1].point.scheduler = "ilha-oneport";
  rows[1].speedup = 4.4;
  const csv::Table table = figure_table(rows);
  EXPECT_EQ(table.num_rows(), 1u);
  // 10% gain column.
  EXPECT_EQ(table.rows()[0][3], "10");
}

TEST(Experiment, UnknownTestbedThrows) {
  EXPECT_THROW(
      (void)run_sweep(make_sweep_grid({"BOGUS"}, {6}, {"heft-oneport"}),
                      make_paper_platform()),
      std::invalid_argument);
}

TEST(Experiment, RebalanceIsAGridAxis) {
  // rebalance innermost: consecutive points differ only in the flag.
  const std::vector<SweepPoint> grid =
      make_sweep_grid({"LU"}, {20}, {"heft-oneport"}, 10.0, 38, {"full"},
                      {"mixed"}, {false, true});
  ASSERT_EQ(grid.size(), 2u);
  EXPECT_FALSE(grid[0].rebalance);
  EXPECT_TRUE(grid[1].rebalance);
  EXPECT_EQ(grid[0].events, "mixed");
  EXPECT_EQ(grid[1].events, "mixed");
}

TEST(Experiment, SweepReportsEpochImbalance) {
  const std::vector<SweepPoint> grid =
      make_sweep_grid({"LU"}, {20}, {"heft-oneport"}, 10.0, 38, {"full"},
                      {"mixed"}, {false, true});
  const std::vector<SweepResult> results =
      run_sweep(grid, make_paper_platform(), {.workers = 1});
  ASSERT_EQ(results.size(), 2u);
  for (const SweepResult& r : results) {
    // The rebalancing pass never increases an epoch's suffix skew, and
    // the mixed trace always reschedules a non-trivial suffix, so the
    // before-skew is a real positive measurement on both points.
    EXPECT_GT(r.imbalance_before, 0.0);
    EXPECT_LE(r.imbalance_after, r.imbalance_before);
    EXPECT_GT(r.makespan, 0.0);
  }
  // Rebalance off: the pass is skipped, so before == after exactly.
  EXPECT_DOUBLE_EQ(results[0].imbalance_after, results[0].imbalance_before);
  // The table carries the axis and both imbalance columns.
  const csv::Table table = sweep_table(results);
  EXPECT_EQ(table.rows()[0][5], "off");
  EXPECT_EQ(table.rows()[1][5], "on");
}

// Every point is a pure function of its inputs, so four threads return
// the serial rows bit for bit: static and dynamic points, full and
// routed networks, audited and not.  A negative count is rejected.
TEST(Experiment, ResultsDoNotDependOnWorkerCount) {
  const std::vector<SweepPoint> grid = make_sweep_grid(
      {"LU", "MICROSVC"}, {10}, {"heft-oneport", "ilha-oneport"}, 10.0, 38,
      {"full", "mesh3x3:het0.5:swp"}, {"none", "mixed"}, {false, true});
  const Platform platform = make_paper_platform();
  SweepOptions options{.audit_gap = true, .audit_node_budget = 20'000};
  options.workers = 1;
  const std::vector<SweepResult> serial = run_sweep(grid, platform, options);
  options.workers = 4;
  const std::vector<SweepResult> parallel = run_sweep(grid, platform, options);
  ASSERT_EQ(serial.size(), grid.size());
  ASSERT_EQ(parallel.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const SweepResult& a = serial[i];
    const SweepResult& b = parallel[i];
    SCOPED_TRACE(a.point.topology + "/" + a.point.testbed + "/" +
                 a.point.scheduler + "/" + a.point.events +
                 (a.point.rebalance ? "/rebalance" : ""));
    EXPECT_EQ(b.point.testbed, a.point.testbed);
    EXPECT_EQ(b.point.topology, a.point.topology);
    EXPECT_EQ(b.point.scheduler, a.point.scheduler);
    EXPECT_EQ(b.point.events, a.point.events);
    EXPECT_EQ(b.point.rebalance, a.point.rebalance);
    EXPECT_EQ(b.makespan, a.makespan);
    EXPECT_EQ(b.speedup, a.speedup);
    EXPECT_EQ(b.num_comms, a.num_comms);
    EXPECT_EQ(b.imbalance_before, a.imbalance_before);
    EXPECT_EQ(b.imbalance_after, a.imbalance_after);
    EXPECT_EQ(b.audited, a.audited);
    EXPECT_EQ(b.lower_bound, a.lower_bound);
    EXPECT_EQ(b.optimality_gap, a.optimality_gap);
    EXPECT_EQ(b.lb_proven, a.lb_proven);
  }
  options.workers = -1;
  EXPECT_THROW((void)run_sweep(grid, platform, options),
               std::invalid_argument);
}

}  // namespace
}  // namespace oneport::analysis
