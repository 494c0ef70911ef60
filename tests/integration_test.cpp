// Cross-module integration: every built-in scheduler x every paper
// testbed x several sizes produces a schedule that the matching
// independent validator accepts, whose dates survive ASAP replay, and
// whose makespan respects the area lower bound.
#include <gtest/gtest.h>

#include <tuple>

#include "core/registry.hpp"
#include "sched/replay.hpp"
#include "sched/validate.hpp"
#include "testbeds/registry.hpp"
#include "testbeds/testbeds.hpp"

namespace oneport {
namespace {

using Param = std::tuple<std::string, int, std::string>;

class SchedulerTestbedMatrix : public ::testing::TestWithParam<Param> {};

TEST_P(SchedulerTestbedMatrix, ProducesValidSchedules) {
  const auto& [testbed_name, size, scheduler_name] = GetParam();
  const testbeds::TestbedEntry testbed = testbeds::find_testbed(testbed_name);
  const TaskGraph graph = testbed.make(size, testbeds::kPaperCommRatio);
  const Platform platform = make_paper_platform();
  const SchedulerEntry scheduler =
      find_scheduler(scheduler_name, testbed.paper_best_b);

  const Schedule schedule = scheduler.run(graph, platform);
  ASSERT_TRUE(schedule.complete());

  const ValidationResult check =
      validate(schedule, graph, platform, scheduler.model);
  ASSERT_TRUE(check.ok()) << check.message();

  // Area bound: total work cannot beat the aggregate speed.
  EXPECT_GE(schedule.makespan(),
            graph.total_weight() / platform.aggregate_speed() - 1e-6);

  // ASAP replay under the same model never worsens a valid schedule, and
  // the result still validates.
  const Schedule replayed =
      asap_replay(schedule, graph, platform, scheduler.model);
  EXPECT_LE(replayed.makespan(), schedule.makespan() + 1e-6);
  const ValidationResult recheck =
      validate(replayed, graph, platform, scheduler.model);
  EXPECT_TRUE(recheck.ok()) << recheck.message();
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, SchedulerTestbedMatrix,
    ::testing::Combine(
        ::testing::Values("LU", "LAPLACE", "STENCIL", "FORK-JOIN",
                          "DOOLITTLE", "LDMt"),
        ::testing::Values(12, 25),
        ::testing::Values("heft-macro", "heft-oneport", "ilha-macro",
                          "ilha-oneport", "cpop-macro", "cpop-oneport")),
    [](const ::testing::TestParamInfo<Param>& param_info) {
      std::string name = std::get<0>(param_info.param) + "_n" +
                         std::to_string(std::get<1>(param_info.param)) + "_" +
                         std::get<2>(param_info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(Registry, ExposesAllSchedulers) {
  EXPECT_EQ(builtin_schedulers().size(), 11u);
  EXPECT_THROW(find_scheduler("nope"), std::invalid_argument);
  EXPECT_EQ(find_scheduler("ilha-oneport").name, "ilha-oneport");
}

/// An entry's `model` is the model its heuristic schedules under, and
/// the one its name announces.  On MICROSVC (n = 40, paper platform)
/// every macro-dataflow schedule overlaps messages on some port, so the
/// one-port validator accepts exactly the one-port entries' schedules:
/// a model that does not reach the heuristic, or a row given the other
/// model, fails here in either direction.
TEST(Registry, ModelIsTheModelTheEntrySchedulesUnder) {
  const TaskGraph graph = testbeds::make_microsvc(40);
  const Platform platform = make_paper_platform();
  for (const SchedulerEntry& entry : builtin_schedulers()) {
    const bool one_port = entry.model == CommModel::kOnePort;
    EXPECT_EQ(entry.name.ends_with("-oneport"), one_port) << entry.name;
    EXPECT_EQ(validate_one_port(entry.run(graph, platform), graph, platform)
                  .ok(),
              one_port)
        << entry.name;
  }
}

/// The macro model is a relaxation of the one-port model, so for the SAME
/// scheduler family the macro makespan reported is never above the
/// one-port makespan on these kernels.
TEST(ModelComparison, MacroIsOptimisticOnPaperKernels) {
  const Platform platform = make_paper_platform();
  for (const auto& testbed : testbeds::paper_testbeds()) {
    const TaskGraph graph = testbed.make(15, testbeds::kPaperCommRatio);
    const Schedule macro =
        find_scheduler("heft-macro").run(graph, platform);
    const Schedule oneport =
        find_scheduler("heft-oneport").run(graph, platform);
    EXPECT_LE(macro.makespan(), oneport.makespan() + 1e-6) << testbed.name;
  }
}

}  // namespace
}  // namespace oneport
