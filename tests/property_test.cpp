// Randomized property tests: random layered DAGs on random heterogeneous
// platforms, plus fault injection against the validators.
#include <gtest/gtest.h>

#include "core/registry.hpp"
#include "sched/interval.hpp"
#include "sched/replay.hpp"
#include "sched/validate.hpp"
#include "testbeds/testbeds.hpp"
#include "util/rng.hpp"

namespace oneport {
namespace {

/// Deterministic random platform: 2-6 processors, cycle times in [1,4),
/// possibly non-uniform links in [0.5, 3).
Platform make_random_platform(std::uint64_t seed) {
  SplitMix64 rng(seed);
  const int p = 2 + static_cast<int>(rng.below(5));
  std::vector<double> cycle(static_cast<std::size_t>(p));
  for (double& t : cycle) t = rng.uniform(1.0, 4.0);
  Matrix<double> link(static_cast<std::size_t>(p), static_cast<std::size_t>(p),
                      0.0);
  for (int q = 0; q < p; ++q) {
    for (int r = 0; r < p; ++r) {
      if (q != r) {
        link(static_cast<std::size_t>(q), static_cast<std::size_t>(r)) =
            rng.uniform(0.5, 3.0);
      }
    }
  }
  return Platform(std::move(cycle), std::move(link));
}

TaskGraph make_random_graph(std::uint64_t seed) {
  testbeds::RandomDagOptions options;
  options.seed = seed;
  options.layers = 6 + static_cast<int>(seed % 5);
  options.max_width = 5;
  options.max_in_degree = 3;
  options.comm_ratio = 1.0 + static_cast<double>(seed % 7);
  return testbeds::make_random_layered(options);
}

class RandomWorkloadTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomWorkloadTest, AllSchedulersProduceValidSchedules) {
  const std::uint64_t seed = GetParam();
  const TaskGraph graph = make_random_graph(seed);
  const Platform platform = make_random_platform(seed * 7 + 1);
  for (const SchedulerEntry& entry : builtin_schedulers(/*chunk=*/9)) {
    const Schedule schedule = entry.run(graph, platform);
    ASSERT_TRUE(schedule.complete()) << entry.name;
    const ValidationResult check =
        validate(schedule, graph, platform, entry.model);
    ASSERT_TRUE(check.ok()) << entry.name << " seed=" << seed << "\n"
                            << check.message();
  }
}

TEST_P(RandomWorkloadTest, ReplayIsIdempotentAndNonWorsening) {
  const std::uint64_t seed = GetParam();
  const TaskGraph graph = make_random_graph(seed);
  const Platform platform = make_random_platform(seed * 13 + 5);
  const Schedule schedule =
      find_scheduler("heft-oneport").run(graph, platform);
  const Schedule once =
      asap_replay(schedule, graph, platform, CommModel::kOnePort);
  EXPECT_LE(once.makespan(), schedule.makespan() + 1e-6);
  const Schedule twice =
      asap_replay(once, graph, platform, CommModel::kOnePort);
  // A second replay is a fixpoint.
  EXPECT_NEAR(twice.makespan(), once.makespan(), 1e-6);
  EXPECT_TRUE(validate_one_port(twice, graph, platform).ok());
}

TEST_P(RandomWorkloadTest, FaultInjectionTripsTheValidator) {
  const std::uint64_t seed = GetParam();
  const TaskGraph graph = make_random_graph(seed);
  const Platform platform = make_random_platform(seed * 3 + 2);
  const Schedule good = find_scheduler("heft-oneport").run(graph, platform);
  ASSERT_TRUE(validate_one_port(good, graph, platform).ok());

  // Corrupt one task: pull its start before a predecessor's finish (or
  // shift it onto a colleague if it has no predecessor).
  SplitMix64 rng(seed + 99);
  Schedule bad(graph.num_tasks());
  const TaskId victim =
      static_cast<TaskId>(rng.below(graph.num_tasks()));
  for (TaskId v = 0; v < graph.num_tasks(); ++v) {
    const TaskPlacement& t = good.task(v);
    if (v == victim) {
      const double shift = t.start + 1.0;  // guaranteed earlier than legal
      bad.place_task(v, t.proc, t.start - shift, t.finish - shift);
    } else {
      bad.place_task(v, t.proc, t.start, t.finish);
    }
  }
  for (const CommPlacement& c : good.comms()) bad.add_comm(c);
  EXPECT_FALSE(validate_one_port(bad, graph, platform).ok());
}

TEST_P(RandomWorkloadTest, PortOverlapInjectionIsCaught) {
  const std::uint64_t seed = GetParam();
  const TaskGraph graph = make_random_graph(seed);
  const Platform platform = make_random_platform(seed * 11 + 4);
  const Schedule good = find_scheduler("heft-oneport").run(graph, platform);
  if (good.num_comms() < 2) GTEST_SKIP() << "not enough messages";

  // Find two messages leaving the same processor and slam the second onto
  // the first's interval.  (Messages keep legal durations so only the
  // port rules O1/O2 -- and possibly arrival precedence -- can trip.)
  const auto& comms = good.comms();
  for (std::size_t i = 0; i < comms.size(); ++i) {
    for (std::size_t j = i + 1; j < comms.size(); ++j) {
      const bool same_send = comms[i].from == comms[j].from;
      const bool same_recv = comms[i].to == comms[j].to;
      if (!same_send && !same_recv) continue;
      if (Interval{comms[i].start, comms[i].finish}.degenerate()) continue;
      if (Interval{comms[j].start, comms[j].finish}.degenerate()) continue;
      Schedule bad(graph.num_tasks());
      for (TaskId v = 0; v < graph.num_tasks(); ++v) {
        const TaskPlacement& t = good.task(v);
        bad.place_task(v, t.proc, t.start, t.finish);
      }
      for (std::size_t k = 0; k < comms.size(); ++k) {
        CommPlacement c = comms[k];
        if (k == j) {
          const double duration = c.finish - c.start;
          c.start = comms[i].start;
          c.finish = c.start + duration;
        }
        bad.add_comm(c);
      }
      EXPECT_FALSE(validate_one_port(bad, graph, platform).ok());
      return;
    }
  }
  GTEST_SKIP() << "no port-sharing message pair";
}

TEST_P(RandomWorkloadTest, SchedulersAreDeterministic) {
  const std::uint64_t seed = GetParam();
  const TaskGraph graph = make_random_graph(seed);
  const Platform platform = make_random_platform(seed + 21);
  for (const char* name : {"heft-oneport", "ilha-oneport"}) {
    const Schedule a = find_scheduler(name).run(graph, platform);
    const Schedule b = find_scheduler(name).run(graph, platform);
    for (TaskId v = 0; v < graph.num_tasks(); ++v) {
      ASSERT_EQ(a.task(v).proc, b.task(v).proc) << name;
      ASSERT_DOUBLE_EQ(a.task(v).start, b.task(v).start) << name;
    }
  }
}

TEST_P(RandomWorkloadTest, MakespanRespectsLowerBounds) {
  const std::uint64_t seed = GetParam();
  const TaskGraph graph = make_random_graph(seed);
  const Platform platform = make_random_platform(seed + 77);
  const Schedule s = find_scheduler("ilha-oneport").run(graph, platform);
  // Area bound.
  EXPECT_GE(s.makespan(),
            graph.total_weight() / platform.aggregate_speed() - 1e-6);
  // Pure-computation critical path on the fastest processor.
  const double t_min = platform.cycle_time(platform.fastest_processor());
  double cp = 0.0;
  {
    std::vector<double> bl(graph.num_tasks(), 0.0);
    const auto order = graph.topological_order();
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      double best = 0.0;
      for (const EdgeRef& e : graph.successors(*it)) {
        best = std::max(best, bl[e.task]);
      }
      bl[*it] = graph.weight(*it) * t_min + best;
      cp = std::max(cp, bl[*it]);
    }
  }
  EXPECT_GE(s.makespan(), cp - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWorkloadTest,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace oneport
