// Online rescheduling (src/dynamic): the fault-injection sweep plays
// every named event trace against every registry heuristic over dense,
// edge-case, and routed topologies, and the D1-D5 battery replays the
// frozen prefix and validates each epoch's rescheduled suffix hop by
// hop.  Unit tests pin the empty-trace static anchor, the rebalancing
// hook, arrival release floors, determinism, and trace validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/registry.hpp"
#include "sched/interval.hpp"
#include "dynamic/events.hpp"
#include "dynamic/reschedule.hpp"
#include "support/dynamic_invariants.hpp"
#include "support/scenario.hpp"

namespace oneport {
namespace {

using namespace testsupport;
using dyn::DynamicResult;
using dyn::EventKind;
using dyn::EventTrace;
using dyn::PlatformEvent;

std::string joined(const std::vector<std::string>& errors) {
  std::string out;
  for (const std::string& e : errors) out += e + "\n";
  return out;
}

/// Plays the named preset trace for (scenario, scheduler) and returns
/// the result; the trace's event times are derived from the heuristic's
/// own static makespan, so events genuinely land mid-run.
DynamicResult run_named(const Scenario& scenario,
                        const std::string& scheduler,
                        const std::string& trace_name,
                        bool rebalance = false) {
  SchedulerConfig config;
  config.routing = scenario.routing_ptr();
  const Schedule initial =
      find_scheduler(scheduler, config).run(scenario.graph,
                                            scenario.platform);
  const EventTrace trace = dyn::make_named_trace(
      trace_name, scenario.graph, scenario.platform, initial,
      scenario.seed);
  return dyn::run_dynamic(scenario.graph, scenario.platform, scheduler,
                          config, trace, {.rebalance = rebalance});
}

void expect_invariants(const Scenario& scenario,
                       const std::string& scheduler,
                       const std::string& trace_name,
                       bool rebalance = false) {
  SchedulerConfig config;
  config.routing = scenario.routing_ptr();
  const SchedulerEntry entry = find_scheduler(scheduler, config);
  const Schedule initial = entry.run(scenario.graph, scenario.platform);
  DynamicScenario dynamic;
  dynamic.base = &scenario;
  dynamic.model = entry.model;
  dynamic.trace = dyn::make_named_trace(trace_name, scenario.graph,
                                        scenario.platform, initial,
                                        scenario.seed);
  dynamic.description =
      scenario.description + "/" + scheduler + "/" + trace_name;
  const DynamicResult result =
      dyn::run_dynamic(scenario.graph, scenario.platform, scheduler,
                       config, dynamic.trace, {.rebalance = rebalance});
  const std::vector<std::string> violations =
      check_all_dynamic_invariants(dynamic, result);
  EXPECT_TRUE(violations.empty()) << joined(violations);
}

/// An 8-task chain on a heterogeneous platform: every EFT heuristic
/// serializes it onto the fastest processor, which is maximally skewed
/// from the balanced-fractions ideal -- the rebalancer must strictly
/// improve it.
Scenario skewed_chain_scenario() {
  TaskGraph g;
  for (int i = 0; i < 8; ++i) g.add_task(1.0);
  for (TaskId v = 0; v + 1 < 8; ++v) g.add_edge(v, v + 1, 0.0);
  g.finalize();
  return Scenario{11, "dynamic/skewed-chain", std::move(g),
                  Platform({1.0, 2.0, 4.0, 8.0}, 1.0), std::nullopt};
}

// ---------------------------------------------------------------- sweeps

TEST(DynamicSweep, FaultInjectionAcrossTopologiesAndHeuristics) {
  // Dense random platforms, hand-picked degenerate corners, and ten
  // routed scenarios (one full rotation: ring, star, random, line,
  // 2-proc, mesh, torus, fat tree, heterogeneous mesh, alt policy).
  std::vector<Scenario> scenarios = scenario_sweep(7100, 3);
  for (Scenario& s : edge_case_scenarios()) {
    scenarios.push_back(std::move(s));
  }
  for (Scenario& s : routed_scenario_sweep(7200, 10)) {
    scenarios.push_back(std::move(s));
  }
  const std::vector<SchedulerEntry> entries = builtin_schedulers();
  const std::vector<std::string> traces = {"slowdown", "dropout", "mixed",
                                           "arrival"};
  for (const Scenario& scenario : scenarios) {
    for (const SchedulerEntry& entry : entries) {
      for (const std::string& trace : traces) {
        expect_invariants(scenario, entry.name, trace);
      }
    }
  }
}

TEST(DynamicSweep, RebalancedRunsKeepEveryInvariant) {
  const std::vector<Scenario> scenarios = scenario_sweep(7300, 3);
  for (const Scenario& scenario : scenarios) {
    for (const std::string& scheduler :
         {std::string("heft-oneport"), std::string("minmin-macro")}) {
      for (const std::string& trace : {std::string("mixed"),
                                       std::string("arrival")}) {
        expect_invariants(scenario, scheduler, trace, /*rebalance=*/true);
      }
    }
  }
}

// ----------------------------------------------------------- unit tests

TEST(Dynamic, EmptyTraceReproducesTheStaticScheduleBitForBit) {
  const std::vector<Scenario> scenarios = scenario_sweep(7400, 2);
  for (const Scenario& scenario : scenarios) {
    SchedulerConfig config;
    config.routing = scenario.routing_ptr();
    for (const SchedulerEntry& entry : builtin_schedulers(config)) {
      const Schedule expected =
          entry.run(scenario.graph, scenario.platform);
      const DynamicResult result = dyn::run_dynamic(
          scenario.graph, scenario.platform, entry.name, config, {});
      ASSERT_EQ(result.epochs.size(), 1u);
      EXPECT_EQ(result.schedule.tasks(), expected.tasks())
          << scenario.description << "/" << entry.name;
      // The composite stores chains grouped by edge, so compare the
      // message multisets.
      auto lhs = result.schedule.comms();
      auto rhs = expected.comms();
      const auto key = [](const CommPlacement& c) {
        return std::tuple(c.src, c.dst, c.from, c.to, c.start, c.finish);
      };
      const auto by_key = [&key](const CommPlacement& a,
                                 const CommPlacement& b) {
        return key(a) < key(b);
      };
      std::sort(lhs.begin(), lhs.end(), by_key);
      std::sort(rhs.begin(), rhs.end(), by_key);
      EXPECT_EQ(lhs, rhs) << scenario.description << "/" << entry.name;
      EXPECT_TRUE(result.stale_comms.empty());
    }
  }
}

TEST(Dynamic, RunsAreDeterministic) {
  const Scenario scenario = random_scenario(7500);
  const DynamicResult a = run_named(scenario, "heft-oneport", "mixed");
  const DynamicResult b = run_named(scenario, "heft-oneport", "mixed");
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  EXPECT_EQ(a.schedule.tasks(), b.schedule.tasks());
  EXPECT_EQ(a.schedule.comms(), b.schedule.comms());
  EXPECT_EQ(a.stale_comms, b.stale_comms);
  for (std::size_t k = 0; k < a.epochs.size(); ++k) {
    EXPECT_EQ(a.epochs[k].schedule.tasks(), b.epochs[k].schedule.tasks());
    EXPECT_EQ(a.epochs[k].schedule.comms(), b.epochs[k].schedule.comms());
  }
}

TEST(Dynamic, RebalancingStrictlyReducesImbalanceOnASkewedChain) {
  const Scenario scenario = skewed_chain_scenario();
  // The whole chain lands on the fastest processor: maximal skew.
  const DynamicResult result =
      run_named(scenario, "heft-oneport", "none", /*rebalance=*/true);
  ASSERT_EQ(result.epochs.size(), 1u);
  const dyn::EpochSnapshot& epoch = result.epochs[0];
  EXPECT_GT(epoch.imbalance_before, 0.5)
      << "expected the static plan to be skewed";
  EXPECT_LT(epoch.imbalance_after, epoch.imbalance_before);
  EXPECT_GT(epoch.rebalance_moves, 0);
  // And the rebalanced run still satisfies the whole battery.
  DynamicScenario dynamic;
  dynamic.base = &scenario;
  dynamic.model = CommModel::kOnePort;
  dynamic.description = "dynamic/skewed-chain/rebalanced";
  const std::vector<std::string> violations =
      check_all_dynamic_invariants(dynamic, result);
  EXPECT_TRUE(violations.empty()) << joined(violations);
}

TEST(Dynamic, SlowdownStretchesOnlyPostEventWork) {
  // One processor, two unit tasks in a chain, x2 slowdown between them:
  // the first keeps duration 1, the second runs for 2.
  TaskGraph g;
  g.add_task(1.0);
  g.add_task(1.0);
  g.add_edge(0, 1, 0.0);
  g.finalize();
  const Platform platform({1.0}, 1.0);
  EventTrace trace;
  PlatformEvent e;
  e.kind = EventKind::kSlowdown;
  e.time = 1.0;
  e.proc = 0;
  e.factor = 2.0;
  trace.push_back(e);
  const DynamicResult result =
      dyn::run_dynamic(g, platform, "heft-oneport", {}, trace, {});
  ASSERT_EQ(result.epochs.size(), 2u);
  const TaskPlacement& first = result.schedule.task(0);
  const TaskPlacement& second = result.schedule.task(1);
  EXPECT_DOUBLE_EQ(first.finish - first.start, 1.0);
  EXPECT_DOUBLE_EQ(second.finish - second.start, 2.0);
  EXPECT_GE(second.start, 1.0 - kTimeEps);
}

TEST(Dynamic, ArrivalsFloorTheirStartTimes) {
  const Scenario scenario = random_scenario(7600);
  const DynamicResult result =
      run_named(scenario, "ilha-oneport", "arrival");
  bool any_late = false;
  for (TaskId v = 0; v < scenario.graph.num_tasks(); ++v) {
    const TaskPlacement& t = result.schedule.task(v);
    ASSERT_TRUE(t.placed());
    EXPECT_GE(t.start, result.release[v] - kTimeEps);
    any_late |= result.release[v] > 0.0;
  }
  EXPECT_TRUE(any_late) << "arrival preset released no task late";
}

TEST(Dynamic, DropoutDrainsButNeverRestartsTheLostProcessor) {
  const Scenario scenario = random_scenario(7700);
  SchedulerConfig config;
  const Schedule initial =
      find_scheduler("heft-oneport", config).run(scenario.graph,
                                                 scenario.platform);
  const EventTrace trace = dyn::make_named_trace(
      "dropout", scenario.graph, scenario.platform, initial, scenario.seed);
  ASSERT_EQ(trace.size(), 1u);
  const DynamicResult result = dyn::run_dynamic(
      scenario.graph, scenario.platform, "heft-oneport", config, trace, {});
  const ProcId lost = trace[0].proc;
  const double when = trace[0].time;
  for (const TaskPlacement& t : result.schedule.tasks()) {
    if (t.proc == lost) {
      EXPECT_LT(t.start, when - kTimeEps)
          << "a task started on the dropped processor after the drop";
    }
  }
}

// ----------------------------------------------------- trace validation

TEST(TraceValidation, RejectsMalformedTraces) {
  TaskGraph g;
  g.add_task(1.0);
  g.add_task(1.0);
  g.add_edge(0, 1, 1.0);
  g.finalize();
  const Platform platform({1.0, 2.0}, 1.0);
  const auto reject = [&](EventTrace trace) {
    EXPECT_THROW(dyn::validate_trace(trace, g, platform),
                 std::invalid_argument);
  };
  const auto ev = [](EventKind kind, double time, ProcId proc,
                     double factor = 1.0) {
    PlatformEvent e;
    e.kind = kind;
    e.time = time;
    e.proc = proc;
    e.factor = factor;
    return e;
  };

  // Times must be finite, positive, and non-decreasing.
  reject({ev(EventKind::kSlowdown, -1.0, 0, 2.0)});
  reject({ev(EventKind::kSlowdown, 0.0, 0, 2.0)});
  reject({ev(EventKind::kSlowdown, 2.0, 0, 2.0),
          ev(EventKind::kSlowdown, 1.0, 1, 2.0)});
  // Processor ids must exist; factors must be positive and finite.
  reject({ev(EventKind::kSlowdown, 1.0, 7, 2.0)});
  reject({ev(EventKind::kSlowdown, 1.0, -1, 2.0)});
  reject({ev(EventKind::kSlowdown, 1.0, 0, 0.0)});
  reject({ev(EventKind::kSlowdown, 1.0, 0, -2.0)});
  // No event may target a processor after it dropped, nobody drops
  // twice, and at least one processor must survive.
  reject({ev(EventKind::kDropout, 1.0, 0),
          ev(EventKind::kSlowdown, 2.0, 0, 2.0)});
  reject({ev(EventKind::kDropout, 1.0, 0), ev(EventKind::kDropout, 2.0, 0)});
  reject({ev(EventKind::kDropout, 1.0, 0), ev(EventKind::kDropout, 2.0, 1)});

  // Arrivals: non-empty, known ids, no double arrival, successor-closed.
  PlatformEvent empty_arrival;
  empty_arrival.kind = EventKind::kArrival;
  empty_arrival.time = 1.0;
  reject({empty_arrival});
  PlatformEvent unknown = empty_arrival;
  unknown.tasks = {5};
  reject({unknown});
  PlatformEvent twice = empty_arrival;
  twice.tasks = {1, 1};
  reject({twice});
  // Task 0 arriving late while its successor 1 is known from the start
  // breaks the successor closure.
  PlatformEvent closure = empty_arrival;
  closure.tasks = {0};
  reject({closure});

  // And a well-formed trace passes.
  PlatformEvent ok_arrival = empty_arrival;
  ok_arrival.tasks = {1};
  EXPECT_NO_THROW(dyn::validate_trace(
      {ev(EventKind::kSlowdown, 0.5, 0, 2.0), ok_arrival,
       ev(EventKind::kDropout, 2.0, 1)},
      g, platform));
}

TEST(TraceValidation, NamedTracePresetsAreValidAndListed) {
  const Scenario scenario = random_scenario(7800);
  SchedulerConfig config;
  const Schedule initial = find_scheduler("heft-oneport", config)
                               .run(scenario.graph, scenario.platform);
  for (const std::string& name : dyn::known_event_trace_names()) {
    const EventTrace trace = dyn::make_named_trace(
        name, scenario.graph, scenario.platform, initial, scenario.seed);
    EXPECT_NO_THROW(
        dyn::validate_trace(trace, scenario.graph, scenario.platform));
    if (name != "none") {
      EXPECT_FALSE(trace.empty()) << name;
    } else {
      EXPECT_TRUE(trace.empty());
    }
  }
  EXPECT_THROW(dyn::make_named_trace("meteor", scenario.graph,
                                     scenario.platform, initial, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace oneport
