// Direct tests of the EFT engine -- the machinery every heuristic shares.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/eft_engine.hpp"
#include "core/registry.hpp"
#include "platform/routing.hpp"
#include "sched/validate.hpp"
#include "support/frozen_oracle.hpp"
#include "support/scenario.hpp"
#include "testbeds/registry.hpp"
#include "testbeds/testbeds.hpp"
#include "util/profiler.hpp"

namespace oneport {
namespace {

/// Fork 0 -> {1, 2}; data 2 each; three unit processors.
struct Fixture {
  Fixture() {
    graph.add_task(1.0);
    graph.add_task(1.0);
    graph.add_task(1.0);
    graph.add_edge(0, 1, 2.0);
    graph.add_edge(0, 2, 2.0);
    graph.finalize();
  }
  TaskGraph graph;
  Platform platform{{1.0, 1.0, 1.0}, 1.0};
};

TEST(EftEngine, EvaluateDoesNotMutate) {
  Fixture f;
  EftEngine engine(f.graph, f.platform, CommModel::kOnePort);
  engine.commit(engine.evaluate(0, 0));
  const Evaluation once = engine.evaluate(1, 1);
  const Evaluation twice = engine.evaluate(1, 1);
  EXPECT_DOUBLE_EQ(once.start, twice.start);
  EXPECT_DOUBLE_EQ(once.finish, twice.finish);
  ASSERT_EQ(once.comms.size(), twice.comms.size());
  for (std::size_t i = 0; i < once.comms.size(); ++i) {
    EXPECT_DOUBLE_EQ(once.comms[i].start, twice.comms[i].start);
  }
}

TEST(EftEngine, SameProcessorNeedsNoMessage) {
  Fixture f;
  EftEngine engine(f.graph, f.platform, CommModel::kOnePort);
  engine.commit(engine.evaluate(0, 0));
  const Evaluation eval = engine.evaluate(1, 0);
  EXPECT_TRUE(eval.comms.empty());
  EXPECT_DOUBLE_EQ(eval.start, 1.0);  // right after the parent
}

TEST(EftEngine, OnePortMessagesWithinOneEvaluationSerialize) {
  // Join {0, 1} -> 2: evaluating 2 on a third processor schedules two
  // incoming messages that share 2's receive port.
  TaskGraph g;
  g.add_task(1.0);
  g.add_task(1.0);
  g.add_task(1.0);
  g.add_edge(0, 2, 2.0);
  g.add_edge(1, 2, 2.0);
  g.finalize();
  const Platform p({1.0, 1.0, 1.0}, 1.0);
  EftEngine engine(g, p, CommModel::kOnePort);
  engine.commit(engine.evaluate(0, 0));
  engine.commit(engine.evaluate(1, 1));
  const Evaluation eval = engine.evaluate(2, 2);
  ASSERT_EQ(eval.comms.size(), 2u);
  // Each record is the schedule's message record, addressed to task 2.
  EXPECT_EQ(eval.comms[0].dst, 2u);
  EXPECT_EQ(eval.comms[1].dst, 2u);
  // Distinct senders, same receiver: the receive port serializes them.
  EXPECT_GE(eval.comms[1].start, eval.comms[0].finish - kTimeEps);
  EXPECT_DOUBLE_EQ(eval.start, 5.0);  // 1 + 2 + 2
}

TEST(EftEngine, MacroMessagesWithinOneEvaluationOverlap) {
  TaskGraph g;
  g.add_task(1.0);
  g.add_task(1.0);
  g.add_task(1.0);
  g.add_edge(0, 2, 2.0);
  g.add_edge(1, 2, 2.0);
  g.finalize();
  const Platform p({1.0, 1.0, 1.0}, 1.0);
  EftEngine engine(g, p, CommModel::kMacroDataflow);
  engine.commit(engine.evaluate(0, 0));
  engine.commit(engine.evaluate(1, 1));
  const Evaluation eval = engine.evaluate(2, 2);
  EXPECT_DOUBLE_EQ(eval.start, 3.0);  // both messages fly concurrently
}

TEST(EftEngine, CommitReservesPorts) {
  Fixture f;
  EftEngine engine(f.graph, f.platform, CommModel::kOnePort);
  engine.commit(engine.evaluate(0, 0));
  engine.commit(engine.evaluate(1, 1));  // message on P0.send during [1,3)
  // Task 2 on P2 must wait for P0's send port.
  const Evaluation eval = engine.evaluate(2, 2);
  ASSERT_EQ(eval.comms.size(), 1u);
  EXPECT_DOUBLE_EQ(eval.comms[0].start, 3.0);
  EXPECT_DOUBLE_EQ(eval.start, 5.0);
}

TEST(EftEngine, GuardsAgainstMisuse) {
  Fixture f;
  EftEngine engine(f.graph, f.platform, CommModel::kOnePort);
  EXPECT_THROW(engine.evaluate(0, 99), std::invalid_argument);
  EXPECT_THROW(engine.evaluate(1, 0), std::invalid_argument);  // parent not
                                                               // scheduled
  engine.commit(engine.evaluate(0, 0));
  EXPECT_THROW(engine.commit(engine.evaluate(0, 1)), std::invalid_argument);
  EXPECT_THROW(engine.commit(Evaluation{}), std::invalid_argument);
  // Last: extracting the schedule consumes the engine.
  EXPECT_THROW(std::move(engine).build_schedule(),
               std::invalid_argument);  // incomplete
}

TEST(EftEngine, ReadyTracksPredecessors) {
  Fixture f;
  EftEngine engine(f.graph, f.platform, CommModel::kOnePort);
  EXPECT_TRUE(engine.ready(0));
  EXPECT_FALSE(engine.ready(1));
  engine.commit(engine.evaluate(0, 0));
  EXPECT_TRUE(engine.ready(1));
}

TEST(EftEngine, BuildScheduleIsValid) {
  Fixture f;
  EftEngine engine(f.graph, f.platform, CommModel::kOnePort);
  for (TaskId v = 0; v < 3; ++v) engine.commit(engine.evaluate_best(v));
  const Schedule s = std::move(engine).build_schedule();
  EXPECT_TRUE(validate_one_port(s, f.graph, f.platform).ok());
}

TEST(EftEngine, RejectsMismatchedRoutingTable) {
  Fixture f;
  const RoutedPlatform ring =
      make_topology_platform("ring", {1, 1, 1, 1}, 1.0);  // p=4
  EXPECT_THROW(
      EftEngine(f.graph, f.platform, CommModel::kOnePort,
                &ring.routing),
      std::invalid_argument);
}

bool same_evaluation(const Evaluation& a, const Evaluation& b) {
  return a.proc == b.proc && a.start == b.start && a.finish == b.finish &&
         a.comms == b.comms;
}

struct ScanTally {
  std::size_t decisions = 0;
  std::size_t differing = 0;
};

/// Places `graph` task by task in topological order.  At every decision
/// evaluate_best is compared with an exhaustive scan through the public
/// evaluate(): every processor in id order, a later one winning only
/// when it finishes more than kTimeEps earlier -- the (finish, id)
/// contract evaluate_best documents.  The scan's pick is committed, so
/// one wrong decision does not steer the rest of the run.
ScanTally compare_with_exhaustive_scan(const TaskGraph& graph,
                                       const Platform& platform,
                                       CommModel model,
                                       const RoutingTable* routing) {
  EftEngine engine(graph, platform, model, routing);
  ScanTally tally;
  for (const TaskId v : graph.topological_order()) {
    Evaluation scan = engine.evaluate(v, 0);
    for (ProcId p = 1; p < platform.num_processors(); ++p) {
      Evaluation candidate = engine.evaluate(v, p);
      if (candidate.finish < scan.finish - kTimeEps) {
        scan = std::move(candidate);
      }
    }
    ++tally.decisions;
    if (!same_evaluation(engine.evaluate_best(v), scan)) ++tally.differing;
    engine.commit(scan);
  }
  return tally;
}

// Pruning in evaluate_best is exact: on the routed instances at the
// scale the bounds target (64-processor mesh, wide MICROSVC fan-in),
// and on fully connected platforms under both models, every decision
// equals the exhaustive scan's.
TEST(EftEngineExactPruning, MatchesExhaustiveScanOnRoutedScaleInstances) {
  for (const testsupport::Scenario& s :
       testsupport::routed_scale_scenarios()) {
    for (const CommModel model :
         {CommModel::kOnePort, CommModel::kMacroDataflow}) {
      const ScanTally tally = compare_with_exhaustive_scan(
          s.graph, s.platform, model, s.routing_ptr());
      EXPECT_EQ(tally.differing, 0u)
          << s.description << (model == CommModel::kOnePort
                                   ? " one-port"
                                   : " macro-dataflow");
      EXPECT_EQ(tally.decisions, s.graph.num_tasks());
    }
  }
}

/// The routed-scale DAGs on 24 identical processors joined by uniform
/// links.  Every processor that holds no predecessor then offers the
/// same bound, so evaluate_best prunes candidate after candidate inside
/// the tolerance band instead of cutting the scan short, and its cheap
/// pool is consumed round after round.
std::vector<testsupport::Scenario> tied_scenarios() {
  std::vector<testsupport::Scenario> scenarios;
  for (const auto& [family, size] :
       {std::pair{"MICROSVC", 40}, std::pair{"MICROSVC", 80},
        std::pair{"MLTRAIN", 10}, std::pair{"LU", 16}}) {
    scenarios.push_back(
        {1,
         std::string(family) + "/n=" + std::to_string(size) + "/tied24",
         testbeds::find_testbed(family).make(size, testbeds::kPaperCommRatio),
         Platform(std::vector<double>(24, 1.0), 1.0),
         std::nullopt});
  }
  return scenarios;
}

TEST(EftEngineExactPruning, MatchesExhaustiveScanOnTiedProcessors) {
  for (const testsupport::Scenario& s : tied_scenarios()) {
    for (const CommModel model :
         {CommModel::kOnePort, CommModel::kMacroDataflow}) {
      const ScanTally tally =
          compare_with_exhaustive_scan(s.graph, s.platform, model, nullptr);
      EXPECT_EQ(tally.differing, 0u) << s.description;
      EXPECT_EQ(tally.decisions, s.graph.num_tasks());
    }
  }
}

TEST(EftEngineExactPruning, MatchesExhaustiveScanOnDirectLinks) {
  for (const testsupport::Scenario& s : testsupport::scenario_sweep(7301, 80)) {
    for (const CommModel model :
         {CommModel::kOnePort, CommModel::kMacroDataflow}) {
      const ScanTally tally =
          compare_with_exhaustive_scan(s.graph, s.platform, model, nullptr);
      EXPECT_EQ(tally.differing, 0u) << s.description;
    }
  }
}

/// Profiler totals of one scheduler over a set of scenarios.
struct ScanTotals {
  std::uint64_t evals = 0;      ///< candidates evaluated
  std::uint64_t skips = 0;      ///< candidates pruned
  std::uint64_t next_fits = 0;  ///< TimelineIndex::next_fit probes
  friend bool operator==(const ScanTotals&, const ScanTotals&) = default;
};

ScanTotals scan_totals(const std::vector<testsupport::Scenario>& scenarios,
                       const char* scheduler) {
  prof::ScopedProfiler profiler(true);
  prof::reset();
  for (const testsupport::Scenario& s : scenarios) {
    (void)find_scheduler(scheduler, {.routing = s.routing_ptr()})
        .run(s.graph, s.platform);
  }
  const prof::Counts counts = prof::aggregate();
  const auto at = [&counts](prof::Counter c) {
    return counts[static_cast<std::size_t>(c)];
  };
  return {at(prof::Counter::kPruneEvals), at(prof::Counter::kPruneSkips),
          at(prof::Counter::kTimelineNextFit)};
}

// The exhaustive-scan differentials pin which candidate wins; this pins
// the scan itself.  Candidates evaluated, candidates pruned and timeline
// probes, summed over HEFT and ILHA runs, are held to totals recorded
// while evaluate_best still sorted its whole cheap pool, so a change to
// the order of probes, evaluations and prunes shows here even when
// every schedule stays the same.
TEST(EftEngineExactPruning, ScanCountsMatchRecordedTotals) {
  const std::vector<testsupport::Scenario> routed =
      testsupport::routed_scale_scenarios();
  const std::vector<testsupport::Scenario> tied = tied_scenarios();
  struct Case {
    const char* label;
    const std::vector<testsupport::Scenario>* scenarios;
    const char* scheduler;
    ScanTotals want;
  };
  const std::array<Case, 4> cases = {{
      {"routed-scale", &routed, "heft-oneport", {4141, 70219, 49151}},
      {"routed-scale", &routed, "ilha-oneport", {2979, 62445, 56745}},
      {"tied24", &tied, "heft-oneport", {673, 13055, 3837}},
      {"tied24", &tied, "ilha-oneport", {599, 11881, 3446}},
  }};
  for (const Case& c : cases) {
    const ScanTotals got = scan_totals(*c.scenarios, c.scheduler);
    EXPECT_EQ(got, c.want) << c.label << " " << c.scheduler << ": evals "
                           << got.evals << ", skips " << got.skips
                           << ", next_fits " << got.next_fits;
  }
}

// A table with a routing loop and a hole still builds, and so does an
// engine over it; only walking a broken route raises, as path_into does.
TEST(EftEngineExactPruning, BrokenTableBuildsAndThrowsOnlyOnUse) {
  const RoutedPlatform ring =
      make_topology_platform("ring", {1.0, 1.0, 1.0, 1.0});
  Matrix<int> next = ring.routing.next_hops();
  next(0, 2) = 1;  // 0 -> 1 -> 0 -> ... toward P2
  next(1, 2) = 0;
  next(3, 1) = -1;  // hole
  std::optional<RoutingTable> broken;
  ASSERT_NO_THROW(broken = RoutingTable::from_tables(4, std::move(next)));
  std::vector<ProcId> out;
  EXPECT_THROW(broken->path_into(0, 2, out), std::logic_error);
  EXPECT_THROW(broken->path_into(3, 1, out), std::logic_error);

  TaskGraph g;
  g.add_task(1.0);
  g.add_task(1.0);
  g.add_edge(0, 1, 2.0);
  g.finalize();
  for (const CommModel model :
       {CommModel::kOnePort, CommModel::kMacroDataflow}) {
    std::optional<EftEngine> engine;
    ASSERT_NO_THROW(engine.emplace(g, ring.platform, model, &*broken));
    engine->commit(engine->evaluate(0, 0));
    EXPECT_NO_THROW((void)engine->evaluate(1, 1));  // 0 -> 1 is intact
    EXPECT_THROW((void)engine->evaluate(1, 2), std::logic_error);
    EXPECT_THROW((void)engine->evaluate_best(1), std::logic_error);
  }
}

}  // namespace
}  // namespace oneport
