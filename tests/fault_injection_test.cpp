// Fault injection for the independent schedule checkers: mutate *valid*
// schedules with the tests/support/faults.hpp mutators and assert that
// the targeted P1-P5 checker (and the specific model rule inside it)
// catches exactly the injected violation.
//
// P3 (replay dominance) has no injection case by design: ASAP replay
// keeps the schedule's resource orders and recomputes every date as
// early as the model allows, so any order-consistent schedule -- valid
// or mutated -- replays to a makespan no larger than its own; a P3
// violation can only come from a scheduler whose bookkeeping disagrees
// with its own decisions, which the property sweeps cover.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/heft.hpp"
#include "core/ilha.hpp"
#include "platform/routing.hpp"
#include "sched/replay.hpp"
#include "support/faults.hpp"
#include "support/invariants.hpp"
#include "support/scenario.hpp"
#include "testbeds/testbeds.hpp"

namespace oneport {
namespace {

using namespace testsupport;

/// True when some violation message contains `needle`.
bool mentions(const std::vector<std::string>& errors,
              const std::string& needle) {
  for (const std::string& e : errors) {
    if (e.find(needle) != std::string::npos) return true;
  }
  return false;
}

std::string joined(const std::vector<std::string>& errors) {
  std::string out;
  for (const std::string& e : errors) out += e + "\n";
  return out;
}

/// A routed scenario whose only edge must hop spoke -> hub -> spoke: the
/// hub is so slow that a fixed allocation is the cheapest way to force a
/// deterministic two-hop store-and-forward chain.
Scenario star_scenario() {
  TaskGraph g;
  g.add_task(1.0);
  g.add_task(1.0);
  g.add_edge(0, 1, 3.0);
  g.finalize();
  RoutedPlatform star =
      make_topology_platform("star", {5.0, 1.0, 1.0, 1.0}, 1.0);
  return Scenario{1, "fault/star-chain", std::move(g),
                  std::move(star.platform), std::move(star.routing)};
}

Schedule star_schedule(const Scenario& scenario) {
  return reschedule_fixed_allocation(scenario.graph, scenario.platform,
                                     {1, 2}, CommModel::kOnePort,
                                     scenario.routing_ptr());
}

/// A ring scenario whose only edge hops P0 -> P1 -> P2: the alternate
/// equal-cost route P0 -> P3 -> P2 also has real links, so a rerouted
/// chain stays model-valid and only routing conformance can flag it.
Scenario ring_scenario() {
  TaskGraph g;
  g.add_task(1.0);
  g.add_task(1.0);
  g.add_edge(0, 1, 3.0);
  g.finalize();
  RoutedPlatform ring =
      make_topology_platform("ring", {1.0, 1.0, 1.0, 1.0}, 1.0);
  return Scenario{3, "fault/ring-chain", std::move(g),
                  std::move(ring.platform), std::move(ring.routing)};
}

/// A fork-join on a fully-connected platform: the root fans out over the
/// send port and the join fans in over the receive port, so both port
/// directions carry at least two messages.
Scenario forkjoin_scenario() {
  // Communication far cheaper than computation, so HEFT spreads the
  // children and the schedule actually carries messages.
  TaskGraph g = testbeds::make_fork_join(4, /*comm_ratio=*/0.1);
  return Scenario{2, "fault/fork-join", std::move(g),
                  Platform({1.0, 1.0, 1.0, 1.0}, 1.0), std::nullopt};
}

class StarFaults : public ::testing::Test {
 protected:
  StarFaults() : scenario_(star_scenario()), valid_(star_schedule(scenario_)) {}

  Scenario scenario_;
  Schedule valid_;
};

TEST_F(StarFaults, BaselineIsViolationFree) {
  const std::vector<std::string> violations =
      check_all_invariants(scenario_, valid_, CommModel::kOnePort);
  EXPECT_TRUE(violations.empty()) << joined(violations);
  ASSERT_EQ(valid_.num_comms(), 2u) << "expected a two-hop chain";
}

TEST_F(StarFaults, DroppedHopIsCaughtByValidator) {
  const Schedule mutated = drop_chain_hop(valid_);
  const std::vector<std::string> errors =
      check_valid(scenario_, mutated, CommModel::kOnePort);
  EXPECT_TRUE(mentions(errors, "M5")) << joined(errors);
  EXPECT_TRUE(mentions(errors, "last hop reaches")) << joined(errors);
  // The routing-aware P5 checker independently notices the short chain.
  EXPECT_TRUE(mentions(check_comm_bounds(scenario_, mutated),
                       "the routed path needs"));
}

TEST_F(StarFaults, DroppedEdgeMessagesAreCaughtByValidator) {
  const Schedule mutated = drop_edge_messages(valid_);
  const std::vector<std::string> errors =
      check_valid(scenario_, mutated, CommModel::kOnePort);
  EXPECT_TRUE(mentions(errors, "M4")) << joined(errors);
  EXPECT_TRUE(mentions(errors, "expected a message, found none"))
      << joined(errors);
}

TEST_F(StarFaults, ReceiveShiftedBeforeSendIsCaughtByValidator) {
  const Schedule mutated = shift_receive_before_send(valid_);
  const std::vector<std::string> errors =
      check_valid(scenario_, mutated, CommModel::kOnePort);
  EXPECT_TRUE(mentions(errors, "M4")) << joined(errors);
  EXPECT_TRUE(mentions(errors, "before source finishes")) << joined(errors);
}

TEST(RingFaults, ReroutedChainPassesValidatorButFailsRouting) {
  // Redirect the chain over the other side of the ring: every hop still
  // has a real link of the same cost, so M1-M5/O1-O2 all hold -- only
  // the routing-aware P5 conformance check can notice the deviation.
  const Scenario scenario = ring_scenario();
  const Schedule valid = reschedule_fixed_allocation(
      scenario.graph, scenario.platform, {0, 2}, CommModel::kOnePort,
      scenario.routing_ptr());
  ASSERT_TRUE(check_all_invariants(scenario, valid, CommModel::kOnePort)
                  .empty());
  ASSERT_EQ(valid.num_comms(), 2u) << "expected a two-hop chain";

  const Schedule mutated = reroute_chain_hop(valid, /*via=*/3);
  const std::vector<std::string> model_errors =
      check_valid(scenario, mutated, CommModel::kOnePort);
  EXPECT_TRUE(model_errors.empty()) << joined(model_errors);
  const std::vector<std::string> errors =
      check_comm_bounds(scenario, mutated);
  EXPECT_TRUE(mentions(errors, "the routed path says")) << joined(errors);
}

TEST_F(StarFaults, MisplacedTaskOnRoutedScenarioReportsInsteadOfThrowing) {
  // The routed P5 branch looks the endpoint processors up in the routing
  // table; an out-of-range placement must come back as a violation, not
  // escape as an exception and abort the battery.
  const Schedule mutated =
      misplace_task(valid_, scenario_.platform.num_processors());
  const std::vector<std::string> errors =
      check_comm_bounds(scenario_, mutated);
  EXPECT_TRUE(mentions(errors, "invalid processor")) << joined(errors);
  EXPECT_TRUE(mentions(check_valid(scenario_, mutated, CommModel::kOnePort),
                       "M1"));
}

TEST_F(StarFaults, CompressedScheduleBeatsTheLowerBounds) {
  // P2 checks makespan against work/critical-path relaxations, not the
  // per-rule model constraints, so it is probed with its own checker.
  const Schedule mutated = compress_schedule(valid_, 0.05);
  const std::vector<std::string> errors =
      check_makespan_lower_bounds(scenario_, mutated);
  EXPECT_TRUE(mentions(errors, "lower bound")) << joined(errors);
}

TEST_F(StarFaults, StretchedDurationFailsSerializeRoundTripValidation) {
  // P4 re-validates the schedule after a write -> read cycle, so a model
  // violation surfaces there too (the round trip itself stays bit-exact).
  const Schedule mutated = stretch_task_duration(valid_);
  const std::vector<std::string> errors =
      check_serialize_round_trip(scenario_, mutated, CommModel::kOnePort);
  EXPECT_TRUE(mentions(errors, "reread schedule fails validation"))
      << joined(errors);
}

class ForkJoinFaults : public ::testing::Test {
 protected:
  ForkJoinFaults()
      : scenario_(forkjoin_scenario()),
        valid_(heft(scenario_.graph, scenario_.platform,
                    {.model = CommModel::kOnePort})) {}

  Scenario scenario_;
  Schedule valid_;
};

TEST_F(ForkJoinFaults, BaselineIsViolationFree) {
  const std::vector<std::string> violations =
      check_all_invariants(scenario_, valid_, CommModel::kOnePort);
  EXPECT_TRUE(violations.empty()) << joined(violations);
  ASSERT_GE(valid_.num_comms(), 2u);
}

TEST_F(ForkJoinFaults, SendPortOverlapIsCaughtByValidator) {
  const Schedule mutated = overlap_send_port(valid_);
  const std::vector<std::string> errors =
      check_valid(scenario_, mutated, CommModel::kOnePort);
  EXPECT_TRUE(mentions(errors, "O1")) << joined(errors);
}

TEST_F(ForkJoinFaults, RecvPortOverlapIsCaughtByValidator) {
  const Schedule mutated = overlap_recv_port(valid_);
  const std::vector<std::string> errors =
      check_valid(scenario_, mutated, CommModel::kOnePort);
  EXPECT_TRUE(mentions(errors, "O2")) << joined(errors);
}

TEST_F(ForkJoinFaults, ComputeOverlapIsCaughtByValidator) {
  const Schedule mutated = overlap_compute(valid_);
  const std::vector<std::string> errors =
      check_valid(scenario_, mutated, CommModel::kOnePort);
  EXPECT_TRUE(mentions(errors, "M3")) << joined(errors);
}

TEST_F(ForkJoinFaults, StretchedTaskDurationIsCaughtByValidator) {
  const Schedule mutated = stretch_task_duration(valid_);
  const std::vector<std::string> errors =
      check_valid(scenario_, mutated, CommModel::kOnePort);
  EXPECT_TRUE(mentions(errors, "M2")) << joined(errors);
}

TEST_F(ForkJoinFaults, MisplacedTaskIsCaughtByValidator) {
  const Schedule mutated =
      misplace_task(valid_, scenario_.platform.num_processors());
  const std::vector<std::string> errors =
      check_valid(scenario_, mutated, CommModel::kOnePort);
  EXPECT_TRUE(mentions(errors, "M1")) << joined(errors);
}

TEST_F(ForkJoinFaults, DuplicateMessageIsCaughtByCommBounds) {
  const Schedule mutated = duplicate_message(valid_);
  const std::vector<std::string> errors =
      check_comm_bounds(scenario_, mutated);
  EXPECT_TRUE(mentions(errors, "duplicate message")) << joined(errors);
}

TEST_F(ForkJoinFaults, EveryFaultTripsTheAggregateBattery) {
  const std::vector<Schedule> mutants = {
      overlap_send_port(valid_),   overlap_recv_port(valid_),
      overlap_compute(valid_),     stretch_task_duration(valid_),
      misplace_task(valid_, scenario_.platform.num_processors()),
      duplicate_message(valid_),   drop_edge_messages(valid_),
  };
  for (std::size_t i = 0; i < mutants.size(); ++i) {
    EXPECT_FALSE(
        check_all_invariants(scenario_, mutants[i], CommModel::kOnePort)
            .empty())
        << "mutant " << i << " slipped through the invariant battery";
  }
}

}  // namespace
}  // namespace oneport
