// Reusable schedule invariant checkers for property sweeps.
//
// Each checker returns the list of violations it found (empty = the
// property holds), so a sweep can aggregate everything that went wrong
// for one scenario instead of stopping at the first failure.  They are
// deliberately layered on the *independent* machinery of the library --
// sched/validate.hpp, sched/replay.hpp, sched/serialize.hpp -- so a bug
// in a heuristic cannot be masked by that heuristic's own bookkeeping.
//
// Properties checked:
//   P1 completeness + model validation (M1-M5, and O1-O2 for one-port);
//   P2 makespan lower bounds: the makespan of any valid schedule
//      dominates (a) the heaviest single task on the fastest processor,
//      (b) perfectly divisible work over the aggregate speed, and
//      (c) the communication-free critical path;
//   P3 replay dominance: an ASAP replay under the same model never
//      increases the makespan, and relaxing a one-port schedule to the
//      macro-dataflow rules never increases it either;
//   P4 serialize round-trip: the graph survives a JSON write -> import
//      cycle (holding exactly the doubles the text denotes) and the
//      schedule a write -> read cycle, bit-exactly;
//   P5 communication bounds: every message maps to a cross-processor
//      edge; on fully-connected platforms each such edge carries exactly
//      one direct message (so #comms <= #edges, and 0 on a
//      single-processor platform), while on routed platforms each edge's
//      messages must be exactly the hops of the scenario's RoutingTable
//      path between the endpoint processors, in order.
#pragma once

#include <string>
#include <vector>

#include "sched/replay.hpp"
#include "sched/schedule.hpp"
#include "support/scenario.hpp"

namespace oneport::testsupport {

/// P1: schedule is complete and passes the model's validator.
[[nodiscard]] std::vector<std::string> check_valid(const Scenario& scenario,
                                                   const Schedule& schedule,
                                                   CommModel model);

/// P2: makespan dominates the three communication-free lower bounds.
[[nodiscard]] std::vector<std::string> check_makespan_lower_bounds(
    const Scenario& scenario, const Schedule& schedule);

/// P3: ASAP replay under `model` does not increase the makespan; for
/// one-port schedules, the macro-dataflow relaxation does not either.
[[nodiscard]] std::vector<std::string> check_replay_dominance(
    const Scenario& scenario, const Schedule& schedule, CommModel model);

/// P4: write_json_graph/import_json and write_schedule/read_schedule
/// round-trip bit-exactly (and the reread schedule still validates).
[[nodiscard]] std::vector<std::string> check_serialize_round_trip(
    const Scenario& scenario, const Schedule& schedule, CommModel model);

/// P5: messages biject into a subset of the cross-processor edges; with
/// scenario routing, each edge's chain must follow the routed path hop by
/// hop.
[[nodiscard]] std::vector<std::string> check_comm_bounds(
    const Scenario& scenario, const Schedule& schedule);

/// Runs P1-P5 and returns every violation, each prefixed with the
/// scenario description and the property id.
[[nodiscard]] std::vector<std::string> check_all_invariants(
    const Scenario& scenario, const Schedule& schedule, CommModel model);

}  // namespace oneport::testsupport
