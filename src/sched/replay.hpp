// ASAP replay: an independent, event-driven re-execution of a schedule's
// *decisions* (allocation + per-resource orderings) that recomputes all
// start times as early as the model allows.
//
// Replay serves two purposes:
//   * verification -- a valid schedule replayed under the same model must
//     not get *worse*: replayed makespan <= original makespan (property
//     used heavily in tests);
//   * analysis -- replaying a schedule produced for the macro-dataflow
//     model under the one-port rules quantifies how optimistic the
//     unlimited-port assumption is (experiment E11).
//
// The decisions extracted from the input schedule are: task -> processor,
// the order of tasks on each processor (by start time), the order of
// messages on each send port and each receive port (by start time).
// Everything else (all dates) is recomputed by longest-path over the event
// graph induced by those orders, under the rules of a CommModel
// (sched/schedule.hpp).
#pragma once

#include <cstdint>

#include "graph/task_graph.hpp"
#include "platform/platform.hpp"
#include "sched/schedule.hpp"

namespace oneport {

/// Recomputes all dates of `schedule` as-soon-as-possible under `model`,
/// keeping its allocation and resource orders.  When replaying under
/// kOnePort a schedule that never considered ports (e.g. one produced by a
/// macro-dataflow heuristic), the original message orders are kept and the
/// messages are serialized on the ports in that order.
///
/// Throws std::invalid_argument if the extracted orders are cyclic (which
/// cannot happen for schedules that validate).
[[nodiscard]] Schedule asap_replay(const Schedule& schedule,
                                   const TaskGraph& graph,
                                   const Platform& platform, CommModel model);

/// Robustness probe: re-executes the schedule's decisions with every task
/// duration scaled by an independent uniform factor in
/// [1 - noise, 1 + noise] (message durations are left exact -- link
/// bandwidth is usually far more stable than host load).  Deterministic
/// in `seed`.  The result is what the static schedule would actually cost
/// at run time under that amount of execution-time uncertainty; it does
/// NOT re-decide anything.  Note the perturbed schedule has task
/// durations that no longer equal w*t, so it is *not* expected to pass
/// the validators -- compare makespans instead.
[[nodiscard]] Schedule perturbed_replay(const Schedule& schedule,
                                        const TaskGraph& graph,
                                        const Platform& platform,
                                        CommModel model, double noise,
                                        std::uint64_t seed);

}  // namespace oneport
