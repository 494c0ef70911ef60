// Platform-level events for online rescheduling: the inputs of the
// src/dynamic subsystem.
//
// A running schedule is interrupted by a time-ordered trace of events --
// a processor slowing down by a factor, a processor dropping out of the
// compute pool, or tasks arriving late (becoming known only mid-run).
// At each event time the committed prefix of the schedule is frozen and
// the suffix is rescheduled against the mutated platform (see
// dynamic/reschedule.hpp for the exact semantics).
//
// Traces are plain data validated up front, so a malformed scenario
// fails loudly at submission instead of corrupting an event loop
// mid-flight.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/task_graph.hpp"
#include "platform/platform.hpp"
#include "sched/schedule.hpp"

namespace oneport::dyn {

enum class EventKind {
  kSlowdown,  ///< processor `proc` multiplies its cycle time by `factor`
  kDropout,   ///< processor `proc` stops accepting new tasks (drain:
              ///< running tasks finish, in-flight messages complete, and
              ///< the network keeps relaying through it)
  kArrival,   ///< `tasks` become known and schedulable at `time`
};

struct PlatformEvent {
  EventKind kind = EventKind::kSlowdown;
  double time = 0.0;
  ProcId proc = -1;           ///< slowdown / dropout target
  double factor = 1.0;        ///< slowdown multiplier (> 1 slows down)
  std::vector<TaskId> tasks;  ///< arrival payload

  friend bool operator==(const PlatformEvent&,
                         const PlatformEvent&) = default;
};

using EventTrace = std::vector<PlatformEvent>;

/// Validates `trace` against a graph and platform; throws
/// std::invalid_argument on the first problem.  Rules:
///   * event times are finite, positive and non-decreasing;
///   * slowdown/dropout name a valid processor, slowdown factors are
///     finite and positive (> 1 slows down, < 1 models recovery), a
///     processor drops out at most once, events never target an
///     already-dropped processor, and at least one processor survives
///     the whole trace;
///   * arrival events list valid, distinct task ids, no task arrives
///     twice, and the late set is successor-closed: a task may not
///     become known before one of its predecessors (the rescheduler
///     could otherwise owe work to a task it has never seen).
void validate_trace(const EventTrace& trace, const TaskGraph& graph,
                    const Platform& platform);

/// Per-task release times implied by `trace`: 0 for initially-known
/// tasks, the arrival event time otherwise.  Requires a validated trace.
[[nodiscard]] std::vector<double> release_times(const EventTrace& trace,
                                                const TaskGraph& graph);

/// Named deterministic trace presets for sweeps and benchmarks.  Event
/// times are placed at fixed fractions of `initial`'s makespan and
/// targets are chosen from the schedule itself (e.g. the most-loaded
/// processor), so one preset name yields a comparable scenario across
/// every (graph, platform, heuristic) grid cell:
///   * "none"     -- empty trace (pure static scheduling);
///   * "slowdown" -- the most-loaded processor slows down x4 at 25% of
///                   the makespan, the second-most-loaded x2 at 60%;
///   * "dropout"  -- the most-loaded processor drops out at 30%;
///   * "mixed"    -- a x3 slowdown at 20%, then a dropout of the
///                   next-most-loaded processor at 55%;
///   * "arrival"  -- a successor-closed ~25% suffix of the topological
///                   order arrives at 40% (plus a x2 slowdown at 70%).
/// `seed` perturbs tie-breaks deterministically.  Throws
/// std::invalid_argument for unknown names.
[[nodiscard]] EventTrace make_named_trace(const std::string& name,
                                          const TaskGraph& graph,
                                          const Platform& platform,
                                          const Schedule& initial,
                                          std::uint64_t seed = 0);

/// The preset names accepted by make_named_trace.
[[nodiscard]] const std::vector<std::string>& known_event_trace_names();

}  // namespace oneport::dyn
