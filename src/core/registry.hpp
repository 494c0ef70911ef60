// Name-based scheduler registry so that examples and benchmark harnesses
// can select heuristics from the command line.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "graph/task_graph.hpp"
#include "platform/platform.hpp"
#include "platform/routing.hpp"
#include "sched/schedule.hpp"

namespace oneport {

using SchedulerFn =
    std::function<Schedule(const TaskGraph&, const Platform&)>;

struct SchedulerEntry {
  std::string name;         ///< e.g. "ilha-oneport"
  std::string description;  ///< one-line human description
  /// The communication rules `run` schedules under -- and so the rules
  /// its schedules are validated, replayed and rescheduled under.
  CommModel model = CommModel::kOnePort;
  SchedulerFn run;
};

/// Shared knobs threaded to every registered heuristic.
struct SchedulerConfig {
  /// Parameterizes the two ILHA entries (the paper tunes B per testbed).
  int ilha_chunk_size = 38;
  /// Optional routing table for sparse networks: when set, every entry
  /// schedules store-and-forward chains along the routed paths.  Captured
  /// by pointer -- the table must outlive the returned entries.
  const RoutingTable* routing = nullptr;
};

/// All built-in schedulers under `config`.
[[nodiscard]] std::vector<SchedulerEntry> builtin_schedulers(
    const SchedulerConfig& config);

/// Convenience overload for fully-connected platforms.
[[nodiscard]] std::vector<SchedulerEntry> builtin_schedulers(
    int ilha_chunk_size = 38);

/// Looks a scheduler up by name; throws std::invalid_argument with the
/// list of known names when absent.
[[nodiscard]] SchedulerEntry find_scheduler(const std::string& name,
                                            const SchedulerConfig& config);
[[nodiscard]] SchedulerEntry find_scheduler(const std::string& name,
                                            int ilha_chunk_size = 38);

}  // namespace oneport
