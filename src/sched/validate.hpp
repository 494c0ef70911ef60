// Independent schedule checkers for the two communication models.
//
// Validators are written against the *rules* of §2.1/§2.3 only -- they
// share no code with the schedulers, so a bug in a heuristic cannot hide a
// matching bug in its own bookkeeping.  They collect every violation they
// find (not just the first) to make test failures actionable.
//
// Checked rules, macro-dataflow model (§2.1):
//   M1  every task is placed on a valid processor;
//   M2  task duration equals w(v) * t_alloc(v);
//   M3  a processor executes at most one task at a time;
//   M4  for every edge u->v: same processor  => start(v) >= finish(u);
//       different processors => exactly one matching message, whose
//       duration is data(u,v) * link(q,r), which starts no earlier than
//       finish(u) and ends no later than start(v);
//   M5  no spurious messages (no matching edge, same-processor transfer,
//       duplicated edge message, or endpoints placed elsewhere).
//
// One-port model (§2.3) adds:
//   O1  messages sent by a given processor are pairwise non-overlapping
//       (one send port);
//   O2  messages received by a given processor are pairwise
//       non-overlapping (one receive port).
// Send and receive may overlap on the same processor (bi-directional), and
// computation always overlaps communication.
#pragma once

#include <string>
#include <vector>

#include "graph/task_graph.hpp"
#include "platform/platform.hpp"
#include "sched/schedule.hpp"

namespace oneport {

struct ValidationResult {
  std::vector<std::string> errors;

  [[nodiscard]] bool ok() const noexcept { return errors.empty(); }
  /// All violations joined with newlines ("" when valid).
  [[nodiscard]] std::string message() const;
};

/// Checks M1-M5, plus O1-O2 under CommModel::kOnePort: the rules of the
/// model the schedule was built under.
[[nodiscard]] ValidationResult validate(const Schedule& schedule,
                                        const TaskGraph& graph,
                                        const Platform& platform,
                                        CommModel model);

/// Checks M1-M5.
[[nodiscard]] ValidationResult validate_macro_dataflow(
    const Schedule& schedule, const TaskGraph& graph,
    const Platform& platform);

/// Checks M1-M5 plus O1-O2.
[[nodiscard]] ValidationResult validate_one_port(const Schedule& schedule,
                                                 const TaskGraph& graph,
                                                 const Platform& platform);

}  // namespace oneport
