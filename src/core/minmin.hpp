// Min-min / max-min batch scheduling (Ibarra-Kim lineage; the PCT
// heuristic the paper's predecessor study [3] compares against is a
// min-min-style dynamic matcher).  Extra baselines beyond the paper's own
// HEFT/ILHA pair.
//
// At every step the heuristic evaluates the earliest finish time of every
// *ready* task on every processor (one-port: with greedy port
// reservations, exactly like HEFT's evaluation):
//   * min-min commits the (task, processor) pair with the smallest finish
//     time -- it keeps machines streaming short work;
//   * max-min commits the ready task whose *best* finish time is largest
//     -- it fronts the long poles.
// Cost: O(ready * p) evaluations per commit, noticeably slower than HEFT
// on wide graphs; fine at the paper's scales.
#pragma once

#include "core/eft_engine.hpp"
#include "sched/schedule.hpp"

namespace oneport {

struct MinMinOptions {
  CommModel model = CommModel::kOnePort;
  /// false: min-min; true: max-min.
  bool max_min = false;
  const RoutingTable* routing = nullptr;
};

/// Runs min-min (or max-min) and returns a complete schedule.
[[nodiscard]] Schedule min_min(const TaskGraph& graph,
                               const Platform& platform,
                               const MinMinOptions& options = {});

}  // namespace oneport
