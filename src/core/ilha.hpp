// ILHA -- Iso-Level Heterogeneous Allocation (Boudet & Robert) -- for both
// communication models.
//
// ILHA processes *chunks* of B ready tasks at once (B >= number of
// processors), which gives it a global view of the potential
// communications:
//
//   step 0  sort ready tasks by averaged bottom level, take the first B;
//   step 1  scan the chunk in priority order and assign every task whose
//           predecessors all live on one processor P_i to P_i -- i.e.
//           generate *no* communication -- provided P_i's share of the
//           chunk does not exceed its load-balancing quota c_i * W
//           (weights, §4.4) / its optimal-distribution count (§4.2);
//   step 2  place the remaining tasks HEFT-style on the processor with the
//           earliest finish time (one-port: including greedy port
//           reservations);
//   repeat  with the updated ready list.
//
// Options cover the variants the paper sketches at the end of §4.4:
//   * single_comm_scan -- an extra scan between steps 1 and 2 assigning
//     tasks that cost exactly one message;
//   * reschedule_comms -- "third step": keep only the allocation and
//     rebuild all dates/messages with a fixed-allocation list scheduler
//     (reschedule_fixed_allocation: HEFT's priority loop with every task
//     pinned).
#pragma once

#include "core/eft_engine.hpp"
#include "sched/schedule.hpp"

namespace oneport {

struct IlhaOptions {
  CommModel model = CommModel::kOnePort;
  /// Chunk size; clamped below to the processor count (the paper: "B must
  /// be at least equal to the number of processors").  The paper's
  /// experiments use B = 38 (perfect balance), 20, or 4 depending on the
  /// testbed.
  int chunk_size = 38;
  /// Enforce the load-balancing quota during step 2 as well (ablation; the
  /// paper's step 2 is pure earliest-finish-time).
  bool quota_in_step2 = false;
  /// Extra scan for tasks schedulable at the price of one message (§4.4,
  /// "we could add another scan ...").
  bool single_comm_scan = false;
  /// Keep only the allocation and rebuild all dates with the
  /// fixed-allocation greedy scheduler (§4.4, "re-schedule the whole set").
  bool reschedule_comms = false;
  /// Optional routing table for sparse networks (must outlive the call).
  const RoutingTable* routing = nullptr;
};

/// Runs ILHA and returns a complete schedule.
[[nodiscard]] Schedule ilha(const TaskGraph& graph, const Platform& platform,
                            const IlhaOptions& options = {});

/// Greedy list scheduler for a *fixed* allocation: tasks keep their
/// assigned processors, all dates and messages are rebuilt in priority
/// order with earliest-fit port reservations -- HEFT's priority loop
/// (priority_list_schedule) with every task pinned.  (Scheduling
/// communications optimally for a fixed allocation is NP-complete --
/// Theorem 2 -- hence greedy.)  Useful on its own for replaying external
/// allocations.  Throws std::invalid_argument unless `allocation` holds
/// one processor in [0, p) per task.
[[nodiscard]] Schedule reschedule_fixed_allocation(
    const TaskGraph& graph, const Platform& platform,
    const std::vector<ProcId>& allocation, CommModel model,
    const RoutingTable* routing = nullptr);

}  // namespace oneport
