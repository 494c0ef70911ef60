// HEFT -- Heterogeneous Earliest Finish Time (Topcuoglu, Hariri, Wu) --
// for both communication models.
//
// Macro-dataflow HEFT (§4.1): rank tasks by averaged bottom level; at each
// step pick the ready task of highest priority and place it on the
// processor minimizing its finish time, with insertion-based gap search.
//
// One-port HEFT (§4.3): identical control flow, but evaluating a candidate
// processor also greedily reserves a send-port/receive-port slot for every
// incoming message, so the chosen finish time accounts for communication
// contention.
//
// HEFT's priority loop is priority_list_schedule.  It is also the loop of
// the heuristics that fix some processors in advance: CPOP pins its
// critical tasks to one processor, and ILHA's fixed-allocation rebuild
// (§4.4) pins every task.
#pragma once

#include <vector>

#include "core/eft_engine.hpp"
#include "sched/schedule.hpp"

namespace oneport {

/// Runs HEFT and returns a complete schedule.
[[nodiscard]] Schedule heft(const TaskGraph& graph, const Platform& platform,
                            const EftOptions& options = {});

/// HEFT's list scheduler.  Commits the ready task of highest priority
/// (PriorityOrder over `bottom_levels`) until none is left: on processor
/// pinned[v] when that entry is at least 0, else on the processor with
/// the earliest finish time.  An empty `pinned` pins no task; otherwise
/// it holds one entry per task, and -1 means "earliest finish".
[[nodiscard]] Schedule priority_list_schedule(
    const TaskGraph& graph, const Platform& platform,
    const std::vector<double>& bottom_levels,
    const std::vector<ProcId>& pinned, const EftOptions& options);

}  // namespace oneport
