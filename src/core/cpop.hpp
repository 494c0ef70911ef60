// CPOP -- Critical Path On a Processor (Topcuoglu, Hariri, Wu) -- adapted
// to the one-port model as an extra baseline (the paper compared ILHA
// against CPOP in the macro-dataflow study it builds on [3]).
//
// CPOP ranks tasks by top level + bottom level; tasks whose rank equals
// the critical-path length are all pinned to the single processor that
// executes the whole critical path fastest.  Every other task is placed by
// earliest finish time: CPOP is HEFT's priority loop
// (priority_list_schedule) with the critical tasks pinned.  The one-port
// adaptation reuses the same greedy port-reservation machinery (§4.3).
#pragma once

#include "core/eft_engine.hpp"
#include "sched/schedule.hpp"

namespace oneport {

/// Runs CPOP and returns a complete schedule.
[[nodiscard]] Schedule cpop(const TaskGraph& graph, const Platform& platform,
                            const EftOptions& options = {});

}  // namespace oneport
