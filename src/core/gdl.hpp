// GDL -- Generalized Dynamic Level scheduling (Sih & Lee), adapted to the
// one-port model.  Another baseline from the comparison set of the
// paper's predecessor study [3].
//
// The dynamic level of a ready task v on processor p is
//     DL(v, p) = SL(v) - max(DA(v, p), TF(p)) + Delta(v, p)
// where SL is the static level (bottom level without communication
// charges, computed with the harmonic-mean cycle time), DA the time v's
// data is available on p, TF the time p finishes its committed work, and
// Delta(v, p) = w(v) * (H(t) - t_p) rewards placing v on faster-than-
// average machines.  Each step commits the (ready task, processor) pair
// of maximum dynamic level.  The one-port adaptation computes DA and the
// start time with the same greedy port-reservation evaluation HEFT uses.
#pragma once

#include "core/eft_engine.hpp"
#include "sched/schedule.hpp"

namespace oneport {

/// Runs GDL and returns a complete schedule.
[[nodiscard]] Schedule gdl(const TaskGraph& graph, const Platform& platform,
                           const EftOptions& options = {});

}  // namespace oneport
