// Earliest-finish-time machinery shared by all list-scheduling heuristics.
//
// The engine owns the running state of a schedule under construction:
// committed task placements plus, per processor, a compute timeline and --
// in one-port mode -- a send-port and a receive-port timeline.
//
// The central operation is evaluate(v, proc): tentatively place task v on
// `proc`, which entails scheduling one incoming message per predecessor
// that sits on another processor.  Under the one-port model (§4.3) each
// message needs a joint free slot on the sender's send port and on
// `proc`'s receive port; messages reserved earlier *within the same
// evaluation* are tracked in overlays so they cannot collide with each
// other.  Under the macro-dataflow model messages simply travel during
// [finish(u), finish(u) + data*link).  Nothing is mutated until commit().
// The model is a CommModel (sched/schedule.hpp), the one record of it
// every layer reads; HEFT, CPOP and GDL take it, with the routing table,
// as EftOptions.
//
// Incoming messages are ordered by predecessor data-ready time (earliest
// finish first, task id on ties); the paper leaves this order open and
// "assigns the new communications as early as possible, in a greedy
// fashion", which this policy implements deterministically.
//
// Hot-path layout: the engine walks the TaskGraph's CSR adjacency lanes
// directly, caches the raw link and cycle-time arrays once, and folds
// each task's predecessors into contiguous PredRec lanes -- (finish,
// data, release, task, proc) sorted by data-ready time -- shared by every
// candidate-processor scan.  The finish lower bounds for *all*
// processors are produced in one pass over those lanes (per predecessor,
// one dense sweep across the processor lanes followed by an exact
// restore of the predecessor's own lane), which is bit-identical to the
// per-processor scalar recurrence because each lane sees the same
// operations in the same order.
//
// Lower bounds (fill_bounds).  Take a predecessor u of v on q != p, with
// finish f_u and data d_u, routed q = a_0 -> a_1 -> ... -> a_k = p with
// per-item hop costs c_0..c_{k-1}; a direct link is the case k = 1.  Two
// per-pair lanes, folded once per engine from the table's next hops and
// the link matrix by fold_route_costs, hold the route cost
// C = c_0 + ... + c_{k-1} and the last-hop cost c_{k-1}; without routing
// both are the link matrix.  The macro-dataflow bound is
// max_u (f_u + d_u C) plus the execution time.  The one-port bound adds
// two terms:
//   * Send-port release.  Hop 0 occupies q's send port for d_u c_0 >=
//     d_u cmin_q (cmin_q = q's cheapest outgoing link) and cannot start
//     before f_u.  next_fit is monotone in the duration, and this
//     evaluation's overlays only add reservations to the committed send
//     port, so hop 0 starts no earlier than rel_u = the first committed
//     slot at or after f_u that fits d_u cmin_q.  Every later hop starts
//     after the previous one ends, so the message arrives no earlier
//     than rel_u + d_u C.
//   * Receive-port chain.  The last hop of every cross message occupies
//     p's receive port for d_u c_{k-1}, disjointly from the others (the
//     overlay of p's receive port holds them all), and starts no earlier
//     than f_u.  Intermediate hops never land on p: a well-formed route
//     visits p only at its end.  So the last arrival is at least the
//     optimal makespan of one machine with release dates f_u and
//     processing times d_u c_{k-1}, which the earliest-release-date
//     sequence attains; the predecessors are already sorted by f_u, so
//     that is the chain max(chain, f_u) + d_u c_{k-1}.
// Same-processor predecessors contribute f_u only.  Both terms are exact
// in real arithmetic.  In floating point they carry the caveats of the
// kTimeEps rules: the bound sums and rounds the costs in another order
// than evaluate_into's hop-by-hop cursor (C is summed from the
// destination end, before the product with d_u), and joint fits treat
// messages that overlap by less than kTimeEps as disjoint.  The excess
// is a few ulps or below kTimeEps, which the prune test's kTimeEps band
// absorbs while the times stay far above it.
//
// Evaluation is allocation-free after warm-up: the engine keeps one
// reusable overlay per processor and port direction, invalidated lazily
// by an epoch counter bumped at the start of every evaluation, plus
// scratch for the predecessor lanes, routed paths, candidate bounds and
// the evaluate_best result itself (returned by reference).  The scratch
// makes evaluate()/evaluate_best() non-reentrant: use one engine per
// thread.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/task_graph.hpp"
#include "platform/platform.hpp"
#include "platform/routing.hpp"
#include "sched/schedule.hpp"
#include "sched/timeline.hpp"

namespace oneport {

/// Result of evaluating a (task, processor) pair.  `comms` holds the
/// tentatively scheduled incoming messages, one record per hop of a
/// routed transfer, each with `dst == task`; commit() appends them to the
/// schedule as they are.
struct Evaluation {
  TaskId task = kInvalidTask;
  ProcId proc = -1;
  double start = 0.0;
  double finish = 0.0;
  std::vector<CommPlacement> comms;
};

/// What an EFT heuristic schedules under: the communication model and an
/// optional routing table for sparse networks (must outlive the call).
struct EftOptions {
  CommModel model = CommModel::kOnePort;
  const RoutingTable* routing = nullptr;
};

class EftEngine {
 public:
  /// Schedules under `model`'s rules.  `routing` is optional (may be
  /// null): when provided, transfers between non-adjacent processors
  /// become store-and-forward chains along the routed path, each hop
  /// occupying its own pair of ports (the §4.3 extension).  The table
  /// must outlive the engine, as must the graph and the platform.
  EftEngine(const TaskGraph& graph, const Platform& platform, CommModel model,
            const RoutingTable* routing = nullptr);

  /// Tentative placement of `v` on `proc`; requires all predecessors of
  /// `v` to be committed already.
  [[nodiscard]] Evaluation evaluate(TaskId v, ProcId proc) const;

  /// Same as evaluate(), writing into `out` so hot loops can recycle the
  /// comms vector's capacity across calls.
  void evaluate_into(TaskId v, ProcId proc, Evaluation& out) const;

  /// Evaluates every processor and returns the one with the earliest
  /// finish time (smallest processor id on ties).  The reference points
  /// into engine-owned scratch: it is valid until the next
  /// evaluate_best() call on this engine (copy it to keep it longer).
  [[nodiscard]] const Evaluation& evaluate_best(TaskId v) const;

  /// Makes an evaluation permanent: reserves timelines and records the
  /// placement.
  void commit(const Evaluation& eval);

  [[nodiscard]] bool scheduled(TaskId v) const {
    return placements_[v].placed();
  }
  [[nodiscard]] const TaskPlacement& placement(TaskId v) const {
    return placements_[v];
  }
  /// True when every predecessor of `v` has been committed.  O(1): backed
  /// by an indegree counter decremented on commit, not a predecessor
  /// rescan.
  [[nodiscard]] bool ready(TaskId v) const {
    return pending_preds_[v] == 0;
  }

  /// Extracts the finished schedule; requires all tasks committed.
  /// Moves the engine's placement and comm records into Schedule's
  /// vector constructor (no copy, no per-record push_back), so it
  /// consumes the engine: call it as std::move(engine).build_schedule().
  [[nodiscard]] Schedule build_schedule() &&;

 private:
  /// One predecessor of the task under evaluation, flattened into the
  /// lane layout the hot loops consume: committed finish time, edge data
  /// volume, send-port release bound (one-port only), and the
  /// predecessor's identity.
  struct PredRec {
    double finish = 0.0;
    double data = 0.0;
    double release = 0.0;
    TaskId task = kInvalidTask;
    ProcId proc = -1;
  };

  /// Fills bounds_scratch_ with (finish lower bound, proc) for every
  /// processor in one pass over the predecessor lanes; see the header
  /// comment for the exactness argument.  Sound lower bounds on
  /// evaluate(v, p).finish, used to prune dominated candidates in
  /// evaluate_best without changing its result.  Leaves arr_scratch_
  /// holding the per-processor arrival bounds so evaluate_best can
  /// tighten individual keys through the compute timeline on demand.
  void fill_bounds(TaskId v) const;

  /// evaluate_into with an abandon threshold: once the partial message
  /// arrival proves finish > cutoff, the scan stops early with `out`
  /// holding only a (finish lower bound > cutoff, partial comms) stub.
  /// Exact for pruning: such a candidate can neither win nor eps-tie.
  /// Pass +inf (the public entry points do) to force a full evaluation.
  void evaluate_into(TaskId v, ProcId proc, Evaluation& out,
                     double cutoff) const;

  /// Predecessor lanes of `v` ordered by (finish asc, id asc), cached per
  /// task: predecessor placements are immutable once committed, so the
  /// order is shared across the whole candidate-processor scan.
  const std::vector<PredRec>& sorted_preds(TaskId v) const;

  /// Returns the per-processor scratch overlay for the current epoch,
  /// resetting it on first touch within this evaluation.
  TimelineOverlay& overlay_of(std::vector<TimelineOverlay>& overlays,
                              std::vector<std::uint64_t>& epochs,
                              const std::vector<TimelineIndex>& base,
                              ProcId p) const;

  const TaskGraph& graph_;
  const Platform& platform_;
  CommModel model_;
  const RoutingTable* routing_;
  std::size_t np_ = 0;  ///< processor count
  const double* link_data_ = nullptr;   ///< row-major p x p link matrix
  const double* cycle_data_ = nullptr;  ///< per-proc cycle times
  /// Row-major p x p route lanes (see the header comment): the per-item
  /// cost of the last hop into the destination, and of the whole route.
  /// Both point at the link matrix without routing, else into
  /// route_costs_.
  const double* last_hop_data_ = nullptr;
  const double* route_data_ = nullptr;
  RouteCosts route_costs_;  ///< routed storage
  std::vector<TaskPlacement> placements_;
  std::vector<CommPlacement> comms_;
  std::vector<TimelineIndex> compute_;  // per processor
  std::vector<TimelineIndex> send_;     // per processor (one-port only)
  std::vector<TimelineIndex> recv_;     // per processor (one-port only)
  std::vector<std::uint32_t> pending_preds_;  // uncommitted preds per task

  // Reusable evaluation scratch (see the header comment): overlays are
  // valid for the evaluation whose epoch stamp they carry; stale ones are
  // reset on first use instead of being reallocated.
  mutable std::uint64_t epoch_ = 0;
  mutable std::vector<TimelineOverlay> send_overlays_;
  mutable std::vector<TimelineOverlay> recv_overlays_;
  mutable std::vector<std::uint64_t> send_epochs_;
  mutable std::vector<std::uint64_t> recv_epochs_;
  mutable std::vector<PredRec> preds_;
  mutable TaskId preds_task_ = kInvalidTask;  ///< task preds_ is for
  mutable std::vector<ProcId> path_scratch_;
  /// The cheap pool of evaluate_best: one (arrival + exec bound, proc)
  /// key per candidate not yet probed, ordered only in rounds, each
  /// bringing its next smallest keys to the front of what is left.
  mutable std::vector<std::pair<double, ProcId>> bounds_scratch_;
  /// The tight pool: probed (timeline-tightened) candidate keys,
  /// descending, so the current global minimum sits at the back.
  mutable std::vector<std::pair<double, ProcId>> tight_scratch_;
  mutable std::vector<double> chain_scratch_;  ///< per-proc ERD chain lane
  mutable std::vector<double> arr_scratch_;    ///< per-proc arrival lane
  mutable Evaluation best_scratch_;  ///< evaluate_best result storage
  mutable Evaluation cand_scratch_;
  /// The candidate's receive port in evaluate_into's overlay-free fast
  /// path.
  mutable TimelineOverlay recv_scratch_;
  std::vector<double> min_out_link_;  ///< per proc: min outgoing link cost
};

}  // namespace oneport
