// Anytime branch-and-bound lower bound on the one-port makespan.
//
// The search solves the *macro-dataflow relaxation* exactly: processors
// execute their tasks sequentially, but communications contend for
// nothing (no send/receive ports, no link serialization) and cost
// data * link(q, r) end to end.  Every one-port schedule is MD-feasible,
// so the MD optimum is a sound lower bound for the one-port optimum --
// and a *calibrated* one: the gap a heuristic shows against it bounds
// the heuristic's true distance from one-port optimal.
//
// Enumeration is over semi-active schedules: a DFS over (ready task,
// processor) dispatch choices with earliest-start timing.  For a regular
// objective some semi-active schedule is optimal, so the tree covers an
// MD optimum.  Each node carries an optimistic bound
//   max( current max finish,
//        load bound   (remaining work over aggregate speed, offset by
//                      per-processor availability),
//        critical path  max over unscheduled v of
//                       release(v) + bottom_level(v; t_min, comm = 0) )
// and is pruned against the incumbent.  Children are explored
// cheapest-bound-first so good incumbents appear early.
//
// Anytime contract: the search stops after `node_budget` expansions (or
// the optional wall-clock deadline).  Nodes never expanded contribute
// their optimistic bound to `min_open_bound`;
//   lower_bound = max(root bound, min(incumbent, min_open_bound))
// is sound regardless of where the budget ran out, and
// `proven_optimal` is true iff no open node could beat the incumbent --
// then lower_bound IS the MD optimum.  With the default
// `deadline_seconds = 0` the result is a pure function of the inputs
// (node budget only), which the sweep audit and tests rely on.
#pragma once

#include <cstdint>
#include <limits>

#include "graph/task_graph.hpp"
#include "platform/platform.hpp"
#include "platform/routing.hpp"

namespace oneport::exact {

struct BranchBoundOptions {
  /// DFS nodes to expand before declaring the rest open.  The default
  /// proves optimality on the small instances the audit targets
  /// (<= ~12 tasks exhaustively; much larger when pruning bites).
  std::uint64_t node_budget = 200'000;
  /// Wall-clock cutoff in seconds; 0 disables it (keeps the result
  /// deterministic).  Checked every few hundred expansions.
  double deadline_seconds = 0.0;
  /// Above this many tasks the search is not attempted at all: the
  /// result is the root bound with proven_optimal = false.  Guards
  /// sweeps against accidentally pointing the audit at a 100k-task
  /// instance.
  int max_search_tasks = 64;
  /// For sparse platforms: end-to-end per-item costs are the routes'
  /// hop sums, folded from the table's next hops and Platform::link
  /// (fold_route_costs) instead of Platform::link alone, whose
  /// off-diagonal entries are kNoLink (+inf) for non-adjacent pairs.  The
  /// hop sum is a lower bound on the actual store-and-forward chain time
  /// -- still sound.  RoutingTable::distances() is not read: from_tables
  /// does not check it.  A route with a hole or a loop costs +inf.
  const RoutingTable* routing = nullptr;
};

struct BranchBoundResult {
  /// Sound lower bound on the one-port (and MD) optimal makespan.
  double lower_bound = 0.0;
  /// True iff lower_bound is exactly the MD optimal makespan.
  bool proven_optimal = false;
  /// Best complete MD schedule found (inf if none was reached within
  /// the budget).  incumbent == lower_bound when proven_optimal.
  double incumbent = std::numeric_limits<double>::infinity();
  /// Search effort actually spent, for bench/diagnostic output.
  std::uint64_t nodes_expanded = 0;
};

/// Runs the search on a finalized graph.  Throws std::invalid_argument
/// if the graph is not finalized or `routing` disagrees with the
/// platform's processor count.
[[nodiscard]] BranchBoundResult branch_bound_lower_bound(
    const TaskGraph& g, const Platform& platform,
    const BranchBoundOptions& options = {});

}  // namespace oneport::exact
