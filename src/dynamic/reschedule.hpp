// Online rescheduling: an event loop over a running schedule.
//
// run_dynamic() plays an EventTrace against an initially static schedule
// produced by a registry heuristic.  At each event time T:
//
//   * the *committed prefix* is frozen -- every task that started before
//     T keeps its placement and runs to completion (drain semantics:
//     a dropped processor finishes what it started and keeps relaying
//     store-and-forward traffic; it just accepts no new task at or after
//     T), and every message that started before T completes;
//   * the platform mutates (cycle-time scaling, availability);
//   * the *suffix* -- known, not-yet-started tasks plus any tasks that
//     just arrived -- is rescheduled: the registry heuristic runs on the
//     residual induced subgraph against the mutated platform (dropped
//     processors are penalized with a prohibitive cycle time) to pick an
//     allocation and an order, an optional load-rebalancing pass
//     (platform/load_balance.hpp) then shifts work off skewed
//     processors, and the chosen suffix is rebuilt hop by hop on
//     timelines pre-seeded with every frozen reservation, so the suffix
//     respects the ports and compute slots the prefix still occupies.
//
// Superseded messages that already ran (hops of a chain whose
// destination task moved) are retired to a `stale` side list: they no
// longer deliver anything, but they did occupy their ports, so the
// one-port exclusivity checks in the test battery run over live and
// stale messages together while the per-edge routing conformance checks
// see only the live chains.
//
// Everything is deterministic: same (graph, platform, heuristic, trace)
// yields bit-identical results (pinned by the frozen-oracle table in the
// property sweep).
#pragma once

#include <string>
#include <vector>

#include "core/registry.hpp"
#include "dynamic/events.hpp"
#include "graph/task_graph.hpp"
#include "platform/platform.hpp"
#include "sched/schedule.hpp"

namespace oneport::dyn {

struct DynamicOptions {
  /// Run the load_balance skew-reduction pass on each epoch's suffix
  /// allocation before rebuilding it.
  bool rebalance = false;
};

/// State after one epoch of the event loop.  epochs[0] is the initial
/// static schedule (time 0, no event applied); epochs[k >= 1] is the
/// state right after rescheduling for trace[k-1].
struct EpochSnapshot {
  PlatformEvent event;  ///< meaningful for epochs[k >= 1] only
  double time = 0.0;    ///< freeze instant (0 for the initial epoch)
  std::vector<double> cycle_times;  ///< effective per-proc cycle times
  std::vector<char> available;      ///< 0 after a dropout
  std::vector<char> known;          ///< per-task visibility
  Schedule schedule;                ///< composite as of this epoch
  std::vector<CommPlacement> stale_comms;  ///< retired so far
  /// Suffix load skew (fractional_load_imbalance over the residual
  /// work) before and after the rebalancing pass; equal when the pass is
  /// disabled or made no move.
  double imbalance_before = 0.0;
  double imbalance_after = 0.0;
  int rebalance_moves = 0;
  int suffix_tasks = 0;  ///< tasks rescheduled in this epoch
};

struct DynamicResult {
  Schedule schedule;  ///< final composite (== epochs.back().schedule)
  std::vector<CommPlacement> stale_comms;  ///< all retired messages
  std::vector<EpochSnapshot> epochs;
  std::vector<double> release;  ///< per-task arrival time (0 = initial)

  [[nodiscard]] double makespan() const { return schedule.makespan(); }
};

/// Plays `trace` against the schedule the named heuristic produces; the
/// suffix is rebuilt under the heuristic's own communication model
/// (SchedulerEntry::model).  `config.routing`, when set, routes every
/// (re)scheduled chain and must outlive the call.  The trace is validated
/// first; see events.hpp for the rules.  Throws std::invalid_argument on
/// malformed input and std::logic_error if the rebuild ever produces
/// conflicting reservations (a library bug, caught by the timelines
/// themselves).
[[nodiscard]] DynamicResult run_dynamic(const TaskGraph& graph,
                                        const Platform& platform,
                                        const std::string& scheduler,
                                        const SchedulerConfig& config,
                                        const EventTrace& trace,
                                        const DynamicOptions& options = {});

}  // namespace oneport::dyn
