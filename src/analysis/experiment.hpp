// The experiment harness: run_sweep schedules a (topology, testbed, n,
// heuristic, event trace) grid, validates every schedule, and reports the
// paper's ratio (sequential time / makespan) per point.  Figures 7-12 are
// the grid {one testbed} x {100..500} x {heft-oneport, ilha-oneport},
// which figure_table lays out as the paper plots it.
//
// run_sweep runs its points through util::parallel_for
// (SweepOptions::workers threads; 1 = serial, 0 = every hardware thread)
// and always returns rows in grid order -- every point is a pure function
// of its inputs, so the results are identical whatever the worker count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "platform/platform.hpp"
#include "platform/routing.hpp"
#include "util/csv.hpp"

namespace oneport::analysis {

/// One (topology, testbed, n, scheduler) cell of a sweep grid.
struct SweepPoint {
  std::string testbed;    ///< testbeds registry name, e.g. "LU"
  int size = 100;         ///< problem size n
  std::string scheduler;  ///< scheduler registry name, e.g. "heft-oneport"
  double comm_ratio = 10.0;
  int chunk_size = 38;  ///< ILHA's B (ignored by other schedulers)
  /// Network shape: "full" schedules on the platform passed to run_sweep
  /// (no routing); any make_topology_platform name -- "ring", "star",
  /// "line", "random", "mesh<R>x<C>", "torus<R>x<C>", "fattree<L>x<A>",
  /// including the ':het'/':hot'/':aniso'/policy suffixes that make link
  /// heterogeneity and routing policy grid axes (e.g.
  /// "mesh4x4:het0.5:swp") -- rebuilds a sparse platform from that
  /// platform's cycle times (unit base link cost) and schedules
  /// store-and-forward chains along its routed paths.  Routed platforms
  /// come from the process-wide `process_topology_cache()`, so a grid
  /// sweep builds each (topology, seed) network once instead of once per
  /// point.
  std::string topology = "full";
  /// Seed for the "random" topology and the seeded ':het'/':hot' link
  /// cost generators.
  std::uint64_t topology_seed = 1;
  /// Platform-event trace preset (src/dynamic/events.hpp names: "none",
  /// "slowdown", "dropout", "mixed", "arrival").  "none" runs the static
  /// scheduler; any other name derives a fault trace from the static
  /// schedule's makespan and replays the point through dyn::run_dynamic,
  /// reporting the dynamic composite's metrics.
  std::string events = "none";
  /// Run the load_balance skew-reduction pass (DynamicOptions::rebalance)
  /// on every epoch's suffix allocation.  Only meaningful for dynamic
  /// points (events != "none"); static points ignore it.
  bool rebalance = false;
};

struct SweepResult {
  SweepPoint point;
  std::size_t num_tasks = 0;
  double makespan = 0.0;
  double speedup = 0.0;  ///< sequential time / makespan (the paper's ratio)
  std::size_t num_comms = 0;
  /// Worst per-epoch suffix load skew (fractional_load_imbalance) seen
  /// before and after the rebalancing pass.  The pass never increases an
  /// epoch's skew, so imbalance_after <= imbalance_before always; the two
  /// are equal when rebalancing is off or made no move, and both are 0
  /// for static points (no epochs).
  double imbalance_before = 0.0;
  double imbalance_after = 0.0;
  /// Optimality audit (SweepOptions::audit_gap).  `audited` is true when
  /// the branch-and-bound lower bound ran for this point -- only static
  /// points (events == "none") within the audit's task cap are audited;
  /// for everything else the three fields below stay at their zero
  /// defaults and the CSV/JSON report them as absent.
  bool audited = false;
  /// Sound lower bound on the point's optimal makespan (the MD optimum
  /// of exact/branch_bound, computed with the point's routed distances
  /// when the topology is sparse).
  double lower_bound = 0.0;
  /// makespan / lower_bound - 1 (analysis::optimality_gap); >= 0, and 0
  /// exactly when the heuristic attained the bound.
  double optimality_gap = 0.0;
  /// True when the bound is *proven* to be the MD optimum, i.e. the
  /// search closed within its budget; a gap of 0 with lb_proven means
  /// the heuristic is provably optimal for this point.
  bool lb_proven = false;
};

struct SweepOptions {
  /// Threads run_sweep starts (at most one per point): 0 = every
  /// hardware thread, 1 = serial on the caller; negative is rejected.
  int workers = 0;
  /// Validate every schedule under its scheduler's communication model
  /// (SchedulerEntry::model); throws std::logic_error on the first
  /// violation.
  bool validate = true;
  /// Run the exact/branch_bound optimality audit on every static point
  /// with at most `audit_max_tasks` tasks (the sweep_cli --audit=gap
  /// axis).  Dynamic points are never audited: the bound models a fixed
  /// platform, not one mutating under a fault trace.
  bool audit_gap = false;
  /// Node budget handed to BranchBoundOptions (deterministic cutoff).
  std::uint64_t audit_node_budget = 200'000;
  /// Points with more tasks than this report no bound at all rather
  /// than a trivially-loose root bound.
  int audit_max_tasks = 64;
};

/// Builds the full cross product topologies x testbeds x sizes x
/// schedulers x event traces x rebalance modes (topology outermost,
/// rebalance innermost; defaults to fully connected, static-only, no
/// rebalancing).
[[nodiscard]] std::vector<SweepPoint> make_sweep_grid(
    const std::vector<std::string>& testbed_names,
    const std::vector<int>& sizes,
    const std::vector<std::string>& scheduler_names,
    double comm_ratio = 10.0, int chunk_size = 38,
    const std::vector<std::string>& topologies = {"full"},
    const std::vector<std::string>& events = {"none"},
    const std::vector<bool>& rebalance = {false});

/// Runs every grid point (in parallel per SweepOptions::workers) and
/// returns results in grid order; throws std::invalid_argument when
/// `workers` is negative.  Static points are validated per
/// SweepOptions::validate; dynamic points (events != "none") are checked
/// by the rescheduler's own internal invariants instead -- the static
/// validators cannot judge a composite whose durations follow
/// epoch-dependent cycle times (the D1-D5 battery in tests/support
/// covers those properties).
[[nodiscard]] std::vector<SweepResult> run_sweep(
    const std::vector<SweepPoint>& grid, const Platform& platform,
    const SweepOptions& options = {});

/// Runs ONE grid point -- the exact code path each run_sweep thread runs,
/// exposed so other executors (the scheduler service in
/// src/service/) produce bit-identical results by construction.  Routed
/// points resolve their network through `process_topology_cache()`.
[[nodiscard]] SweepResult run_sweep_point(const SweepPoint& point,
                                          const Platform& platform,
                                          const SweepOptions& options = {});

/// Formats sweep results as one row per grid point.
[[nodiscard]] csv::Table sweep_table(const std::vector<SweepResult>& rows);

/// Formats a HEFT vs ILHA sweep like the paper's plots: one line per
/// size with both ratios, makespans, message counts and the ILHA/HEFT
/// gain.  `rows` must pair up as make_sweep_grid lays out the schedulers
/// {"heft-oneport", "ilha-oneport"}: each size's HEFT row, then its ILHA
/// row on the same testbed; throws std::invalid_argument otherwise.
[[nodiscard]] csv::Table figure_table(const std::vector<SweepResult>& rows);

}  // namespace oneport::analysis
