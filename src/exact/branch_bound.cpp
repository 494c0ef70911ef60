#include "exact/branch_bound.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "graph/graph_algorithms.hpp"
#include "util/error.hpp"

namespace oneport::exact {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Mutable DFS state plus everything precomputed at the root.
struct Search {
  const TaskGraph& g;
  const Platform& platform;
  const BranchBoundOptions& options;
  const Matrix<double>* dist;  ///< route costs, or the link matrix

  int num_procs;
  double aggregate_speed;
  bool symmetric;  ///< identical cycle times AND uniform finite links
  std::vector<double> blev;  ///< bottom levels at t_min, zero comm

  // Per-task: assigned processor (-1 = unscheduled) and finish time.
  std::vector<int> proc;
  std::vector<double> finish;
  // Per-task count of unscheduled predecessors; 0 => ready.
  std::vector<int> missing_preds;
  // Per-processor availability (finish of its last task) and task count.
  std::vector<double> avail;
  std::vector<int> proc_load;

  std::size_t num_scheduled = 0;
  double cur_max_finish = 0.0;
  double remaining_weight = 0.0;
  double avail_over_t = 0.0;  ///< sum over p of avail[p] / t_p

  double incumbent = kInf;
  double min_open_bound = kInf;
  std::uint64_t nodes_expanded = 0;
  bool budget_hit = false;

  [[nodiscard]] double link_cost(int from, int to) const {
    return (*dist)(static_cast<std::size_t>(from),
                   static_cast<std::size_t>(to));
  }

  /// Optimistic completion bound for the current partial schedule.
  [[nodiscard]] double node_bound() const {
    double bound = cur_max_finish;
    // Load: the remaining work, spread over every processor's leftover
    // capacity.  Valid because any completion time T satisfies
    // T >= avail[p] for all p (avail entries are finish times).
    const double load =
        (remaining_weight + avail_over_t) / aggregate_speed;
    bound = std::max(bound, load);
    // Critical path: an unscheduled task cannot start before its
    // scheduled predecessors finish, and needs blev time after that
    // even on the fastest processors with free communication.
    for (TaskId v = 0; v < g.num_tasks(); ++v) {
      if (proc[v] >= 0) continue;
      double release = 0.0;
      for (const EdgeRef& e : g.predecessors(v)) {
        if (proc[e.task] >= 0) release = std::max(release, finish[e.task]);
      }
      bound = std::max(bound, release + blev[v]);
    }
    return bound;
  }

  void place(TaskId v, int p, double start_time) {
    const double f = start_time + platform.exec_time(g.weight(v), p);
    proc[v] = p;
    finish[v] = f;
    for (const EdgeRef& e : g.successors(v)) --missing_preds[e.task];
    const auto pu = static_cast<std::size_t>(p);
    avail_over_t += (f - avail[pu]) / platform.cycle_time(p);
    avail[pu] = f;
    ++proc_load[pu];
    ++num_scheduled;
    cur_max_finish = std::max(cur_max_finish, f);
    remaining_weight -= g.weight(v);
  }

  void unplace(TaskId v, int p, double prev_avail, double prev_max) {
    const auto pu = static_cast<std::size_t>(p);
    avail_over_t -= (avail[pu] - prev_avail) / platform.cycle_time(p);
    avail[pu] = prev_avail;
    --proc_load[pu];
    --num_scheduled;
    cur_max_finish = prev_max;
    remaining_weight += g.weight(v);
    for (const EdgeRef& e : g.successors(v)) ++missing_preds[e.task];
    proc[v] = -1;
    finish[v] = 0.0;
  }

  /// Earliest MD start of ready task v on processor p: after the
  /// processor frees up and after every predecessor's data arrives.
  [[nodiscard]] double earliest_start(TaskId v, int p) const {
    double start = avail[static_cast<std::size_t>(p)];
    for (const EdgeRef& e : g.predecessors(v)) {
      const int q = proc[e.task];
      const double comm = (q == p) ? 0.0 : e.data * link_cost(q, p);
      start = std::max(start, finish[e.task] + comm);
    }
    return start;
  }

  void dfs() {
    if (num_scheduled == g.num_tasks()) {
      incumbent = std::min(incumbent, cur_max_finish);
      return;
    }
    if (nodes_expanded >= options.node_budget) {
      budget_hit = true;
      min_open_bound = std::min(min_open_bound, node_bound());
      return;
    }
    ++nodes_expanded;

    // Enumerate children: every (ready task, processor) dispatch.
    struct Child {
      TaskId task;
      int proc;
      double start;
      double bound;
    };
    std::vector<Child> children;
    children.reserve(g.num_tasks());
    for (TaskId v = 0; v < g.num_tasks(); ++v) {
      if (proc[v] >= 0 || missing_preds[v] != 0) continue;
      bool tried_fresh = false;
      for (int p = 0; p < num_procs; ++p) {
        if (symmetric && proc_load[static_cast<std::size_t>(p)] == 0) {
          // Unused processors of a fully symmetric platform are
          // interchangeable: trying one of them covers them all.
          if (tried_fresh) continue;
          tried_fresh = true;
        }
        const double start = earliest_start(v, p);
        const double f = start + platform.exec_time(g.weight(v), p);
        // Cheap per-child bound refinement: this dispatch forces
        // finish(v) = f, and v still needs its own bottom level.
        const double child_bound =
            std::max({cur_max_finish, f,
                      f - platform.exec_time(g.weight(v), p) + blev[v]});
        if (child_bound < incumbent) {
          children.push_back({v, p, start, child_bound});
        }
      }
    }
    std::stable_sort(children.begin(), children.end(),
                     [](const Child& a, const Child& b) {
                       return a.bound < b.bound;
                     });

    for (const Child& c : children) {
      // Re-test: the incumbent may have improved since enumeration.
      if (c.bound >= incumbent) continue;
      const double prev_avail = avail[static_cast<std::size_t>(c.proc)];
      const double prev_max = cur_max_finish;
      place(c.task, c.proc, c.start);
      const double bound = node_bound();
      if (bound < incumbent) {
        dfs();
      }
      unplace(c.task, c.proc, prev_avail, prev_max);
    }
  }
};

[[nodiscard]] bool is_symmetric_platform(const Platform& platform,
                                         const Matrix<double>& dist) {
  const int p = platform.num_processors();
  for (int i = 1; i < p; ++i) {
    if (platform.cycle_time(i) != platform.cycle_time(0)) return false;
  }
  double uniform = -1.0;
  for (int i = 0; i < p; ++i) {
    for (int j = 0; j < p; ++j) {
      if (i == j) continue;
      const double d =
          dist(static_cast<std::size_t>(i), static_cast<std::size_t>(j));
      if (!std::isfinite(d)) return false;
      if (uniform < 0.0) {
        uniform = d;
      } else if (d != uniform) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

BranchBoundResult branch_bound_lower_bound(const TaskGraph& g,
                                           const Platform& platform,
                                           const BranchBoundOptions& options) {
  OP_REQUIRE(g.finalized(), "branch_bound needs a finalized graph");
  OP_REQUIRE(platform.num_processors() >= 1, "empty platform");
  if (options.routing != nullptr) {
    OP_REQUIRE(options.routing->num_processors() == platform.num_processors(),
               "routing table does not match the platform");
  }
  BranchBoundResult result;
  if (g.num_tasks() == 0) {
    result.proven_optimal = true;
    result.incumbent = 0.0;
    return result;
  }

  const RouteCosts routed = options.routing != nullptr
                               ? fold_route_costs(*options.routing, platform)
                               : RouteCosts{};
  const Matrix<double>& dist =
      options.routing != nullptr ? routed.route : platform.link_matrix();
  const double t_min = platform.cycle_time(platform.fastest_processor());

  Search search{g, platform, options, &dist,
                platform.num_processors(), platform.aggregate_speed(),
                is_symmetric_platform(platform, dist),
                bottom_levels(g, t_min, 0.0),
                std::vector<int>(g.num_tasks(), -1),
                std::vector<double>(g.num_tasks(), 0.0),
                std::vector<int>(g.num_tasks(), 0),
                std::vector<double>(static_cast<std::size_t>(
                                        platform.num_processors()),
                                    0.0),
                std::vector<int>(static_cast<std::size_t>(
                                     platform.num_processors()),
                                 0)};
  for (TaskId v = 0; v < g.num_tasks(); ++v) {
    search.missing_preds[v] = static_cast<int>(g.in_degree(v));
  }
  search.remaining_weight = g.total_weight();

  const double root_bound = search.node_bound();
  if (static_cast<std::size_t>(options.max_search_tasks) < g.num_tasks()) {
    result.lower_bound = root_bound;
    return result;
  }

  search.dfs();

  result.nodes_expanded = search.nodes_expanded;
  result.incumbent = search.incumbent;
  // Sound anytime combination: every leaf is >= the true optimum's
  // bound chain, and every never-expanded node's optimistic bound
  // underestimates the best completion through it.
  const double unexplored = std::min(search.incumbent, search.min_open_bound);
  result.lower_bound = std::max(root_bound, unexplored);
  result.proven_optimal =
      std::isfinite(search.incumbent) &&
      (!search.budget_hit || search.min_open_bound >= search.incumbent);
  if (result.proven_optimal) result.lower_bound = search.incumbent;
  return result;
}

}  // namespace oneport::exact
