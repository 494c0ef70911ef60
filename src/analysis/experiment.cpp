#include "analysis/experiment.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "analysis/metrics.hpp"
#include "analysis/topology_cache.hpp"
#include "core/registry.hpp"
#include "dynamic/events.hpp"
#include "dynamic/reschedule.hpp"
#include "exact/branch_bound.hpp"
#include "platform/routing.hpp"
#include "sched/validate.hpp"
#include "testbeds/registry.hpp"
#include "util/error.hpp"
#include "util/parallel_for.hpp"

namespace oneport::analysis {

std::vector<SweepPoint> make_sweep_grid(
    const std::vector<std::string>& testbed_names,
    const std::vector<int>& sizes,
    const std::vector<std::string>& scheduler_names, double comm_ratio,
    int chunk_size, const std::vector<std::string>& topologies,
    const std::vector<std::string>& events,
    const std::vector<bool>& rebalance) {
  std::vector<SweepPoint> grid;
  grid.reserve(topologies.size() * testbed_names.size() * sizes.size() *
               scheduler_names.size() * events.size() * rebalance.size());
  for (const std::string& topology : topologies) {
    for (const std::string& testbed : testbed_names) {
      for (const int n : sizes) {
        for (const std::string& scheduler : scheduler_names) {
          for (const std::string& trace : events) {
            for (const bool reb : rebalance) {
              SweepPoint point{testbed, n, scheduler, comm_ratio, chunk_size};
              point.topology = topology;
              point.events = trace;
              point.rebalance = reb;
              grid.push_back(std::move(point));
            }
          }
        }
      }
    }
  }
  return grid;
}

SweepResult run_sweep_point(const SweepPoint& point, const Platform& platform,
                            const SweepOptions& options) {
  const testbeds::TestbedEntry testbed = testbeds::find_testbed(point.testbed);
  const TaskGraph graph = testbed.make(point.size, point.comm_ratio);

  // Routed points share one immutable platform + RoutingTable per
  // (topology, seed) through a cache: each cell stays a pure function of
  // its inputs, but the Floyd-Warshall / structured-route construction
  // runs once per network, not once per point.
  const bool routed = point.topology != "full";
  std::shared_ptr<const RoutedPlatform> sparse;
  if (routed) {
    sparse = process_topology_cache().get(point.topology,
                                          platform.cycle_times(),
                                          /*link=*/1.0, point.topology_seed);
  }
  const Platform& target = routed ? sparse->platform : platform;
  const SchedulerConfig config{
      .ilha_chunk_size = point.chunk_size,
      .routing = routed ? &sparse->routing : nullptr};
  const SchedulerEntry scheduler = find_scheduler(point.scheduler, config);
  Schedule schedule = scheduler.run(graph, target);

  double imbalance_before = 0.0;
  double imbalance_after = 0.0;
  if (point.events != "none") {
    // Dynamic point: derive the named fault trace from the static
    // schedule's makespan and replay the run through the online
    // rescheduler.  The static validators cannot judge the composite
    // (durations follow epoch-dependent cycle times, superseded
    // messages hold ports without delivering), so correctness rests on
    // run_dynamic's internal invariants -- the timelines themselves
    // reject any conflicting reservation.
    const dyn::EventTrace trace = dyn::make_named_trace(
        point.events, graph, target, schedule, point.topology_seed);
    const dyn::DynamicResult dynamic =
        dyn::run_dynamic(graph, target, point.scheduler, config, trace,
                         {.rebalance = point.rebalance});
    schedule = dynamic.schedule;
    // Report the worst epoch skew: per epoch the rebalancing pass never
    // increases the imbalance, so max(after) <= max(before) and the
    // before/after pair shows directly how much the pass bought.
    for (const dyn::EpochSnapshot& epoch : dynamic.epochs) {
      imbalance_before = std::max(imbalance_before, epoch.imbalance_before);
      imbalance_after = std::max(imbalance_after, epoch.imbalance_after);
    }
  } else if (options.validate) {
    const ValidationResult result =
        validate(schedule, graph, target, scheduler.model);
    ensure(result.ok(), point.scheduler + " schedule invalid for " +
                            point.topology + "/" + point.testbed + "(" +
                            std::to_string(point.size) +
                            "): " + result.message());
  }

  SweepResult out;
  out.point = point;
  out.num_tasks = graph.num_tasks();
  out.makespan = schedule.makespan();
  out.speedup = speedup(graph, target, schedule);
  out.num_comms = schedule.num_comms();
  out.imbalance_before = imbalance_before;
  out.imbalance_after = imbalance_after;

  // Optimality audit: a sound MD lower bound turns the makespan into a
  // calibrated "at most X% above optimal" claim.  Static points only --
  // a dynamic composite ran on a platform the bound never saw.
  if (options.audit_gap && point.events == "none" &&
      graph.num_tasks() <= static_cast<std::size_t>(options.audit_max_tasks)) {
    exact::BranchBoundOptions bb;
    bb.node_budget = options.audit_node_budget;
    bb.max_search_tasks = options.audit_max_tasks;
    bb.routing = routed ? &sparse->routing : nullptr;
    const exact::BranchBoundResult lb =
        exact::branch_bound_lower_bound(graph, target, bb);
    out.audited = true;
    out.lower_bound = lb.lower_bound;
    out.lb_proven = lb.proven_optimal;
    out.optimality_gap = optimality_gap(out.makespan, lb.lower_bound);
  }
  return out;
}

std::vector<SweepResult> run_sweep(const std::vector<SweepPoint>& grid,
                                   const Platform& platform,
                                   const SweepOptions& options) {
  OP_REQUIRE(options.workers >= 0,
             "SweepOptions::workers must not be negative; got "
                 << options.workers);
  std::vector<SweepResult> results(grid.size());
  util::parallel_for(
      static_cast<unsigned>(options.workers), grid.size(),
      [&](std::size_t i) {
        results[i] = run_sweep_point(grid[i], platform, options);
      });
  return results;
}

csv::Table figure_table(const std::vector<SweepResult>& rows) {
  OP_REQUIRE(rows.size() % 2 == 0,
             "figure rows must pair heft-oneport with ilha-oneport; got "
                 << rows.size() << " rows");
  csv::Table table({"n", "heft_ratio", "ilha_ratio", "ilha_gain_pct",
                    "heft_makespan", "ilha_makespan", "heft_msgs",
                    "ilha_msgs"});
  for (std::size_t i = 0; i < rows.size(); i += 2) {
    const SweepResult& h = rows[i];
    const SweepResult& l = rows[i + 1];
    OP_REQUIRE(h.point.scheduler == "heft-oneport" &&
                   l.point.scheduler == "ilha-oneport" &&
                   h.point.size == l.point.size &&
                   h.point.testbed == l.point.testbed,
               "figure rows " << i << " and " << i + 1
                              << " do not pair heft-oneport with "
                                 "ilha-oneport on one size");
    const double gain =
        h.speedup > 0.0 ? (l.speedup / h.speedup - 1.0) * 100.0 : 0.0;
    table.add_row({std::to_string(h.point.size),
                   csv::format_number(h.speedup),
                   csv::format_number(l.speedup), csv::format_number(gain, 1),
                   csv::format_number(h.makespan, 0),
                   csv::format_number(l.makespan, 0),
                   std::to_string(h.num_comms), std::to_string(l.num_comms)});
  }
  return table;
}

csv::Table sweep_table(const std::vector<SweepResult>& rows) {
  csv::Table table({"topology", "testbed", "n", "scheduler", "events",
                    "rebalance", "tasks", "ratio", "makespan", "msgs",
                    "imb_before", "imb_after", "lb", "optimality_gap",
                    "lb_proven"});
  for (const SweepResult& r : rows) {
    table.add_row({r.point.topology, r.point.testbed,
                   std::to_string(r.point.size), r.point.scheduler,
                   r.point.events, r.point.rebalance ? "on" : "off",
                   std::to_string(r.num_tasks),
                   csv::format_number(r.speedup),
                   csv::format_number(r.makespan, 0),
                   std::to_string(r.num_comms),
                   csv::format_number(r.imbalance_before, 3),
                   csv::format_number(r.imbalance_after, 3),
                   r.audited ? csv::format_number(r.lower_bound) : "",
                   r.audited ? csv::format_number(r.optimality_gap, 4) : "",
                   r.audited ? (r.lb_proven ? "proven" : "anytime") : ""});
  }
  return table;
}

}  // namespace oneport::analysis
