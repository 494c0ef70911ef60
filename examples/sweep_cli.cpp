// Command-line sweep driver (ROADMAP item): run the general
// (topology, testbed, n, scheduler) grid of analysis::run_sweep on
// --workers threads and write the results as terminal table, CSV, and/or
// google-benchmark-shaped JSON artifacts (the format bench/run_all.sh
// collects under bench/out/).
//
// Usage:
//   sweep_cli [--testbeds=LU,STENCIL] [--sizes=100,200,300]
//             [--schedulers=heft-oneport,ilha-oneport]
//             [--topologies=full,ring,star,line,random,mesh3x3,torus3x3,fattree2x2]
//             [--events=none,slowdown,dropout,mixed,arrival]
//             [--rebalance=off,on]
//             [--comm-ratio=10] [--chunk=38] [--workers=0]
//             [--topology-seed=1] [--no-validate]
//             [--csv=out.csv] [--json=out.json] [--quiet]
//
// Topology "full" schedules on the paper's fully-connected 10-processor
// platform; the sparse names rebuild that platform's processors over a
// ring/star/line/random-connected/mesh/torus/fat-tree network and
// schedule store-and-forward chains along its routed paths (structured
// names fix the processor count and recycle the paper platform's cycle
// times).  The --events axis replays each point through the online
// rescheduler (src/dynamic) under a named platform-fault trace --
// processor slowdowns, drop-outs, late task arrivals -- derived from the
// static schedule's makespan; "none" keeps the point static.  The
// --rebalance axis toggles the per-epoch load_balance skew-reduction
// pass on those dynamic points; the worst per-epoch suffix imbalance
// before/after the pass lands in the imb_before/imb_after columns.
// Structured names take ':' suffixes making link heterogeneity
// and routing policy sweep axes -- e.g. mesh4x4:het0.5:swp = seeded
// +/-50% link jitter routed by cost-aware shortest-weighted-path; see
// docs/TOPOLOGIES.md for the full grammar.  Topology names are
// validated against the registry before the sweep starts: a typo is a
// hard error listing the known names, not a point failure deep inside
// the grid.  Every grid point is validated under the model implied by
// the scheduler name unless --no-validate is given.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "dynamic/events.hpp"
#include "platform/platform.hpp"
#include "platform/routing.hpp"
#include "util/args.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/profiler.hpp"

namespace {

using namespace oneport;

/// JSON string escaping for the few metadata fields we emit.
std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// google-benchmark-shaped JSON: a context header plus one "benchmark"
/// entry per grid point with the sweep metrics as counters, so tooling
/// that consumes bench/out/*.json can ingest sweep artifacts unchanged.
void write_json(std::ostream& os,
                const std::vector<analysis::SweepResult>& results,
                int workers) {
  os << "{\n  \"context\": {\n"
     << "    \"executable\": \"sweep_cli\",\n"
     << "    \"workers\": " << workers;
  // Per-thread scalability profile (ONEPORT_PROFILE=1): the aggregate
  // counter vector over every worker slab, at quiescence (run_sweep has
  // joined its threads by the time artifacts are written).  Absent
  // entirely when the profiler is disabled, so its presence is itself
  // the smoke signal CI greps for.
  if (prof::enabled()) {
    const prof::Counts totals = prof::aggregate();
    os << ",\n    \"profile\": {\n"
       << "      \"threads\": " << prof::slab_count();
    for (std::size_t i = 0; i < prof::kNumCounters; ++i) {
      os << ",\n      \"prof_"
         << prof::counter_name(static_cast<prof::Counter>(i))
         << "\": " << totals[i];
    }
    os << "\n    }";
  }
  os << "\n  },\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const analysis::SweepResult& r = results[i];
    std::string name = r.point.topology + "/" + r.point.testbed +
                       "/n=" + std::to_string(r.point.size) + "/" +
                       r.point.scheduler;
    if (r.point.events != "none") name += "/events=" + r.point.events;
    if (r.point.rebalance) name += "/rebalance=on";
    os << "    {\n"
       << "      \"name\": \"" << json_escape(name) << "\",\n"
       << "      \"run_type\": \"sweep\",\n"
       << "      \"tasks\": " << r.num_tasks << ",\n"
       << "      \"makespan\": " << r.makespan << ",\n"
       << "      \"ratio\": " << r.speedup << ",\n"
       << "      \"msgs\": " << r.num_comms << ",\n"
       << "      \"imb_before\": " << r.imbalance_before << ",\n"
       << "      \"imb_after\": " << r.imbalance_after;
    if (r.audited) {
      os << ",\n      \"lb\": " << r.lower_bound
         << ",\n      \"optimality_gap\": " << r.optimality_gap
         << ",\n      \"lb_proven\": " << (r.lb_proven ? "true" : "false");
    }
    os << "\n    }" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

int run(int argc, char** argv) {
  const Args args(argc, argv);
  if (args.has("help")) {
    std::cout
        << "usage: sweep_cli [--testbeds=LU,...] [--sizes=100,...]\n"
           "                 [--schedulers=heft-oneport,...]\n"
           "                 [--topologies=full,ring,star,line,random,\n"
           "                               mesh<R>x<C>,torus<R>x<C>,"
           "fattree<L>x<A>]\n"
           "                 [--events=none,slowdown,dropout,mixed,"
           "arrival]\n"
           "                 [--rebalance=off,on]\n"
           "                 [--audit=none,gap] [--audit-budget=200000]\n"
           "                 [--audit-max-tasks=64]\n"
           "                 [--comm-ratio=10] [--chunk=38] [--workers=0]\n"
           "                 [--topology-seed=1] [--no-validate]\n"
           "                 [--csv=out.csv] [--json=out.json] [--quiet]\n"
           "\n"
           "--testbeds takes the paper kernels (LU, LAPLACE, STENCIL,\n"
           "FORK-JOIN, DOOLITTLE, LDMt), the generated workload families\n"
           "mltrain-shaped MLTRAIN (data-parallel training step: layered\n"
           "fwd/bwd chains with per-layer allreduce fan-in/fan-out) and\n"
           "microsvc-shaped MICROSVC (microservice request fanout:\n"
           "shallow wide tree with heavy-tailed service times), and\n"
           "trace:<path> entries importing a DOT/JSON DAG file verbatim\n"
           "(see docs/WORKLOADS.md; trace points ignore --sizes).\n"
           "\n"
           "--audit=gap runs the anytime branch-and-bound lower bound\n"
           "(src/exact/branch_bound) on every static grid point with at\n"
           "most --audit-max-tasks tasks and reports lb, optimality_gap\n"
           "(makespan/lb - 1) and lb_proven per point; --audit-budget\n"
           "caps the deterministic node budget.  gap == 0 with\n"
           "lb_proven means the heuristic is provably optimal there.\n"
           "\n"
           "--events replays each grid point through the online\n"
           "rescheduler (src/dynamic) under the named platform-fault\n"
           "trace: processor slowdowns, drop-outs, and late task\n"
           "arrivals derived from the static schedule's makespan\n"
           "('none' keeps the point static).\n"
           "\n"
           "--rebalance makes the per-epoch load_balance rebalancing\n"
           "pass a grid axis for those dynamic points ('off', 'on', or\n"
           "both); the worst per-epoch suffix imbalance before/after\n"
           "the pass is reported as imb_before/imb_after.\n"
           "\n"
           "Structured topology names take ':' suffixes for per-link\n"
           "heterogeneity and the routing policy axis (defaults: xy on\n"
           "mesh/torus, updown on fattree), e.g. mesh4x4:het0.5:swp:\n"
           "  :het<A>    seeded link jitter, cost *= U[1-A, 1+A), 0<A<1\n"
           "  :hot<P>    seeded hotspot links (prob. P, cost x8), 0<P<=1\n"
           "  :aniso<F>  column links cost F x row links (mesh/torus)\n"
           "  :xy|:alt   routing policy: dimension-ordered XY /\n"
           "             alternating XY-YX load spreading (mesh/torus)\n"
           "  :updown    up-down through the LCA (fattree)\n"
           "  :swp       cost-aware shortest-weighted-path (any)\n";
    return 0;
  }

  const std::vector<std::string> testbeds =
      split_list(args.get("testbeds", "LU,FORK-JOIN"));
  const std::vector<int> sizes =
      split_ints("sizes", args.get("sizes", "100,200"));
  const std::vector<std::string> schedulers =
      split_list(args.get("schedulers", "heft-oneport,ilha-oneport"));
  const std::vector<std::string> topologies =
      split_list(args.get("topologies", "full"));
  const std::vector<std::string> events =
      split_list(args.get("events", "none"));
  const std::vector<std::string> rebalance_names =
      split_list(args.get("rebalance", "off"));
  std::vector<bool> rebalance;
  for (const std::string& mode : rebalance_names) {
    ensure(mode == "on" || mode == "off",
           "unknown --rebalance mode '" + mode + "' (expected on/off)");
    rebalance.push_back(mode == "on");
  }
  const std::string audit = args.get("audit", "none");
  ensure(audit == "none" || audit == "gap",
         "unknown --audit mode '" + audit + "' (expected none/gap)");
  const int audit_budget = args.get_int("audit-budget", 200'000);
  ensure(audit_budget > 0, "--audit-budget must be positive");
  const int audit_max_tasks = args.get_int("audit-max-tasks", 64);
  ensure(audit_max_tasks > 0, "--audit-max-tasks must be positive");
  const double comm_ratio = args.get_double("comm-ratio", 10.0);
  const int chunk = args.get_int("chunk", 38);
  const int workers = args.get_int("workers", 0);
  ensure(workers >= 0,
         "--workers must not be negative (0 = every hardware thread)");
  const std::uint64_t topology_seed = args.get_u64("topology-seed", 1);
  ensure(!testbeds.empty() && !sizes.empty() && !schedulers.empty() &&
             !topologies.empty() && !events.empty() && !rebalance.empty(),
         "every grid axis needs at least one entry");
  // Same fail-fast rule for event-trace names as for topologies.
  for (const std::string& trace : events) {
    const std::vector<std::string>& known = dyn::known_event_trace_names();
    ensure(std::find(known.begin(), known.end(), trace) != known.end(),
           "unknown event trace '" + trace +
               "' (try none, slowdown, dropout, mixed, arrival)");
  }
  // Reject unknown topology names before any scheduling happens: a typo
  // must be a hard error listing the registry, not a late point failure
  // (or, worse, a silently skipped axis).  "full" is the no-routing
  // baseline, not a routed topology, so it is checked separately.
  for (const std::string& topology : topologies) {
    if (topology != "full") validate_topology_name(topology);
  }

  std::vector<analysis::SweepPoint> grid = analysis::make_sweep_grid(
      testbeds, sizes, schedulers, comm_ratio, chunk, topologies, events,
      rebalance);
  for (analysis::SweepPoint& point : grid) point.topology_seed = topology_seed;

  const Platform platform = make_paper_platform();
  const std::vector<analysis::SweepResult> results = analysis::run_sweep(
      grid, platform,
      {.workers = workers,
       .validate = !args.has("no-validate"),
       .audit_gap = audit == "gap",
       .audit_node_budget = static_cast<std::uint64_t>(audit_budget),
       .audit_max_tasks = audit_max_tasks});
  const csv::Table table = analysis::sweep_table(results);

  if (!args.has("quiet")) {
    std::cout << "sweep: " << grid.size() << " points, p="
              << platform.num_processors() << ", c=" << comm_ratio
              << ", B=" << chunk << "\n";
    table.write_pretty(std::cout);
  }
  if (args.has("csv")) {
    std::ofstream os(args.get("csv", ""));
    ensure(os.good(), "cannot open --csv path for writing");
    table.write_csv(os);
    if (!args.has("quiet")) {
      std::cout << "CSV artifact: " << args.get("csv", "") << "\n";
    }
  }
  if (args.has("json")) {
    std::ofstream os(args.get("json", ""));
    ensure(os.good(), "cannot open --json path for writing");
    write_json(os, results, workers);
    if (!args.has("quiet")) {
      std::cout << "JSON artifact: " << args.get("json", "") << "\n";
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "sweep_cli: " << e.what() << "\n";
    return 1;
  }
}
