// Scale benchmarks for the scheduling hot path (the ISSUE-2 tentpole):
//
//   * HEFT and ILHA on 1k/5k/10k-task random layered DAGs under both
//     communication models, plus a 100k-task one-port tier tracking the
//     hot path at the scale the CSR/arena work targets;
//   * the same schedulers over sparse routed topologies (ring / star /
//     random connected, plus the structured 2D mesh / torus / fat tree
//     of ISSUE-4), so the store-and-forward evaluation path and the
//     routed lower-bound pruning in evaluate_best are measured too, and
//     MICROSVC's wide fan-in on a 64-processor mesh, where the routed
//     one-port bounds prune the most;
//   * the figure-grid sweep driver run serially vs with the thread pool
//     -- including a routed grid -- so the parallel experiment runner is
//     tracked end to end;
//   * the online rescheduler (src/dynamic) replaying named fault traces
//     over the scale graphs, so the prefix-freeze + suffix-rebuild loop
//     has its own trajectory;
//   * the timeline under an adversarial middle-insert workload, with its
//     total element moves pinned by OP_ASSERT to 8 * n * sqrt(n) -- a
//     regression to quadratic middle-inserts aborts the bench instead of
//     just slowing it;
//   * the post-schedule layers on their own (io/): validate_one_port,
//     write_schedule and read_schedule over the 100k-task HEFT schedule,
//     and the DOT / JSON graph exporters at 10k tasks, each with a
//     `bytes` counter.
//
// Every bench forwards the per-thread scalability profiler: run with
// ONEPORT_PROFILE=1 and the hot-path counter aggregate appears as
// "prof_<counter>" entries in the benchmark JSON; run without it and an
// OP_ASSERT proves no counter slab was ever allocated (the profiler's
// zero-overhead-when-disabled contract).  See docs/PROFILING.md.
//
// Schedule makespans are exported as counters, so a change in scheduling
// behavior is visible from bench output too (the frozen-oracle table in
// the property sweep pins it exactly).
//
// The timed benches keep the "/gap-indexed" suffix the trajectory
// baseline has always used for the production timeline.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstddef>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/metrics.hpp"
#include "core/heft.hpp"
#include "exact/branch_bound.hpp"
#include "graph/dot_export.hpp"
#include "graph/dot_import.hpp"
#include "service/scheduler_service.hpp"
#include "core/ilha.hpp"
#include "core/registry.hpp"
#include "dynamic/events.hpp"
#include "dynamic/reschedule.hpp"
#include "platform/platform.hpp"
#include "platform/routing.hpp"
#include "sched/serialize.hpp"
#include "sched/timeline.hpp"
#include "sched/validate.hpp"
#include "testbeds/testbeds.hpp"
#include "util/error.hpp"
#include "util/profiler.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace oneport;

/// Random layered DAG with roughly `n` tasks (max_width 15 averages 8
/// tasks per layer); deterministic in `n`.
TaskGraph make_scale_graph(int n) {
  testbeds::RandomDagOptions opt;
  opt.layers = n / 8;
  opt.max_width = 15;
  opt.max_in_degree = 3;
  opt.back_reach = 2;
  opt.comm_ratio = 5.0;
  opt.seed = static_cast<std::uint64_t>(20260729 + n);
  return testbeds::make_random_layered(opt);
}

const TaskGraph& scale_graph(int n) {
  static std::map<int, TaskGraph>* cache = new std::map<int, TaskGraph>();
  auto it = cache->find(n);
  if (it == cache->end()) it = cache->emplace(n, make_scale_graph(n)).first;
  return it->second;
}

const Platform& paper_platform() {
  static const Platform* platform = new Platform(make_paper_platform());
  return *platform;
}

/// The scale/n=100000 one-port HEFT schedule, built on first use -- never
/// inside a timing loop -- and checked valid.
const Schedule& scale_heft_schedule_100k() {
  static const Schedule* schedule = [] {
    const TaskGraph& graph = scale_graph(100000);
    const auto* s = new Schedule(
        heft(graph, paper_platform(), {.model = EftEngine::Model::kOnePort}));
    const ValidationResult verdict =
        validate_one_port(*s, graph, paper_platform());
    OP_ASSERT(verdict.ok(), "scale/n=100000 heft-oneport schedule invalid: "
                                << verdict.message().substr(0, 200));
    return s;
  }();
  return *schedule;
}

/// Profiler bridge for every bench in this binary.  With ONEPORT_PROFILE
/// set, the hot-path counter aggregate (summed over per-thread slabs)
/// lands in the benchmark JSON as "prof_<counter>" entries -- call
/// prof::reset() right before the timing loop so the numbers cover this
/// benchmark's iterations only.  With the profiler disabled this *pins*
/// the zero-overhead contract instead: a disabled run must never have
/// allocated a counter slab (bump() is a relaxed load + untaken branch),
/// so slab_count() == 0 is a property the bench can prove, unlike a
/// wall-clock delta.  OP_ASSERT aborts the whole bench run on violation.
void attach_profile_counters(benchmark::State& state) {
  if (prof::enabled()) {
    const prof::Counts totals = prof::aggregate();
    for (std::size_t i = 0; i < prof::kNumCounters; ++i) {
      const auto c = static_cast<prof::Counter>(i);
      state.counters[std::string("prof_") + prof::counter_name(c)] =
          benchmark::Counter(static_cast<double>(totals[i]));
    }
    state.counters["prof_threads"] =
        static_cast<double>(prof::slab_count());
  } else {
    OP_ASSERT(prof::slab_count() == 0,
              "profiler is disabled but " << prof::slab_count()
                  << " counter slab(s) exist -- the disabled path "
                     "allocated, breaking the zero-overhead contract");
  }
}

void register_scheduler_benchmarks() {
  struct SchedulerCase {
    std::string name;
    EftEngine::Model model;
    bool ilha;
  };
  const std::vector<SchedulerCase> all_cases = {
      {"heft-oneport", EftEngine::Model::kOnePort, false},
      {"ilha-oneport", EftEngine::Model::kOnePort, true},
      {"heft-macro", EftEngine::Model::kMacroDataflow, false},
      {"ilha-macro", EftEngine::Model::kMacroDataflow, true},
  };
  // The 100k tier tracks the end-to-end hot path at the scale the CSR /
  // arena work targets; only the one-port cases run there.
  const std::vector<SchedulerCase> oneport_cases = {all_cases[0],
                                                    all_cases[1]};
  for (const int n : {1000, 5000, 10000, 100000}) {
    const bool big = n >= 100000;
    const std::vector<SchedulerCase>& cases = big ? oneport_cases : all_cases;
    for (const SchedulerCase& c : cases) {
      const std::string name =
          "scale/n=" + std::to_string(n) + "/" + c.name + "/gap-indexed";
      benchmark::RegisterBenchmark(
          name.c_str(),
          [n, c](benchmark::State& state) {
            const TaskGraph& graph = scale_graph(n);
            const Platform& platform = paper_platform();
            double makespan = 0.0;
            prof::reset();
            for (auto _ : state) {
              const Schedule s =
                  c.ilha ? ilha(graph, platform,
                                {.model = c.model, .chunk_size = 38})
                         : heft(graph, platform, {.model = c.model});
              makespan = s.makespan();
              benchmark::DoNotOptimize(makespan);
            }
            state.counters["makespan"] = makespan;
            state.counters["tasks"] = static_cast<double>(graph.num_tasks());
            state.counters["tasks_per_s"] = benchmark::Counter(
                static_cast<double>(graph.num_tasks()),
                benchmark::Counter::kIsIterationInvariantRate);
            attach_profile_counters(state);
          })
          ->Unit(benchmark::kMillisecond);
    }
  }
}

void register_routed_benchmarks() {
  // The paper platform's processors over sparse interconnects.  Transfers
  // between non-adjacent processors become store-and-forward chains, so
  // these timings cover the routed evaluation path end to end, routed
  // finish lower-bound pruning included.
  //
  // The structured networks (mesh/torus over the 10 paper processors as
  // 2x5 grids, a 2-level arity-3 fat tree recycling their speeds over 13
  // nodes) ride the same registration; their display name drops the
  // dimensions so trajectories stay comparable if the shapes grow.  The
  // ISSUE-5 axes ride along the same way: "het" is the mesh with seeded
  // +/-50% link jitter plus hotspots routed cost-aware (swp walks the
  // heterogeneous Floyd-Warshall table), "policy" the uniform torus under
  // the alternating-XY load-spreading policy -- so both the heterogeneous
  // distance table and the non-default next-hop construction stay on the
  // perf trajectory.
  struct TopologyCase {
    const char* display;   ///< bench name component, e.g. "mesh"
    const char* topology;  ///< make_topology_platform registry name
    std::uint64_t seed;
  };
  const std::vector<TopologyCase> topologies = {
      {"ring", "ring", 1},          {"star", "star", 1},
      {"random", "random", 20260729}, {"mesh", "mesh2x5", 1},
      {"torus", "torus2x5", 1},     {"fattree", "fattree2x3", 1},
      {"het", "mesh2x5:het0.5:hot0.2:swp", 20260729},
      {"policy", "torus2x5:alt", 1}};
  for (const int n : {1000, 5000}) {
    for (const TopologyCase& t : topologies) {
      for (const bool run_ilha : {false, true}) {
        const std::string name =
            std::string("routed/") + t.display + "/n=" + std::to_string(n) +
            "/" + (run_ilha ? "ilha-oneport" : "heft-oneport") +
            "/gap-indexed";
        benchmark::RegisterBenchmark(
            name.c_str(),
            [n, t, run_ilha](benchmark::State& state) {
              const TaskGraph& graph = scale_graph(n);
              // The process-wide cache shares one platform + table per
              // (topology, seed) across all registered benches.
              const std::shared_ptr<const RoutedPlatform> shared =
                  analysis::process_topology_cache().get(
                      t.topology, paper_platform().cycle_times(),
                      /*link=*/1.0, t.seed);
              const RoutedPlatform& routed = *shared;
              double makespan = 0.0;
              prof::reset();
              for (auto _ : state) {
                const Schedule s =
                    run_ilha
                        ? ilha(graph, routed.platform,
                               {.model = EftEngine::Model::kOnePort,
                                .chunk_size = 38,
                                .routing = &routed.routing})
                        : heft(graph, routed.platform,
                               {.model = EftEngine::Model::kOnePort,
                                .routing = &routed.routing});
                makespan = s.makespan();
                benchmark::DoNotOptimize(makespan);
              }
              state.counters["makespan"] = makespan;
              state.counters["tasks_per_s"] = benchmark::Counter(
                  static_cast<double>(graph.num_tasks()),
                  benchmark::Counter::kIsIterationInvariantRate);
              attach_profile_counters(state);
            })
            ->Unit(benchmark::kMillisecond);
      }
    }
  }
  // Wide fan-in on many processors, the case the routed one-port bounds
  // (send-port release, last-hop receive chain) exist for: MICROSVC
  // joins every leaf into one aggregator, here on the 64-processor
  // heterogeneous mesh routed cost-aware that perfbench's routed-trace
  // runs.  The prof_prune_* counters show how many candidates each task
  // evaluates in full.
  for (const bool run_ilha : {false, true}) {
    const std::string name =
        std::string("routed/fanin-mesh8x8/n=80/") +
        (run_ilha ? "ilha-oneport" : "heft-oneport") + "/gap-indexed";
    benchmark::RegisterBenchmark(
        name.c_str(),
        [run_ilha](benchmark::State& state) {
          static const TaskGraph graph = testbeds::make_microsvc(80);
          const std::shared_ptr<const RoutedPlatform> shared =
              analysis::process_topology_cache().get(
                  "mesh8x8:het0.5:swp", paper_platform().cycle_times(),
                  /*link=*/1.0, /*seed=*/1);
          const RoutedPlatform& routed = *shared;
          double makespan = 0.0;
          prof::reset();
          for (auto _ : state) {
            const Schedule s =
                run_ilha ? ilha(graph, routed.platform,
                                {.model = EftEngine::Model::kOnePort,
                                 .chunk_size = 38,
                                 .routing = &routed.routing})
                         : heft(graph, routed.platform,
                                {.model = EftEngine::Model::kOnePort,
                                 .routing = &routed.routing});
            makespan = s.makespan();
            benchmark::DoNotOptimize(makespan);
          }
          state.counters["makespan"] = makespan;
          state.counters["tasks_per_s"] = benchmark::Counter(
              static_cast<double>(graph.num_tasks()),
              benchmark::Counter::kIsIterationInvariantRate);
          attach_profile_counters(state);
        })
        ->Unit(benchmark::kMillisecond);
  }
}

void register_reschedule_benchmarks() {
  // Online rescheduling (the dynamic-events tentpole): replay a named
  // platform-fault trace over the scale graphs through dyn::run_dynamic.
  // Each event freezes the committed prefix and rebuilds the suffix, so
  // the timing covers trace derivation's consumers end to end: prefix
  // seeding into pre-reserved timelines, the heuristic re-run against the
  // mutated platform, and epoch composition.  The rebuild path leans on
  // next_fit/reserve far harder than a static run (every epoch re-seeds
  // the whole frozen prefix) -- reservations far from the horizon, which
  // the timeline's gap blocks keep to one block shift each.
  for (const int n : {1000, 5000}) {
    for (const char* trace_name : {"mixed", "dropout"}) {
      const std::string name = "reschedule/n=" + std::to_string(n) +
                               "/heft-oneport/" + trace_name + "/gap-indexed";
      benchmark::RegisterBenchmark(
          name.c_str(),
          [n, trace_name](benchmark::State& state) {
            const TaskGraph& graph = scale_graph(n);
            const Platform& platform = paper_platform();
            const SchedulerConfig config;
            const SchedulerEntry entry = find_scheduler("heft-oneport", config);
            // The trace derives from the static schedule's makespan.
            const Schedule initial = entry.run(graph, platform);
            const dyn::EventTrace trace = dyn::make_named_trace(
                trace_name, graph, platform, initial,
                /*seed=*/20260729u + static_cast<std::uint64_t>(n));
            dyn::DynamicOptions options;
            options.model = CommModel::kOnePort;
            double makespan = 0.0;
            double epochs = 0.0;
            prof::reset();
            for (auto _ : state) {
              const dyn::DynamicResult result = dyn::run_dynamic(
                  graph, platform, "heft-oneport", config, trace, options);
              makespan = result.schedule.makespan();
              epochs = static_cast<double>(result.epochs.size());
              benchmark::DoNotOptimize(makespan);
            }
            state.counters["makespan"] = makespan;
            state.counters["epochs"] = epochs;
            state.counters["tasks_per_s"] = benchmark::Counter(
                static_cast<double>(graph.num_tasks()),
                benchmark::Counter::kIsIterationInvariantRate);
            attach_profile_counters(state);
          })
          ->Unit(benchmark::kMillisecond);
    }
  }
}

void register_timeline_benchmarks() {
  // Adversarial middle-insert workload: lay down n well-separated busy
  // intervals, then reserve a sliver inside every interior gap in a
  // deterministic scattered order, so every reservation after the first
  // n splits a gap far from the tail.  Each costs one shift inside one
  // gap block (plus a cut when the block is full), about n * 64 moved
  // elements in all.  The OP_ASSERT pins the total at 8 * n * sqrt(n):
  // if the timeline regresses to an O(n) insert into one flat gap list
  // per reservation the total goes quadratic (~n^2/2 already at n=4096)
  // and the bench aborts rather than just reading slower.
  for (const int n : {4096, 16384}) {
    const std::string name =
        "timeline/middle-insert/n=" + std::to_string(n) + "/gap-indexed";
    benchmark::RegisterBenchmark(
        name.c_str(),
        [n](benchmark::State& state) {
          const auto blocks = static_cast<std::size_t>(n);
          std::size_t moved = 0;
          for (auto _ : state) {
            TimelineIndex t;
            for (std::size_t i = 0; i < blocks; ++i) {
              const double base = 4.0 * static_cast<double>(i);
              t.reserve(base, base + 1.0);
            }
            // Scattered order via a coprime stride so consecutive inserts
            // land in distant gaps and blocks.
            for (std::size_t k = 0; k < blocks - 1; ++k) {
              const std::size_t i = (k * 2654435761u) % (blocks - 1);
              const double base = 4.0 * static_cast<double>(i);
              t.reserve(base + 2.0, base + 2.5);
            }
            moved = t.stats().moved_elements;
            benchmark::DoNotOptimize(moved);
          }
          const double bound = 8.0 * static_cast<double>(blocks) *
                               std::sqrt(static_cast<double>(blocks));
          OP_ASSERT(static_cast<double>(moved) <= bound,
                    "timeline middle-insert moves went quadratic: "
                    "moved " + std::to_string(moved) + " elements, bound " +
                        std::to_string(bound));
          state.counters["moved_elements"] = static_cast<double>(moved);
          state.counters["reservations"] = static_cast<double>(2 * blocks - 1);
          attach_profile_counters(state);
        })
        ->Unit(benchmark::kMillisecond);
  }
}

void register_sweep_benchmarks() {
  // A modest figure grid: 2 testbeds x 3 sizes x 2 schedulers = 12
  // points, the shape the figure benches sweep.
  const std::vector<analysis::SweepPoint> grid = analysis::make_sweep_grid(
      {"LU", "FORK-JOIN"}, {100, 200, 300}, {"heft-oneport", "ilha-oneport"});
  // The same grid over sparse topologies: routed points farm across the
  // same pool and share cached RoutingTables, so the driver timing shows
  // the chain-scheduling cost rather than repeated table builds.
  const std::vector<analysis::SweepPoint> routed_grid =
      analysis::make_sweep_grid({"LU", "FORK-JOIN"}, {100, 200, 300},
                                {"heft-oneport", "ilha-oneport"}, 10.0, 38,
                                {"ring", "star", "mesh2x5"});
  struct DriverCase {
    const char* name;
    int workers;
    const std::vector<analysis::SweepPoint>* grid;
  };
  const DriverCase drivers[] = {
      {"figure-grid/serial", 1, &grid},
      {"figure-grid/parallel", 0, &grid},  // 0 = hardware concurrency
      {"figure-grid/routed/parallel", 0, &routed_grid},
  };
  for (const DriverCase& d : drivers) {
    benchmark::RegisterBenchmark(
        d.name,
        // `grid` by value: the benchmark outlives this registration scope.
        [grid = *d.grid, d](benchmark::State& state) {
          double total_makespan = 0.0;
          prof::reset();
          for (auto _ : state) {
            const std::vector<analysis::SweepResult> results =
                analysis::run_sweep(grid, paper_platform(),
                                    {.workers = d.workers});
            total_makespan = 0.0;
            for (const analysis::SweepResult& r : results) {
              total_makespan += r.makespan;
            }
            benchmark::DoNotOptimize(total_makespan);
          }
          state.counters["points"] = static_cast<double>(grid.size());
          state.counters["workers"] = static_cast<double>(
              d.workers == 0 ? ThreadPool::default_workers()
                             : static_cast<unsigned>(d.workers));
          state.counters["total_makespan"] = total_makespan;
          attach_profile_counters(state);
        })
        ->Unit(benchmark::kMillisecond);
  }
}

void register_service_benchmarks() {
  // Scheduler-as-a-service (the ISSUE-9 tentpole) on the trajectory:
  // replay a deterministic mixed-size request stream through a
  // SchedulerService and track (a) sustained schedules/sec and (b) the
  // p99 enqueue-to-completion latency.  The service is constructed once
  // per bench (thread startup stays out of the timing loop); each
  // iteration submits the whole stream and drains, so the timed quantity
  // is exactly one replay -- queue admission, batched drains, per-shard
  // cache lookups, and the run_sweep_point execution itself.  Fixed
  // shards/batch/depth so the bench shape does not depend on the host's
  // core count.
  const auto make_stream = [] {
    const char* testbeds[] = {"FORK-JOIN", "LU", "STENCIL"};
    const int sizes[] = {10, 20, 40};
    const char* schedulers[] = {"heft-oneport", "ilha-oneport"};
    std::vector<analysis::SweepPoint> stream;
    for (std::size_t i = 0; i < 32; ++i) {
      analysis::SweepPoint point;
      point.testbed = testbeds[i % 3];
      point.size = sizes[(i / 3) % 3];
      point.scheduler = schedulers[(i / 9) % 2];
      stream.push_back(point);
    }
    return stream;
  };
  const auto make_options = [] {
    service::ServiceOptions options;
    options.shards = 2;
    options.queue_depth = 64;
    options.batch_size = 4;
    options.backpressure = service::Backpressure::kBlock;
    return options;
  };

  benchmark::RegisterBenchmark(
      "service/throughput",
      [make_stream, make_options](benchmark::State& state) {
        service::SchedulerService svc(paper_platform(), make_options());
        const std::vector<analysis::SweepPoint> stream = make_stream();
        prof::reset();
        for (auto _ : state) {
          for (const analysis::SweepPoint& point : stream) {
            const service::Ticket ticket = svc.submit(point);
            OP_ASSERT(ticket.accepted,
                      "block-mode submit rejected a service bench request");
          }
          svc.drain();
        }
        // Rates divide by wall time (UseRealTime below): the submitting
        // thread's CPU time omits the shard workers' scheduling.
        state.counters["schedules_per_s"] = benchmark::Counter(
            static_cast<double>(stream.size()),
            benchmark::Counter::kIsIterationInvariantRate);
        state.counters["requests"] = static_cast<double>(stream.size());
        attach_profile_counters(state);
      })
      ->UseRealTime()
      ->Unit(benchmark::kMillisecond);

  benchmark::RegisterBenchmark(
      "service/latency-p99",
      [make_stream, make_options](benchmark::State& state) {
        service::SchedulerService svc(paper_platform(), make_options());
        const std::vector<analysis::SweepPoint> stream = make_stream();
        prof::reset();
        for (auto _ : state) {
          for (const analysis::SweepPoint& point : stream) {
            const service::Ticket ticket = svc.submit(point);
            OP_ASSERT(ticket.accepted,
                      "block-mode submit rejected a service bench request");
          }
          svc.drain();
        }
        // Percentiles over every completed request across the timing
        // loop (more iterations = a better-populated tail).
        const std::vector<std::uint64_t> latencies = svc.latencies_ns();
        state.counters["latency_p50_ms"] =
            service::latency_percentile_ms(latencies, 0.50);
        state.counters["latency_p99_ms"] =
            service::latency_percentile_ms(latencies, 0.99);
        attach_profile_counters(state);
      })
      ->UseRealTime()
      ->Unit(benchmark::kMillisecond);
}

/// Anytime branch-and-bound trajectory (ISSUE-10): one case the search
/// closes (an 8-task DAG proven to its MD optimum) and one it truncates
/// (MLTRAIN under a fixed node budget).  Besides the wall clock, the
/// counters export the bound itself and the resulting optimality gap
/// against HEFT, so the gate catches a *quality* regression (a weaker
/// bound after a pruning change) as loudly as a slowdown.
void register_exact_benchmarks() {
  struct ExactCase {
    std::string name;
    std::shared_ptr<const TaskGraph> graph;
    std::uint64_t node_budget;
  };
  std::vector<ExactCase> cases;
  {
    testbeds::RandomDagOptions opt;
    opt.layers = 4;
    opt.max_width = 2;
    opt.comm_ratio = 2.0;
    opt.seed = 7;
    cases.push_back({"closed/random8",
                     std::make_shared<const TaskGraph>(
                         testbeds::make_random_layered(opt)),
                     500'000});
  }
  cases.push_back({"anytime/mltrain2",
                   std::make_shared<const TaskGraph>(testbeds::make_mltrain(2)),
                   20'000});
  for (const ExactCase& c : cases) {
    const std::string name = "exact/lb-quality/" + c.name;
    benchmark::RegisterBenchmark(
        name.c_str(),
        [c](benchmark::State& state) {
          const Platform& platform = paper_platform();
          const double heft_makespan =
              heft(*c.graph, platform, {.model = EftEngine::Model::kOnePort})
                  .makespan();
          exact::BranchBoundOptions options;
          options.node_budget = c.node_budget;
          exact::BranchBoundResult result;
          prof::reset();
          for (auto _ : state) {
            result = exact::branch_bound_lower_bound(*c.graph, platform,
                                                     options);
            // NOT DoNotOptimize(result.lower_bound): the "+m,r" asm
            // constraint marks the member asm-written, and gcc at -O3
            // stores back a clobbered register.  The call is opaque
            // (separate TU), so a compiler barrier is enough.
            benchmark::ClobberMemory();
          }
          OP_ASSERT(result.lower_bound <= heft_makespan + 1e-7,
                    "bound " << result.lower_bound << " exceeds HEFT "
                             << heft_makespan << " -- unsound");
          state.counters["lower_bound"] = result.lower_bound;
          state.counters["optimality_gap"] =
              analysis::optimality_gap(heft_makespan, result.lower_bound);
          state.counters["proven"] = result.proven_optimal ? 1.0 : 0.0;
          state.counters["nodes"] =
              static_cast<double>(result.nodes_expanded);
          attach_profile_counters(state);
        })
        ->Unit(benchmark::kMillisecond);
  }
}

/// Importer throughput (ISSUE-10): parse the pre-rendered DOT/JSON dump
/// of a scale graph back into a TaskGraph, covering the full validate +
/// finalize path the trace:<path> testbeds take per sweep point.
void register_import_benchmarks() {
  for (const int n : {1000, 10000}) {
    for (const bool json : {false, true}) {
      std::string name = "import/parse/";
      name += json ? "json" : "dot";
      name += "/n=" + std::to_string(n);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [n, json](benchmark::State& state) {
            const TaskGraph& graph = scale_graph(n);
            std::ostringstream os;
            if (json) {
              write_json_graph(os, graph, {.graph_name = "bench"});
            } else {
              write_dot(os, graph, {.graph_name = "bench",
                                    .max_tasks = graph.num_tasks()});
            }
            const std::string text = os.str();
            std::size_t tasks = 0;
            prof::reset();
            for (auto _ : state) {
              const ImportedGraph imported = import_task_graph(text);
              tasks = imported.graph.num_tasks();
              benchmark::DoNotOptimize(tasks);
            }
            OP_ASSERT(tasks == graph.num_tasks(),
                      "import dropped tasks: " << tasks << " != "
                                               << graph.num_tasks());
            state.counters["tasks"] = static_cast<double>(tasks);
            state.counters["bytes"] = static_cast<double>(text.size());
            state.counters["tasks_per_s"] = benchmark::Counter(
                static_cast<double>(tasks),
                benchmark::Counter::kIsIterationInvariantRate);
            attach_profile_counters(state);
          })
          ->Unit(benchmark::kMillisecond);
    }
  }
}

/// The layers every schedule passes through after scheduling: the
/// independent one-port validator, the schedule writer and reader over
/// the 100k HEFT schedule, and the DOT / JSON graph exporters (routed
/// traces are exported with them) at 10k tasks.
void register_io_benchmarks() {
  benchmark::RegisterBenchmark(
      "io/validate_one_port/n=100000",
      [](benchmark::State& state) {
        const TaskGraph& graph = scale_graph(100000);
        const Schedule& schedule = scale_heft_schedule_100k();
        bool ok = false;
        prof::reset();
        for (auto _ : state) {
          ok = validate_one_port(schedule, graph, paper_platform()).ok();
          benchmark::DoNotOptimize(ok);
        }
        OP_ASSERT(ok, "validate_one_port rejected the scale schedule");
        state.counters["messages"] =
            static_cast<double>(schedule.num_comms());
        attach_profile_counters(state);
      })
      ->Unit(benchmark::kMillisecond);

  // One text writer into a fresh ostringstream per iteration, the way
  // callers use them; `bytes` is the output size.
  const auto register_writer = [](const std::string& name, auto setup,
                                  auto write) {
    benchmark::RegisterBenchmark(
        name.c_str(),
        [setup, write](benchmark::State& state) {
          const auto& input = setup();
          std::int64_t bytes = 0;
          prof::reset();
          for (auto _ : state) {
            std::ostringstream os;
            write(os, input);
            bytes = static_cast<std::int64_t>(os.tellp());
            benchmark::DoNotOptimize(bytes);
            benchmark::ClobberMemory();
          }
          state.counters["bytes"] = static_cast<double>(bytes);
          state.SetBytesProcessed(state.iterations() * bytes);
          attach_profile_counters(state);
        })
        ->Unit(benchmark::kMillisecond);
  };
  register_writer(
      "io/write_schedule/n=100000",
      []() -> const Schedule& { return scale_heft_schedule_100k(); },
      [](std::ostream& os, const Schedule& s) { write_schedule(os, s); });
  // The reader over the same bytes; `bytes` is the input size, so the
  // CI guard can hold the pair to a reader/writer time ratio.
  benchmark::RegisterBenchmark(
      "io/read_schedule/n=100000",
      [](benchmark::State& state) {
        std::ostringstream os;
        write_schedule(os, scale_heft_schedule_100k());
        const std::string text = std::move(os).str();
        std::size_t tasks = 0;
        prof::reset();
        for (auto _ : state) {
          std::istringstream is(text);
          const Schedule schedule = read_schedule(is);
          tasks = schedule.num_tasks();
          benchmark::DoNotOptimize(tasks);
          benchmark::ClobberMemory();
        }
        OP_ASSERT(tasks == scale_heft_schedule_100k().num_tasks(),
                  "read_schedule dropped tasks: " << tasks);
        const auto bytes = static_cast<std::int64_t>(text.size());
        state.counters["bytes"] = static_cast<double>(bytes);
        state.SetBytesProcessed(state.iterations() * bytes);
        attach_profile_counters(state);
      })
      ->Unit(benchmark::kMillisecond);
  register_writer(
      "io/export/dot/n=10000",
      []() -> const TaskGraph& { return scale_graph(10000); },
      [](std::ostream& os, const TaskGraph& g) {
        write_dot(os, g, {.graph_name = "bench", .max_tasks = g.num_tasks()});
      });
  register_writer(
      "io/export/json/n=10000",
      []() -> const TaskGraph& { return scale_graph(10000); },
      [](std::ostream& os, const TaskGraph& g) {
        write_json_graph(os, g, {.graph_name = "bench"});
      });
}

}  // namespace

int main(int argc, char** argv) {
  register_scheduler_benchmarks();
  register_routed_benchmarks();
  register_reschedule_benchmarks();
  register_timeline_benchmarks();
  register_sweep_benchmarks();
  register_service_benchmarks();
  register_exact_benchmarks();
  register_import_benchmarks();
  register_io_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
