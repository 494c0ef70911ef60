// large-dag: one 100,944-task random layered DAG through heft-oneport on
// the paper platform, on one thread: schedule -> validate_one_port ->
// write_schedule, repeated; the median instance is the result.  Gap
// search in the timelines, EFT pruning, validation and serialization of a
// huge schedule carry almost all of the time.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/priorities.hpp"
#include "testbeds/testbeds.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace oneport;

constexpr int kScaleTasks = 100000;
/// bench_scale's pinned makespan for scale/n=100000/heft-oneport.
constexpr double kPinnedMakespan = 288076.998;
constexpr std::size_t kMinInstances = 3;

/// bench_scale's make_scale_graph(100000) options; the seed shifts the
/// generator seed, so kDefaultSeed reproduces that graph exactly.
TaskGraph make_large_dag(std::uint64_t seed) {
  testbeds::RandomDagOptions opt;
  opt.layers = kScaleTasks / 8;
  opt.max_width = 15;
  opt.max_in_degree = 3;
  opt.back_reach = 2;
  opt.comm_ratio = 5.0;
  opt.seed = 20260729 + kScaleTasks + (seed - kDefaultSeed);
  return testbeds::make_random_layered(opt);
}

}  // namespace

RunResult run_large_dag(const RunOptions& options, Tracer& tracer) {
  RunResult result;
  Tracer untraced(false);
  const Platform platform = make_paper_platform();

  TaskGraph graph;
  const double setup_s = median_setup_s([&](std::size_t) {
    const ScopedSpan span(tracer, "testbeds.generate", 0);
    graph = make_large_dag(options.seed);
  });
  const SchedulerEntry heft = find_scheduler("heft-oneport");
  const double tasks = static_cast<double>(graph.num_tasks());

  // Warm-up instance, outside the timed region: it also carries the
  // serialized-schedule round trip and the pinned makespan.
  const Solved reference =
      solve(heft, graph, platform, untraced, 0, 0, /*serialize=*/true);
  ++result.attempted;
  if (!reference.error.empty()) {
    result.fail("invalid schedule: " + reference.error.substr(0, 200));
  }
  if (!schedule_round_trips(reference.schedule, reference.text)) {
    result.fail("schedule does not round-trip through read_schedule");
  }
  const double makespan = reference.schedule.makespan();
  if (options.seed == kDefaultSeed &&
      std::abs(makespan - kPinnedMakespan) > 5e-4) {
    char buffer[96];
    std::snprintf(buffer, sizeof buffer, "makespan %.3f != pinned %.3f",
                  makespan, kPinnedMakespan);
    result.fail(buffer);
  }
  const double megabytes = 1e-6 * static_cast<double>(reference.text.size());

  // Untraced instances; in the traced run each is followed by the same
  // instance traced with the profiler on, so the pair gives the overhead.
  std::vector<double> wall_s;
  std::vector<double> traced_s;
  Counters counters;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds));
  for (std::uint64_t request = 1;
       wall_s.size() < kMinInstances || Clock::now() < deadline; ++request) {
    const auto check = [&](const Solved& s) {
      ++result.attempted;
      if (!s.error.empty()) {
        result.fail("invalid schedule: " + s.error.substr(0, 200));
      } else if (s.schedule.makespan() != makespan) {
        result.fail("makespan differs between identical instances");
      }
    };
    Clock::time_point t0 = Clock::now();
    check(solve(heft, graph, platform, untraced, request, 0, true));
    wall_s.push_back(seconds_between(t0, Clock::now()));
    if (!tracer.enabled()) continue;

    prof::reset();
    {
      const prof::ScopedProfiler on(true, /*reset_on_exit=*/false);
      t0 = Clock::now();
      const ScopedSpan root(tracer, "request", request);
      check(solve(heft, graph, platform, tracer, request, root.id(), true));
    }
    traced_s.push_back(seconds_between(t0, Clock::now()));
    const Counters now = Counters::read();
    if (traced_s.size() > 1 && now != counters) {
      result.fail("profiler counts differ between identical instances");
    }
    counters = now;
    const ScopedSpan span(tracer, "core.priorities", request);
    (void)averaged_bottom_levels(graph, platform);
  }

  if (!tracer.enabled()) {
    // Means over the run (see README.md); one client sending back to
    // back, so a request's latency is its wall time and the highest rate
    // it sustains is its completion rate.
    const double instances = static_cast<double>(wall_s.size());
    result.metrics["setup_s"] = setup_s;
    result.metrics["solve_s"] = sum(wall_s) / instances;
    result.metrics["tasks_per_s"] = tasks * instances / sum(wall_s);
    result.metrics["latency_p50_ms"] = 1e3 * median(wall_s);
    result.metrics["max_rate_rps"] = instances / sum(wall_s);
  } else {
    const std::vector<double> schedule_ms = tracer.self_ms("core.schedule");
    const std::vector<double> serialize_ms = tracer.self_ms("sched.serialize");
    result.metrics["testbeds.generate_ms"] =
        median(tracer.self_ms("testbeds.generate"));
    result.metrics["core.priorities_ms"] =
        median(tracer.self_ms("core.priorities"));
    result.metrics["core.schedule_ms"] = median(schedule_ms);
    result.metrics["core.schedule_us_per_task"] =
        1e3 * median(schedule_ms) / tasks;
    result.metrics["sched.validate_ms"] =
        median(tracer.self_ms("sched.validate"));
    result.metrics["sched.serialize_ms"] = median(serialize_ms);
    result.metrics["sched.serialize_mb_per_s"] =
        megabytes / (1e-3 * median(serialize_ms));
    result.metrics["trace.overhead_frac"] = sum(traced_s) / sum(wall_s) - 1.0;
    counters.report(result, tasks);
  }
  char note[160];
  std::snprintf(note, sizeof note,
                "large-dag: %zu tasks, makespan %.3f, %zu instances, "
                "schedule text %.1f MB",
                graph.num_tasks(), makespan, wall_s.size(), megabytes);
  result.notes.emplace_back(note);
  return result;
}

}  // namespace perfbench
