// routed-trace: a fixed batch of imported traces scheduled on routed
// networks, on one thread.  Each request runs import_task_graph -> warm
// process_topology_cache().get -> {ilha,heft}-oneport -> validate ->
// write_schedule.  The only workload that imports or routes; wide fan-in
// on 16-64 processors keeps EFT pruning weak.
#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/topology_cache.hpp"
#include "core/priorities.hpp"
#include "graph/dot_export.hpp"
#include "graph/dot_import.hpp"
#include "testbeds/registry.hpp"
#include "testbeds/testbeds.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace oneport;

struct TraceSpec {
  const char* family;
  int size;
};

// Sizes are fixed so every seed schedules the same shapes; the seed
// jitters weights and data volumes.  Sized so that no (trace, network)
// pair takes more than a quarter of the batch.
const std::vector<TraceSpec> kTraces = {
    {"MLTRAIN", 6}, {"MLTRAIN", 10}, {"MICROSVC", 40},
    {"MICROSVC", 80}, {"LU", 12}, {"LU", 16},
};
const std::vector<std::string> kNetworks = {
    "mesh4x4:het0.5", "mesh8x8:het0.5:swp", "fattree3x3", "torus4x4:alt",
    "ring"};
const std::vector<std::string> kSchedulers = {"ilha-oneport", "heft-oneport"};
constexpr int kMinPasses = 2;

/// A trace as recorded from a run: the family's shape with every weight
/// and data volume scaled by a seeded factor in [0.5, 1.5).
TaskGraph make_trace_graph(const TraceSpec& spec, SplitMix64& rng) {
  const TaskGraph base =
      testbeds::find_testbed(spec.family).make(spec.size,
                                               testbeds::kPaperCommRatio);
  TaskGraph graph;
  for (TaskId v = 0; v < base.num_tasks(); ++v) {
    graph.add_task(base.weight(v) * rng.uniform(0.5, 1.5), base.name(v));
  }
  for (TaskId v = 0; v < base.num_tasks(); ++v) {
    for (const EdgeRef& e : base.successors(v)) {
      graph.add_edge(v, e.task, e.data * rng.uniform(0.5, 1.5));
    }
  }
  graph.finalize();
  return graph;
}

/// Even traces are exported as DOT, odd ones as JSON.
std::string export_trace(const TaskGraph& graph, std::size_t index,
                         const std::string& name) {
  std::ostringstream os;
  if (index % 2 == 0) {
    DotOptions options;
    options.graph_name = name;
    write_dot(os, graph, options);
  } else {
    write_json_graph(os, graph, {.graph_name = name});
  }
  return os.str();
}

struct Request {
  std::size_t trace;
  std::size_t network;
  std::size_t scheduler;
};

}  // namespace

RunResult run_routed_trace(const RunOptions& options, Tracer& tracer) {
  RunResult result;
  Tracer untraced(false);
  const std::vector<double> cycle_times = make_paper_platform().cycle_times();

  // Set-up: generate and export the traces, and build every network cold.
  std::vector<std::string> texts;
  const double setup_s = median_setup_s([&](std::size_t) {
    SplitMix64 rng(options.seed);
    texts.clear();
    for (std::size_t i = 0; i < kTraces.size(); ++i) {
      TaskGraph graph;
      {
        const ScopedSpan span(tracer, "testbeds.generate", 0);
        graph = make_trace_graph(kTraces[i], rng);
      }
      texts.push_back(export_trace(graph, i, "trace" + std::to_string(i)));
    }
    analysis::TopologyCacheShard cold;
    for (const std::string& network : kNetworks) {
      const ScopedSpan span(tracer, "analysis.route_build", 0);
      (void)cold.get(network, cycle_times, 1.0, options.seed);
    }
  });

  // Trace round trip, outside the timed region: import -> export must
  // give back the exported bytes.
  double trace_megabytes = 0.0;
  for (std::size_t i = 0; i < texts.size(); ++i) {
    ++result.attempted;
    trace_megabytes += 1e-6 * static_cast<double>(texts[i].size());
    const ImportedGraph imported = import_task_graph(texts[i]);
    if (export_trace(imported.graph, i, imported.graph_name) != texts[i]) {
      result.fail("trace" + std::to_string(i) +
                  " does not re-export byte-identically");
    }
  }

  std::vector<Request> batch;
  for (std::size_t t = 0; t < kTraces.size(); ++t) {
    for (std::size_t n = 0; n < kNetworks.size(); ++n) {
      for (std::size_t s = 0; s < kSchedulers.size(); ++s) {
        batch.push_back({t, n, s});
      }
    }
  }

  std::vector<double> makespans(batch.size(), -1.0);
  std::vector<std::vector<double>> request_s(batch.size());
  double batch_tasks = 0.0;
  double serialized_megabytes = 0.0;
  std::uint64_t next_request = 1;

  // One pass over the batch; returns the summed wall time of its
  // requests.  The first pass is the warm-up: it fills the route cache,
  // records the makespans every later pass must reproduce, and
  // round-trips every schedule.
  const auto pass = [&](Tracer& t, bool warm_up) {
    double pass_wall_s = 0.0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const Request& r = batch[i];
      const std::uint64_t id = next_request++;
      ++result.attempted;
      ImportedGraph imported;
      std::shared_ptr<const RoutedPlatform> routed;
      const Clock::time_point t0 = Clock::now();
      try {
        const ScopedSpan root(t, "request", id);
        {
          const ScopedSpan span(t, "graph.import", id, root.id());
          imported = import_task_graph(texts[r.trace]);
        }
        {
          const ScopedSpan span(t, "analysis.route_lookup", id, root.id());
          routed = analysis::process_topology_cache().get(
              kNetworks[r.network], cycle_times, 1.0, options.seed);
        }
        const SchedulerEntry scheduler = find_scheduler(
            kSchedulers[r.scheduler], {.routing = &routed->routing});
        const Solved s = solve(scheduler, imported.graph, routed->platform,
                               t, id, root.id(), /*serialize=*/true);
        if (!s.error.empty()) {
          result.fail("invalid schedule: " + s.error.substr(0, 200));
        } else if (warm_up) {
          makespans[i] = s.schedule.makespan();
          batch_tasks += static_cast<double>(imported.graph.num_tasks());
          serialized_megabytes += 1e-6 * static_cast<double>(s.text.size());
          if (!schedule_round_trips(s.schedule, s.text)) {
            result.fail("schedule does not round-trip through read_schedule");
          }
        } else if (s.schedule.makespan() != makespans[i]) {
          result.fail("makespan differs between identical requests");
        }
      } catch (const std::exception& e) {
        result.fail(std::string("exception: ") + e.what());
      }
      const double wall_s = seconds_between(t0, Clock::now());
      pass_wall_s += wall_s;
      if (!warm_up && !t.enabled()) request_s[i].push_back(wall_s);
      if (t.enabled() && routed != nullptr) {
        const ScopedSpan span(t, "core.priorities", id);
        (void)averaged_bottom_levels(imported.graph, routed->platform);
      }
    }
    return pass_wall_s;
  };

  (void)pass(untraced, /*warm_up=*/true);
  std::vector<double> pass_s;
  std::vector<double> traced_pass_s;
  Counters counters;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds));
  while (pass_s.size() < kMinPasses || Clock::now() < deadline) {
    pass_s.push_back(pass(untraced, false));
    if (!tracer.enabled()) continue;
    prof::reset();
    {
      const prof::ScopedProfiler on(true, /*reset_on_exit=*/false);
      traced_pass_s.push_back(pass(tracer, false));
    }
    const Counters now = Counters::read();
    if (traced_pass_s.size() > 1 && now != counters) {
      result.fail("profiler counts differ between identical passes");
    }
    counters = now;
  }

  if (!tracer.enabled()) {
    std::vector<double> all_ms;
    for (const std::vector<double>& times : request_s) {
      for (const double s : times) all_ms.push_back(1e3 * s);
    }
    // Means over the run (see README.md); one client sending back to
    // back, so a request's latency is its wall time and the highest rate
    // it sustains is its completion rate.
    const double requests = static_cast<double>(all_ms.size());
    result.metrics["setup_s"] = setup_s;
    result.metrics["solve_s"] = sum(pass_s) / requests;
    result.metrics["tasks_per_s"] =
        batch_tasks * static_cast<double>(pass_s.size()) / sum(pass_s);
    result.metrics["latency_p50_ms"] = median(all_ms);
    result.metrics["max_rate_rps"] = requests / sum(pass_s);
  } else {
    const std::vector<double> import_ms = tracer.self_ms("graph.import");
    const std::vector<double> schedule_ms = tracer.self_ms("core.schedule");
    const std::vector<double> serialize_ms = tracer.self_ms("sched.serialize");
    const double passes = static_cast<double>(traced_pass_s.size());
    result.metrics["testbeds.generate_ms"] =
        median(tracer.self_ms("testbeds.generate"));
    result.metrics["graph.import_ms"] = median(import_ms);
    result.metrics["graph.import_mb_per_s"] =
        passes * static_cast<double>(kSchedulers.size() * kNetworks.size()) *
        trace_megabytes / (1e-3 * sum(import_ms));
    result.metrics["analysis.route_build_ms"] =
        median(tracer.self_ms("analysis.route_build"));
    result.metrics["analysis.route_lookup_us"] =
        1e3 * median(tracer.self_ms("analysis.route_lookup"));
    result.metrics["core.priorities_ms"] =
        median(tracer.self_ms("core.priorities"));
    result.metrics["core.schedule_ms"] = median(schedule_ms);
    result.metrics["core.schedule_us_per_task"] =
        1e3 * sum(schedule_ms) / (passes * batch_tasks);
    result.metrics["sched.validate_ms"] =
        median(tracer.self_ms("sched.validate"));
    result.metrics["sched.serialize_ms"] = median(serialize_ms);
    result.metrics["sched.serialize_mb_per_s"] =
        passes * serialized_megabytes / (1e-3 * sum(serialize_ms));
    result.metrics["trace.overhead_frac"] =
        sum(traced_pass_s) / sum(pass_s) - 1.0;
    counters.report(result, batch_tasks);
  }
  // The batch is sized so that no (trace, network) pair dominates it.
  std::map<std::pair<std::size_t, std::size_t>, double> pair_s;
  double batch_s = 0.0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const double s = median(request_s[i]);
    pair_s[{batch[i].trace, batch[i].network}] += s;
    batch_s += s;
  }
  double largest_pair_s = 0.0;
  for (const auto& [pair, s] : pair_s) {
    largest_pair_s = std::max(largest_pair_s, s);
  }
  char note[200];
  std::snprintf(note, sizeof note,
                "routed-trace: %zu requests per batch, %.0f tasks per batch, "
                "%zu timed passes, largest (trace, network) pair %.0f%% of "
                "the batch",
                batch.size(), batch_tasks, pass_s.size(),
                100.0 * largest_pair_s / batch_s);
  result.notes.emplace_back(note);
  return result;
}

}  // namespace perfbench
