#include "dynamic/events.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.hpp"

namespace oneport::dyn {

void validate_trace(const EventTrace& trace, const TaskGraph& graph,
                    const Platform& platform) {
  const int p = platform.num_processors();
  double previous = 0.0;
  std::vector<char> dropped(static_cast<std::size_t>(p), 0);
  std::vector<char> arrived(graph.num_tasks(), 0);
  int drops = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const PlatformEvent& e = trace[i];
    OP_REQUIRE(std::isfinite(e.time) && e.time > 0.0,
               "event " << i << " time " << e.time
                        << " must be finite and positive");
    OP_REQUIRE(e.time >= previous,
               "event " << i << " time " << e.time
                        << " breaks the non-decreasing order (previous "
                        << previous << ")");
    previous = e.time;
    switch (e.kind) {
      case EventKind::kSlowdown:
      case EventKind::kDropout: {
        OP_REQUIRE(e.proc >= 0 && e.proc < p,
                   "event " << i << " targets invalid processor " << e.proc);
        OP_REQUIRE(!dropped[static_cast<std::size_t>(e.proc)],
                   "event " << i << " targets processor " << e.proc
                            << " after it dropped out");
        if (e.kind == EventKind::kSlowdown) {
          OP_REQUIRE(std::isfinite(e.factor) && e.factor > 0.0,
                     "event " << i << " slowdown factor " << e.factor
                              << " must be finite and positive");
        } else {
          dropped[static_cast<std::size_t>(e.proc)] = 1;
          ++drops;
        }
        break;
      }
      case EventKind::kArrival: {
        OP_REQUIRE(!e.tasks.empty(),
                   "event " << i << " arrival with no tasks");
        for (const TaskId v : e.tasks) {
          OP_REQUIRE(v < graph.num_tasks(),
                     "event " << i << " arrival of unknown task " << v);
          OP_REQUIRE(!arrived[v], "task " << v << " arrives twice");
          arrived[v] = 1;
        }
        break;
      }
    }
  }
  OP_REQUIRE(drops < p, "trace drops every processor");
  // Successor closure: a task must not become known before a predecessor
  // (equivalently release(u) <= release(v) for every edge u->v).  Build
  // release times inline rather than calling release_times() so the error
  // points at the offending edge.
  std::vector<double> release(graph.num_tasks(), 0.0);
  for (const PlatformEvent& e : trace) {
    if (e.kind != EventKind::kArrival) continue;
    for (const TaskId v : e.tasks) release[v] = e.time;
  }
  for (TaskId u = 0; u < graph.num_tasks(); ++u) {
    for (const EdgeRef& out : graph.successors(u)) {
      OP_REQUIRE(release[u] <= release[out.task],
                 "task " << out.task << " (release " << release[out.task]
                         << ") becomes known before its predecessor " << u
                         << " (release " << release[u] << ")");
    }
  }
}

std::vector<double> release_times(const EventTrace& trace,
                                  const TaskGraph& graph) {
  std::vector<double> release(graph.num_tasks(), 0.0);
  for (const PlatformEvent& e : trace) {
    if (e.kind != EventKind::kArrival) continue;
    for (const TaskId v : e.tasks) {
      OP_REQUIRE(v < graph.num_tasks(), "arrival of unknown task " << v);
      release[v] = e.time;
    }
  }
  return release;
}

namespace {

/// Processors ranked by busy time (desc); ties broken by (id + seed) % p
/// so different seeds pick different victims among equals.
std::vector<ProcId> by_load(const Platform& platform,
                            const Schedule& initial, std::uint64_t seed) {
  const int p = platform.num_processors();
  std::vector<double> busy(static_cast<std::size_t>(p), 0.0);
  for (const TaskPlacement& t : initial.tasks()) {
    if (t.placed()) {
      busy[static_cast<std::size_t>(t.proc)] += t.finish - t.start;
    }
  }
  std::vector<ProcId> order(static_cast<std::size_t>(p));
  for (int q = 0; q < p; ++q) order[static_cast<std::size_t>(q)] = q;
  std::sort(order.begin(), order.end(), [&](ProcId a, ProcId b) {
    const double ba = busy[static_cast<std::size_t>(a)];
    const double bb = busy[static_cast<std::size_t>(b)];
    if (ba != bb) return ba > bb;
    const auto pa = (static_cast<std::uint64_t>(a) + seed) %
                    static_cast<std::uint64_t>(p);
    const auto pb = (static_cast<std::uint64_t>(b) + seed) %
                    static_cast<std::uint64_t>(p);
    if (pa != pb) return pa < pb;
    return a < b;
  });
  return order;
}

/// Explicit builder so aggregate pushes stay -Wmissing-field-initializers
/// clean.
PlatformEvent proc_event(EventKind kind, double time, ProcId proc,
                         double factor = 1.0) {
  PlatformEvent e;
  e.kind = kind;
  e.time = time;
  e.proc = proc;
  e.factor = factor;
  return e;
}

}  // namespace

EventTrace make_named_trace(const std::string& name, const TaskGraph& graph,
                            const Platform& platform,
                            const Schedule& initial, std::uint64_t seed) {
  const std::vector<std::string>& names = known_event_trace_names();
  OP_REQUIRE(std::find(names.begin(), names.end(), name) != names.end(),
             "unknown event trace '"
                 << name << "' (try none, slowdown, dropout, mixed, "
                 << "arrival)");
  EventTrace trace;
  const double makespan = initial.makespan();
  // A zero-length schedule has no "mid-run" to interrupt; every preset
  // degenerates to the empty trace.
  if (name == "none" || makespan <= 0.0) return trace;
  const std::vector<ProcId> ranked = by_load(platform, initial, seed);
  const bool single = platform.num_processors() == 1;

  if (name == "slowdown") {
    trace.push_back(
        proc_event(EventKind::kSlowdown, 0.25 * makespan, ranked[0], 4.0));
    if (!single) {
      trace.push_back(
        proc_event(EventKind::kSlowdown, 0.60 * makespan, ranked[1], 2.0));
    }
  } else if (name == "dropout") {
    // Never drop the last processor.
    if (single) return trace;
    trace.push_back(proc_event(EventKind::kDropout, 0.30 * makespan, ranked[0]));
  } else if (name == "mixed") {
    trace.push_back(
        proc_event(EventKind::kSlowdown, 0.20 * makespan, ranked[0], 3.0));
    if (!single) {
      trace.push_back(proc_event(EventKind::kDropout, 0.55 * makespan, ranked[1]));
    }
  } else {  // "arrival"
    const std::size_t n = graph.num_tasks();
    // A suffix of the topological order is successor-closed by
    // construction; keep at least one initially-known task.
    const std::size_t late = std::min(std::max<std::size_t>(n / 4, 1), n - 1);
    if (late > 0 && n > 1) {
      PlatformEvent e;
      e.kind = EventKind::kArrival;
      e.time = 0.40 * makespan;
      const std::span<const TaskId> topo = graph.topological_order();
      e.tasks.assign(topo.end() - static_cast<std::ptrdiff_t>(late),
                     topo.end());
      trace.push_back(std::move(e));
    }
    trace.push_back(
        proc_event(EventKind::kSlowdown, 0.70 * makespan, ranked[0], 2.0));
  }
  validate_trace(trace, graph, platform);
  return trace;
}

const std::vector<std::string>& known_event_trace_names() {
  static const std::vector<std::string> names = {
      "none", "slowdown", "dropout", "mixed", "arrival"};
  return names;
}

}  // namespace oneport::dyn
