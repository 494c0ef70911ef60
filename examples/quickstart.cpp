// Quickstart: build a small task graph by hand, describe a heterogeneous
// platform, schedule under the bi-directional one-port model with both
// HEFT and ILHA, validate, and draw ASCII Gantt charts.
//
//   $ ./examples/quickstart
#include <iostream>

#include "analysis/gantt.hpp"
#include "analysis/metrics.hpp"
#include "core/heft.hpp"
#include "core/ilha.hpp"
#include "sched/validate.hpp"

using namespace oneport;

int main() {
  // A little diamond pipeline: source -> {prep_a, prep_b} -> solve -> sink,
  // with an extra independent branch to keep the slow machine busy.
  TaskGraph g;
  const TaskId source = g.add_task(2.0, "source");
  const TaskId prep_a = g.add_task(4.0, "prep_a");
  const TaskId prep_b = g.add_task(4.0, "prep_b");
  const TaskId extra = g.add_task(6.0, "extra");
  const TaskId solve = g.add_task(5.0, "solve");
  const TaskId sink = g.add_task(1.0, "sink");
  g.add_edge(source, prep_a, 3.0);
  g.add_edge(source, prep_b, 3.0);
  g.add_edge(source, extra, 1.0);
  g.add_edge(prep_a, solve, 2.0);
  g.add_edge(prep_b, solve, 2.0);
  g.add_edge(solve, sink, 1.0);
  g.add_edge(extra, sink, 1.0);
  g.finalize();

  // Three processors: one fast, two slower; uniform links of cost 1.
  const Platform platform({1.0, 2.0, 2.0}, 1.0);

  for (const bool use_ilha : {false, true}) {
    const Schedule schedule =
        use_ilha ? ilha(g, platform, {.model = CommModel::kOnePort,
                                      .chunk_size = 4})
                 : heft(g, platform, {.model = CommModel::kOnePort});
    const ValidationResult check = validate_one_port(schedule, g, platform);
    const analysis::ScheduleStats stats =
        analysis::compute_stats(g, platform, schedule);

    std::cout << "== " << (use_ilha ? "ILHA (B=4)" : "HEFT")
              << " under the one-port model ==\n";
    std::cout << "valid: " << (check.ok() ? "yes" : check.message()) << "\n";
    std::cout << "makespan " << stats.makespan << ", speedup "
              << stats.speedup << ", " << stats.num_comms << " messages\n";
    for (TaskId v = 0; v < g.num_tasks(); ++v) {
      const TaskPlacement& t = schedule.task(v);
      std::cout << "  " << g.name(v) << " -> P" << t.proc << " ["
                << t.start << ", " << t.finish << ")\n";
    }
    analysis::write_gantt_ascii(std::cout, schedule, platform, {.width = 72});
    std::cout << "\n";
  }
  return 0;
}
