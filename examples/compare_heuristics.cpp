// Compare every built-in scheduler on one of the paper's testbeds.
//
//   $ ./examples/compare_heuristics --testbed=LU --n=100 --c=10 --b=4
//
// Macro-dataflow schedulers are validated against the macro rules and the
// one-port schedulers against the one-port rules; the table makes the gap
// between the two models concrete (macro makespans assume unlimited
// ports, so they are optimistic).
#include <iostream>

#include "analysis/metrics.hpp"
#include "core/registry.hpp"
#include "sched/validate.hpp"
#include "testbeds/registry.hpp"
#include "util/args.hpp"
#include "util/csv.hpp"

using namespace oneport;

namespace {

int run(int argc, char** argv) {
  const Args args(argc, argv);
  const std::string testbed_name = args.get("testbed", "LU");
  const int n = args.get_int("n", 100);
  const double c = args.get_double("c", 10.0);
  const int b = args.get_int("b", 0);

  const testbeds::TestbedEntry testbed = testbeds::find_testbed(testbed_name);
  const int chunk = b > 0 ? b : testbed.paper_best_b;
  const TaskGraph graph = testbed.make(n, c);
  const Platform platform = make_paper_platform();

  std::cout << "testbed " << testbed_name << ", n=" << n << " ("
            << graph.num_tasks() << " tasks, " << graph.num_edges()
            << " edges), c=" << c << ", B=" << chunk << "\n\n";

  csv::Table table(
      {"scheduler", "model", "makespan", "ratio", "messages", "valid"});
  for (const SchedulerEntry& entry : builtin_schedulers(chunk)) {
    const Schedule schedule = entry.run(graph, platform);
    const ValidationResult check =
        validate(schedule, graph, platform, entry.model);
    table.add_row({entry.name,
                   entry.model == CommModel::kOnePort ? "one-port" : "macro",
                   csv::format_number(schedule.makespan(), 0),
                   csv::format_number(
                       analysis::speedup(graph, platform, schedule)),
                   std::to_string(schedule.num_comms()),
                   check.ok() ? "yes" : "NO"});
  }
  table.write_pretty(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "compare_heuristics: " << e.what() << "\n";
    return 1;
  }
}
