// Extension experiment: how fragile are the static schedules?
//
// The paper's model assumes exact execution times.  Here each task's
// run-time is drawn from [1-eps, 1+eps] x its nominal duration and the
// schedule's decisions (allocation + resource orders) are re-executed
// event-driven; the table reports the mean makespan inflation over 20
// seeds.  An inflation well below 1+eps means the schedule has enough
// slack to absorb the jitter; equal to 1+eps means the critical path is
// tight everywhere.
#include <iostream>

#include "core/heft.hpp"
#include "core/ilha.hpp"
#include "sched/replay.hpp"
#include "testbeds/registry.hpp"
#include "testbeds/testbeds.hpp"
#include "util/csv.hpp"

using namespace oneport;

namespace {

double mean_inflation(const Schedule& schedule, const TaskGraph& graph,
                      const Platform& platform, double noise) {
  const double base =
      asap_replay(schedule, graph, platform, CommModel::kOnePort).makespan();
  double total = 0.0;
  const int seeds = 20;
  for (int seed = 1; seed <= seeds; ++seed) {
    total += perturbed_replay(schedule, graph, platform,
                              CommModel::kOnePort, noise,
                              static_cast<std::uint64_t>(seed))
                 .makespan();
  }
  return total / seeds / base;
}

}  // namespace

int main() {
  const Platform platform = make_paper_platform();
  const int n = 100;

  std::cout << "Execution-time jitter robustness, n=" << n
            << ", c=10, mean makespan inflation over 20 seeds\n\n";
  csv::Table table({"testbed", "heft@10%", "ilha@10%", "heft@30%",
                    "ilha@30%"});
  for (const testbeds::TestbedEntry& entry : testbeds::paper_testbeds()) {
    const TaskGraph graph = entry.make(n, testbeds::kPaperCommRatio);
    const Schedule hs = heft(graph, platform,
                             {.model = CommModel::kOnePort});
    const Schedule is = ilha(graph, platform,
                             {.model = CommModel::kOnePort,
                              .chunk_size = entry.paper_best_b});
    table.add_row({entry.name,
                   csv::format_number(mean_inflation(hs, graph, platform,
                                                     0.1)),
                   csv::format_number(mean_inflation(is, graph, platform,
                                                     0.1)),
                   csv::format_number(mean_inflation(hs, graph, platform,
                                                     0.3)),
                   csv::format_number(mean_inflation(is, graph, platform,
                                                     0.3))});
  }
  table.write_pretty(std::cout);
  std::cout << "\nvalues are perturbed makespan / unperturbed makespan; "
               "1.0 = fully absorbed, 1+eps = no slack at all.\n";
  return 0;
}
