// Sweep ILHA's chunk-size parameter B on one testbed (§5.3: the paper
// found B=4 best for LU, 20 for DOOLITTLE/LDMt, 38 -- the perfect-balance
// chunk -- for the others, with no systematic way to predict the winner).
//
//   $ ./examples/tune_b --testbed=LU --n=150
#include <iostream>

#include "analysis/metrics.hpp"
#include "core/ilha.hpp"
#include "platform/load_balance.hpp"
#include "sched/validate.hpp"
#include "testbeds/registry.hpp"
#include "util/args.hpp"
#include "util/csv.hpp"

using namespace oneport;

namespace {

int run(int argc, char** argv) {
  const Args args(argc, argv);
  const std::string testbed_name = args.get("testbed", "LU");
  const int n = args.get_int("n", 150);
  const double c = args.get_double("c", 10.0);

  const testbeds::TestbedEntry testbed = testbeds::find_testbed(testbed_name);
  const TaskGraph graph = testbed.make(n, c);
  const Platform platform = make_paper_platform();
  const auto perfect = static_cast<int>(perfect_balance_chunk(platform));

  std::cout << "ILHA B sweep on " << testbed_name << "(" << n << "), c=" << c
            << "; perfect-balance chunk M=" << perfect
            << ", paper's pick B=" << testbed.paper_best_b << "\n\n";

  csv::Table table({"B", "makespan", "ratio", "messages"});
  int best_b = 0;
  double best_ratio = 0.0;
  for (const int b : {platform.num_processors(), 15, 20, perfect,
                      2 * perfect}) {
    const Schedule schedule =
        ilha(graph, platform,
             {.model = CommModel::kOnePort, .chunk_size = b});
    ensure(validate_one_port(schedule, graph, platform).ok(),
           "invalid ILHA schedule");
    const double ratio = analysis::speedup(graph, platform, schedule);
    if (ratio > best_ratio) {
      best_ratio = ratio;
      best_b = b;
    }
    table.add_row({std::to_string(b),
                   csv::format_number(schedule.makespan(), 0),
                   csv::format_number(ratio),
                   std::to_string(schedule.num_comms())});
  }
  table.write_pretty(std::cout);
  std::cout << "\nbest B here: " << best_b << " (ratio "
            << csv::format_number(best_ratio) << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "tune_b: " << e.what() << "\n";
    return 1;
  }
}
