// Ablation E11 (ours): what §2.3 claims, quantified.  Take the schedule a
// macro-dataflow heuristic produces (unlimited ports), serialize its
// messages under the one-port rules (ASAP replay keeping the original
// orders), and compare against the heuristics that were port-aware from
// the start.
//
// Three numbers per testbed:
//   macro(paper model)   -- the optimistic makespan the macro model reports;
//   macro replayed       -- what that schedule actually costs once ports
//                           serialize (a *valid* one-port schedule);
//   native one-port      -- HEFT/ILHA designed for the one-port model.
#include <iostream>

#include "analysis/metrics.hpp"
#include "core/heft.hpp"
#include "core/ilha.hpp"
#include "sched/replay.hpp"
#include "sched/validate.hpp"
#include "testbeds/registry.hpp"
#include "testbeds/testbeds.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"

using namespace oneport;

int main() {
  const Platform platform = make_paper_platform();
  const int n = 200;

  std::cout << "Ablation: macro-dataflow optimism vs port-aware "
               "scheduling, n=" << n << ", c=10\n\n";
  csv::Table table({"testbed", "macro_reported", "macro_replayed_1port",
                    "heft_oneport", "ilha_oneport", "optimism_factor"});
  for (const testbeds::TestbedEntry& entry : testbeds::paper_testbeds()) {
    const TaskGraph graph = entry.make(n, testbeds::kPaperCommRatio);

    const Schedule macro =
        heft(graph, platform, {.model = CommModel::kMacroDataflow});
    const Schedule replayed =
        asap_replay(macro, graph, platform, CommModel::kOnePort);
    ensure(validate_one_port(replayed, graph, platform).ok(),
           "replayed schedule invalid for " + entry.name);
    const Schedule hop =
        heft(graph, platform, {.model = CommModel::kOnePort});
    const Schedule iop =
        ilha(graph, platform, {.model = CommModel::kOnePort,
                               .chunk_size = entry.paper_best_b});

    table.add_row({entry.name, csv::format_number(macro.makespan(), 0),
                   csv::format_number(replayed.makespan(), 0),
                   csv::format_number(hop.makespan(), 0),
                   csv::format_number(iop.makespan(), 0),
                   csv::format_number(replayed.makespan() / macro.makespan(),
                                      2)});
  }
  table.write_pretty(std::cout);
  std::cout << "\noptimism_factor = replayed / reported: how much the "
               "macro model under-estimates its own schedule once "
               "communications serialize.\n";
  return 0;
}
