// Ablation of the ILHA design variants sketched at the end of §4.4:
//   base               -- step 1 (no-comm scan) + step 2 (pure EFT);
//   +quota-step2       -- enforce the load-balance quota in step 2 too;
//   +single-comm scan  -- extra scan for tasks costing exactly one message;
//   +reschedule        -- keep the allocation, rebuild all dates with the
//                         fixed-allocation greedy scheduler (Theorem 2
//                         says the exact version is NP-complete).
#include <iostream>

#include "analysis/metrics.hpp"
#include "core/ilha.hpp"
#include "sched/validate.hpp"
#include "testbeds/registry.hpp"
#include "testbeds/testbeds.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"

using namespace oneport;

int main() {
  const Platform platform = make_paper_platform();
  const int n = 200;

  std::cout << "ILHA variant ablation, n=" << n << ", c=10, one-port, "
            << "B = paper's per-testbed pick\n\n";
  csv::Table table({"testbed", "base", "quota_step2", "single_comm",
                    "reschedule", "all_on"});
  for (const testbeds::TestbedEntry& entry : testbeds::paper_testbeds()) {
    const TaskGraph graph = entry.make(n, testbeds::kPaperCommRatio);
    auto run = [&](bool quota, bool scan, bool resched) {
      const Schedule s =
          ilha(graph, platform,
               {.model = CommModel::kOnePort,
                .chunk_size = entry.paper_best_b,
                .quota_in_step2 = quota,
                .single_comm_scan = scan,
                .reschedule_comms = resched});
      ensure(validate_one_port(s, graph, platform).ok(),
             "invalid ILHA variant schedule for " + entry.name);
      return analysis::speedup(graph, platform, s);
    };
    table.add_row({entry.name, csv::format_number(run(false, false, false)),
                   csv::format_number(run(true, false, false)),
                   csv::format_number(run(false, true, false)),
                   csv::format_number(run(false, false, true)),
                   csv::format_number(run(true, true, true))});
  }
  table.write_pretty(std::cout);
  std::cout << "\ncells are ratios (sequential time / makespan); higher "
               "is better.\n";
  return 0;
}
