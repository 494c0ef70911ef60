// §5.3's remark on the chunk parameter B: the best value is testbed-
// dependent (LU wants a small B = 4 to rush the critical path; the
// kernels whose nodes all sit on critical paths prefer the perfect-
// balance chunk B = 38; DOOLITTLE/LDMt trade off at B = 20), and the
// paper found no systematic predictor.  This binary regenerates the sweep
// at n = 200 for every testbed.
#include <iostream>

#include "analysis/metrics.hpp"
#include "core/ilha.hpp"
#include "platform/load_balance.hpp"
#include "sched/validate.hpp"
#include "testbeds/registry.hpp"
#include "testbeds/testbeds.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"

using namespace oneport;

int main() {
  const Platform platform = make_paper_platform();
  const int n = 200;
  const auto perfect = static_cast<int>(perfect_balance_chunk(platform));
  const std::vector<int> bs = {platform.num_processors(), 15, 20, perfect,
                               2 * perfect};

  std::cout << "ILHA chunk-size sweep, n=" << n << ", c=10, one-port model\n"
            << "(paper's per-testbed picks: LU 4, DOOLITTLE/LDMt 20, "
               "others 38)\n\n";
  csv::Table table({"testbed", "B=10", "B=15", "B=20", "B=38", "B=76",
                    "best_B", "paper_B"});
  for (const testbeds::TestbedEntry& entry : testbeds::paper_testbeds()) {
    const TaskGraph graph = entry.make(n, testbeds::kPaperCommRatio);
    std::vector<std::string> row{entry.name};
    int best_b = 0;
    double best_ratio = 0.0;
    for (const int b : bs) {
      const Schedule s = ilha(
          graph, platform,
          {.model = CommModel::kOnePort, .chunk_size = b});
      ensure(validate_one_port(s, graph, platform).ok(),
             "invalid ILHA schedule in B sweep");
      const double ratio = analysis::speedup(graph, platform, s);
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best_b = b;
      }
      row.push_back(csv::format_number(ratio));
    }
    row.push_back(std::to_string(best_b));
    row.push_back(std::to_string(entry.paper_best_b));
    table.add_row(std::move(row));
  }
  table.write_pretty(std::cout);
  return 0;
}
