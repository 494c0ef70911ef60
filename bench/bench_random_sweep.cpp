// The paper closes with "more extensive experimental validation and
// comparisons" as future work.  This bench runs that wider net: random
// layered DAGs x three platform heterogeneity levels x three
// communication-to-computation ratios, 10 seeds each, comparing one-port
// HEFT, ILHA (autotuned B) and GDL by mean ratio.
#include <iostream>

#include "analysis/metrics.hpp"
#include "core/autotune.hpp"
#include "core/gdl.hpp"
#include "core/heft.hpp"
#include "sched/validate.hpp"
#include "testbeds/testbeds.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"

using namespace oneport;

namespace {

Platform make_platform(int heterogeneity) {
  switch (heterogeneity) {
    case 0:  // homogeneous
      return Platform(std::vector<double>(8, 6.0), 1.0);
    case 1:  // the paper's mix
      return Platform({6, 6, 6, 6, 10, 10, 15, 15}, 1.0);
    default:  // extreme spread
      return Platform({2, 2, 6, 6, 18, 18, 54, 54}, 1.0);
  }
}

}  // namespace

int main() {
  const int seeds = 10;
  std::cout << "Random layered DAGs (~160 tasks), one-port model, mean "
               "ratio over " << seeds << " seeds\n\n";
  csv::Table table({"heterogeneity", "c", "heft", "ilha(auto-B)", "gdl",
                    "best"});
  for (int het = 0; het < 3; ++het) {
    const Platform platform = make_platform(het);
    for (const double c : {1.0, 5.0, 10.0}) {
      double sum_heft = 0.0, sum_ilha = 0.0, sum_gdl = 0.0;
      for (int seed = 1; seed <= seeds; ++seed) {
        testbeds::RandomDagOptions options;
        options.layers = 40;
        options.max_width = 7;
        options.max_in_degree = 3;
        options.comm_ratio = c;
        options.seed = static_cast<std::uint64_t>(seed * 31 + het);
        const TaskGraph graph = testbeds::make_random_layered(options);

        const Schedule hs = heft(graph, platform,
                                 {.model = CommModel::kOnePort});
        const IlhaAutotuneResult ir = ilha_autotune(
            graph, platform, {.model = CommModel::kOnePort});
        const Schedule gs = gdl(graph, platform,
                                {.model = CommModel::kOnePort});
        for (const Schedule* s : {&hs, &ir.schedule, &gs}) {
          ensure(validate_one_port(*s, graph, platform).ok(),
                 "invalid schedule in random sweep");
        }
        sum_heft += analysis::speedup(graph, platform, hs);
        sum_ilha += analysis::speedup(graph, platform, ir.schedule);
        sum_gdl += analysis::speedup(graph, platform, gs);
      }
      const double mh = sum_heft / seeds;
      const double mi = sum_ilha / seeds;
      const double mg = sum_gdl / seeds;
      const char* best = mh >= mi && mh >= mg ? "heft"
                         : mi >= mg           ? "ilha"
                                              : "gdl";
      table.add_row({het == 0   ? "homogeneous"
                     : het == 1 ? "paper-mix"
                                : "extreme",
                     csv::format_number(c), csv::format_number(mh),
                     csv::format_number(mi), csv::format_number(mg), best});
    }
  }
  table.write_pretty(std::cout);
  std::cout << "\nhigher is better; 8 processors throughout.\n";
  return 0;
}
