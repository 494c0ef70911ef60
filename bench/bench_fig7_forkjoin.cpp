// Figure 7: HEFT vs ILHA on FORK-JOIN, 10 processors, c = 10, B = 38.
//
// The paper reports both heuristics glued together around ratio
// 1.53-1.58, against the kernel's analytic cap w*t/c + 1 = 1.6 (with
// t = 6, c = 10, w = 1): almost all of the fork's messages serialize on
// the parent's send port, so the apparently poor speedup is in fact near
// optimal.
#include "bench_common.hpp"
#include "util/csv.hpp"

int main(int argc, char** argv) {
  const double cap = 1.0 * 6.0 / oneport::testbeds::kPaperCommRatio + 1.0;
  return opbench::figure_main(
      argc, argv, "Figure 7 -- FORK-JOIN, ratio vs problem size", "FORK-JOIN",
      /*chunk_size=*/38,
      "HEFT == ILHA, ratio 1.53-1.58, analytic cap " +
          oneport::csv::format_number(cap));
}
