// Figure 9: HEFT vs ILHA on LAPLACE, 10 processors, c = 10, B = 38.
//
// The paper: ILHA gains roughly 10% over HEFT across the sweep and
// reaches 5.6 at n = 500.  Every LAPLACE node lies on a critical path, so
// the large (perfect-balance) chunk pays off.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  return opbench::figure_main(
      argc, argv, "Figure 9 -- LAPLACE, ratio vs problem size", "LAPLACE",
      /*chunk_size=*/38, "ILHA ~10% over HEFT, ILHA -> 5.6 at n=500");
}
