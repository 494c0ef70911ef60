// Figure 12: HEFT vs ILHA on STENCIL, 10 processors, c = 10, B = 38.
//
// The paper's distinctive observation for this kernel: the speedup
// *decreases* as the problem grows -- every row needs all processors, and
// the serialized one-port messages become the bottleneck.  ILHA ends at
// 2.7, HEFT at 2.4.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  return opbench::figure_main(
      argc, argv, "Figure 12 -- STENCIL, ratio vs problem size", "STENCIL",
      /*chunk_size=*/38, "ratio DECREASES with n; ILHA -> 2.7, HEFT -> 2.4");
}
