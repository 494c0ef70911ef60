// Figure 11: HEFT vs ILHA on DOOLITTLE, 10 processors, c = 10, B = 20.
//
// The paper: ILHA gains roughly 10% over HEFT, reaching 4.4 at n = 500.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  return opbench::figure_main(
      argc, argv, "Figure 11 -- DOOLITTLE, ratio vs problem size", "DOOLITTLE",
      /*chunk_size=*/20, "ILHA ~10% over HEFT, ILHA -> 4.4 at n=500");
}
