// Figure 10: HEFT vs ILHA on LDMt, 10 processors, c = 10, B = 20.
//
// The paper: ILHA gains roughly 10% over HEFT, reaching 4.9; B = 20
// trades load balance against early critical-path processing.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  return opbench::figure_main(
      argc, argv, "Figure 10 -- LDMt, ratio vs problem size", "LDMt",
      /*chunk_size=*/20, "ILHA ~10% over HEFT, ILHA -> 4.9 at n=500");
}
