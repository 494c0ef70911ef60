// Figure 8: HEFT vs ILHA on LU, 10 processors, c = 10, B = 4.
//
// The paper: similar at n = 100, ILHA pulling ahead with size; at n = 500
// ILHA reaches 5.0 while HEFT stays at 4.5.  The small B reflects LU's
// urgent critical path.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  return opbench::figure_main(
      argc, argv, "Figure 8 -- LU, ratio vs problem size", "LU",
      /*chunk_size=*/4, "ILHA -> 5.0 at n=500, HEFT -> 4.5; gap widens with n");
}
