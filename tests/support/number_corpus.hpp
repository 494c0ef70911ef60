// A corpus of doubles that are hard to print and to read back: IEEE
// corner values (signed zeros, subnormals, the extremes, NaN and inf),
// the %g fixed/scientific switch points, powers of ten and their
// neighbours, decimal rounding ties, and the pinned 100k-task makespans.
// text_oracle_test feeds it to the writers, import_oracle_test to the
// readers.
#pragma once

#include <vector>

namespace oneport::testsupport {

[[nodiscard]] std::vector<double> corner_values();

}  // namespace oneport::testsupport
