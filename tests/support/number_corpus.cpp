#include "support/number_corpus.hpp"

#include <cmath>
#include <limits>

namespace oneport::testsupport {

std::vector<double> corner_values() {
  using L = std::numeric_limits<double>;
  std::vector<double> values = {0.0,
                                -0.0,
                                L::denorm_min(),
                                -L::denorm_min(),
                                L::min(),
                                -L::min(),
                                L::max(),
                                L::lowest(),
                                L::epsilon(),
                                1e-5,
                                1e-4,
                                9.9999999999999991e-5,
                                1e16,
                                1e17,
                                9.9999999999999984e16,
                                1.0000000000000002e17,
                                0.1,
                                0.5,
                                1.0,
                                288076.99760694581,
                                354417.925,
                                L::infinity(),
                                -L::infinity(),
                                L::quiet_NaN(),
                                -L::quiet_NaN()};
  for (int e = -320; e <= 310; ++e) {
    const double p = std::pow(10.0, e);
    for (const double x : {p, std::nextafter(p, 0.0),
                           std::nextafter(p, L::infinity())}) {
      values.push_back(x);
      values.push_back(-x);
    }
  }
  // Exact binary fractions: decimal rounding ties at 0-4 decimals.
  for (int k = -4096; k <= 4096; ++k) values.push_back(k / 1024.0);
  for (int k = 0; k < 2000; ++k) values.push_back(k + 0.0005);
  return values;
}

}  // namespace oneport::testsupport
