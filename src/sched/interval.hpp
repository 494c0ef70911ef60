// Half-open time intervals [start, end) and the tolerance used for all
// floating-point time comparisons in the library.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace oneport {

/// All schedule times are doubles; two events closer than kTimeEps are
/// considered simultaneous.  The tolerance is absolute: schedule horizons
/// in the reproduced experiments are ~1e5-1e6 time units, far from the
/// resolution limit of doubles.
inline constexpr double kTimeEps = 1e-7;

/// The next double above x: std::nextafter(x, +inf), without the libm
/// call for a finite positive x, whose successor's bit pattern is one
/// more (DBL_MAX's is +inf's).  Zeros, negatives, inf and NaN take
/// std::nextafter.
[[nodiscard]] inline double next_up(double x) noexcept {
  if (x > 0 && x < std::numeric_limits<double>::infinity()) {
    return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) + 1);
  }
  return std::nextafter(x, std::numeric_limits<double>::infinity());
}

struct Interval {
  double start = 0.0;
  double end = 0.0;

  [[nodiscard]] double duration() const noexcept { return end - start; }
  /// Zero-length intervals never conflict with anything (the paper's
  /// Theorem-2 construction uses zero-weight tasks).
  [[nodiscard]] bool degenerate() const noexcept {
    return end - start <= kTimeEps;
  }

  friend bool operator==(const Interval&, const Interval&) = default;
};

/// Strict overlap test with tolerance: touching intervals ([a,b) then
/// [b,c)) do not overlap, nor do degenerate ones.
[[nodiscard]] inline bool overlaps(const Interval& a,
                                   const Interval& b) noexcept {
  if (a.degenerate() || b.degenerate()) return false;
  return a.start < b.end - kTimeEps && b.start < a.end - kTimeEps;
}

}  // namespace oneport
