#include "util/text_writer.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <ostream>

namespace oneport {

namespace {

using u128 = __uint128_t;

constexpr std::array<std::uint64_t, 21> kPow5 = [] {
  std::array<std::uint64_t, 21> pow{1};
  for (std::size_t k = 1; k < pow.size(); ++k) pow[k] = pow[k - 1] * 5;
  return pow;
}();

/// n < 10^8 as its eight decimal digits, one value 0..9 per byte, the
/// most significant digit in the lowest byte (first in memory on a
/// little-endian machine).  The lanes halve from 4 digits to 2 to 1;
/// x * 10486 >> 20 == x / 100 for x < 10^4 and x * 103 >> 10 == x / 10
/// for x < 100, and no lane's product reaches the lane above it.
constexpr std::uint64_t eight_digits(std::uint64_t n) {
  std::uint64_t v = (n / 10000) | ((n % 10000) << 32);
  std::uint64_t h = ((v * 10486) >> 20) & 0x0000007F0000007F;
  v = h | ((v - 100 * h) << 16);
  h = ((v * 103) >> 10) & 0x000F000F000F000F;
  return h | ((v - 10 * h) << 8);
}

}  // namespace

char* format_trimmed_fixed(char* first, double value, int digits) {
  char* last = std::to_chars(first, first + max_trimmed_fixed_chars(digits),
                             value, std::chars_format::fixed, digits)
                   .ptr;
  if (std::find(first, last, '.') != last) {
    while (last != first && last[-1] == '0') --last;
    if (last != first && last[-1] == '.') --last;
  }
  return last;
}

// %.17g rounds a = |value| to 17 significant digits, q x 10^(X-16) with
// 10^16 <= q < 10^17, and for -4 <= X < 17 prints fixed notation with
// 16 - X decimals, then drops trailing zeros and a bare point.  In range:
//  * X is a's decimal exponent E (10^E <= a < 10^(E+1)).  A double is
//    >= 10^E exactly when it is >= kDecimalThresholds[E + 4], and with
//    2^b <= a < 2^(b+1), E is floor(b log10 2) or one more, so one
//    comparison settles it.  Rounding never carries q to 10^17: the
//    largest double below 10^(E+1) lies at least 8.3 units of the 17th
//    digit under it, where a carry needs half a unit (util_test checks
//    this).  For the same reason nothing below 10^-4 prints in fixed
//    notation, and nothing in range leaves it.
//  * a = m 2^(biased - 1075) with 2^52 <= m < 2^53, so with k = 16 - E
//    (0..20) and s = 1075 - biased - k, a 10^k = m 5^k / 2^s.  The
//    product m 5^k < 2^53 5^20 < 2^100 is exact in 128 bits, and q is
//    it shifted right by s, rounded half to even on its low s bits, the
//    exact remainder -- as glibc's printf and std::to_chars round.
//    10^16 <= q < 10^17 bounds s to -4..46: the remainder fits one
//    64-bit word, and for s <= 0 the product fits one before its shift.
char* format_real(char* first, double value) {
  const double a = std::fabs(value);
  if (std::endian::native != std::endian::little ||
      !(a >= kDecimalThresholds.front() && a < kDecimalThresholds.back())) {
    return std::to_chars(first, first + kMaxRealChars, value,
                         std::chars_format::general, 17)
        .ptr;
  }
  const auto bits = std::bit_cast<std::uint64_t>(a);
  const int biased = static_cast<int>(bits >> 52);
  const std::uint64_t m = (bits & ((std::uint64_t{1} << 52) - 1)) |
                          (std::uint64_t{1} << 52);
  int e = ((biased - 1023) * 315653) >> 20;  // floor(b log10 2), b < 57
  e += a >= kDecimalThresholds[static_cast<std::size_t>(e + 5)];

  const int k = 16 - e;
  const int s = 1075 - biased - k;
  const u128 product = u128{m} * kPow5[static_cast<std::size_t>(k)];
  const auto low = static_cast<std::uint64_t>(product);
  std::uint64_t q = 0;
  if (s <= 0) {
    q = low << -s;
  } else {
    const auto high = static_cast<std::uint64_t>(product >> 64);
    q = (low >> s) | (high << (64 - s));
    const std::uint64_t half = std::uint64_t{1} << (s - 1);
    const std::uint64_t rest = low & (2 * half - 1);
    q += rest + (q & 1) > half;  // rest > half, or a tie and q odd
  }

  // q's 17 digits: the lead, then digits 1..16 as 16 ASCII bytes.
  constexpr std::uint64_t kE8 = 100'000'000;
  const std::uint64_t top = q / kE8;  // the lead and digits 1..8
  const std::uint64_t lead = top / kE8;
  const std::uint64_t hi = eight_digits(top - lead * kE8);
  const std::uint64_t lo = eight_digits(q - top * kE8);
  // Trailing zero digits of q: the zero bytes at the top of lo, then hi.
  const int zeros = lo != 0 ? std::countl_zero(lo) / 8
                            : 8 + std::countl_zero(hi) / 8;
  constexpr std::uint64_t kAscii = 0x3030303030303030;
  const u128 digits = (u128{lo + kAscii} << 64) | (hi + kAscii);

  // Compose in place: every store below stays within kMaxRealChars of
  // `first`, and the bytes past the returned end are scratch.
  char* out = first;
  if (std::signbit(value)) *out++ = '-';
  if (e < 0) {  // "0." and -e - 1 zeros, then q without trailing zeros
    std::copy_n("0.000", 5, out);
    out += 1 - e;
    *out = static_cast<char>('0' + lead);
    std::memcpy(out + 1, &digits, sizeof digits);
    return out + 17 - zeros;
  }
  *out = static_cast<char>('0' + lead);
  const int decimals = 16 - e - zeros;  // those left after trimming
  if (decimals <= 0) {
    std::memcpy(out + 1, &digits, sizeof digits);
    return out + 1 + e;
  }
  // Digits 1..e, the point, then digits e+1..15; digit 16 is pushed out
  // of the 16 bytes and stored after them.  e <= 15 here.
  const u128 integral = (u128{1} << (8 * e)) - 1;
  const u128 text = (digits & integral) | (u128{'.'} << (8 * e)) |
                    ((digits & ~integral) << 8);
  std::memcpy(out + 1, &text, sizeof text);
  out[17] = static_cast<char>(digits >> 120);
  return out + 2 + e + decimals;
}

void TextWriter::put(std::string_view text) {
  while (!text.empty()) {
    if (used_ == buf_.size()) flush();
    const std::size_t n = std::min(text.size(), buf_.size() - used_);
    std::copy_n(text.data(), n, cursor());
    used_ += n;
    text.remove_prefix(n);
  }
}

void TextWriter::flush() {
  os_.write(buf_.data(), static_cast<std::streamsize>(used_));
  used_ = 0;
}

}  // namespace oneport
