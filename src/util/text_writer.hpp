// Chunked text emission for the plain-text writers: write_schedule
// (sched/serialize), write_dot (graph/dot_export) and write_json_graph
// (graph/dot_import).  util/text_reader.hpp is the read side.
//
// A TextWriter formats into one fixed-size chunk and hands the stream
// whole chunks through os.write, so a writer costs one stream call per
// chunk instead of one formatted insertion per field, and never stages
// the whole output in memory.  The stream's format flags and precision
// are neither read nor changed.  Integers and put_number go through
// std::to_chars; put_real goes through format_real, an exact kernel for
// the range where %.17g prints fixed notation (10^-4 <= |x| < 10^17)
// that falls back to std::to_chars for every other double.
//
// Byte contract (pinned against the former iostream writers by
// tests/text_oracle_test.cpp):
//   put_real(x)   == `os << std::setprecision(17) << x` on a stream in
//                    the default float format, i.e. printf "%.17g", so
//                    every double round-trips bit-exactly;
//   put_number(x) == csv::format_number(x): printf "%.3f" with trailing
//                    zeros and a trailing '.' trimmed;
//   put_int(v)    == `os << v` for an integer v (not a char or bool).
#pragma once

#include <array>
#include <charconv>
#include <concepts>
#include <cstddef>
#include <iosfwd>
#include <string_view>

namespace oneport {

/// Characters format_trimmed_fixed may write for `digits` decimals: sign,
/// the 309 integer digits of DBL_MAX, the point and the decimals (a
/// negative `digits` means 6, as in printf).
[[nodiscard]] constexpr std::size_t max_trimmed_fixed_chars(int digits) {
  return 311 + static_cast<std::size_t>(digits < 0 ? 6 : digits);
}

/// Writes `value` as printf("%.*f", digits, value) would, minus trailing
/// zeros and a trailing '.' ("3.50" -> "3.5", "4.00" -> "4"); returns the
/// end of the text.  [first, first + max_trimmed_fixed_chars(digits))
/// must be writable.
char* format_trimmed_fixed(char* first, double value, int digits);

/// Characters format_real may write: "-2.2250738585072014e-308" (sign,
/// 17 digits, point, "e-308").  The longest fixed-notation text,
/// "-0.00012345678901234567", is 23.
inline constexpr std::size_t kMaxRealChars = 24;

/// The smallest double >= 10^E for E = -4..17, at index E + 4: a double
/// is >= 10^E exactly when it is >= kDecimalThresholds[E + 4].  From
/// E = 0 on these are 10^E itself.  format_real's fixed-notation range is
/// [front, back); util_test checks every entry in integer arithmetic.
inline constexpr std::array<double, 22> kDecimalThresholds = {
    0x1.a36e2eb1c432dp-14, 0x1.0624dd2f1a9fcp-10, 0x1.47ae147ae147bp-7,
    0x1.999999999999ap-4,  0x1p+0,                0x1.4p+3,
    0x1.9p+6,              0x1.f4p+9,             0x1.388p+13,
    0x1.86ap+16,           0x1.e848p+19,          0x1.312dp+23,
    0x1.7d784p+26,         0x1.dcd65p+29,         0x1.2a05f2p+33,
    0x1.74876e8p+36,       0x1.d1a94a2p+39,       0x1.2309ce54p+43,
    0x1.6bcc41e9p+46,      0x1.c6bf52634p+49,     0x1.1c37937e08p+53,
    0x1.6345785d8ap+56};

/// Writes `value` as printf("%.17g", value) would (max_digits10
/// significant digits, so the text reads back bit-exactly); returns the
/// end of the text.  [first, first + kMaxRealChars) must be writable.
char* format_real(char* first, double value);

class TextWriter {
 public:
  explicit TextWriter(std::ostream& os) noexcept : os_(os) {}

  void put(char c) {
    reserve(1);
    buf_[used_++] = c;
  }
  void put(std::string_view text);

  template <std::integral T>
  void put_int(T value) {
    reserve(kIntChars);
    advance(std::to_chars(cursor(), end(), value).ptr);
  }

  /// printf "%.17g" (max_digits10 significant digits), via format_real.
  void put_real(double value) {
    reserve(kMaxRealChars);
    advance(format_real(cursor(), value));
  }

  /// csv::format_number(value) with its default 3 decimals.
  void put_number(double value) {
    reserve(max_trimmed_fixed_chars(3));
    advance(format_trimmed_fixed(cursor(), value, 3));
  }

  /// Hands the buffered bytes to the stream.  Writers call it once after
  /// their last put; the destructor does not flush.
  void flush();

 private:
  static constexpr std::size_t kChunk = 16 * 1024;
  // "-9223372036854775808" / "18446744073709551615".
  static constexpr std::size_t kIntChars = 20;

  [[nodiscard]] char* cursor() noexcept { return buf_.data() + used_; }
  [[nodiscard]] char* end() noexcept { return buf_.data() + buf_.size(); }
  void advance(const char* past) noexcept {
    used_ = static_cast<std::size_t>(past - buf_.data());
  }
  void reserve(std::size_t n) {
    if (buf_.size() - used_ < n) flush();
  }

  std::ostream& os_;
  std::array<char, kChunk> buf_{};
  std::size_t used_ = 0;
};

}  // namespace oneport
