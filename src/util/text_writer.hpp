// Chunked text emission for the plain-text writers: write_schedule
// (sched/serialize), write_dot (graph/dot_export) and write_json_graph
// (graph/dot_import).  util/text_reader.hpp is the read side.
//
// A TextWriter formats into one fixed-size chunk with std::to_chars and
// hands the stream whole chunks through os.write, so a writer costs one
// stream call per chunk instead of one formatted insertion per field, and
// never stages the whole output in memory.  The stream's format flags and
// precision are neither read nor changed.
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

  /// printf "%.17g" (max_digits10 significant digits).
  void put_real(double value) {
    reserve(kRealChars);
    advance(
        std::to_chars(cursor(), end(), value, std::chars_format::general, 17)
            .ptr);
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
  // "-2.2250738585072014e-308": sign, 17 digits, point, "e-308".
  static constexpr std::size_t kRealChars = 24;

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
