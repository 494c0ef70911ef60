#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/args.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "util/text_reader.hpp"
#include "util/text_writer.hpp"

namespace oneport {
namespace {

// ------------------------------------------------------------ Matrix

TEST(Matrix, StoresAndRetrieves) {
  Matrix<double> m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(Matrix, BoundsChecked) {
  Matrix<int> m(2, 2);
  EXPECT_THROW((void)m(2, 0), std::invalid_argument);
  EXPECT_THROW((void)m(0, 2), std::invalid_argument);
}

TEST(Matrix, EqualityIsElementwise) {
  Matrix<int> a(2, 2, 1);
  Matrix<int> b(2, 2, 1);
  EXPECT_EQ(a, b);
  b(1, 1) = 2;
  EXPECT_NE(a, b);
}

TEST(Matrix, DefaultIsEmpty) {
  Matrix<double> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
}

// ------------------------------------------------------------ csv::Table

TEST(CsvTable, RejectsEmptyHeaderAndWrongArity) {
  EXPECT_THROW(csv::Table({}), std::invalid_argument);
  csv::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(CsvTable, WritesCsv) {
  csv::Table t({"n", "ratio"});
  t.add_row({"100", "4.5"});
  t.add_row({"200", "4.8"});
  std::ostringstream oss;
  t.write_csv(oss);
  EXPECT_EQ(oss.str(), "n,ratio\n100,4.5\n200,4.8\n");
}

TEST(CsvTable, PrettyAlignsColumns) {
  csv::Table t({"name", "x"});
  t.add_row({"long-name-here", "1"});
  std::ostringstream oss;
  t.write_pretty(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("long-name-here"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(FormatNumber, TrimsTrailingZeros) {
  EXPECT_EQ(csv::format_number(4.0), "4");
  EXPECT_EQ(csv::format_number(4.5), "4.5");
  EXPECT_EQ(csv::format_number(4.126, 2), "4.13");
  EXPECT_EQ(csv::format_number(-0.5), "-0.5");
}

// ------------------------------------------------------------ SplitMix64

TEST(SplitMix64, DeterministicPerSeed) {
  SplitMix64 a(42), b(42), c(43);
  EXPECT_EQ(a(), b());
  SplitMix64 a2(42);
  EXPECT_NE(a2(), c());
}

TEST(SplitMix64, Uniform01InRange) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(SplitMix64, BelowRespectsBound) {
  SplitMix64 rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(SplitMix64, BelowCoversRange) {
  SplitMix64 rng(1);
  std::vector<int> seen(5, 0);
  for (int i = 0; i < 500; ++i) ++seen[rng.below(5)];
  for (const int count : seen) EXPECT_GT(count, 0);
}

// ------------------------------------------------------------ Args

TEST(Args, ParsesOptionsAndPositionals) {
  const char* argv[] = {"prog", "--n=42", "--flag", "pos1", "--x=1.5"};
  const Args args(5, argv);
  EXPECT_EQ(args.get_int("n", 0), 42);
  EXPECT_TRUE(args.has("flag"));
  EXPECT_FALSE(args.has("missing"));
  EXPECT_DOUBLE_EQ(args.get_double("x", 0.0), 1.5);
  EXPECT_EQ(args.get("absent", "dflt"), "dflt");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos1");
}

// ------------------------------------------------------------ error helpers

TEST(Error, RequireAndEnsureThrow) {
  EXPECT_NO_THROW(require(true, "ok"));
  EXPECT_THROW(require(false, "bad"), std::invalid_argument);
  EXPECT_NO_THROW(ensure(true, "ok"));
  EXPECT_THROW(ensure(false, "bad"), std::logic_error);
}

TEST(Error, MacrosCarryContext) {
  const auto misuse = [] { OP_REQUIRE(false, "value " << 7 << " rejected"); };
  try {
    misuse();
    FAIL() << "OP_REQUIRE did not throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("value 7 rejected"),
              std::string::npos);
  }
  const auto broken = [] { OP_ASSERT(1 + 1 == 3, "arithmetic drifted"); };
  try {
    broken();
    FAIL() << "OP_ASSERT did not throw";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("invariant failed"), std::string::npos);
    EXPECT_NE(what.find("arithmetic drifted"), std::string::npos);
  }
}

// --------------------------------------------- previously uncovered corners

TEST(Args, LastDuplicateWinsAndEmptyValues) {
  const char* argv[] = {"prog", "--n=1", "--n=2", "--empty=", "--flag"};
  const Args args(5, argv);
  EXPECT_EQ(args.get_int("n", 0), 2);
  EXPECT_TRUE(args.has("empty"));
  EXPECT_EQ(args.get("empty", "fallback"), "");
  EXPECT_EQ(args.get("flag", "fallback"), "");
}

// A numeric value is one whole token: never its prefix, 0, or a wrapped
// int.  The rejection names the flag and the value.
TEST(Args, MalformedNumbersAreRejected) {
  const char* argv[] = {"prog",         "--abc=abc",  "--trailing=2x",
                        "--exp=1e3",    "--nan=nan",  "--big=99999999999",
                        "--inf=inf",    "--xtra=1.5x", "--huge=1e400",
                        "--empty=",     "--neg=-3"};
  const Args args(11, argv);
  const auto rejects_int = [&args](const std::string& key,
                                   const std::string& value) {
    try {
      (void)args.get_int(key, 5);
      ADD_FAILURE() << "--" << key << "=" << value << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--" + key), std::string::npos);
      EXPECT_NE(std::string(e.what()).find("'" + value + "'"),
                std::string::npos);
    }
  };
  rejects_int("abc", "abc");
  rejects_int("trailing", "2x");
  rejects_int("exp", "1e3");
  rejects_int("big", "99999999999");
  rejects_int("empty", "");
  EXPECT_EQ(args.get_int("neg", 5), -3);  // the callers bound the sign
  for (const char* key : {"abc", "nan", "inf", "xtra", "huge", "empty"}) {
    EXPECT_THROW((void)args.get_double(key, 5.0), std::invalid_argument)
        << key;
  }
  EXPECT_DOUBLE_EQ(args.get_double("exp", 5.0), 1000.0);
  EXPECT_EQ(parse_int_flag("sizes", "40"), 40);
  EXPECT_THROW((void)parse_int_flag("sizes", "40 "), std::invalid_argument);
}

// A seed is all of one unsigned 64-bit token: a sign, bytes after the
// digits or a value of 2^64 or more is rejected, not wrapped.
TEST(Args, U64FlagsAreWholeUnsignedTokens) {
  const char* argv[] = {"prog", "--max=18446744073709551615", "--neg=-1",
                        "--plus=+3", "--over=18446744073709551616",
                        "--trailing=7x", "--empty="};
  const Args args(7, argv);
  EXPECT_EQ(args.get_u64("max", 1), 18446744073709551615ULL);
  EXPECT_EQ(args.get_u64("absent", 9), 9u);
  for (const char* key : {"neg", "plus", "over", "trailing", "empty"}) {
    EXPECT_THROW((void)args.get_u64(key, 1), std::invalid_argument) << key;
  }
  try {
    (void)args.get_u64("neg", 1);
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--neg expects an unsigned integer, got '-1'");
  }
}

TEST(Args, ListsSplitOnCommasAndSizesArePositive) {
  EXPECT_EQ(split_list("a,,b,"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(split_ints("sizes", "40,,100"), (std::vector<int>{40, 100}));
  EXPECT_THROW((void)split_ints("sizes", "40,0"), std::invalid_argument);
  EXPECT_THROW((void)split_ints("sizes", "40,2x"), std::invalid_argument);
}

TEST(Args, NoArgumentsIsEmpty) {
  const char* argv[] = {"prog"};
  const Args args(1, argv);
  EXPECT_TRUE(args.positional().empty());
  EXPECT_FALSE(args.has("anything"));
}

TEST(CsvTable, ExposesHeaderAndRows) {
  csv::Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.num_rows(), 1u);
  ASSERT_EQ(t.header().size(), 2u);
  EXPECT_EQ(t.header()[1], "b");
  ASSERT_EQ(t.rows().size(), 1u);
  EXPECT_EQ(t.rows()[0][0], "1");
}

TEST(CsvTable, CsvRoundTripPreservesCells) {
  csv::Table t({"name", "value"});
  t.add_row({"alpha", "1.25"});
  t.add_row({"beta", "-3"});
  std::ostringstream oss;
  t.write_csv(oss);
  // Re-parse the emitted CSV line by line and compare against the source
  // table (cells in this codebase never contain commas or quotes).
  std::istringstream iss(oss.str());
  std::string line;
  std::vector<std::vector<std::string>> parsed;
  while (std::getline(iss, line)) {
    std::vector<std::string> cells;
    std::istringstream ls(line);
    std::string cell;
    while (std::getline(ls, cell, ',')) cells.push_back(cell);
    parsed.push_back(cells);
  }
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[0], t.header());
  EXPECT_EQ(parsed[1], t.rows()[0]);
  EXPECT_EQ(parsed[2], t.rows()[1]);
}

TEST(FormatNumber, HandlesExtremes) {
  EXPECT_EQ(csv::format_number(0.0), "0");
  EXPECT_EQ(csv::format_number(-4.0), "-4");
  EXPECT_EQ(csv::format_number(0.001, 3), "0.001");
}

TEST(Matrix, SingleCellAndAsymmetricShapes) {
  Matrix<int> m(1, 1, 9);
  EXPECT_EQ(m(0, 0), 9);
  Matrix<int> wide(1, 4, 0);
  wide(0, 3) = 7;
  EXPECT_EQ(wide(0, 3), 7);
  EXPECT_NE(Matrix<int>(1, 4), Matrix<int>(4, 1));  // shape matters
}

TEST(Matrix, CopyIsDeep) {
  Matrix<int> a(2, 2, 1);
  Matrix<int> b = a;
  b(0, 0) = 5;
  EXPECT_EQ(a(0, 0), 1);
  EXPECT_EQ(b(0, 0), 5);
}

TEST(SplitMix64, GoldenValuesMatchReference) {
  // First three outputs of SplitMix64 seeded with 1234567, as published
  // in Steele et al.'s reference implementation -- guards against silent
  // constant or shift edits.
  SplitMix64 rng(1234567);
  EXPECT_EQ(rng(), 6457827717110365317ULL);
  EXPECT_EQ(rng(), 3203168211198807973ULL);
  EXPECT_EQ(rng(), 9817491932198370423ULL);
}

TEST(SplitMix64, UniformRespectsBoundsAndSeed) {
  SplitMix64 rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.5, 4.0);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 4.0);
  }
  // Identical seeds replay the identical stream through every helper.
  SplitMix64 a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 10.0), b.uniform(0.0, 10.0));
  }
}

/// Lines as std::getline splits them.
std::vector<std::string> getline_lines(const std::string& text) {
  std::istringstream is(text);
  std::vector<std::string> lines;
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

template <typename Source>
std::vector<std::string> reader_lines(Source&& source) {
  TextReader in(source);
  std::vector<std::string> lines;
  std::string_view line;
  while (in.next_line(line)) {
    lines.emplace_back(line);
    EXPECT_EQ(in.line_number(), lines.size());
  }
  return lines;
}

TEST(TextReader, SplitsLinesLikeGetlineFromABufferAndAStream) {
  const std::string long_line(40000, 'x');
  const std::vector<std::string> texts = {
      "", "\n", "a", "a\n", "a\n\nb", "\n\n", std::string("a\0b\nc", 5),
      long_line, long_line + "\n" + long_line + "\nend"};
  for (const std::string& text : texts) {
    EXPECT_EQ(reader_lines(std::string_view(text)), getline_lines(text));
    std::istringstream is(text);
    EXPECT_EQ(reader_lines(is), getline_lines(text));
  }
}

TEST(TextReader, NumberGrammarIsFromChars) {
  double x = -1.0;
  EXPECT_EQ(parse_real("1.5", x), NumberStatus::kOk);
  EXPECT_EQ(x, 1.5);
  EXPECT_EQ(parse_real("-0", x), NumberStatus::kOk);
  EXPECT_TRUE(std::signbit(x));
  EXPECT_EQ(parse_real("4.9406564584124654e-324", x), NumberStatus::kOk);
  EXPECT_GT(x, 0.0);
  for (const char* bad : {"", "+1.5", " 1.5", "1.5 ", "0x1p3", "1.5x", "e5"}) {
    EXPECT_EQ(parse_real(bad, x), NumberStatus::kNotANumber) << bad;
  }
  EXPECT_EQ(parse_real("1e400", x), NumberStatus::kOutOfRange);
  EXPECT_EQ(parse_real("1e-400", x), NumberStatus::kOutOfRange);

  std::uint64_t i = 0;
  EXPECT_EQ(parse_index("18446744073709551615", i), NumberStatus::kOk);
  EXPECT_EQ(i, 18446744073709551615ULL);
  EXPECT_EQ(parse_index("18446744073709551616", i), NumberStatus::kOutOfRange);
  for (const char* bad : {"", "-1", "+1", "1 ", "1.0", "12a"}) {
    EXPECT_EQ(parse_index(bad, i), NumberStatus::kNotANumber) << bad;
  }
}

TEST(TextReader, FieldsAndTrim) {
  std::string_view line = " \ttask\v7  x\r";
  EXPECT_EQ(next_field(line), "task");
  EXPECT_EQ(next_field(line), "7");
  EXPECT_EQ(next_field(line), "x");
  EXPECT_EQ(next_field(line), "");
  EXPECT_EQ(trim("  a b \r"), "a b");
  EXPECT_EQ(trim(" \t "), "");
}

// ------------------------------------------------------------ format_real
//
// format_real prints 10^-4 <= |x| < 10^17 with its own kernel and the
// rest with std::to_chars.  These cases hold the kernel to
// std::to_chars(general, 17) where it is easiest to get wrong: the
// decimal exponent at each threshold, round-half-even ties, and the
// premise that rounding never carries.

using u128 = __uint128_t;

/// x = m 2^e exactly, with m an integer below 2^53.
struct Dyadic {
  std::uint64_t m;
  int e;
};

Dyadic dyadic(double x) {
  int exp = 0;
  const double fraction = std::frexp(x, &exp);
  return {static_cast<std::uint64_t>(std::ldexp(fraction, 53)), exp - 53};
}

u128 pow_u128(std::uint64_t base, int n) {
  u128 p = 1;
  for (int i = 0; i < n; ++i) p *= base;
  return p;
}

/// The sign of a 2^shift - b, exactly (callers keep both sides < 2^128).
int compare_scaled(u128 a, int shift, u128 b) {
  if (shift >= 0) {
    a <<= shift;
  } else {
    b <<= -shift;
  }
  return a < b ? -1 : (a > b ? 1 : 0);
}

/// The sign of x - 10^k, in integer arithmetic.
int compare_pow10(double x, int k) {
  const Dyadic d = dyadic(x);
  // m 2^e against 5^k 2^k.
  return compare_scaled(d.m * pow_u128(5, std::max(0, -k)), d.e - k,
                        pow_u128(5, std::max(0, k)));
}

std::string kernel_text(double x) {
  std::array<char, kMaxRealChars> buf{};  // exactly the promised room
  return {buf.data(), format_real(buf.data(), x)};
}

std::string reference_text(double x) {
  std::array<char, 64> buf{};
  return {buf.data(), std::to_chars(buf.data(), buf.data() + buf.size(), x,
                                    std::chars_format::general, 17)
                          .ptr};
}

void expect_same_text(double x) {
  EXPECT_EQ(kernel_text(x), reference_text(x)) << std::hexfloat << x;
  EXPECT_EQ(kernel_text(-x), reference_text(-x)) << std::hexfloat << -x;
}

TEST(FormatReal, ThresholdsAreTheSmallestDoublesAtLeastEachPowerOfTen) {
  for (std::size_t i = 0; i < kDecimalThresholds.size(); ++i) {
    const int k = static_cast<int>(i) - 4;
    const double t = kDecimalThresholds[i];
    EXPECT_GE(compare_pow10(t, k), 0) << "10^" << k;
    EXPECT_LT(compare_pow10(std::nextafter(t, 0.0), k), 0) << "10^" << k;
  }
}

/// The kernel's no-carry premise: the double below 10^(E+1) -- the
/// threshold's predecessor -- rounds to fewer than 10^17 at 17
/// significant digits, i.e. x 10^(16-E) < 10^17 - 1/2, for every decade
/// E the kernel prints and the one below it.
TEST(FormatReal, SeventeenDigitRoundingNeverCarriesIntoTheNextDecade) {
  const u128 limit = 2 * pow_u128(10, 17) - 1;
  for (std::size_t i = 0; i < kDecimalThresholds.size(); ++i) {
    const int decade = static_cast<int>(i) - 5;  // below 10^(decade + 1)
    const Dyadic d = dyadic(std::nextafter(kDecimalThresholds[i], 0.0));
    // 2 m 2^e 10^(16 - decade) against 2 10^17 - 1.
    EXPECT_LT(compare_scaled(2 * d.m * pow_u128(5, 16 - decade),
                             d.e + 16 - decade, limit),
              0)
        << "decade " << decade;
  }
}

/// Every x = j 2^(E-17) with j odd lies exactly halfway between two
/// 17-digit decimals of decade E; consecutive odd j alternate the parity
/// of the digit the tie rounds to.  Ties exist in each binade [2^b,
/// 2^(b+1)) whose ulp 2^(b-52) is at most 2^(E-17): b = -13..50 here.
TEST(FormatReal, TiesRoundHalfToEvenInEveryBinadeThatHasThem) {
  EXPECT_EQ(kernel_text(1125899906842624.25), "1125899906842624.2");
  EXPECT_EQ(kernel_text(1125899906842624.75), "1125899906842624.8");
  int first = 100;
  int last = -100;
  for (int b = -13; b < 56; ++b) {
    for (int k = -4; k <= 16; ++k) {
      if (b - 52 > k - 17) continue;  // the binade's ulp is too coarse
      const double lo = std::max(std::ldexp(1.0, b),
                                 kDecimalThresholds[static_cast<std::size_t>(
                                     k + 4)]);
      const double hi = std::min(std::ldexp(1.0, b + 1),
                                 kDecimalThresholds[static_cast<std::size_t>(
                                     k + 5)]);
      if (!(lo < hi)) continue;
      const auto j0 = static_cast<std::uint64_t>(std::ldexp(lo, 17 - k)) | 1;
      const auto j1 = static_cast<std::uint64_t>(std::ldexp(hi, 17 - k)) | 1;
      for (const std::uint64_t j : {j0 + 2, j0 + 4, j1 - 4, j1 - 2}) {
        // Exact: j < 2^(b + 18 - k) <= 2^53.
        const double x = std::ldexp(static_cast<double>(j), k - 17);
        if (!(lo <= x && x < hi)) continue;
        expect_same_text(x);
        first = std::min(first, b);
        last = std::max(last, b);
      }
    }
  }
  EXPECT_EQ(first, -13);
  EXPECT_EQ(last, 50);
}

TEST(FormatReal, MatchesToCharsAroundEveryThreshold) {
  for (const double t : kDecimalThresholds) {
    double below = t;
    double above = t;
    expect_same_text(t);
    for (int i = 0; i < 64; ++i) {
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, std::numeric_limits<double>::infinity());
      expect_same_text(below);
      expect_same_text(above);
    }
  }
  // The fallback's classes and the longest fixed-notation text.
  for (const double x : {0.0, std::numeric_limits<double>::denorm_min(),
                         std::numeric_limits<double>::min(),
                         std::numeric_limits<double>::max(),
                         std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN(),
                         0.00012345678901234567, 288076.9976069458}) {
    expect_same_text(x);
  }
  EXPECT_EQ(kernel_text(-0.00012345678901234567), "-0.00012345678901234567");
}

}  // namespace
}  // namespace oneport
