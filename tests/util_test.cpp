#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/args.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "util/text_reader.hpp"

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

TEST(Args, NonNumericValuesFallBackToZero) {
  const char* argv[] = {"prog", "--n=abc", "--x=xyz"};
  const Args args(3, argv);
  // std::atoi / std::atof semantics: unparsable -> 0 (not the fallback).
  EXPECT_EQ(args.get_int("n", 5), 0);
  EXPECT_DOUBLE_EQ(args.get_double("x", 5.0), 0.0);
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

}  // namespace
}  // namespace oneport
