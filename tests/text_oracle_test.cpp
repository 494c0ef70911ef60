// Byte-for-byte pin of the library's text writers against the iostream
// writers they replaced (tests/support/reference_text.hpp): schedules and
// graphs of the frozen-oracle rotation, outputs spanning many chunks, and
// a number corpus -- IEEE corner values, the %g exponent switch points,
// rounding ties, and seeded random bit patterns -- through the %.17g path
// and csv::format_number.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/heft.hpp"
#include "graph/dot_export.hpp"
#include "graph/dot_import.hpp"
#include "sched/serialize.hpp"
#include "support/frozen_oracle.hpp"
#include "support/number_corpus.hpp"
#include "support/reference_text.hpp"
#include "testbeds/testbeds.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/text_writer.hpp"

namespace oneport {
namespace {

using testsupport::frozen_registry;
using testsupport::frozen_static_scenarios;
namespace reftext = testsupport::reftext;

template <typename Write>
std::string render(Write&& write) {
  std::ostringstream os;
  write(os);
  return std::move(os).str();
}

/// Production and reference output of every graph writer on `g`.
void expect_graph_bytes_match(const TaskGraph& g, const std::string& tag) {
  for (const DotOptions& options :
       {DotOptions{}, DotOptions{.graph_name = "g", .show_weights = false},
        DotOptions{.max_tasks = g.num_tasks() / 2},
        DotOptions{.max_tasks = g.num_tasks()}}) {
    EXPECT_EQ(render([&](std::ostream& os) { write_dot(os, g, options); }),
              render([&](std::ostream& os) {
                reftext::write_dot(os, g, options);
              }))
        << tag << " write_dot max_tasks=" << options.max_tasks;
  }
  EXPECT_EQ(render([&](std::ostream& os) {
              write_json_graph(os, g, {.graph_name = "j\"s\\n"});
            }),
            render([&](std::ostream& os) {
              reftext::write_json_graph(os, g, {.graph_name = "j\"s\\n"});
            }))
      << tag << " write_json_graph";
}

void expect_schedule_bytes_match(const Schedule& s, const std::string& tag) {
  EXPECT_EQ(render([&](std::ostream& os) { write_schedule(os, s); }),
            render([&](std::ostream& os) { reftext::write_schedule(os, s); }))
      << tag;
}

TEST(TextOracle, FrozenRotationSchedulesAndGraphsMatch) {
  std::size_t schedules = 0;
  for (const testsupport::Scenario& scenario : frozen_static_scenarios()) {
    expect_graph_bytes_match(scenario.graph, scenario.description);
    for (const SchedulerEntry& entry : frozen_registry(scenario)) {
      expect_schedule_bytes_match(
          entry.run(scenario.graph, scenario.platform),
          scenario.description + "/" + entry.name);
      ++schedules;
    }
  }
  EXPECT_EQ(schedules, 27u * 11u);
}

TEST(TextOracle, OutputsSpanningManyChunksMatch) {
  // ~20k tasks: megabytes of schedule text, far past one chunk.
  testbeds::RandomDagOptions opt;
  opt.layers = 2500;
  opt.max_width = 15;
  opt.comm_ratio = 5.0;
  opt.seed = 77;
  const TaskGraph big = testbeds::make_random_layered(opt);
  const Platform platform = make_paper_platform();
  expect_graph_bytes_match(big, "random-layered-20k");
  expect_schedule_bytes_match(
      heft(big, platform, {.model = CommModel::kOnePort}),
      "random-layered-20k/heft-oneport");

  // Names longer than a chunk, and characters the JSON writer escapes.
  TaskGraph named;
  named.add_task(1.25, std::string(40000, 'x'));
  named.add_task(2.5, "quote\"back\\slash\nnewline");
  named.add_task(0.0);
  named.add_edge(0, 1, 3.75);
  named.add_edge(0, 2, 1e-9);
  named.finalize();
  expect_graph_bytes_match(named, "long-names");
}

/// Every `values` entry through TextWriter::put_real and through the
/// iostream at precision 17, one per line; on a mismatch, the first
/// differing value.
void expect_real_bytes_match(const std::vector<double>& values) {
  std::ostringstream produced;
  TextWriter out(produced);
  std::ostringstream expected;
  expected << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (const double x : values) {
    out.put_real(x);
    out.put('\n');
    expected << x << '\n';
  }
  out.flush();
  if (produced.str() == expected.str()) return;
  std::istringstream a(produced.str());
  std::istringstream b(expected.str());
  std::string line_a, line_b;
  for (const double x : values) {
    std::getline(a, line_a);
    std::getline(b, line_b);
    ASSERT_EQ(line_a, line_b) << "bits 0x" << std::hex
                              << std::bit_cast<std::uint64_t>(x);
  }
}

/// csv::format_number against the reference format_number at the digit
/// counts the library uses, and TextWriter::put_number (the exporters'
/// path) against csv::format_number.
void expect_fixed_bytes_match(std::span<const double> values) {
  for (const int digits : {0, 1, 3, 4}) {
    std::size_t mismatches = 0;
    for (const double x : values) {
      const std::string want = reftext::format_number(x, digits);
      const std::string got = csv::format_number(x, digits);
      if (got != want && ++mismatches <= 5) {
        ADD_FAILURE() << "digits " << digits << " bits 0x" << std::hex
                      << std::bit_cast<std::uint64_t>(x) << ": '" << got
                      << "' != '" << want << "'";
      }
    }
    EXPECT_EQ(mismatches, 0u) << "digits " << digits;
  }
  std::ostringstream produced;
  TextWriter out(produced);
  std::string expected;
  for (const double x : values) {
    out.put_number(x);
    out.put('\n');
    expected += csv::format_number(x);
    expected += '\n';
  }
  out.flush();
  EXPECT_TRUE(produced.str() == expected) << "TextWriter::put_number";
}

TEST(TextOracle, CornerValuesMatch) {
  const std::vector<double> values = testsupport::corner_values();
  expect_real_bytes_match(values);
  expect_fixed_bytes_match(values);
}

TEST(TextOracle, RandomBitPatternsMatch) {
  constexpr std::size_t kPatterns = 1'000'000;
  SplitMix64 bits(20261017);
  std::vector<double> raw(kPatterns);
  for (double& x : raw) x = std::bit_cast<double>(bits());
  // Raw patterns are almost all astronomically large or small; these
  // keep random sign and mantissa bits but draw the exponent within
  // +-2^40, where schedule times and format_number's rounding live.
  std::vector<double> moderate(kPatterns);
  for (double& x : moderate) {
    const std::uint64_t b = bits();
    const std::uint64_t exponent = 1023 - 40 + (b >> 52) % 81;
    x = std::bit_cast<double>((b & 0x800fffffffffffffULL) | (exponent << 52));
  }
  expect_real_bytes_match(raw);
  expect_real_bytes_match(moderate);
  expect_fixed_bytes_match(moderate);
  // In fixed notation a raw pattern prints as "0" or as up to 309
  // integer digits, which the reference renders ~10x slower: a sample.
  expect_fixed_bytes_match(std::span<const double>(raw).first(50'000));
}

}  // namespace
}  // namespace oneport
