// Differential pin of the readers -- import_dot, import_json (through
// import_task_graph) and read_schedule -- against the readers they
// replaced (tests/support/reference_import.hpp):
//   * seeded random DAGs and every registered testbed, in both formats;
//   * every proper prefix and every byte flip of one DOT, one JSON and one
//     schedule document;
//   * the number corpus of text_oracle_test in weight, data and time
//     fields, rendered as the writers render numbers (%.17g and
//     csv::format_number).
// A graph input must give the oracle's graph bit for bit, or the oracle's
// ImportError kind and message.  A schedule input must give the oracle's
// schedule bit for bit, or a rejection where the oracle rejects (the
// oracle's rejection is an untyped std::invalid_argument); where the
// oracle accepts bytes outside the strict schedule grammar, the new
// reader must reject them.  Nothing but ImportError may escape.  The
// deliberate verdict changes are pinned one by one at the end.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/heft.hpp"
#include "graph/dot_export.hpp"
#include "graph/dot_import.hpp"
#include "sched/serialize.hpp"
#include "support/number_corpus.hpp"
#include "support/reference_import.hpp"
#include "testbeds/registry.hpp"
#include "testbeds/testbeds.hpp"
#include "util/csv.hpp"
#include "util/text_writer.hpp"

namespace oneport {
namespace {

namespace ref = testsupport::refimport;
using Kind = ImportError::Kind;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string to_dot(const TaskGraph& g, const std::string& name) {
  std::ostringstream os;
  write_dot(os, g, {.graph_name = name, .max_tasks = g.num_tasks()});
  return os.str();
}

std::string to_json(const TaskGraph& g, const std::string& name) {
  std::ostringstream os;
  write_json_graph(os, g, {.graph_name = name});
  return os.str();
}

/// "" when the two imports are the same graph bit for bit, else the first
/// difference.
std::string graph_difference(const ImportedGraph& a, const ImportedGraph& b) {
  if (a.graph_name != b.graph_name) return "graph name";
  if (a.graph.num_tasks() != b.graph.num_tasks() ||
      a.graph.num_edges() != b.graph.num_edges()) {
    return "shape";
  }
  for (TaskId v = 0; v < a.graph.num_tasks(); ++v) {
    const std::string at = " of task " + std::to_string(v);
    if (!same_bits(a.graph.weight(v), b.graph.weight(v))) return "weight" + at;
    if (a.graph.name(v) != b.graph.name(v)) return "name" + at;
    for (const bool succ : {true, false}) {
      const auto ea = succ ? a.graph.successors(v) : a.graph.predecessors(v);
      const auto eb = succ ? b.graph.successors(v) : b.graph.predecessors(v);
      if (ea.size() != eb.size()) return "degree" + at;
      for (std::size_t i = 0; i < ea.size(); ++i) {
        if (ea[i].task != eb[i].task || !same_bits(ea[i].data, eb[i].data)) {
          return "edge " + std::to_string(i) + at;
        }
      }
    }
  }
  return {};
}

/// One reader's answer: a graph, or the ImportError it threw.
struct GraphVerdict {
  std::optional<ImportedGraph> graph;
  Kind kind = Kind::kIo;
  std::string message;
};

template <typename Import>
GraphVerdict run_import(Import&& import, const std::string& text) {
  GraphVerdict verdict;
  try {
    verdict.graph = import(text);
  } catch (const ImportError& e) {
    verdict.kind = e.kind();
    verdict.message = e.what();
  }
  return verdict;
}

/// The production reader must answer `text` exactly as the oracle does.
/// Anything but an ImportError escaping either reader fails the test.
void expect_graph_matches_oracle(const std::string& text,
                                 const std::string& tag) {
  GraphVerdict got;
  try {
    got = run_import(import_task_graph, text);
  } catch (const std::exception& e) {
    FAIL() << tag << ": escaped with " << e.what();
  }
  const GraphVerdict want = run_import(ref::import_task_graph, text);
  if (want.graph && got.graph) {
    EXPECT_EQ(graph_difference(*want.graph, *got.graph), "") << tag;
  } else if (!want.graph && !got.graph) {
    EXPECT_EQ(got.kind, want.kind) << tag;
    EXPECT_EQ(got.message, want.message) << tag;
  } else {
    ADD_FAILURE() << tag << ": oracle "
                  << (want.graph ? "accepts" : want.message) << ", reader "
                  << (got.graph ? "accepts" : got.message);
  }
}

// ---------------------------------------------------------- schedules

/// True when every statement of `text` is in read_schedule's grammar as
/// iostreams see it: a "schedule v1" header and "task"/"comm" records of
/// exactly 4/6 fields, integers as bare digits, times as whole tokens
/// that extraction consumes, without a leading '+'.
bool in_strict_schedule_grammar(const std::string& text) {
  std::istringstream lines(text);
  std::string line;
  bool header = true;
  while (std::getline(lines, line)) {
    line.resize(std::min(line.find('#'), line.size()));
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    std::istringstream fields(line);
    std::vector<std::string> f;
    for (std::string word; fields >> word;) f.push_back(word);
    if (f.empty()) return false;
    if (header) {
      if (f != std::vector<std::string>{"schedule", "v1"}) return false;
      header = false;
      continue;
    }
    const std::size_t ints = f[0] == "task" ? 2 : f[0] == "comm" ? 4 : 0;
    if (ints == 0 || f.size() != 1 + ints + 2) return false;
    for (std::size_t i = 1; i < f.size(); ++i) {
      const std::string& w = f[i];
      if (i <= ints) {
        for (const char c : w) {
          if (std::isdigit(static_cast<unsigned char>(c)) == 0) return false;
        }
        continue;
      }
      std::istringstream number(w);
      double value = 0.0;
      number >> value;
      if (number.fail() || !number.eof() || w[0] == '+') return false;
    }
  }
  return true;
}

/// Read-back of `text` by the production reader and by the oracle; see
/// the file comment for the rule.  Returns true when the reader rejected
/// an input the oracle accepted (a deliberate change).
bool expect_schedule_matches_oracle(const std::string& text,
                                    const std::string& tag) {
  std::optional<Schedule> got;
  try {
    std::istringstream is(text);
    got = read_schedule(is);
  } catch (const ImportError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << tag << ": escaped with " << e.what();
    return false;
  }
  std::optional<Schedule> want;
  try {
    std::istringstream is(text);
    want = ref::read_schedule(is);
  } catch (const std::invalid_argument&) {
  }
  if (got) {
    EXPECT_TRUE(want && want->tasks() == got->tasks() &&
                want->comms() == got->comms())
        << tag << ": the reader accepts what the oracle "
        << (want ? "reads differently" : "rejects");
    return false;
  }
  if (!want) return false;
  EXPECT_FALSE(in_strict_schedule_grammar(text))
      << tag << ": the reader rejects a well-formed schedule";
  return true;
}

// ---------------------------------------------------------- documents

TaskGraph flip_graph() {
  testbeds::RandomDagOptions options;
  options.seed = 7;
  options.layers = 4;
  return testbeds::make_random_layered(options);
}

std::string schedule_document() {
  const TaskGraph g = testbeds::make_lu(4, 10.0);
  const Schedule s =
      heft(g, make_paper_platform(), {.model = CommModel::kOnePort});
  std::ostringstream os;
  write_schedule(os, s);
  return os.str();
}

/// ImportFuzz.ByteFlipsNeverEscape's replacement bytes.
constexpr char kReplacements[] = {'\0', '{', '}', 'n', '"', '-', '9', '\n'};

TEST(ImportOracle, SeededRandomDagsMatchInBothFormats) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    testbeds::RandomDagOptions options;
    options.seed = seed * 977;
    options.layers = 3 + static_cast<int>(seed % 6);
    options.max_width = 2 + static_cast<int>(seed % 5);
    const TaskGraph g = testbeds::make_random_layered(options);
    const std::string tag = "seed " + std::to_string(seed);
    expect_graph_matches_oracle(to_dot(g, "fuzz"), tag + " dot");
    expect_graph_matches_oracle(to_json(g, "fuzz"), tag + " json");
  }
}

TEST(ImportOracle, EveryRegisteredTestbedMatchesInBothFormats) {
  for (const auto& entry : testbeds::all_testbeds()) {
    const TaskGraph g = entry.make(6, testbeds::kPaperCommRatio);
    expect_graph_matches_oracle(to_dot(g, "bed"), entry.name + " dot");
    expect_graph_matches_oracle(to_json(g, "bed"), entry.name + " json");
  }
}

TEST(ImportOracle, GraphPrefixesAndByteFlipsMatch) {
  const TaskGraph g = flip_graph();
  for (const std::string& text : {to_dot(g, "flip"), to_json(g, "flip")}) {
    for (std::size_t cut = 0; cut < text.size(); ++cut) {
      expect_graph_matches_oracle(text.substr(0, cut),
                                  "prefix " + std::to_string(cut));
    }
    for (std::size_t i = 0; i < text.size(); ++i) {
      for (const char r : kReplacements) {
        std::string mutated = text;
        mutated[i] = r;
        expect_graph_matches_oracle(
            mutated, "flip at " + std::to_string(i) + " to " +
                         std::to_string(static_cast<int>(r)));
      }
    }
  }
}

TEST(ImportOracle, SchedulePrefixesAndByteFlipsMatch) {
  const std::string text = schedule_document();
  ASSERT_TRUE(in_strict_schedule_grammar(text));
  std::size_t deliberate = 0;
  for (std::size_t cut = 0; cut < text.size(); ++cut) {
    deliberate += expect_schedule_matches_oracle(
        text.substr(0, cut), "prefix " + std::to_string(cut));
  }
  for (std::size_t i = 0; i < text.size(); ++i) {
    for (const char r : kReplacements) {
      std::string mutated = text;
      mutated[i] = r;
      deliberate += expect_schedule_matches_oracle(
          mutated, "flip at " + std::to_string(i) + " to " +
                       std::to_string(static_cast<int>(r)));
    }
  }
  // The oracle read a field up to the first byte that could not continue
  // it and dropped the rest of the line; those inputs now fail.
  EXPECT_GT(deliberate, 0u);
}

/// The corpus as the writers render numbers: %.17g (put_real, schedules)
/// and csv::format_number (put_number, DOT and JSON).
std::vector<std::string> corner_tokens() {
  std::vector<std::string> tokens;
  for (const double x : testsupport::corner_values()) {
    std::ostringstream os;
    TextWriter out(os);
    out.put_real(x);
    out.flush();
    tokens.push_back(os.str());
    tokens.push_back(csv::format_number(x));
  }
  return tokens;
}

TEST(ImportOracle, NumberCorpusInWeightDataAndTimeFieldsMatches) {
  for (const std::string& x : corner_tokens()) {
    expect_graph_matches_oracle("digraph c {\n  n0 [label=\"a\\nw=" + x +
                                    "\"];\n  n1 [label=\"v1\\nw=1\"];\n"
                                    "  n0 -> n1 [label=\"2\"];\n}\n",
                                "dot weight " + x);
    expect_graph_matches_oracle("digraph c {\n  n0 [label=\"a\\nw=1\"];\n"
                                "  n1 [label=\"v1\\nw=1\"];\n"
                                "  n0 -> n1 [label=\"" +
                                    x + "\"];\n}\n",
                                "dot data " + x);
    expect_graph_matches_oracle(
        "{\"name\": \"c\", \"tasks\": [{\"id\": 0, \"w\": " + x +
            "}, {\"id\": 1, \"w\": 1}], \"edges\": [{\"src\": 0, \"dst\": 1, "
            "\"data\": 2}]}",
        "json weight " + x);
    expect_graph_matches_oracle(
        "{\"name\": \"c\", \"tasks\": [{\"id\": 0, \"w\": 1}, {\"id\": 1, "
        "\"w\": 1}], \"edges\": [{\"src\": 0, \"dst\": 1, \"data\": " +
            x + "}]}",
        "json data " + x);
    EXPECT_FALSE(expect_schedule_matches_oracle(
        "schedule v1\ntask 0 0 " + x + " " + x + "\n", "task times " + x));
    EXPECT_FALSE(expect_schedule_matches_oracle(
        "schedule v1\ntask 0 0 0 1\ntask 1 1 0 1\ncomm 0 1 0 1 " + x + " " +
            x + "\n",
        "comm times " + x));
  }
}

TEST(ImportOracle, LoadTaskGraphLetsOnlyImportErrorsOut) {
  const std::string path = ::testing::TempDir() + "import_oracle_bad.dot";
  {
    std::ofstream out(path, std::ios::binary);
    out << "digraph d {\n  n0 [label=\"a\\nw=+1\"];\n}\n";
  }
  try {
    (void)load_task_graph(path);
    FAIL() << "accepted";
  } catch (const ImportError& e) {
    EXPECT_EQ(e.kind(), Kind::kBadWeight);
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
  std::remove(path.c_str());
}

// ------------------------------------------------ deliberate changes

/// The production reader's rejection of `text`; fails when it accepts.
ImportError rejection(const std::string& text) {
  try {
    (void)import_task_graph(text);
  } catch (const ImportError& e) {
    return e;
  }
  ADD_FAILURE() << "accepted:\n" << text;
  return ImportError(Kind::kIo, "accepted");
}

std::string dot_with_weight(const std::string& w) {
  return "digraph d {\n  n0 [label=\"a\\nw=" + w + "\"];\n}\n";
}

std::string json_with_weight(const std::string& w) {
  return "{\"name\": \"d\", \"tasks\": [{\"id\": 0, \"w\": " + w +
         "}], \"edges\": []}";
}

double oracle_weight(const std::string& text) {
  return ref::import_task_graph(text).graph.weight(0);
}

Kind schedule_kind(const std::string& text) {
  std::istringstream is(text);
  try {
    (void)read_schedule(is);
  } catch (const ImportError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "accepted:\n" << text;
  return Kind::kIo;
}

Schedule oracle_schedule(const std::string& text) {
  std::istringstream is(text);
  return ref::read_schedule(is);
}

TEST(ImportDeliberateChange, LeadingPlusIsBadWeight) {
  for (const std::string& text :
       {dot_with_weight("+1.5"), json_with_weight("+1.5")}) {
    EXPECT_EQ(oracle_weight(text), 1.5);
    EXPECT_EQ(rejection(text).kind(), Kind::kBadWeight) << text;
  }
  const std::string sched = "schedule v1\ntask 0 0 +0 1\n";
  EXPECT_EQ(oracle_schedule(sched).task(0).start, 0.0);
  EXPECT_EQ(schedule_kind(sched), Kind::kBadWeight);
  // An integer field takes no sign either.
  for (const char* id : {"+0", "-0"}) {
    const std::string signed_id =
        std::string("schedule v1\ntask ") + id + " 0 0 1\n";
    EXPECT_EQ(oracle_schedule(signed_id).num_tasks(), 1u);
    EXPECT_EQ(schedule_kind(signed_id), Kind::kSyntax) << id;
  }
}

TEST(ImportDeliberateChange, LeadingBlanksAreBadWeight) {
  for (const char* blanks : {" ", "\t", "  "}) {
    const std::string text = dot_with_weight(std::string(blanks) + "1.5");
    EXPECT_EQ(oracle_weight(text), 1.5);
    EXPECT_EQ(rejection(text).kind(), Kind::kBadWeight);
  }
  const std::string data =
      "digraph d {\n  n0 [label=\"a\\nw=1\"];\n  n1 [label=\"b\\nw=1\"];\n"
      "  n0 -> n1 [label=\" 2\"];\n}\n";
  EXPECT_EQ(ref::import_task_graph(data).graph.edge_data(0, 1), 2.0);
  EXPECT_EQ(rejection(data).kind(), Kind::kBadWeight);
}

TEST(ImportDeliberateChange, HexIsBadWeight) {
  const std::string text = dot_with_weight("0x1p3");
  EXPECT_EQ(oracle_weight(text), 8.0);
  const ImportError e = rejection(text);
  EXPECT_EQ(e.kind(), Kind::kBadWeight);
  EXPECT_NE(std::string(e.what()).find("'0x1p3' is not a number"),
            std::string::npos)
      << e.what();
  // The schedule oracle read "0" and dropped "x1p3".
  const std::string sched = "schedule v1\ntask 0 0 0 0x1p3\n";
  EXPECT_EQ(oracle_schedule(sched).task(0).finish, 0.0);
  EXPECT_EQ(schedule_kind(sched), Kind::kBadWeight);
}

TEST(ImportDeliberateChange, OutOfRangeIsBadWeight) {
  for (const std::string& text :
       {dot_with_weight("1e-400"), json_with_weight("1e-400")}) {
    EXPECT_EQ(oracle_weight(text), 0.0);
    const ImportError e = rejection(text);
    EXPECT_EQ(e.kind(), Kind::kBadWeight);
    EXPECT_NE(std::string(e.what()).find("outside the range"),
              std::string::npos)
        << e.what();
  }
  // Already rejected (as not finite); only the message changed.
  for (const std::string& text :
       {dot_with_weight("1e400"), json_with_weight("1e400")}) {
    try {
      (void)ref::import_task_graph(text);
      ADD_FAILURE() << "oracle accepted " << text;
    } catch (const ImportError& e) {
      EXPECT_EQ(e.kind(), Kind::kBadWeight);
    }
    EXPECT_EQ(rejection(text).kind(), Kind::kBadWeight);
  }
  const std::string sched = "schedule v1\ntask 0 0 0 1e-400\n";
  EXPECT_EQ(oracle_schedule(sched).task(0).finish, 0.0);
  EXPECT_EQ(schedule_kind(sched), Kind::kBadWeight);
}

TEST(ImportDeliberateChange, SubnormalsAndNegativeZeroKeepTheirValue) {
  for (const char* w : {"4.9406564584124654e-324", "2.2250738585072009e-308",
                        "-0", "0"}) {
    for (const std::string& text :
         {dot_with_weight(w), json_with_weight(w)}) {
      const double want = oracle_weight(text);
      EXPECT_TRUE(same_bits(import_task_graph(text).graph.weight(0), want))
          << text;
    }
  }
  const std::string sched =
      "schedule v1\ntask 0 0 -0 4.9406564584124654e-324\n";
  std::istringstream is(sched);
  EXPECT_EQ(read_schedule(is).tasks(), oracle_schedule(sched).tasks());
}

TEST(ImportDeliberateChange, RepeatedJsonKeysAreSyntaxErrors) {
  const std::string task_w =
      "{\"name\": \"d\", \"tasks\": [{\"id\": 0, \"w\": 1, \"w\": 5}], "
      "\"edges\": []}";
  EXPECT_EQ(oracle_weight(task_w), 5.0);
  const ImportError e = rejection(task_w);
  EXPECT_EQ(e.kind(), Kind::kSyntax);
  EXPECT_NE(std::string(e.what()).find("repeated key 'w' (offset 42)"),
            std::string::npos)
      << e.what();

  const std::string task_id =
      "{\"name\": \"d\", \"tasks\": [{\"id\": 1, \"id\": 0, \"w\": 1}], "
      "\"edges\": []}";
  EXPECT_EQ(ref::import_task_graph(task_id).graph.num_tasks(), 1u);
  EXPECT_EQ(rejection(task_id).kind(), Kind::kSyntax);

  const std::string edge_data =
      "{\"name\": \"d\", \"tasks\": [{\"id\": 0, \"w\": 1}, {\"id\": 1, "
      "\"w\": 1}], \"edges\": [{\"src\": 0, \"dst\": 1, \"data\": 1, "
      "\"data\": 4}]}";
  EXPECT_EQ(ref::import_task_graph(edge_data).graph.edge_data(0, 1), 4.0);
  EXPECT_EQ(rejection(edge_data).kind(), Kind::kSyntax);

  const std::string two_names =
      "{\"name\": \"a\", \"name\": \"b\", \"tasks\": [], \"edges\": []}";
  EXPECT_EQ(ref::import_task_graph(two_names).graph_name, "b");
  EXPECT_NE(std::string(rejection(two_names).what()).find("'name'"),
            std::string::npos);

  const std::string two_task_arrays =
      "{\"name\": \"a\", \"tasks\": [{\"id\": 0, \"w\": 1}], \"tasks\": "
      "[{\"id\": 1, \"w\": 1}], \"edges\": []}";
  EXPECT_EQ(ref::import_task_graph(two_task_arrays).graph.num_tasks(), 2u);
  EXPECT_EQ(rejection(two_task_arrays).kind(), Kind::kSyntax);
}

TEST(ImportDeliberateChange, JsonIdsParseAsIntegers) {
  const std::string text =
      "{\"name\": \"d\", \"tasks\": [{\"id\": 9007199254740993, \"w\": 1}], "
      "\"edges\": []}";
  try {
    (void)ref::import_task_graph(text);
    ADD_FAILURE() << "oracle accepted";
  } catch (const ImportError& e) {
    EXPECT_NE(std::string(e.what()).find("9007199254740992"),
              std::string::npos)
        << e.what();
  }
  const ImportError e = rejection(text);
  EXPECT_EQ(e.kind(), Kind::kUnknownNode);
  EXPECT_NE(std::string(e.what()).find("node id 9007199254740993 "),
            std::string::npos)
      << e.what();
}

}  // namespace
}  // namespace oneport
