#include "support/reference_import.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <istream>
#include <sstream>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace oneport::testsupport::refimport {

namespace {

using Kind = ImportError::Kind;

[[noreturn]] void fail(Kind kind, const std::string& message) {
  throw ImportError(kind, std::string(import_error_kind_name(kind)) + ": " +
                              message);
}

/// Parsed node/edge staging area: the whole file is read and validated
/// before any TaskGraph is built, so a late error cannot leave a
/// half-imported graph behind.
struct Staging {
  std::string graph_name;
  // Node ids as declared; must form the dense range 0..N-1 once all are
  // in (the exporters only ever emit dense ids).
  std::vector<std::pair<std::uint64_t, std::pair<double, std::string>>> nodes;
  std::vector<std::pair<std::pair<std::uint64_t, std::uint64_t>, double>>
      edges;
};

/// Full-consumption double parse; rejects NaN/inf and anything strtod
/// leaves behind.  `what` names the field for the error message.
double parse_weight(const std::string& text, const char* what) {
  if (text.empty()) fail(Kind::kBadWeight, std::string(what) + " is empty");
  const char* begin = text.c_str();
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  if (end != begin + text.size()) {
    fail(Kind::kBadWeight,
         std::string(what) + " '" + text + "' is not a number");
  }
  if (!std::isfinite(value)) {
    fail(Kind::kBadWeight, std::string(what) + " '" + text +
                               "' is not finite (NaN/inf rejected)");
  }
  if (value < 0.0) {
    fail(Kind::kBadWeight, std::string(what) + " '" + text + "' is negative");
  }
  return value;
}

std::uint64_t parse_node_id(const std::string& text, const char* what) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos)
    fail(Kind::kSyntax, std::string(what) + " '" + text +
                            "' is not an unsigned node index");
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size())
    fail(Kind::kSyntax, std::string(what) + " '" + text + "' overflows");
  return value;
}

/// Builds the final graph from a fully-parsed staging area, enforcing
/// the structural rules shared by both formats: dense ids, no
/// duplicates, no dangling edges, no self-loops, acyclic.
ImportedGraph realize(Staging&& staged) {
  const std::size_t n = staged.nodes.size();
  std::vector<bool> seen(n, false);
  std::vector<std::pair<double, std::string>> by_id(n);
  for (auto& [id, payload] : staged.nodes) {
    if (id >= n) {
      fail(Kind::kUnknownNode,
           "node id " + std::to_string(id) + " is outside the dense range 0.." +
               std::to_string(n == 0 ? 0 : n - 1) +
               " (missing declarations?)");
    }
    if (seen[static_cast<std::size_t>(id)]) {
      fail(Kind::kDuplicateNode,
           "node id " + std::to_string(id) + " declared twice");
    }
    seen[static_cast<std::size_t>(id)] = true;
    by_id[static_cast<std::size_t>(id)] = std::move(payload);
  }

  TaskGraph graph;
  for (std::size_t v = 0; v < n; ++v) {
    graph.add_task(by_id[v].first, std::move(by_id[v].second));
  }
  for (const auto& [endpoints, data] : staged.edges) {
    const auto [src, dst] = endpoints;
    if (src >= n || dst >= n) {
      fail(Kind::kUnknownNode,
           "edge " + std::to_string(src) + "->" + std::to_string(dst) +
               " references an undeclared node");
    }
    if (src == dst) {
      fail(Kind::kDuplicateEdge,
           "self-loop on node " + std::to_string(src));
    }
    const auto s = static_cast<TaskId>(src);
    const auto d = static_cast<TaskId>(dst);
    if (graph.has_edge(s, d)) {
      fail(Kind::kDuplicateEdge, "edge " + std::to_string(src) + "->" +
                                     std::to_string(dst) + " declared twice");
    }
    graph.add_edge(s, d, data);
  }
  try {
    graph.finalize();
  } catch (const std::invalid_argument& e) {
    fail(Kind::kCycle, e.what());
  }
  return {std::move(graph), std::move(staged.graph_name)};
}

// --------------------------------------------------------------- DOT

/// Strips leading/trailing spaces and tabs.
std::string trimmed(const std::string& line) {
  const std::size_t first = line.find_first_not_of(" \t\r");
  if (first == std::string::npos) return {};
  const std::size_t last = line.find_last_not_of(" \t\r");
  return line.substr(first, last - first + 1);
}

/// True when `text` looks like the exporter's canonical placeholder for
/// an unnamed task: "v<id>".  Importing it as the empty name makes
/// export -> import the identity on unnamed tasks (and stays
/// re-export-stable for tasks literally named "v<id>").
bool is_placeholder_name(const std::string& name, std::uint64_t id) {
  std::string expected("v");
  expected += std::to_string(id);
  return name == expected;
}

ImportedGraph import_dot_impl(const std::string& text) {
  std::istringstream in(text);
  Staging staged;
  std::string line;
  bool saw_header = false;
  bool saw_close = false;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string t = trimmed(line);
    const std::string where = " (line " + std::to_string(line_no) + ")";
    if (t.empty()) continue;
    if (!saw_header) {
      if (t.rfind("digraph ", 0) != 0 || t.back() != '{') {
        fail(Kind::kSyntax, "expected 'digraph <name> {' header" + where);
      }
      staged.graph_name = trimmed(t.substr(8, t.size() - 9));
      if (staged.graph_name.empty()) {
        fail(Kind::kSyntax, "digraph name is empty" + where);
      }
      saw_header = true;
      continue;
    }
    if (saw_close) fail(Kind::kSyntax, "content after closing '}'" + where);
    if (t == "}") {
      saw_close = true;
      continue;
    }
    // Style lines the exporter emits; carry no graph content.
    if (t == "rankdir=TB;" || t == "node [shape=circle];") continue;
    if (t.rfind("// truncated", 0) == 0) {
      fail(Kind::kTruncatedDump,
           "the exporter truncated this dump; it cannot be reimported" +
               where);
    }
    if (t.rfind("//", 0) == 0) continue;  // other comments are inert
    if (t.rfind('n', 0) != 0) {
      fail(Kind::kSyntax, "unrecognized statement '" + t + "'" + where);
    }
    const std::size_t arrow = t.find(" -> ");
    if (arrow == std::string::npos) {
      // Node statement: n<id> [label="<name>\nw=<weight>"];
      const std::string prefix = "[label=\"";
      const std::size_t lbracket = t.find(" [");
      if (lbracket == std::string::npos || t.rfind("\"];") != t.size() - 3) {
        fail(Kind::kSyntax, "malformed node statement '" + t + "'" + where);
      }
      if (t.compare(lbracket + 1, prefix.size(), prefix) != 0) {
        fail(Kind::kSyntax, "malformed node label in '" + t + "'" + where);
      }
      const std::uint64_t id =
          parse_node_id(t.substr(1, lbracket - 1), "node id");
      const std::string label = t.substr(lbracket + 1 + prefix.size(),
                                         t.size() - 3 -
                                             (lbracket + 1 + prefix.size()));
      const std::size_t wsep = label.rfind("\\nw=");
      if (wsep == std::string::npos) {
        fail(Kind::kSyntax, "node label '" + label +
                                "' carries no \\nw=<weight> field (export "
                                "with show_weights on)" +
                                where);
      }
      std::string name = label.substr(0, wsep);
      const double weight = parse_weight(label.substr(wsep + 4), "weight");
      if (is_placeholder_name(name, id)) name.clear();
      staged.nodes.push_back({id, {weight, std::move(name)}});
    } else {
      // Edge statement: n<a> -> n<b> [label="<data>"];
      const std::string rhs = t.substr(arrow + 4);
      const std::size_t lbracket = rhs.find(" [label=\"");
      if (lbracket == std::string::npos || rhs.rfind("\"];") != rhs.size() - 3 ||
          rhs.rfind('n', 0) != 0) {
        fail(Kind::kSyntax, "malformed edge statement '" + t + "'" + where);
      }
      const std::uint64_t src =
          parse_node_id(t.substr(1, arrow - 1), "edge source");
      const std::uint64_t dst =
          parse_node_id(rhs.substr(1, lbracket - 1), "edge target");
      const std::string data_text = rhs.substr(
          lbracket + 9, rhs.size() - 3 - (lbracket + 9));
      const double data = parse_weight(data_text, "edge data");
      staged.edges.push_back({{src, dst}, data});
    }
  }
  if (!saw_header) fail(Kind::kSyntax, "empty input: no digraph header");
  if (!saw_close) fail(Kind::kSyntax, "unterminated digraph: missing '}'");
  return realize(std::move(staged));
}

// --------------------------------------------------------------- JSON

/// Minimal recursive-descent parser for the restricted JSON the graph
/// exporter emits: objects, arrays, strings (\" and \\ escapes), and
/// plain numbers.  Any deviation is a typed syntax error with the byte
/// offset; there is no recovery and no extension.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  [[nodiscard]] ImportedGraph parse() {
    skip_ws();
    expect('{');
    Staging staged;
    bool saw_tasks = false;
    bool saw_edges = false;
    bool first = true;
    while (true) {
      skip_ws();
      if (peek() == '}') break;
      if (!first) {
        expect(',');
        skip_ws();
      }
      first = false;
      const std::string key = parse_string("object key");
      skip_ws();
      expect(':');
      skip_ws();
      if (key == "name") {
        staged.graph_name = parse_string("graph name");
      } else if (key == "tasks") {
        saw_tasks = true;
        parse_tasks(staged);
      } else if (key == "edges") {
        saw_edges = true;
        parse_edges(staged);
      } else {
        fail(Kind::kSyntax, "unknown key '" + key + "'" + at());
      }
    }
    expect('}');
    skip_ws();
    if (pos_ != text_.size()) fail(Kind::kSyntax, "content after root object" + at());
    if (staged.graph_name.empty()) {
      fail(Kind::kSyntax, "missing or empty \"name\"");
    }
    if (!saw_tasks || !saw_edges) {
      fail(Kind::kSyntax, "document needs both \"tasks\" and \"edges\"");
    }
    return realize(std::move(staged));
  }

 private:
  [[nodiscard]] std::string at() const {
    return " (offset " + std::to_string(pos_) + ")";
  }

  [[nodiscard]] char peek() const {
    if (pos_ >= text_.size()) fail(Kind::kSyntax, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(Kind::kSyntax, std::string("expected '") + c + "', got '" +
                              peek() + "'" + at());
    }
    ++pos_;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string parse_string(const char* what) {
    if (peek() != '"') {
      fail(Kind::kSyntax, std::string(what) + " must be a string" + at());
    }
    ++pos_;
    std::string out;
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (c == '\\') {
        const char esc = peek();
        ++pos_;
        if (esc == '"' || esc == '\\') {
          out += esc;
        } else if (esc == 'n') {
          out += '\n';
        } else {
          fail(Kind::kSyntax,
               std::string("unsupported escape '\\") + esc + "'" + at());
        }
      } else {
        out += c;
      }
    }
  }

  double parse_number(const char* what, Kind bad_kind) {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == 'n' ||
            text_[pos_] == 'a' || text_[pos_] == 'i' || text_[pos_] == 'f')) {
      ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    if (token.empty()) {
      fail(Kind::kSyntax, std::string(what) + " must be a number" + at());
    }
    if (bad_kind == Kind::kBadWeight) return parse_weight(token, what);
    // Node indices: reuse the shared id grammar.
    return static_cast<double>(parse_node_id(token, what));
  }

  void parse_tasks(Staging& staged) {
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return;
    }
    while (true) {
      expect('{');
      std::uint64_t id = 0;
      bool saw_id = false;
      double weight = 0.0;
      bool saw_weight = false;
      std::string name;
      bool first = true;
      while (true) {
        skip_ws();
        if (peek() == '}') break;
        if (!first) {
          expect(',');
          skip_ws();
        }
        first = false;
        const std::string key = parse_string("task key");
        skip_ws();
        expect(':');
        skip_ws();
        if (key == "id") {
          id = static_cast<std::uint64_t>(
              parse_number("task id", Kind::kSyntax));
          saw_id = true;
        } else if (key == "w") {
          weight = parse_number("task weight", Kind::kBadWeight);
          saw_weight = true;
        } else if (key == "name") {
          name = parse_string("task name");
        } else {
          fail(Kind::kSyntax, "unknown task key '" + key + "'" + at());
        }
      }
      expect('}');
      if (!saw_id || !saw_weight) {
        fail(Kind::kSyntax, "task entry needs \"id\" and \"w\"" + at());
      }
      staged.nodes.push_back({id, {weight, std::move(name)}});
      skip_ws();
      if (peek() == ']') break;
      expect(',');
      skip_ws();
    }
    expect(']');
  }

  void parse_edges(Staging& staged) {
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return;
    }
    while (true) {
      expect('{');
      std::uint64_t src = 0;
      std::uint64_t dst = 0;
      double data = 0.0;
      bool saw_src = false;
      bool saw_dst = false;
      bool saw_data = false;
      bool first = true;
      while (true) {
        skip_ws();
        if (peek() == '}') break;
        if (!first) {
          expect(',');
          skip_ws();
        }
        first = false;
        const std::string key = parse_string("edge key");
        skip_ws();
        expect(':');
        skip_ws();
        if (key == "src") {
          src = static_cast<std::uint64_t>(
              parse_number("edge src", Kind::kSyntax));
          saw_src = true;
        } else if (key == "dst") {
          dst = static_cast<std::uint64_t>(
              parse_number("edge dst", Kind::kSyntax));
          saw_dst = true;
        } else if (key == "data") {
          data = parse_number("edge data", Kind::kBadWeight);
          saw_data = true;
        } else {
          fail(Kind::kSyntax, "unknown edge key '" + key + "'" + at());
        }
      }
      expect('}');
      if (!saw_src || !saw_dst || !saw_data) {
        fail(Kind::kSyntax,
             "edge entry needs \"src\", \"dst\" and \"data\"" + at());
      }
      staged.edges.push_back({{src, dst}, data});
      skip_ws();
      if (peek() == ']') break;
      expect(',');
      skip_ws();
    }
    expect(']');
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

/// Reads lines, strips comments and blanks, and hands back one
/// whitespace-tokenized statement at a time.
class LineReader {
 public:
  explicit LineReader(std::istream& is) : is_(is) {}

  /// Next non-empty statement; false at EOF.
  bool next(std::istringstream& out) {
    std::string line;
    while (std::getline(is_, line)) {
      ++line_number_;
      const std::size_t hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      out = std::istringstream(line);
      return true;
    }
    return false;
  }

  [[nodiscard]] int line() const noexcept { return line_number_; }

 private:
  std::istream& is_;
  int line_number_ = 0;
};

}  // namespace

ImportedGraph import_dot(const std::string& text) {
  return import_dot_impl(text);
}

ImportedGraph import_json(const std::string& text) {
  return JsonParser(text).parse();
}

ImportedGraph import_task_graph(const std::string& text) {
  for (const char c : text) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') continue;
    return c == '{' ? import_json(text) : import_dot(text);
  }
  fail(Kind::kSyntax, "empty input");
}

Schedule read_schedule(std::istream& is) {
  LineReader reader(is);
  std::istringstream stmt;
  OP_REQUIRE(reader.next(stmt), "empty schedule stream");
  std::string word, version;
  stmt >> word >> version;
  OP_REQUIRE(word == "schedule" && version == "v1",
             "expected 'schedule v1' header");
  // Two passes over buffered statements: placements must exist before we
  // can size the Schedule, so collect first.
  struct TaskLine {
    TaskId id;
    ProcId proc;
    double start, finish;
  };
  std::vector<TaskLine> tasks;
  std::vector<CommPlacement> comms;
  while (reader.next(stmt)) {
    std::string kind;
    stmt >> kind;
    if (kind == "task") {
      TaskLine t{};
      stmt >> t.id >> t.proc >> t.start >> t.finish;
      OP_REQUIRE(!stmt.fail(), "malformed task at line " << reader.line());
      tasks.push_back(t);
    } else if (kind == "comm") {
      CommPlacement c;
      stmt >> c.src >> c.dst >> c.from >> c.to >> c.start >> c.finish;
      OP_REQUIRE(!stmt.fail(), "malformed comm at line " << reader.line());
      comms.push_back(c);
    } else {
      OP_REQUIRE(false, "unknown statement '" << kind << "' at line "
                                              << reader.line());
    }
  }
  Schedule schedule(tasks.size());
  for (const TaskLine& t : tasks) {
    schedule.place_task(t.id, t.proc, t.start, t.finish);
  }
  for (const CommPlacement& c : comms) schedule.add_comm(c);
  return schedule;
}

}  // namespace oneport::testsupport::refimport
