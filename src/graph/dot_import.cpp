#include "graph/dot_import.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/text_reader.hpp"
#include "util/text_writer.hpp"

namespace oneport {

namespace {

using Kind = ImportError::Kind;

[[noreturn]] void fail(Kind kind, const std::string& message) {
  throw_import_error(kind, message);
}

/// `head` + " '" + `text` + "'" + `tail`, for messages quoting input.
std::string quoted(std::string_view head, std::string_view text,
                   std::string_view tail) {
  std::string out(head);
  out += " '";
  out += text;
  out += '\'';
  out += tail;
  return out;
}

struct StagedNode {
  std::uint64_t id;
  double weight;
  std::string name;
};

struct StagedEdge {
  std::uint64_t src;
  std::uint64_t dst;
  double data;
};

/// Parsed node/edge staging area: the whole file is read and validated
/// before any TaskGraph is built, so a late error cannot leave a
/// half-imported graph behind.
struct Staging {
  std::string graph_name;
  // Node ids as declared; must form the dense range 0..N-1 once all are
  // in (the exporters only ever emit dense ids).
  std::vector<StagedNode> nodes;
  std::vector<StagedEdge> edges;
};

/// A weight or data volume: the whole token as a finite, non-negative
/// double.  `what` names the field for the error message.
double parse_weight(std::string_view text, const char* what) {
  if (text.empty()) fail(Kind::kBadWeight, std::string(what) + " is empty");
  double value = 0.0;
  switch (parse_real(text, value)) {
    case NumberStatus::kOk:
      break;
    case NumberStatus::kNotANumber:
      fail(Kind::kBadWeight, quoted(what, text, " is not a number"));
    case NumberStatus::kOutOfRange:
      fail(Kind::kBadWeight,
           quoted(what, text, " is outside the range of a double"));
  }
  if (!std::isfinite(value)) {
    fail(Kind::kBadWeight,
         quoted(what, text, " is not finite (NaN/inf rejected)"));
  }
  if (value < 0.0) fail(Kind::kBadWeight, quoted(what, text, " is negative"));
  return value;
}

std::uint64_t parse_node_id(std::string_view text, const char* what) {
  std::uint64_t value = 0;
  switch (parse_index(text, value)) {
    case NumberStatus::kOk:
      break;
    case NumberStatus::kNotANumber:
      fail(Kind::kSyntax,
           quoted(what, text, " is not an unsigned node index"));
    case NumberStatus::kOutOfRange:
      fail(Kind::kSyntax, quoted(what, text, " overflows"));
  }
  return value;
}

/// Builds the final graph from a fully-parsed staging area, enforcing
/// the structural rules shared by both formats: dense ids, no
/// duplicates, no dangling edges, no self-loops, acyclic.
ImportedGraph realize(Staging&& staged) {
  const std::size_t n = staged.nodes.size();
  constexpr std::size_t kUnseen = static_cast<std::size_t>(-1);
  // slot[id] = index of the node's declaration in staged.nodes.
  std::vector<std::size_t> slot(n, kUnseen);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t id = staged.nodes[i].id;
    if (id >= n) {
      fail(Kind::kUnknownNode,
           "node id " + std::to_string(id) + " is outside the dense range 0.." +
               std::to_string(n == 0 ? 0 : n - 1) +
               " (missing declarations?)");
    }
    if (slot[static_cast<std::size_t>(id)] != kUnseen) {
      fail(Kind::kDuplicateNode,
           "node id " + std::to_string(id) + " declared twice");
    }
    slot[static_cast<std::size_t>(id)] = i;
  }

  TaskGraph graph;
  for (std::size_t v = 0; v < n; ++v) {
    StagedNode& node = staged.nodes[slot[v]];
    graph.add_task(node.weight, std::move(node.name));
  }
  for (const StagedEdge& edge : staged.edges) {
    if (edge.src >= n || edge.dst >= n) {
      fail(Kind::kUnknownNode,
           "edge " + std::to_string(edge.src) + "->" +
               std::to_string(edge.dst) + " references an undeclared node");
    }
    if (edge.src == edge.dst) {
      fail(Kind::kDuplicateEdge,
           "self-loop on node " + std::to_string(edge.src));
    }
    try {
      graph.add_edge(static_cast<TaskId>(edge.src),
                     static_cast<TaskId>(edge.dst), edge.data);
    } catch (const std::invalid_argument&) {
      // The checks above, and parse_weight's, leave a repeated edge as
      // add_edge's only rejection; its own lookup is the one scan.
      fail(Kind::kDuplicateEdge, "edge " + std::to_string(edge.src) + "->" +
                                     std::to_string(edge.dst) +
                                     " declared twice");
    }
  }
  try {
    graph.finalize();
  } catch (const std::invalid_argument& e) {
    fail(Kind::kCycle, e.what());
  }
  return {std::move(graph), std::move(staged.graph_name)};
}

// --------------------------------------------------------------- DOT

/// True when `name` is the exporter's canonical placeholder for an
/// unnamed task: "v<id>".  Importing it as the empty name makes
/// export -> import the identity on unnamed tasks (and stays
/// re-export-stable for tasks literally named "v<id>").
bool is_placeholder_name(std::string_view name, std::uint64_t id) {
  if (name.empty() || name.front() != 'v') return false;
  char digits[20];
  const char* const end = std::to_chars(digits, digits + 20, id).ptr;
  return name.substr(1) == std::string_view(digits, static_cast<std::size_t>(
                                                        end - digits));
}

/// One pass over the lines of write_dot's dialect.  The checks and their
/// order match the reference reader (tests/support/reference_import.cpp)
/// that import_oracle_test holds this one to: a malformed input gets the
/// same ImportError kind and message.
ImportedGraph import_dot_text(std::string_view text) {
  constexpr std::string_view kLabel = "[label=\"";
  TextReader in(text);
  Staging staged;
  bool saw_header = false;
  bool saw_close = false;
  std::string_view line;
  while (in.next_line(line)) {
    const std::string_view t = trim(line);
    if (t.empty()) continue;
    const auto where = [&in] {
      return " (line " + std::to_string(in.line_number()) + ")";
    };
    if (!saw_header) {
      if (!t.starts_with("digraph ") || t.back() != '{') {
        fail(Kind::kSyntax, "expected 'digraph <name> {' header" + where());
      }
      staged.graph_name = trim(t.substr(8, t.size() - 9));
      if (staged.graph_name.empty()) {
        fail(Kind::kSyntax, "digraph name is empty" + where());
      }
      saw_header = true;
      continue;
    }
    if (saw_close) fail(Kind::kSyntax, "content after closing '}'" + where());
    if (t == "}") {
      saw_close = true;
      continue;
    }
    // Style lines the exporter emits; carry no graph content.
    if (t == "rankdir=TB;" || t == "node [shape=circle];") continue;
    if (t.starts_with("// truncated")) {
      fail(Kind::kTruncatedDump,
           "the exporter truncated this dump; it cannot be reimported" +
               where());
    }
    if (t.starts_with("//")) continue;  // other comments are inert
    if (!t.starts_with('n')) {
      fail(Kind::kSyntax, quoted("unrecognized statement", t, where()));
    }
    // The suffix checks compare rfind with size() - 3, which wraps on
    // lines shorter than 3 bytes; the reference reader does the same.
    const std::size_t arrow = t.find(" -> ");
    if (arrow == std::string_view::npos) {
      // Node statement: n<id> [label="<name>\nw=<weight>"];
      const std::size_t lbracket = t.find(" [");
      if (lbracket == std::string_view::npos ||
          t.rfind("\"];") != t.size() - 3) {
        fail(Kind::kSyntax, quoted("malformed node statement", t, where()));
      }
      if (t.compare(lbracket + 1, kLabel.size(), kLabel) != 0) {
        fail(Kind::kSyntax, quoted("malformed node label in", t, where()));
      }
      const std::uint64_t id =
          parse_node_id(t.substr(1, lbracket - 1), "node id");
      const std::size_t label_at = lbracket + 1 + kLabel.size();
      const std::string_view label =
          t.substr(label_at, t.size() - 3 - label_at);
      const std::size_t wsep = label.rfind("\\nw=");
      if (wsep == std::string_view::npos) {
        fail(Kind::kSyntax,
             quoted("node label", label,
                    " carries no \\nw=<weight> field (export with "
                    "show_weights on)" +
                        where()));
      }
      std::string_view name = label.substr(0, wsep);
      const double weight = parse_weight(label.substr(wsep + 4), "weight");
      if (is_placeholder_name(name, id)) name = {};
      staged.nodes.push_back({id, weight, std::string(name)});
    } else {
      // Edge statement: n<a> -> n<b> [label="<data>"];
      const std::string_view rhs = t.substr(arrow + 4);
      const std::size_t lbracket = rhs.find(" [label=\"");
      if (lbracket == std::string_view::npos ||
          rhs.rfind("\"];") != rhs.size() - 3 || !rhs.starts_with('n')) {
        fail(Kind::kSyntax, quoted("malformed edge statement", t, where()));
      }
      const std::uint64_t src =
          parse_node_id(t.substr(1, arrow - 1), "edge source");
      const std::uint64_t dst =
          parse_node_id(rhs.substr(1, lbracket - 1), "edge target");
      const double data = parse_weight(
          rhs.substr(lbracket + 9, rhs.size() - 3 - (lbracket + 9)),
          "edge data");
      staged.edges.push_back({src, dst, data});
    }
  }
  if (!saw_header) fail(Kind::kSyntax, "empty input: no digraph header");
  if (!saw_close) fail(Kind::kSyntax, "unterminated digraph: missing '}'");
  return realize(std::move(staged));
}

// --------------------------------------------------------------- JSON

/// Recursive-descent parser for the restricted JSON the graph exporter
/// emits: objects, arrays, strings (\", \\ and \n escapes), and plain
/// numbers.  Any deviation is a typed syntax error with the byte offset;
/// there is no recovery and no extension.  Keys and numbers are views
/// into the text; only names become strings.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  [[nodiscard]] ImportedGraph parse() {
    skip_ws();
    expect('{');
    Staging staged;
    bool saw_name = false;
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
      const std::size_t key_at = pos_;
      const std::string_view key = scan_string("object key");
      skip_ws();
      expect(':');
      skip_ws();
      if (key == "name") {
        once(saw_name, key, key_at);
        staged.graph_name = parse_string("graph name");
      } else if (key == "tasks") {
        once(saw_tasks, key, key_at);
        parse_tasks(staged);
      } else if (key == "edges") {
        once(saw_edges, key, key_at);
        parse_edges(staged);
      } else {
        fail(Kind::kSyntax, quoted("unknown key", unescape(key), at()));
      }
    }
    expect('}');
    skip_ws();
    if (pos_ != text_.size()) {
      fail(Kind::kSyntax, "content after root object" + at());
    }
    if (staged.graph_name.empty()) {
      fail(Kind::kSyntax, "missing or empty \"name\"");
    }
    if (!saw_tasks || !saw_edges) {
      fail(Kind::kSyntax, "document needs both \"tasks\" and \"edges\"");
    }
    return realize(std::move(staged));
  }

 private:
  [[nodiscard]] std::string at(std::size_t offset) const {
    return " (offset " + std::to_string(offset) + ")";
  }
  [[nodiscard]] std::string at() const { return at(pos_); }

  /// Rejects the second occurrence of a key within one object.
  void once(bool& seen, std::string_view key, std::size_t key_at) const {
    if (seen) fail(Kind::kSyntax, quoted("repeated key", key, at(key_at)));
    seen = true;
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

  /// The raw body of a string, escapes still in place.
  std::string_view scan_string(const char* what) {
    if (peek() != '"') {
      fail(Kind::kSyntax, std::string(what) + " must be a string" + at());
    }
    const std::size_t begin = ++pos_;
    while (true) {
      while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\') {
        ++pos_;
      }
      const char c = peek();
      ++pos_;
      if (c == '"') return text_.substr(begin, pos_ - 1 - begin);
      const char esc = peek();
      ++pos_;
      if (esc != '"' && esc != '\\' && esc != 'n') {
        fail(Kind::kSyntax,
             std::string("unsupported escape '\\") + esc + "'" + at());
      }
    }
  }

  /// A raw string body that scan_string accepted, decoded.
  [[nodiscard]] static std::string unescape(std::string_view raw) {
    std::string out;
    out.reserve(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i) {
      if (raw[i] != '\\') {
        out += raw[i];
        continue;
      }
      const char esc = raw[++i];
      out += esc == 'n' ? '\n' : esc;
    }
    return out;
  }

  std::string parse_string(const char* what) {
    return unescape(scan_string(what));
  }

  /// The longest run of bytes that can occur in a number, NaN or inf.
  std::string_view scan_number(const char* what) {
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (!((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
            c == 'e' || c == 'E' || c == 'n' || c == 'a' || c == 'i' ||
            c == 'f')) {
        break;
      }
      ++pos_;
    }
    if (pos_ == start) {
      fail(Kind::kSyntax, std::string(what) + " must be a number" + at());
    }
    return text_.substr(start, pos_ - start);
  }

  double parse_real_field(const char* what) {
    return parse_weight(scan_number(what), what);
  }

  std::uint64_t parse_index_field(const char* what) {
    return parse_node_id(scan_number(what), what);
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
      bool saw_name = false;
      bool first = true;
      while (true) {
        skip_ws();
        if (peek() == '}') break;
        if (!first) {
          expect(',');
          skip_ws();
        }
        first = false;
        const std::size_t key_at = pos_;
        const std::string_view key = scan_string("task key");
        skip_ws();
        expect(':');
        skip_ws();
        if (key == "id") {
          once(saw_id, key, key_at);
          id = parse_index_field("task id");
        } else if (key == "w") {
          once(saw_weight, key, key_at);
          weight = parse_real_field("task weight");
        } else if (key == "name") {
          once(saw_name, key, key_at);
          name = parse_string("task name");
        } else {
          fail(Kind::kSyntax, quoted("unknown task key", unescape(key), at()));
        }
      }
      expect('}');
      if (!saw_id || !saw_weight) {
        fail(Kind::kSyntax, "task entry needs \"id\" and \"w\"" + at());
      }
      staged.nodes.push_back({id, weight, std::move(name)});
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
      StagedEdge edge{0, 0, 0.0};
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
        const std::size_t key_at = pos_;
        const std::string_view key = scan_string("edge key");
        skip_ws();
        expect(':');
        skip_ws();
        if (key == "src") {
          once(saw_src, key, key_at);
          edge.src = parse_index_field("edge src");
        } else if (key == "dst") {
          once(saw_dst, key, key_at);
          edge.dst = parse_index_field("edge dst");
        } else if (key == "data") {
          once(saw_data, key, key_at);
          edge.data = parse_real_field("edge data");
        } else {
          fail(Kind::kSyntax, quoted("unknown edge key", unescape(key), at()));
        }
      }
      expect('}');
      if (!saw_src || !saw_dst || !saw_data) {
        fail(Kind::kSyntax,
             "edge entry needs \"src\", \"dst\" and \"data\"" + at());
      }
      staged.edges.push_back(edge);
      skip_ws();
      if (peek() == ']') break;
      expect(',');
      skip_ws();
    }
    expect(']');
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

/// Writes `s` as a quoted JSON string (the exporter's inverse of
/// JsonParser::parse_string).
void put_json_string(TextWriter& out, const std::string& s) {
  out.put('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') out.put('\\');
    if (c == '\n') {
      out.put("\\n");
      continue;
    }
    out.put(c);
  }
  out.put('"');
}

}  // namespace

ImportedGraph import_dot(const std::string& text) {
  return import_dot_text(text);
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

ImportedGraph load_task_graph(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) fail(Kind::kIo, "cannot open '" + path + "' for reading");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) fail(Kind::kIo, "read error on '" + path + "'");
  try {
    return import_task_graph(buffer.str());
  } catch (const ImportError& e) {
    throw ImportError(e.kind(), std::string(e.what()) + " in '" + path + "'");
  }
}

void write_json_graph(std::ostream& os, const TaskGraph& g,
                      const JsonGraphOptions& options) {
  OP_REQUIRE(g.finalized(), "graph must be finalized");
  TextWriter out(os);
  out.put("{\n  \"name\": ");
  put_json_string(out, options.graph_name);
  out.put(",\n  \"tasks\": [");
  for (TaskId v = 0; v < g.num_tasks(); ++v) {
    out.put(v == 0 ? "\n" : ",\n");
    out.put("    {\"id\": ");
    out.put_int(v);
    out.put(", \"w\": ");
    out.put_number(g.weight(v));
    if (!g.name(v).empty()) {
      out.put(", \"name\": ");
      put_json_string(out, g.name(v));
    }
    out.put('}');
  }
  out.put("\n  ],\n  \"edges\": [");
  bool first = true;
  for (TaskId v = 0; v < g.num_tasks(); ++v) {
    for (const EdgeRef& e : g.successors(v)) {
      out.put(first ? "\n" : ",\n");
      out.put("    {\"src\": ");
      out.put_int(v);
      out.put(", \"dst\": ");
      out.put_int(e.task);
      out.put(", \"data\": ");
      out.put_number(e.data);
      out.put('}');
      first = false;
    }
  }
  out.put("\n  ]\n}\n");
  out.flush();
}

}  // namespace oneport
