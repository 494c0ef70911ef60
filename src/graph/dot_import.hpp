// Trace ingestion: DOT and JSON task-graph importers, the exact inverses
// of graph/dot_export (DOT) and write_json_graph below (JSON).
//
// Round-trip contract (pinned by tests/import_test.cpp):
//   * export -> import -> export is BYTE-IDENTICAL for any finalized
//     graph that fits the exporter's node cap, in both formats;
//   * import -> export -> import reproduces the same graph (weights,
//     names, edge order and data volumes compared exactly).
//
// Strictness contract: a malformed input NEVER produces a graph and
// NEVER trips undefined behavior -- every rejection is a typed
// ImportError whose Kind says what went wrong (syntax, duplicate node,
// dangling edge, bad weight, cycle, truncated export, ...), so callers
// and tests can assert the *reason*, not just "it threw".  Inputs are
// parsed fully before a TaskGraph is built; nothing is silently
// repaired or skipped.
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "graph/task_graph.hpp"

namespace oneport {

/// Typed rejection for malformed trace files.  `kind()` classifies the
/// failure; what() carries the human-readable detail (line/offset where
/// applicable).
class ImportError : public std::runtime_error {
 public:
  enum class Kind {
    kIo,             ///< file missing/unreadable
    kSyntax,         ///< grammar violation (incl. truncated text)
    kTruncatedDump,  ///< exporter wrote a "// truncated" partial graph
    kDuplicateNode,  ///< node id declared twice
    kUnknownNode,    ///< edge endpoint never declared (dangling edge)
    kBadWeight,      ///< NaN / negative / unparsable weight or data
    kDuplicateEdge,  ///< same src->dst twice, or a self-loop
    kCycle,          ///< edges form a cycle; not a DAG
  };

  ImportError(Kind kind, const std::string& message)
      : std::runtime_error(message), kind_(kind) {}

  [[nodiscard]] Kind kind() const noexcept { return kind_; }

 private:
  Kind kind_;
};

/// Human-readable name of an ImportError::Kind ("syntax", "cycle", ...).
[[nodiscard]] const char* import_error_kind_name(ImportError::Kind kind);

/// An imported graph plus the metadata needed to re-export it verbatim.
struct ImportedGraph {
  TaskGraph graph;         ///< finalized
  std::string graph_name;  ///< the digraph / "name" header value
};

/// Parses the Graphviz DOT dialect write_dot emits (default options:
/// show_weights on).  Node labels of the canonical "v<id>" form map back
/// to the empty task name, exactly undoing the exporter's placeholder.
[[nodiscard]] ImportedGraph import_dot(const std::string& text);

/// JSON inverse of write_json_graph.
[[nodiscard]] ImportedGraph import_json(const std::string& text);

/// Sniffs the format (first non-whitespace byte: '{' = JSON, else DOT)
/// and dispatches.  Empty/whitespace-only input is a syntax error.
[[nodiscard]] ImportedGraph import_task_graph(const std::string& text);

/// Reads `path` and imports it via import_task_graph.  A missing or
/// unreadable file is ImportError{kIo}.
[[nodiscard]] ImportedGraph load_task_graph(const std::string& path);

/// JSON export, the counterpart of write_dot: a {"name", "tasks",
/// "edges"} document with weights/data rendered as csv::format_number
/// renders them, exactly like the DOT exporter, so both formats
/// round-trip byte-identically through their importers.
struct JsonGraphOptions {
  std::string graph_name = "taskgraph";
};
void write_json_graph(std::ostream& os, const TaskGraph& g,
                      const JsonGraphOptions& options = {});

}  // namespace oneport
