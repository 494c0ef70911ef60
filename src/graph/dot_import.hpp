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
// ImportError (util/text_reader.hpp) whose Kind says what went wrong, so
// callers and tests can assert the *reason*, not just "it threw":
//   kSyntax         grammar violation, truncated text, an unknown or a
//                   repeated JSON key, a node id that is not an unsigned
//                   decimal integer or overflows 64 bits;
//   kTruncatedDump  the exporter's "// truncated" partial dump;
//   kDuplicateNode  a node id declared twice;
//   kUnknownNode    an edge endpoint never declared, or ids that are not
//                   the dense range 0..N-1;
//   kBadWeight      a weight or data volume that is not a number, is out
//                   of double's range, NaN/inf, or negative;
//   kDuplicateEdge  the same src->dst twice, or a self-loop;
//   kCycle          the edges form a cycle;
//   kIo             load_task_graph cannot read the file.
// Inputs are parsed fully before a TaskGraph is built; nothing is
// silently repaired or skipped.
//
// Number grammar: a weight, data volume or node id is the whole token
// std::from_chars consumes (util/text_reader.hpp), the exact inverse of
// the writers.  Before the from_chars lexer the importers parsed with
// strtod, which accepts more; these spellings, which no writer emits,
// changed verdict on purpose (tests/import_oracle_test.cpp pins each):
//   * a leading '+' (w=+1.5), leading blanks (w= 1.5) and hex (w=0x1p3,
//     once imported as 8) are kBadWeight;
//   * a value outside double's range is kBadWeight: 1e-400 was imported
//     as 0, and 1e400 was already rejected (as not finite);
//   * a subnormal from_chars parses (4.9406564584124654e-324) keeps its
//     value, and -0 stays accepted;
//   * a repeated JSON key -- in a task, an edge or the top level -- is
//     kSyntax naming the key and its offset (the last value used to win,
//     and a second "tasks" array was appended);
//   * JSON ids parse as integers, so an out-of-range id 9007199254740993
//     is reported as itself, not as the nearest double.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/task_graph.hpp"
#include "util/text_reader.hpp"

namespace oneport {

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
