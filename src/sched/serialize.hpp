// Plain-text persistence for task graphs and schedules, so experiments
// can be stored, diffed, and fed to external tooling.
//
// Format (line-oriented, '#' comments, whitespace-separated):
//
//   taskgraph v1
//   task <id> <weight> [name]        # ids must be dense, in order
//   edge <src> <dst> <data>
//
//   schedule v1
//   task <id> <proc> <start> <finish>
//   comm <src> <dst> <from> <to> <start> <finish>
//
// Byte contract: a double is printed as printf "%.17g" prints it
// (max_digits10 significant digits, via std::to_chars), an integer as
// its plain decimal, fields separated by one space, lines ended by '\n'.
// The bytes are identical to those of earlier versions, which formatted
// through iostreams at setprecision(17) (tests/text_oracle_test.cpp
// compares the two), and a write/read round trip is bit-exact.  The
// writers buffer in fixed-size chunks, never read or change the stream's
// format flags or precision, and write nothing when they throw on a
// precondition (an unfinalized graph, an incomplete schedule).
#pragma once

#include <iosfwd>

#include "graph/task_graph.hpp"
#include "sched/schedule.hpp"

namespace oneport {

void write_task_graph(std::ostream& os, const TaskGraph& graph);

/// Parses a graph written by write_task_graph; throws
/// std::invalid_argument on malformed input.  The returned graph is
/// finalized.
[[nodiscard]] TaskGraph read_task_graph(std::istream& is);

void write_schedule(std::ostream& os, const Schedule& schedule);

/// Parses a schedule written by write_schedule; throws
/// std::invalid_argument on malformed input.
[[nodiscard]] Schedule read_schedule(std::istream& is);

}  // namespace oneport
