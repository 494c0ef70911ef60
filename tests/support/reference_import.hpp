// Reference readers: the test oracle for the library's DOT and JSON
// importers and read_schedule.
//
// These are the readers as they stood before the std::from_chars lexer
// (util/text_reader.hpp): std::getline and a std::string per field with
// strtod for DOT, a recursive-descent JSON parser building a std::string
// per key and number token, and iostream extraction for schedules.
// tests/import_oracle_test.cpp demands the same graph or schedule, bit
// for bit, or the same rejection from the production readers, except for
// the deliberate changes that test names one by one.  Unlike the
// production read_schedule, this one rejects input with a plain
// std::invalid_argument.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/dot_import.hpp"
#include "sched/schedule.hpp"

namespace oneport::testsupport::refimport {

[[nodiscard]] ImportedGraph import_dot(const std::string& text);

[[nodiscard]] ImportedGraph import_json(const std::string& text);

/// Same format sniffing as the production import_task_graph.
[[nodiscard]] ImportedGraph import_task_graph(const std::string& text);

[[nodiscard]] Schedule read_schedule(std::istream& is);

}  // namespace oneport::testsupport::refimport
