// Reference text writers: the test oracle for the library's schedule,
// DOT and JSON writers and csv::format_number.
//
// These are the writers as they stood before the chunked std::to_chars
// rewrite: plain iostream insertion at setprecision(17) for the
// serializers, an ostringstream per number (std::fixed) for
// format_number.  tests/text_oracle_test.cpp demands byte-identical
// output from the production writers on the frozen-oracle rotations and
// on a number corpus.  Like the old writer, write_schedule leaves `os`
// at precision 17.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/dot_export.hpp"
#include "graph/dot_import.hpp"
#include "graph/task_graph.hpp"
#include "sched/schedule.hpp"

namespace oneport::testsupport::reftext {

void write_schedule(std::ostream& os, const Schedule& schedule);

void write_dot(std::ostream& os, const TaskGraph& g,
               const DotOptions& options = {});

void write_json_graph(std::ostream& os, const TaskGraph& g,
                      const JsonGraphOptions& options = {});

[[nodiscard]] std::string format_number(double value, int digits = 3);

}  // namespace oneport::testsupport::reftext
