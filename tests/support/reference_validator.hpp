// Reference one-port / macro-dataflow validator: the test oracle for
// sched/validate.
//
// This is the library's validator as it stood before the flat message
// index: messages grouped per edge in a std::map keyed by (src, dst),
// chains and port queues sorted as vectors of message pointers.  It is
// slower but audits line by line against the §2.1/§2.3 rules, and
// tests/validate_oracle_test.cpp demands that the production validators
// return exactly its error list -- same strings, same order -- on valid,
// mutated and corrupted schedules alike.
#pragma once

#include "graph/task_graph.hpp"
#include "platform/platform.hpp"
#include "sched/schedule.hpp"
#include "sched/validate.hpp"

namespace oneport::testsupport {

/// Checks M1-M5 (see sched/validate.hpp).
[[nodiscard]] ValidationResult reference_validate_macro_dataflow(
    const Schedule& schedule, const TaskGraph& graph,
    const Platform& platform);

/// Checks M1-M5 plus O1-O2.
[[nodiscard]] ValidationResult reference_validate_one_port(
    const Schedule& schedule, const TaskGraph& graph,
    const Platform& platform);

}  // namespace oneport::testsupport
