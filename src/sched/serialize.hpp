// Plain-text persistence for schedules, so experiments can be stored,
// diffed, and fed to external tooling.  (Task graphs travel as DOT or
// JSON: graph/dot_export.hpp and graph/dot_import.hpp.)
//
// Format (line-oriented, '#' comments, whitespace-separated):
//
//   schedule v1
//   task <id> <proc> <start> <finish>
//   comm <src> <dst> <from> <to> <start> <finish>
//
// Byte contract: a double is printed as printf "%.17g" prints it
// (max_digits10 significant digits, via util/text_writer.hpp's
// format_real), an integer as its plain decimal, fields separated by one
// space, lines ended by '\n'.
// The bytes are identical to those of earlier versions, which formatted
// through iostreams at setprecision(17) (tests/text_oracle_test.cpp
// compares the two), and a write/read round trip is bit-exact.  The
// writer buffers in fixed-size chunks, never reads or changes the
// stream's format flags or precision, and writes nothing when it throws
// on a precondition (an incomplete schedule).
//
// The reader streams: it lexes 16 KiB chunks (util/text_reader.hpp) and
// never holds the whole text.  Fields are separated by blanks (space,
// tab, \v, \f, \r); a record has exactly its fields.  Ids and processors
// are unsigned decimal integers (no sign), times are the std::from_chars
// grammar (no '+', no hex, within double's range) and finite.  Every
// rejection is an ImportError naming the line:
//   kSyntax         a missing or wrong "schedule v1" header, an unknown
//                   statement, a record with a field missing or one too
//                   many (so "schedule v1 extra", "task 0 0 0 1 999"),
//                   an id or processor that is not an unsigned integer
//                   (a negative task id or processor) or overflows, and
//                   a comm whose two processors are the same;
//   kBadWeight      a time that is not a finite number, and a task or
//                   comm that finishes before it starts;
//   kUnknownNode    a task id or comm endpoint outside 0..n-1, n being
//                   the number of task records;
//   kDuplicateNode  a task placed twice;
//   kIo             a read error on the stream.
// Before the lexer, read_schedule read fields through iostream
// extraction and threw std::invalid_argument, and it dropped whatever
// followed a record's last field.  Its verdicts that changed by field:
//   id, processor   a sign ("+0", "-0") is now kSyntax;
//   time            a leading '+', hex or an out-of-range value ("1e-400",
//                   once read as 0) is now kBadWeight.  A time of -0 is
//                   still read as -0, and subnormals keep their value.
#pragma once

#include <iosfwd>

#include "sched/schedule.hpp"
#include "util/text_reader.hpp"

namespace oneport {

void write_schedule(std::ostream& os, const Schedule& schedule);

/// Parses a schedule written by write_schedule; throws ImportError on
/// malformed input (see above).  Every task is placed.
[[nodiscard]] Schedule read_schedule(std::istream& is);

}  // namespace oneport
