// Chunked text lexing for the readers: import_dot / import_json
// (graph/dot_import) and read_schedule (sched/serialize), the inverses of
// the TextWriter-based writers.
//
// A TextReader hands out lines as views into one byte buffer: the caller's
// document when it is already in memory, or a 16 KiB window over a stream
// (refilled in place, grown only for a longer line), so a reader never
// copies a whole stream and builds no string per line or per field.
// Numbers go through std::from_chars, the exact inverse of the writers'
// std::to_chars, with one grammar for every reader:
//
//   parse_real(token)   accepts exactly the tokens from_chars consumes in
//                       full: [-]digits[.digits][(e|E)[+|-]digits], plus
//                       "inf"/"infinity"/"nan" spellings (the readers
//                       reject non-finite values themselves).  A leading
//                       '+', leading blanks and hex ("0x1p3") are not
//                       numbers; a value outside double's range (1e400,
//                       1e-400) is kOutOfRange rather than inf or 0.
//                       Subnormals that round-trip, and -0, parse as
//                       themselves.
//   parse_index(token)  accepts one or more decimal digits (no sign) whose
//                       value fits std::uint64_t.
//
// Every rejection at the input boundary is an ImportError, declared here
// so the readers of every layer share one typed family.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace oneport {

/// Typed rejection for malformed input text (traces, schedules).
/// `kind()` classifies the failure; what() carries the human-readable
/// detail (line/offset where applicable).
class ImportError : public std::runtime_error {
 public:
  enum class Kind {
    kIo,             ///< file missing/unreadable
    kSyntax,         ///< grammar violation (incl. truncated text)
    kTruncatedDump,  ///< exporter wrote a "// truncated" partial graph
    kDuplicateNode,  ///< node id declared / task placed twice
    kUnknownNode,    ///< edge endpoint or task id never declared
    kBadWeight,      ///< unparsable, out-of-range, NaN/inf or negative
                     ///< number; a record finishing before it starts
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

/// Throws ImportError(kind, "<kind name>: <message>").
[[noreturn]] void throw_import_error(ImportError::Kind kind,
                                     const std::string& message);

/// Outcome of a number parse.
enum class NumberStatus {
  kOk,
  kNotANumber,  ///< from_chars rejects the token or leaves bytes over
  kOutOfRange,  ///< syntactically a number, but outside the type's range
};

/// Parses all of `token` as a double (see the grammar above).  `value` is
/// written only on kOk.
[[nodiscard]] NumberStatus parse_real(std::string_view token, double& value);

/// Parses all of `token` as an unsigned decimal index (see above).
/// `value` is written only on kOk.
[[nodiscard]] NumberStatus parse_index(std::string_view token,
                                       std::uint64_t& value);

/// Splits the next field off the front of `line`, skipping the bytes
/// iostream extraction skips between fields (' ', '\t', '\v', '\f',
/// '\r'); empty once `line` holds none.
[[nodiscard]] std::string_view next_field(std::string_view& line) noexcept;

/// `text` without leading and trailing ' ', '\t' and '\r'.
[[nodiscard]] std::string_view trim(std::string_view text) noexcept;

class TextReader {
 public:
  /// Lexes `text` in place; it must outlive the reader.
  explicit TextReader(std::string_view text) noexcept
      : pos_(text.data()), end_(text.data() + text.size()) {}
  /// Lexes `is` through a fixed-size window.
  explicit TextReader(std::istream& is);
  // The cursor points into the reader's own window.
  TextReader(const TextReader&) = delete;
  TextReader& operator=(const TextReader&) = delete;

  /// The next line, without its '\n' (a last line without one counts; an
  /// empty input has none).  The view stays valid until the next call.
  /// Stream read errors are ImportError{kIo}.
  bool next_line(std::string_view& line);

  /// 1-based number of the line next_line returned last.
  [[nodiscard]] std::size_t line_number() const noexcept { return line_; }

 private:
  static constexpr std::size_t kChunk = 16 * 1024;

  /// Stream mode: moves the unread tail to the front of the window and
  /// reads behind it, growing the window when the tail already fills it.
  /// False when nothing more could be read.
  bool refill();

  const char* pos_ = nullptr;
  const char* end_ = nullptr;
  std::istream* is_ = nullptr;
  std::vector<char> window_;
  std::size_t line_ = 0;
};

}  // namespace oneport
