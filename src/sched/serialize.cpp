#include "sched/serialize.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/text_writer.hpp"

namespace oneport {

namespace {

using Kind = ImportError::Kind;

[[noreturn]] void fail_at(Kind kind, std::size_t line, std::string message) {
  message += " (line ";
  message += std::to_string(line);
  message += ')';
  throw_import_error(kind, message);
}

/// The fields of one record line, taken left to right.
class Fields {
 public:
  Fields(std::string_view rest, std::size_t line) : rest_(rest), line_(line) {}

  std::uint64_t index(const char* what) {
    const std::string_view text = take(what);
    std::uint64_t value = 0;
    if (parse_index(text, value) != NumberStatus::kOk) {
      bad(Kind::kSyntax, what, text, "is not an unsigned 64-bit integer");
    }
    return value;
  }

  ProcId proc(const char* what) {
    const std::string_view text = take(what);
    std::uint64_t value = 0;
    if (parse_index(text, value) != NumberStatus::kOk || value > INT_MAX) {
      bad(Kind::kSyntax, what, text, "is not a processor index");
    }
    return static_cast<ProcId>(value);
  }

  double time(const char* what) {
    const std::string_view text = take(what);
    double value = 0.0;
    if (parse_real(text, value) != NumberStatus::kOk || !std::isfinite(value)) {
      bad(Kind::kBadWeight, what, text, "is not a finite number");
    }
    return value;
  }

  std::string_view next() noexcept { return next_field(rest_); }

  /// Rejects bytes after the record's last field.
  void end() {
    const std::string_view extra = next();
    if (!extra.empty()) {
      fail_at(Kind::kSyntax, line_,
              "unexpected field '" + std::string(extra) + "' after the record");
    }
  }

  [[noreturn]] void fail(Kind kind, std::string message) const {
    fail_at(kind, line_, std::move(message));
  }

 private:
  std::string_view take(const char* what) {
    const std::string_view field = next();
    if (field.empty()) fail(Kind::kSyntax, std::string("missing ") + what);
    return field;
  }

  [[noreturn]] void bad(Kind kind, const char* what, std::string_view text,
                        const char* why) const {
    fail(kind, std::string(what) + " '" + std::string(text) + "' " + why);
  }

  std::string_view rest_;
  std::size_t line_;
};

struct TaskRecord {
  std::uint64_t id;
  TaskPlacement placement;
  std::size_t line;
};

}  // namespace

void write_schedule(std::ostream& os, const Schedule& schedule) {
  OP_REQUIRE(schedule.complete(), "cannot serialize an incomplete schedule");
  TextWriter out(os);
  out.put("schedule v1\n");
  for (TaskId v = 0; v < schedule.num_tasks(); ++v) {
    const TaskPlacement& t = schedule.tasks()[v];
    out.put("task ");
    out.put_int(v);
    out.put(' ');
    out.put_int(t.proc);
    out.put(' ');
    out.put_real(t.start);
    out.put(' ');
    out.put_real(t.finish);
    out.put('\n');
  }
  for (const CommPlacement& c : schedule.comms()) {
    out.put("comm ");
    out.put_int(c.src);
    out.put(' ');
    out.put_int(c.dst);
    out.put(' ');
    out.put_int(c.from);
    out.put(' ');
    out.put_int(c.to);
    out.put(' ');
    out.put_real(c.start);
    out.put(' ');
    out.put_real(c.finish);
    out.put('\n');
  }
  out.flush();
}

Schedule read_schedule(std::istream& is) {
  TextReader in(is);
  bool saw_header = false;
  // Records are staged: the task count, and so the id range, is known
  // only at the end of the stream.
  std::vector<TaskRecord> tasks;
  std::vector<CommPlacement> comms;
  // The largest comm endpoint, and the first line naming it.
  std::uint64_t far_endpoint = 0;
  std::size_t far_endpoint_line = 0;
  std::string_view line;
  while (in.next_line(line)) {
    line = line.substr(0, line.find('#'));
    if (trim(line).empty()) continue;
    const std::string_view statement = next_field(line);
    Fields fields(line, in.line_number());
    if (!saw_header) {
      if (statement != "schedule" || fields.next() != "v1") {
        fields.fail(Kind::kSyntax, "expected 'schedule v1' header");
      }
      fields.end();
      saw_header = true;
    } else if (statement == "task") {
      TaskRecord t{};
      t.id = fields.index("task id");
      t.placement.proc = fields.proc("task processor");
      t.placement.start = fields.time("task start");
      t.placement.finish = fields.time("task finish");
      fields.end();
      if (t.placement.finish < t.placement.start) {
        fields.fail(Kind::kBadWeight, "task finishes before it starts");
      }
      t.line = in.line_number();
      tasks.push_back(t);
    } else if (statement == "comm") {
      CommPlacement c;
      const std::uint64_t src = fields.index("comm source task");
      const std::uint64_t dst = fields.index("comm target task");
      c.from = fields.proc("comm source processor");
      c.to = fields.proc("comm target processor");
      c.start = fields.time("comm start");
      c.finish = fields.time("comm finish");
      fields.end();
      if (c.from == c.to) {
        fields.fail(Kind::kSyntax,
                    "comm must connect two distinct processors");
      }
      if (c.finish < c.start) {
        fields.fail(Kind::kBadWeight, "comm finishes before it starts");
      }
      if (comms.empty() || std::max(src, dst) > far_endpoint) {
        far_endpoint = std::max(src, dst);
        far_endpoint_line = in.line_number();
      }
      // Narrowed unchecked: every endpoint is below n once far_endpoint
      // passes the check below.
      c.src = static_cast<TaskId>(src);
      c.dst = static_cast<TaskId>(dst);
      comms.push_back(c);
    } else {
      fields.fail(Kind::kSyntax,
                  "unknown statement '" + std::string(statement) + "'");
    }
  }
  if (!saw_header) {
    throw_import_error(Kind::kSyntax,
                       "empty schedule stream: no 'schedule v1' header");
  }

  const std::size_t n = tasks.size();
  std::vector<TaskPlacement> placements(n);
  for (const TaskRecord& t : tasks) {
    if (t.id >= n) {
      fail_at(Kind::kUnknownNode, t.line,
              "task id " + std::to_string(t.id) + " is outside 0.." +
                  std::to_string(n - 1));
    }
    TaskPlacement& slot = placements[static_cast<std::size_t>(t.id)];
    if (slot.placed()) {
      fail_at(Kind::kDuplicateNode, t.line,
              "task " + std::to_string(t.id) + " placed twice");
    }
    slot = t.placement;
  }
  if (!comms.empty() && far_endpoint >= n) {
    fail_at(Kind::kUnknownNode, far_endpoint_line,
            "comm endpoint " + std::to_string(far_endpoint) +
                " names none of the " + std::to_string(n) + " tasks");
  }
  return {std::move(placements), std::move(comms)};
}

}  // namespace oneport
