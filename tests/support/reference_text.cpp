#include "support/reference_text.hpp"

#include <algorithm>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/error.hpp"

namespace oneport::testsupport::reftext {

namespace {

std::ostream& full_precision(std::ostream& os) {
  return os << std::setprecision(std::numeric_limits<double>::max_digits10);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

}  // namespace

void write_schedule(std::ostream& os, const Schedule& schedule) {
  full_precision(os) << "schedule v1\n";
  for (TaskId v = 0; v < schedule.num_tasks(); ++v) {
    const TaskPlacement& t = schedule.task(v);
    OP_REQUIRE(t.placed(), "cannot serialize an incomplete schedule");
    os << "task " << v << ' ' << t.proc << ' ' << t.start << ' ' << t.finish
       << '\n';
  }
  for (const CommPlacement& c : schedule.comms()) {
    os << "comm " << c.src << ' ' << c.dst << ' ' << c.from << ' ' << c.to
       << ' ' << c.start << ' ' << c.finish << '\n';
  }
}

void write_dot(std::ostream& os, const TaskGraph& g,
               const DotOptions& options) {
  OP_REQUIRE(g.finalized(), "graph must be finalized");
  const std::size_t shown = std::min(g.num_tasks(), options.max_tasks);
  os << "digraph " << options.graph_name << " {\n";
  os << "  rankdir=TB;\n  node [shape=circle];\n";
  if (shown < g.num_tasks()) {
    os << "  // truncated: showing " << shown << " of " << g.num_tasks()
       << " tasks\n";
  }
  for (TaskId v = 0; v < shown; ++v) {
    os << "  n" << v << " [label=\"";
    if (g.name(v).empty()) {
      os << 'v' << v;
    } else {
      os << g.name(v);
    }
    if (options.show_weights) os << "\\nw=" << format_number(g.weight(v));
    os << "\"];\n";
  }
  for (TaskId v = 0; v < shown; ++v) {
    for (const EdgeRef& e : g.successors(v)) {
      if (e.task >= shown) continue;
      os << "  n" << v << " -> n" << e.task;
      if (options.show_weights)
        os << " [label=\"" << format_number(e.data) << "\"]";
      os << ";\n";
    }
  }
  os << "}\n";
}

void write_json_graph(std::ostream& os, const TaskGraph& g,
                      const JsonGraphOptions& options) {
  OP_REQUIRE(g.finalized(), "graph must be finalized");
  os << "{\n  \"name\": \"" << json_escape(options.graph_name) << "\",\n";
  os << "  \"tasks\": [";
  for (TaskId v = 0; v < g.num_tasks(); ++v) {
    os << (v == 0 ? "\n" : ",\n") << "    {\"id\": " << v << ", \"w\": "
       << format_number(g.weight(v));
    if (!g.name(v).empty()) {
      os << ", \"name\": \"" << json_escape(g.name(v)) << "\"";
    }
    os << "}";
  }
  os << "\n  ],\n  \"edges\": [";
  bool first = true;
  for (TaskId v = 0; v < g.num_tasks(); ++v) {
    for (const EdgeRef& e : g.successors(v)) {
      os << (first ? "\n" : ",\n") << "    {\"src\": " << v
         << ", \"dst\": " << e.task << ", \"data\": "
         << format_number(e.data) << "}";
      first = false;
    }
  }
  os << "\n  ]\n}\n";
}

std::string format_number(double value, int digits) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(digits) << value;
  std::string s = oss.str();
  if (s.find('.') != std::string::npos) {
    while (!s.empty() && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
  }
  return s;
}

}  // namespace oneport::testsupport::reftext
