#include "sched/serialize.hpp"

#include <istream>
#include <sstream>
#include <string>

#include "util/error.hpp"
#include "util/text_writer.hpp"

namespace oneport {

namespace {

/// Reads lines, strips comments and blanks, and hands back one
/// whitespace-tokenized statement at a time.
class LineReader {
 public:
  explicit LineReader(std::istream& is) : is_(is) {}

  /// Next non-empty statement; false at EOF.
  bool next(std::istringstream& out) {
    std::string line;
    while (std::getline(is_, line)) {
      ++line_number_;
      const std::size_t hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      out = std::istringstream(line);
      return true;
    }
    return false;
  }

  [[nodiscard]] int line() const noexcept { return line_number_; }

 private:
  std::istream& is_;
  int line_number_ = 0;
};

}  // namespace

void write_task_graph(std::ostream& os, const TaskGraph& graph) {
  OP_REQUIRE(graph.finalized(), "graph must be finalized");
  TextWriter out(os);
  out.put("taskgraph v1\n");
  for (TaskId v = 0; v < graph.num_tasks(); ++v) {
    out.put("task ");
    out.put_int(v);
    out.put(' ');
    out.put_real(graph.weight(v));
    if (!graph.name(v).empty()) {
      out.put(' ');
      out.put(graph.name(v));
    }
    out.put('\n');
  }
  for (TaskId u = 0; u < graph.num_tasks(); ++u) {
    for (const EdgeRef& e : graph.successors(u)) {
      out.put("edge ");
      out.put_int(u);
      out.put(' ');
      out.put_int(e.task);
      out.put(' ');
      out.put_real(e.data);
      out.put('\n');
    }
  }
  out.flush();
}

TaskGraph read_task_graph(std::istream& is) {
  LineReader reader(is);
  std::istringstream stmt;
  OP_REQUIRE(reader.next(stmt), "empty task-graph stream");
  std::string word, version;
  stmt >> word >> version;
  OP_REQUIRE(word == "taskgraph" && version == "v1",
             "expected 'taskgraph v1' header, got '" << word << ' '
                                                     << version << "'");
  TaskGraph graph;
  while (reader.next(stmt)) {
    std::string kind;
    stmt >> kind;
    if (kind == "task") {
      TaskId id = 0;
      double weight = 0.0;
      std::string name;
      stmt >> id >> weight;
      OP_REQUIRE(!stmt.fail(), "malformed task at line " << reader.line());
      stmt >> name;  // optional
      OP_REQUIRE(id == graph.num_tasks(),
                 "task ids must be dense and ordered (line " << reader.line()
                                                             << ")");
      graph.add_task(weight, name);
    } else if (kind == "edge") {
      TaskId src = 0, dst = 0;
      double data = 0.0;
      stmt >> src >> dst >> data;
      OP_REQUIRE(!stmt.fail(), "malformed edge at line " << reader.line());
      graph.add_edge(src, dst, data);
    } else {
      OP_REQUIRE(false, "unknown statement '" << kind << "' at line "
                                              << reader.line());
    }
  }
  graph.finalize();
  return graph;
}

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
  LineReader reader(is);
  std::istringstream stmt;
  OP_REQUIRE(reader.next(stmt), "empty schedule stream");
  std::string word, version;
  stmt >> word >> version;
  OP_REQUIRE(word == "schedule" && version == "v1",
             "expected 'schedule v1' header");
  // Two passes over buffered statements: placements must exist before we
  // can size the Schedule, so collect first.
  struct TaskLine {
    TaskId id;
    ProcId proc;
    double start, finish;
  };
  std::vector<TaskLine> tasks;
  std::vector<CommPlacement> comms;
  while (reader.next(stmt)) {
    std::string kind;
    stmt >> kind;
    if (kind == "task") {
      TaskLine t{};
      stmt >> t.id >> t.proc >> t.start >> t.finish;
      OP_REQUIRE(!stmt.fail(), "malformed task at line " << reader.line());
      tasks.push_back(t);
    } else if (kind == "comm") {
      CommPlacement c;
      stmt >> c.src >> c.dst >> c.from >> c.to >> c.start >> c.finish;
      OP_REQUIRE(!stmt.fail(), "malformed comm at line " << reader.line());
      comms.push_back(c);
    } else {
      OP_REQUIRE(false, "unknown statement '" << kind << "' at line "
                                              << reader.line());
    }
  }
  Schedule schedule(tasks.size());
  for (const TaskLine& t : tasks) {
    schedule.place_task(t.id, t.proc, t.start, t.finish);
  }
  for (const CommPlacement& c : comms) schedule.add_comm(c);
  return schedule;
}

}  // namespace oneport
