#include <gtest/gtest.h>

#include <iomanip>
#include <sstream>

#include "core/heft.hpp"
#include "sched/serialize.hpp"
#include "sched/validate.hpp"
#include "testbeds/testbeds.hpp"

namespace oneport {
namespace {

TEST(SerializeGraph, RoundTripPreservesEverything) {
  const TaskGraph original = testbeds::make_lu(8, 10.0);
  std::stringstream buffer;
  write_task_graph(buffer, original);
  const TaskGraph loaded = read_task_graph(buffer);
  ASSERT_EQ(loaded.num_tasks(), original.num_tasks());
  ASSERT_EQ(loaded.num_edges(), original.num_edges());
  for (TaskId v = 0; v < original.num_tasks(); ++v) {
    EXPECT_DOUBLE_EQ(loaded.weight(v), original.weight(v));
    for (const EdgeRef& e : original.successors(v)) {
      EXPECT_TRUE(loaded.has_edge(v, e.task));
      EXPECT_DOUBLE_EQ(loaded.edge_data(v, e.task), e.data);
    }
  }
}

TEST(SerializeGraph, NamesSurvive) {
  TaskGraph g;
  g.add_task(1.5, "alpha");
  g.add_task(2.5);
  g.add_edge(0, 1, 0.25);
  g.finalize();
  std::stringstream buffer;
  write_task_graph(buffer, g);
  const TaskGraph loaded = read_task_graph(buffer);
  EXPECT_EQ(loaded.name(0), "alpha");
  EXPECT_TRUE(loaded.name(1).empty());
}

TEST(SerializeGraph, CommentsAndBlanksIgnored) {
  std::stringstream buffer(
      "taskgraph v1\n"
      "# a comment\n"
      "\n"
      "task 0 2.0   # trailing comment\n"
      "task 1 3.0\n"
      "edge 0 1 4.0\n");
  const TaskGraph g = read_task_graph(buffer);
  EXPECT_EQ(g.num_tasks(), 2u);
  EXPECT_DOUBLE_EQ(g.edge_data(0, 1), 4.0);
}

TEST(SerializeGraph, RejectsMalformedInput) {
  std::stringstream no_header("task 0 1.0\n");
  EXPECT_THROW(read_task_graph(no_header), std::invalid_argument);
  std::stringstream bad_stmt("taskgraph v1\nblurb 1 2\n");
  EXPECT_THROW(read_task_graph(bad_stmt), std::invalid_argument);
  std::stringstream sparse_ids("taskgraph v1\ntask 5 1.0\n");
  EXPECT_THROW(read_task_graph(sparse_ids), std::invalid_argument);
  std::stringstream short_task("taskgraph v1\ntask 0\n");
  EXPECT_THROW(read_task_graph(short_task), std::invalid_argument);
}

TEST(SerializeSchedule, RoundTripStaysValid) {
  const TaskGraph g = testbeds::make_stencil(6, 10.0);
  const Platform p = make_paper_platform();
  const Schedule original = heft(g, p, {.model = EftEngine::Model::kOnePort});
  std::stringstream buffer;
  write_schedule(buffer, original);
  const Schedule loaded = read_schedule(buffer);
  ASSERT_EQ(loaded.num_tasks(), original.num_tasks());
  EXPECT_DOUBLE_EQ(loaded.makespan(), original.makespan());
  EXPECT_EQ(loaded.num_comms(), original.num_comms());
  EXPECT_TRUE(validate_one_port(loaded, g, p).ok());
  for (TaskId v = 0; v < g.num_tasks(); ++v) {
    EXPECT_EQ(loaded.task(v).proc, original.task(v).proc);
    EXPECT_DOUBLE_EQ(loaded.task(v).start, original.task(v).start);
  }
}

TEST(SerializeSchedule, IncompleteScheduleRejected) {
  Schedule s(2);
  s.place_task(0, 0, 0.0, 1.0);
  std::stringstream buffer;
  EXPECT_THROW(write_schedule(buffer, s), std::invalid_argument);
  // Rejected before the first byte: no truncated file is left behind.
  EXPECT_TRUE(buffer.str().empty()) << buffer.str();
}

TEST(SerializeStream, WritersLeaveTheCallersPrecisionAlone) {
  const TaskGraph g = testbeds::make_lu(4, 10.0);
  const Schedule s = heft(g, make_paper_platform(),
                          {.model = EftEngine::Model::kOnePort});
  for (const bool graph : {false, true}) {
    std::ostringstream os;
    os << std::setprecision(3);
    if (graph) {
      write_task_graph(os, g);
    } else {
      write_schedule(os, s);
    }
    EXPECT_EQ(os.precision(), 3) << (graph ? "write_task_graph"
                                           : "write_schedule");
    os.str("");
    os << 0.123456;
    EXPECT_EQ(os.str(), "0.123");
  }
}

TEST(SerializeSchedule, RejectsMalformedInput) {
  std::stringstream no_header("task 0 0 0 1\n");
  EXPECT_THROW(read_schedule(no_header), std::invalid_argument);
  std::stringstream bad_comm("schedule v1\ncomm 0 1 0\n");
  EXPECT_THROW(read_schedule(bad_comm), std::invalid_argument);
}

}  // namespace
}  // namespace oneport
