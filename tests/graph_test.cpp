#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <sstream>
#include <vector>

#include "graph/dot_export.hpp"
#include "graph/graph_algorithms.hpp"
#include "graph/task_graph.hpp"

namespace oneport {
namespace {

TaskGraph make_diamond() {
  // 0 -> {1, 2} -> 3, unit data.
  TaskGraph g;
  g.add_task(1.0, "a");
  g.add_task(2.0, "b");
  g.add_task(3.0, "c");
  g.add_task(4.0, "d");
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 2, 2.0);
  g.add_edge(1, 3, 3.0);
  g.add_edge(2, 3, 4.0);
  g.finalize();
  return g;
}

TEST(TaskGraph, BuildAndQuery) {
  const TaskGraph g = make_diamond();
  EXPECT_EQ(g.num_tasks(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_DOUBLE_EQ(g.weight(1), 2.0);
  EXPECT_EQ(g.name(0), "a");
  EXPECT_DOUBLE_EQ(g.total_weight(), 10.0);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_DOUBLE_EQ(g.edge_data(2, 3), 4.0);
  EXPECT_EQ(g.in_degree(3), 2u);
  EXPECT_EQ(g.out_degree(0), 2u);
}

TEST(TaskGraph, RejectsBadInput) {
  TaskGraph g;
  EXPECT_THROW(g.add_task(-1.0), std::invalid_argument);
  const TaskId a = g.add_task(1.0);
  const TaskId b = g.add_task(1.0);
  EXPECT_THROW(g.add_edge(a, a, 1.0), std::invalid_argument);  // self loop
  EXPECT_THROW(g.add_edge(a, 99, 1.0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(a, b, -2.0), std::invalid_argument);
  g.add_edge(a, b, 1.0);
  EXPECT_THROW(g.add_edge(a, b, 1.0), std::invalid_argument);  // duplicate
}

TEST(TaskGraph, FrozenAfterFinalize) {
  TaskGraph g;
  g.add_task(1.0);
  g.finalize();
  EXPECT_TRUE(g.finalized());
  EXPECT_THROW(g.add_task(1.0), std::invalid_argument);
  g.finalize();  // idempotent
}

TEST(TaskGraph, DetectsCycle) {
  TaskGraph g;
  const TaskId a = g.add_task(1.0);
  const TaskId b = g.add_task(1.0);
  const TaskId c = g.add_task(1.0);
  g.add_edge(a, b, 1.0);
  g.add_edge(b, c, 1.0);
  g.add_edge(c, a, 1.0);
  EXPECT_THROW(g.finalize(), std::invalid_argument);
}

TEST(TaskGraph, TopologicalOrderRespectsEdges) {
  const TaskGraph g = make_diamond();
  const auto order = g.topological_order();
  std::vector<std::size_t> position(g.num_tasks());
  for (std::size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  for (TaskId u = 0; u < g.num_tasks(); ++u) {
    for (const EdgeRef& e : g.successors(u)) {
      EXPECT_LT(position[u], position[e.task]);
    }
  }
}

TEST(TaskGraph, EntryAndExitTasks) {
  const TaskGraph g = make_diamond();
  EXPECT_EQ(g.entry_tasks(), std::vector<TaskId>{0});
  EXPECT_EQ(g.exit_tasks(), std::vector<TaskId>{3});
}

TEST(TaskGraph, AlgorithmsRequireFinalize) {
  TaskGraph g;
  g.add_task(1.0);
  EXPECT_THROW((void)g.topological_order(), std::invalid_argument);
  EXPECT_THROW(bottom_levels(g, 1.0, 1.0), std::invalid_argument);
}

// ------------------------------------------------------- CSR lanes

std::vector<TaskId> neighbors(std::span<const EdgeRef> lane) {
  std::vector<TaskId> out;
  for (const EdgeRef& e : lane) out.push_back(e.task);
  return out;
}

TEST(TaskGraph, LanesKeepInsertionOrderAcrossInterleavedAdds) {
  TaskGraph g;
  for (int i = 0; i < 6; ++i) g.add_task(1.0);
  // Edges of different nodes interleaved, targets out of id order.
  g.add_edge(0, 5, 1.0);
  g.add_edge(1, 4, 2.0);
  g.add_edge(0, 2, 3.0);
  g.add_edge(3, 4, 4.0);
  g.add_edge(0, 4, 5.0);
  g.add_edge(2, 5, 6.0);
  g.add_edge(1, 3, 7.0);
  g.finalize();
  EXPECT_EQ(neighbors(g.successors(0)), (std::vector<TaskId>{5, 2, 4}));
  EXPECT_EQ(neighbors(g.successors(1)), (std::vector<TaskId>{4, 3}));
  EXPECT_EQ(neighbors(g.successors(4)), std::vector<TaskId>{});
  EXPECT_EQ(neighbors(g.predecessors(4)), (std::vector<TaskId>{1, 3, 0}));
  EXPECT_EQ(neighbors(g.predecessors(5)), (std::vector<TaskId>{0, 2}));
  EXPECT_DOUBLE_EQ(g.successors(0)[2].data, 5.0);
  EXPECT_DOUBLE_EQ(g.predecessors(4)[1].data, 4.0);
  EXPECT_EQ(g.in_degree(4), 3u);
  EXPECT_EQ(g.out_degree(0), 3u);
}

TEST(TaskGraph, AdjacencyReadsRequireFinalize) {
  TaskGraph g;
  const TaskId a = g.add_task(1.0);
  const TaskId b = g.add_task(1.0);
  g.add_edge(a, b, 1.0);
  EXPECT_THROW((void)g.successors(a), std::invalid_argument);
  EXPECT_THROW((void)g.predecessors(b), std::invalid_argument);
  EXPECT_THROW((void)g.in_degree(b), std::invalid_argument);
  EXPECT_THROW((void)g.out_degree(a), std::invalid_argument);
  EXPECT_THROW((void)g.entry_tasks(), std::invalid_argument);
  g.finalize();
  EXPECT_EQ(g.out_degree(a), 1u);
  EXPECT_THROW((void)g.successors(7), std::invalid_argument);
}

TEST(TaskGraph, EdgeLookupsAgreeBeforeAndAfterFinalize) {
  TaskGraph g;
  for (int i = 0; i < 5; ++i) g.add_task(1.0);
  g.add_edge(0, 3, 1.5);
  g.add_edge(2, 4, 0.0);
  g.add_edge(0, 1, 2.5);
  g.add_edge(1, 4, 3.5);
  std::vector<bool> has_before;
  std::vector<double> data_before;
  for (TaskId u = 0; u < 5; ++u) {
    for (TaskId v = 0; v < 5; ++v) {
      has_before.push_back(g.has_edge(u, v));
      data_before.push_back(g.has_edge(u, v) ? g.edge_data(u, v) : -1.0);
    }
  }
  EXPECT_THROW((void)g.edge_data(3, 0), std::invalid_argument);
  g.finalize();
  std::size_t k = 0;
  for (TaskId u = 0; u < 5; ++u) {
    for (TaskId v = 0; v < 5; ++v, ++k) {
      EXPECT_EQ(g.has_edge(u, v), has_before[k]) << u << "->" << v;
      EXPECT_EQ(g.has_edge(u, v) ? g.edge_data(u, v) : -1.0, data_before[k])
          << u << "->" << v;
    }
  }
  EXPECT_THROW((void)g.edge_data(3, 0), std::invalid_argument);
  EXPECT_THROW((void)g.has_edge(0, 9), std::invalid_argument);
}

TEST(TaskGraph, CopyOfFinalizedGraphOutlivesOriginal) {
  std::unique_ptr<TaskGraph> original =
      std::make_unique<TaskGraph>(make_diamond());
  const TaskGraph copy = *original;
  original.reset();
  EXPECT_EQ(neighbors(copy.successors(0)), (std::vector<TaskId>{1, 2}));
  EXPECT_EQ(neighbors(copy.predecessors(3)), (std::vector<TaskId>{1, 2}));
  EXPECT_DOUBLE_EQ(copy.edge_data(2, 3), 4.0);
  EXPECT_EQ(copy.in_degree(3), 2u);
  EXPECT_EQ(copy.entry_tasks(), std::vector<TaskId>{0});
  EXPECT_EQ(copy.topological_order().size(), 4u);
}

// ------------------------------------------------------- levels / paths

TEST(GraphAlgorithms, BottomLevelsOnDiamond) {
  const TaskGraph g = make_diamond();
  // comp = 1, comm = 1: bl(3) = 4; bl(1) = 2 + 3 + 4 = 9;
  // bl(2) = 3 + 4 + 4 = 11; bl(0) = 1 + max(1+9, 2+11) = 14.
  const auto bl = bottom_levels(g, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(bl[3], 4.0);
  EXPECT_DOUBLE_EQ(bl[1], 9.0);
  EXPECT_DOUBLE_EQ(bl[2], 11.0);
  EXPECT_DOUBLE_EQ(bl[0], 14.0);
}

TEST(GraphAlgorithms, BottomLevelsScaleWithFactors) {
  const TaskGraph g = make_diamond();
  const auto bl = bottom_levels(g, 2.0, 0.0);
  // No communication charges: bl(0) = 2*(1 + max(2+4, 3+4)) = 2*8 = 16.
  EXPECT_DOUBLE_EQ(bl[0], 16.0);
}

TEST(GraphAlgorithms, TopLevelsOnDiamond) {
  const TaskGraph g = make_diamond();
  const auto tl = top_levels(g, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(tl[0], 0.0);
  EXPECT_DOUBLE_EQ(tl[1], 2.0);   // w(0) + data(0,1)
  EXPECT_DOUBLE_EQ(tl[2], 3.0);   // w(0) + data(0,2)
  EXPECT_DOUBLE_EQ(tl[3], 10.0);  // via 2: 3 + 3 + 4
}

TEST(GraphAlgorithms, IsoLevels) {
  const TaskGraph g = make_diamond();
  const auto lvl = iso_levels(g);
  EXPECT_EQ(lvl[0], 0);
  EXPECT_EQ(lvl[1], 1);
  EXPECT_EQ(lvl[2], 1);
  EXPECT_EQ(lvl[3], 2);
  EXPECT_EQ(max_level_width(g), 2u);
}

TEST(GraphAlgorithms, CriticalPathFollowsHeaviestRoute) {
  const TaskGraph g = make_diamond();
  const CriticalPath cp = critical_path(g, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(cp.length, 14.0);
  EXPECT_EQ(cp.tasks, (std::vector<TaskId>{0, 2, 3}));
}

TEST(GraphAlgorithms, CriticalPathOnChain) {
  TaskGraph g;
  for (int i = 0; i < 4; ++i) g.add_task(1.0);
  for (TaskId v = 0; v + 1 < 4; ++v) g.add_edge(v, v + 1, 2.0);
  g.finalize();
  const CriticalPath cp = critical_path(g, 1.0, 1.0);
  EXPECT_EQ(cp.tasks.size(), 4u);
  EXPECT_DOUBLE_EQ(cp.length, 4.0 + 3 * 2.0);
}

TEST(GraphAlgorithms, EmptyGraph) {
  TaskGraph g;
  g.finalize();
  EXPECT_TRUE(critical_path(g, 1.0, 1.0).tasks.empty());
  EXPECT_EQ(max_level_width(g), 0u);
}

// ------------------------------------------------------- DOT export

TEST(DotExport, EmitsNodesAndEdges) {
  const TaskGraph g = make_diamond();
  std::ostringstream oss;
  write_dot(oss, g, {.graph_name = "diamond"});
  const std::string dot = oss.str();
  EXPECT_NE(dot.find("digraph diamond"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("w=2"), std::string::npos);
}

TEST(DotExport, TruncatesLargeGraphs) {
  TaskGraph g;
  for (int i = 0; i < 10; ++i) g.add_task(1.0);
  g.finalize();
  std::ostringstream oss;
  write_dot(oss, g, {.max_tasks = 3});
  EXPECT_NE(oss.str().find("truncated"), std::string::npos);
  EXPECT_EQ(oss.str().find("n5"), std::string::npos);
}

}  // namespace
}  // namespace oneport
