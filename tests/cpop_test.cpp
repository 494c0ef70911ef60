#include <gtest/gtest.h>

#include "core/cpop.hpp"
#include "sched/validate.hpp"
#include "testbeds/testbeds.hpp"

namespace oneport {
namespace {

TEST(Cpop, CriticalPathTasksShareAProcessor) {
  // A heavy chain with cheap side tasks: the chain is the critical path
  // and must land on one processor.
  TaskGraph g;
  TaskId prev = g.add_task(10.0);
  std::vector<TaskId> chain{prev};
  for (int i = 0; i < 4; ++i) {
    const TaskId next = g.add_task(10.0);
    g.add_edge(prev, next, 1.0);
    chain.push_back(next);
    prev = next;
  }
  const TaskId side = g.add_task(0.5);
  g.add_edge(chain[0], side, 0.1);
  g.finalize();

  const Platform p({1.0, 2.0, 2.0}, 1.0);
  const Schedule s = cpop(g, p, {.model = CommModel::kOnePort});
  EXPECT_TRUE(validate_one_port(s, g, p).ok());
  const ProcId cp_proc = s.task(chain[0]).proc;
  EXPECT_EQ(cp_proc, 0);  // fastest processor executes the critical path
  for (const TaskId v : chain) EXPECT_EQ(s.task(v).proc, cp_proc);
}

TEST(Cpop, ValidOnTestbeds) {
  const Platform p = make_paper_platform();
  const TaskGraph lu = testbeds::make_lu(12, 10.0);
  EXPECT_TRUE(validate_one_port(
                  cpop(lu, p, {.model = CommModel::kOnePort}), lu, p)
                  .ok());
  EXPECT_TRUE(
      validate_macro_dataflow(
          cpop(lu, p, {.model = CommModel::kMacroDataflow}), lu, p)
          .ok());
}

TEST(Cpop, DegeneratesOnAllCriticalGraphs) {
  // Every LAPLACE node lies on a critical path, so CPOP pins the whole
  // graph to one processor -- a known weakness of the heuristic on
  // uniform wavefront graphs (and why the paper's baselines matter).
  const TaskGraph g = testbeds::make_laplace(6, 10.0);
  const Platform p = make_paper_platform();
  const Schedule s = cpop(g, p, {.model = CommModel::kOnePort});
  EXPECT_TRUE(validate_one_port(s, g, p).ok());
  EXPECT_EQ(s.num_comms(), 0u);
  for (TaskId v = 1; v < g.num_tasks(); ++v) {
    EXPECT_EQ(s.task(v).proc, s.task(0).proc);
  }
}

TEST(Cpop, Deterministic) {
  const TaskGraph g = testbeds::make_stencil(8, 10.0);
  const Platform p = make_paper_platform();
  const Schedule a = cpop(g, p, {});
  const Schedule b = cpop(g, p, {});
  for (TaskId v = 0; v < g.num_tasks(); ++v) {
    EXPECT_EQ(a.task(v).proc, b.task(v).proc);
  }
}

}  // namespace
}  // namespace oneport
