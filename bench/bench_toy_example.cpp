// §4.4 toy example (Figures 3-4): two 4-task families plus two shared
// children, all unit weights and unit data, two same-speed processors.
//
// The paper walks through both heuristics: HEFT ping-pongs tasks between
// the processors and generates several messages, while ILHA (with B >= 8,
// i.e. a full chunk) assigns each family to its parent's processor in
// step 1 -- smaller makespan AND far fewer messages ("reducing
// communications while achieving a good load balance is the objective
// that has guided the design of ILHA").
#include <iostream>

#include "analysis/gantt.hpp"
#include "core/heft.hpp"
#include "core/ilha.hpp"
#include "sched/validate.hpp"
#include "util/csv.hpp"

using namespace oneport;

namespace {

/// Figure 3: a0 -> {a1,a2,a3,ab1,ab2}, b0 -> {ab1,ab2,b3,b2,b1}.  Task
/// ids follow the paper's priority order a1,a2,a3,ab1,ab2,b3,b2,b1 so the
/// id tie-break reproduces its ranking.
TaskGraph make_toy() {
  TaskGraph g;
  const TaskId a0 = g.add_task(1.0, "a0");
  const TaskId b0 = g.add_task(1.0, "b0");
  const TaskId a1 = g.add_task(1.0, "a1");
  const TaskId a2 = g.add_task(1.0, "a2");
  const TaskId a3 = g.add_task(1.0, "a3");
  const TaskId ab1 = g.add_task(1.0, "ab1");
  const TaskId ab2 = g.add_task(1.0, "ab2");
  const TaskId b3 = g.add_task(1.0, "b3");
  const TaskId b2 = g.add_task(1.0, "b2");
  const TaskId b1 = g.add_task(1.0, "b1");
  for (const TaskId child : {a1, a2, a3, ab1, ab2}) g.add_edge(a0, child, 1.0);
  for (const TaskId child : {ab1, ab2, b3, b2, b1}) g.add_edge(b0, child, 1.0);
  g.finalize();
  return g;
}

}  // namespace

int main() {
  const TaskGraph graph = make_toy();
  const Platform platform = make_homogeneous_platform(2, 1.0, 1.0);

  const Schedule hs =
      heft(graph, platform, {.model = CommModel::kOnePort});
  const Schedule is = ilha(
      graph, platform, {.model = CommModel::kOnePort, .chunk_size = 8});

  std::cout << "Section 4.4 toy example -- 2 same-speed processors\n\n";
  csv::Table table({"heuristic", "makespan", "messages", "valid"});
  table.add_row({"heft-oneport", csv::format_number(hs.makespan()),
                 std::to_string(hs.num_comms()),
                 validate_one_port(hs, graph, platform).ok() ? "yes" : "NO"});
  table.add_row({"ilha-oneport(B=8)", csv::format_number(is.makespan()),
                 std::to_string(is.num_comms()),
                 validate_one_port(is, graph, platform).ok() ? "yes" : "NO"});
  table.write_pretty(std::cout);
  std::cout << "\npaper reference: ILHA beats HEFT on makespan and cuts "
               "the message count drastically\n\n";

  std::cout << "HEFT schedule:\n";
  analysis::write_gantt_ascii(std::cout, hs, platform, {.width = 60});
  std::cout << "\nILHA schedule:\n";
  analysis::write_gantt_ascii(std::cout, is, platform, {.width = 60});
  return 0;
}
