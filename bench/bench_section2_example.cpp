// §2.3 worked example (Figure 1): a fork with six unit children on five
// same-speed processors, unit weights and unit data.
//
// The paper derives:
//   * macro-dataflow model: makespan 3 (parent + children v1,v2 on P0;
//     the four remaining messages travel in parallel);
//   * one-port model, same allocation: >= 6 (the four messages serialize
//     on P0's send port);
//   * one-port optimum: 5 (keep three children local, ship three).
// This binary regenerates all three numbers, plus what the heuristics do.
#include <iostream>

#include "core/heft.hpp"
#include "core/ilha.hpp"
#include "exact/fork_optimal.hpp"
#include "sched/replay.hpp"
#include "sched/validate.hpp"
#include "testbeds/testbeds.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"

using namespace oneport;

int main() {
  const TaskGraph graph = testbeds::make_fork(
      1.0, std::vector<double>(6, 1.0), std::vector<double>(6, 1.0));
  const Platform platform = make_homogeneous_platform(5, 1.0, 1.0);

  csv::Table table({"schedule", "model", "makespan", "messages", "valid"});
  auto add = [&table](const std::string& name, const std::string& model,
                      const Schedule& s, const ValidationResult& check) {
    table.add_row({name, model, csv::format_number(s.makespan()),
                   std::to_string(s.num_comms()),
                   check.ok() ? "yes" : "NO"});
  };

  // Macro-dataflow HEFT: the contention-free makespan (paper: 3).
  const Schedule macro =
      heft(graph, platform, {.model = CommModel::kMacroDataflow});
  add("heft", "macro-dataflow", macro,
      validate_macro_dataflow(macro, graph, platform));

  // The same decisions replayed under one-port rules (paper: >= 6 for the
  // macro-optimal allocation).
  const Schedule replayed =
      asap_replay(macro, graph, platform, CommModel::kOnePort);
  add("heft(macro) replayed", "one-port", replayed,
      validate_one_port(replayed, graph, platform));

  // Native one-port heuristics.
  const Schedule hop =
      heft(graph, platform, {.model = CommModel::kOnePort});
  add("heft", "one-port", hop, validate_one_port(hop, graph, platform));
  const Schedule iop = ilha(
      graph, platform, {.model = CommModel::kOnePort, .chunk_size = 8});
  add("ilha(B=8)", "one-port", iop, validate_one_port(iop, graph, platform));

  // Exact one-port optimum (paper: 5).
  exact::ForkInstance instance{1.0, std::vector<double>(6, 1.0),
                               std::vector<double>(6, 1.0), 1.0, 1.0};
  const exact::ForkOptimum opt = exact::solve_fork_one_port_optimal(instance);
  exact::RealizedFork realized = exact::realize_fork_schedule(instance, opt);
  add("exact optimum", "one-port", realized.schedule,
      validate_one_port(realized.schedule, realized.graph,
                        realized.platform));

  std::cout << "Section 2.3 example -- 6-child fork, 5 same-speed "
               "processors, unit costs\n";
  table.write_pretty(std::cout);
  std::cout << "\npaper reference: macro 3; one-port with macro's "
               "allocation >= 6; one-port optimum 5\n";
  std::cout << "exact optimum keeps " << opt.local_children.size()
            << " children on P0\n";
  return 0;
}
