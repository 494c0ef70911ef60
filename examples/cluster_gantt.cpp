// Schedule a random workflow on a two-rack heterogeneous cluster (fast
// links inside a rack, slow links across racks) and emit Gantt charts:
// ASCII to stdout, SVG to files.
//
//   $ ./examples/cluster_gantt --seed=7 --layers=10 --out=cluster
//
// Demonstrates non-uniform link matrices: the one-port machinery is
// per-port, so heterogeneous links need no special handling.
#include <fstream>
#include <iostream>

#include "analysis/gantt.hpp"
#include "analysis/metrics.hpp"
#include "core/heft.hpp"
#include "core/ilha.hpp"
#include "sched/validate.hpp"
#include "testbeds/testbeds.hpp"
#include "util/args.hpp"

using namespace oneport;

namespace {

/// Two racks of three machines; rack 0 is fast (t=1), rack 1 slower
/// (t=2); links cost 0.5 inside a rack and 4 across.
Platform make_two_rack_cluster() {
  const int p = 6;
  Matrix<double> link(p, p, 0.0);
  for (int q = 0; q < p; ++q) {
    for (int r = 0; r < p; ++r) {
      if (q == r) continue;
      const bool same_rack = (q < 3) == (r < 3);
      link(static_cast<std::size_t>(q), static_cast<std::size_t>(r)) =
          same_rack ? 0.5 : 4.0;
    }
  }
  return Platform({1.0, 1.0, 1.0, 2.0, 2.0, 2.0}, std::move(link));
}

int run(int argc, char** argv) {
  const Args args(argc, argv);
  testbeds::RandomDagOptions options;
  options.seed = args.get_u64("seed", 7);
  options.layers = args.get_int("layers", 10);
  options.max_width = args.get_int("width", 5);
  options.comm_ratio = args.get_double("c", 2.0);
  const std::string out_prefix = args.get("out", "cluster");

  const TaskGraph graph = testbeds::make_random_layered(options);
  const Platform platform = make_two_rack_cluster();
  std::cout << "random workflow: " << graph.num_tasks() << " tasks, "
            << graph.num_edges() << " edges; two-rack cluster of "
            << platform.num_processors() << " machines\n\n";

  const Schedule hs = heft(graph, platform,
                           {.model = CommModel::kOnePort});
  const Schedule is = ilha(graph, platform,
                           {.model = CommModel::kOnePort,
                            .chunk_size = 8});
  for (const auto& [name, schedule] :
       {std::pair<const char*, const Schedule&>{"heft", hs},
        {"ilha", is}}) {
    const ValidationResult check = validate_one_port(schedule, graph,
                                                     platform);
    std::cout << "== " << name << " ==  makespan "
              << schedule.makespan() << ", speedup "
              << analysis::speedup(graph, platform, schedule) << ", "
              << schedule.num_comms() << " messages, valid: "
              << (check.ok() ? "yes" : check.message()) << "\n";
    analysis::write_gantt_ascii(std::cout, schedule, platform,
                                {.width = 80, .show_ports = false});
    const std::string file = out_prefix + "_" + name + ".svg";
    std::ofstream svg(file);
    analysis::write_gantt_svg(svg, schedule, platform);
    std::cout << "SVG written to " << file << "\n\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "cluster_gantt: " << e.what() << "\n";
    return 1;
  }
}
