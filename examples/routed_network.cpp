// The §4.3 routing extension in action: schedule one of the paper's
// kernels on a fully connected network, a ring, a star, a 2x3 mesh, a
// torus, a fat tree, a heterogeneous-cost mesh (seeded link jitter,
// cost-aware swp routes), and an alternating-XY torus with identical
// processors, and watch the sparse interconnects pay for their
// multi-hop store-and-forward messages.
//
//   $ ./examples/routed_network --testbed=LAPLACE --n=24
#include <iostream>

#include "analysis/metrics.hpp"
#include "core/heft.hpp"
#include "core/ilha.hpp"
#include "platform/routing.hpp"
#include "sched/validate.hpp"
#include "testbeds/registry.hpp"
#include "util/args.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"

using namespace oneport;

namespace {

int run(int argc, char** argv) {
  const Args args(argc, argv);
  const std::string testbed_name = args.get("testbed", "LAPLACE");
  const int n = args.get_int("n", 24);
  const double c = args.get_double("c", 4.0);

  const testbeds::TestbedEntry testbed = testbeds::find_testbed(testbed_name);
  const TaskGraph graph = testbed.make(n, c);
  const std::vector<double> cycles{1, 1, 2, 2, 3, 3};

  std::cout << "one-port scheduling of " << testbed_name << "(" << n
            << "), c=" << c << ", same processor speeds under eight "
            << "network topologies (the fat tree recycles them over 7 "
            << "nodes)\n\n";

  csv::Table table({"topology", "scheduler", "makespan", "ratio",
                    "messages(hops)"});
  auto run = [&](const std::string& topo, const Platform& platform,
                 const RoutingTable* routing) {
    const Schedule hs = heft(graph, platform,
                             {.model = CommModel::kOnePort,
                              .routing = routing});
    const Schedule is = ilha(graph, platform,
                             {.model = CommModel::kOnePort,
                              .chunk_size = 12,
                              .routing = routing});
    for (const auto& [name, s] :
         {std::pair<const char*, const Schedule&>{"heft", hs},
          {"ilha", is}}) {
      ensure(validate_one_port(s, graph, platform).ok(),
             "invalid schedule on " + topo);
      table.add_row({topo, name, csv::format_number(s.makespan(), 0),
                     csv::format_number(
                         analysis::speedup(graph, platform, s)),
                     std::to_string(s.num_comms())});
    }
  };

  const Platform full(cycles, 1.0);
  run("full", full, nullptr);
  // The same six processors as a ring and a star, and as a 2x3 mesh and
  // torus (XY dimension-ordered routes); their speeds recycled over a
  // 2-level arity-2 fat tree (up-down routes, links tapering fatter
  // toward the root).  The ':'-suffixed names make link heterogeneity
  // and routing policy part of the axis: seeded +/-50% link jitter
  // routed cost-aware (swp), and the alternating-XY load-spreading
  // policy on the uniform torus.
  for (const char* name : {"ring", "star", "mesh2x3", "torus2x3", "fattree2x2",
                           "mesh2x3:het0.5:swp", "torus2x3:alt"}) {
    const RoutedPlatform routed = make_topology_platform(name, cycles, 1.0);
    run(name, routed.platform, &routed.routing);
  }

  table.write_pretty(std::cout);
  std::cout << "\nOn the ring/star, messages between non-adjacent "
               "processors hop through intermediates, each hop occupying "
               "its own send/receive port pair.  Sparser networks "
               "usually (not always -- the heuristics are not monotone "
               "in the topology) cost makespan, the star's hub being the "
               "worst bottleneck.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "routed_network: " << e.what() << "\n";
    return 1;
  }
}
