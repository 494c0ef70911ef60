// A walkthrough of the paper's two NP-completeness results, executed.
//
// Theorem 1 (FORK-SCHED): scheduling a fork graph on unlimited same-speed
// processors under the one-port model encodes 2-PARTITION.  Theorem 2
// (COMM-SCHED): even with the allocation fixed, *ordering the messages*
// encodes it again -- which is why ILHA's optional third step has to be a
// greedy heuristic.
//
//   $ ./examples/np_hardness_demo --values=3,1,1,2,2,1
#include <charconv>
#include <cstdint>
#include <iostream>
#include <string>
#include <system_error>
#include <vector>

#include "exact/reductions.hpp"
#include "exact/two_partition.hpp"
#include "sched/validate.hpp"
#include "util/args.hpp"
#include "util/error.hpp"

using namespace oneport;

namespace {

/// --values as whole decimal tokens, so "3x" is rejected rather than
/// read as 3.
std::vector<std::int64_t> parse_values(const std::string& csv) {
  std::vector<std::int64_t> values;
  for (const std::string& item : split_list(csv)) {
    std::int64_t value = 0;
    const char* const last = item.data() + item.size();
    const auto [ptr, ec] = std::from_chars(item.data(), last, value);
    require(ptr == last && ec == std::errc{},
            "--values expects comma-separated integers, got '" + item + "'");
    values.push_back(value);
  }
  require(!values.empty(), "need at least one value");
  return values;
}

int run(int argc, char** argv) {
  const Args args(argc, argv);
  const std::vector<std::int64_t> values =
      parse_values(args.get("values", "3,1,1,2,2,1"));

  std::cout << "2-PARTITION instance A = {";
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::cout << (i ? ", " : "") << values[i];
  }
  std::cout << "}\n";
  const auto half = exact::two_partition(values);
  std::cout << "solvable: " << (half ? "yes" : "no") << "\n\n";

  // ---- Theorem 1 -------------------------------------------------------
  const exact::ForkSchedInstance t1 = exact::make_fork_sched_instance(values);
  std::cout << "Theorem 1 (FORK-SCHED): fork of "
            << t1.fork.child_weights.size()
            << " children, time bound T = " << t1.time_bound << "\n";
  const exact::ForkOptimum opt = exact::solve_fork_one_port_optimal(t1.fork);
  std::cout << "  exhaustive one-port optimum = " << opt.makespan
            << (opt.makespan <= t1.time_bound + 1e-9 ? "  (meets T)"
                                                     : "  (exceeds T)")
            << "\n";
  if (half) {
    exact::RealizedFork realized =
        exact::realize_theorem1_schedule(values, *half);
    const ValidationResult check = validate_one_port(
        realized.schedule, realized.graph, realized.platform);
    std::cout << "  proof-following schedule from the certificate: makespan "
              << realized.schedule.makespan() << ", valid: "
              << (check.ok() ? "yes" : check.message()) << "\n";
  }

  // ---- Theorem 2 -------------------------------------------------------
  const exact::CommSchedInstance t2 = exact::make_comm_sched_instance(values);
  std::cout << "\nTheorem 2 (COMM-SCHED): " << t2.graph.num_tasks()
            << " zero-weight tasks on " << t2.platform.num_processors()
            << " processors, allocation fixed, bound T = " << t2.time_bound
            << "\n";
  if (values.size() <= 9) {
    const double opt2 = exact::solve_comm_sched_optimal(t2, values);
    std::cout << "  exhaustive optimum over P0's send orders = " << opt2
              << (opt2 <= t2.time_bound + 1e-9 ? "  (meets T)"
                                               : "  (exceeds T)")
              << "\n";
  }
  if (half) {
    const Schedule s = exact::realize_theorem2_schedule(t2, values, *half);
    const ValidationResult check =
        validate_one_port(s, t2.graph, t2.platform);
    std::cout << "  proof-following schedule: makespan " << s.makespan()
              << ", valid: " << (check.ok() ? "yes" : check.message())
              << "\n";
  }
  std::cout << "\nBoth bounds are met exactly when the partition exists -- "
               "the reductions at work.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "np_hardness_demo: " << e.what() << "\n";
    return 1;
  }
}
