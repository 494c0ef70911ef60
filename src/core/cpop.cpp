#include "core/cpop.hpp"

#include <algorithm>
#include <vector>

#include "core/heft.hpp"
#include "core/priorities.hpp"
#include "util/error.hpp"

namespace oneport {

Schedule cpop(const TaskGraph& graph, const Platform& platform,
              const EftOptions& options) {
  OP_REQUIRE(graph.finalized(), "graph must be finalized");
  const std::vector<double> bl = averaged_bottom_levels(graph, platform);
  const std::vector<double> tl = averaged_top_levels(graph, platform);

  // rank(v) = top + bottom level; critical tasks realize the maximum rank.
  std::vector<double> rank(graph.num_tasks());
  double cp_length = 0.0;
  for (TaskId v = 0; v < graph.num_tasks(); ++v) {
    rank[v] = tl[v] + bl[v];
    cp_length = std::max(cp_length, rank[v]);
  }
  const double tolerance = 1e-9 * (1.0 + cp_length);
  const auto critical = [&](TaskId v) {
    return rank[v] >= cp_length - tolerance;
  };
  double critical_weight = 0.0;
  for (TaskId v = 0; v < graph.num_tasks(); ++v) {
    if (critical(v)) critical_weight += graph.weight(v);
  }
  // The critical-path processor minimizes the execution time of all
  // critical tasks (smallest index on ties) -- i.e. the fastest processor.
  ProcId cp_proc = 0;
  for (ProcId p = 1; p < platform.num_processors(); ++p) {
    if (platform.exec_time(critical_weight, p) <
        platform.exec_time(critical_weight, cp_proc)) {
      cp_proc = p;
    }
  }

  std::vector<ProcId> pinned(graph.num_tasks(), -1);
  for (TaskId v = 0; v < graph.num_tasks(); ++v) {
    if (critical(v)) pinned[v] = cp_proc;
  }
  return priority_list_schedule(graph, platform, bl, pinned, options);
}

}  // namespace oneport
