#include "core/cpop.hpp"

#include <algorithm>
#include <vector>

#include "core/priorities.hpp"
#include "util/error.hpp"

namespace oneport {

Schedule cpop(const TaskGraph& graph, const Platform& platform,
              const CpopOptions& options) {
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
  std::vector<bool> critical(graph.num_tasks(), false);
  double critical_weight = 0.0;
  for (TaskId v = 0; v < graph.num_tasks(); ++v) {
    if (rank[v] >= cp_length - tolerance) {
      critical[v] = true;
      critical_weight += graph.weight(v);
    }
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

  const PriorityOrder higher_priority{&bl};
  EftEngine engine(graph, platform, options.model, options.routing);

  std::vector<TaskId> ready;
  for (TaskId v = 0; v < graph.num_tasks(); ++v) {
    if (engine.ready(v)) ready.push_back(v);
  }
  std::sort(ready.begin(), ready.end(), higher_priority);

  while (!ready.empty()) {
    const TaskId v = ready.front();
    ready.erase(ready.begin());
    if (critical[v]) {
      engine.commit(engine.evaluate(v, cp_proc));
    } else {
      engine.commit(engine.evaluate_best(v));
    }
    for (const EdgeRef& e : graph.successors(v)) {
      if (engine.ready(e.task)) {
        const auto pos = std::lower_bound(ready.begin(), ready.end(), e.task,
                                          higher_priority);
        ready.insert(pos, e.task);
      }
    }
  }
  return engine.build_schedule();
}

}  // namespace oneport
