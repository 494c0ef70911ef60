#include "core/gdl.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "graph/graph_algorithms.hpp"
#include "util/error.hpp"

namespace oneport {

Schedule gdl(const TaskGraph& graph, const Platform& platform,
             const EftOptions& options) {
  OP_REQUIRE(graph.finalized(), "graph must be finalized");
  // Static levels: computation only (GDL charges communications through
  // the DA term, not the level).
  const std::vector<double> sl =
      bottom_levels(graph, platform.harmonic_mean_cycle_time(), 0.0);
  const double mean_cycle = platform.harmonic_mean_cycle_time();

  EftEngine engine(graph, platform, options.model, options.routing);

  std::vector<TaskId> ready;
  for (TaskId v = 0; v < graph.num_tasks(); ++v) {
    if (engine.ready(v)) ready.push_back(v);
  }

  while (!ready.empty()) {
    std::size_t chosen = 0;
    Evaluation chosen_eval;
    double chosen_dl = 0.0;
    for (std::size_t i = 0; i < ready.size(); ++i) {
      const TaskId v = ready[i];
      for (ProcId p = 0; p < platform.num_processors(); ++p) {
        Evaluation eval = engine.evaluate(v, p);
        // eval.start already is max(DA, TF) after gap search.
        const double delta =
            graph.weight(v) * (mean_cycle - platform.cycle_time(p));
        const double dl = sl[v] - eval.start + delta;
        if (chosen_eval.proc < 0 || dl > chosen_dl + kTimeEps) {
          chosen = i;
          chosen_dl = dl;
          chosen_eval = std::move(eval);
        }
      }
    }
    engine.commit(chosen_eval);
    const TaskId done = ready[chosen];
    ready.erase(ready.begin() + static_cast<long>(chosen));
    for (const EdgeRef& e : graph.successors(done)) {
      if (engine.ready(e.task)) {
        const auto pos = std::lower_bound(ready.begin(), ready.end(), e.task);
        ready.insert(pos, e.task);
      }
    }
  }
  return std::move(engine).build_schedule();
}

}  // namespace oneport
