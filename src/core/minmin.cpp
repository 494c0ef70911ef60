#include "core/minmin.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace oneport {

Schedule min_min(const TaskGraph& graph, const Platform& platform,
                 const MinMinOptions& options) {
  OP_REQUIRE(graph.finalized(), "graph must be finalized");
  EftEngine engine(graph, platform, options.model, options.routing);

  std::vector<TaskId> ready;
  for (TaskId v = 0; v < graph.num_tasks(); ++v) {
    if (engine.ready(v)) ready.push_back(v);
  }

  while (!ready.empty()) {
    // Evaluate the best placement of every ready task, then commit the
    // min-min (or max-min) choice.  Ties break toward the smaller task id
    // (ready is kept id-sorted).
    std::size_t chosen = 0;
    Evaluation chosen_eval;
    for (std::size_t i = 0; i < ready.size(); ++i) {
      Evaluation eval = engine.evaluate_best(ready[i]);
      const bool better =
          chosen_eval.proc < 0 ||
          (options.max_min ? eval.finish > chosen_eval.finish + kTimeEps
                           : eval.finish < chosen_eval.finish - kTimeEps);
      if (better) {
        chosen = i;
        chosen_eval = std::move(eval);
      }
    }
    // The committed reservations invalidate the other evaluations; they
    // are recomputed next round (that is the price of batch matching).
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
