#include "core/heft.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/priorities.hpp"
#include "util/error.hpp"

namespace oneport {

Schedule heft(const TaskGraph& graph, const Platform& platform,
              const EftOptions& options) {
  OP_REQUIRE(graph.finalized(), "graph must be finalized");
  return priority_list_schedule(
      graph, platform, averaged_bottom_levels(graph, platform), {}, options);
}

Schedule priority_list_schedule(const TaskGraph& graph,
                                const Platform& platform,
                                const std::vector<double>& bottom_levels,
                                const std::vector<ProcId>& pinned,
                                const EftOptions& options) {
  OP_REQUIRE(bottom_levels.size() == graph.num_tasks(),
             "bottom level arity mismatch");
  OP_REQUIRE(pinned.empty() || pinned.size() == graph.num_tasks(),
             "pinned arity mismatch");
  EftEngine engine(graph, platform, options.model, options.routing);

  // Ready queue as a binary max-heap on the priority order.  The order
  // is strict and total (bottom level, then task id), so every structure
  // that extracts the current maximum dequeues the exact same sequence;
  // the heap just does it in O(log n) instead of the O(n) memmove a
  // sorted vector pays per insertion.
  const PriorityOrder higher_priority{&bottom_levels};
  const auto lower_priority = [&higher_priority](TaskId a, TaskId b) {
    return higher_priority(b, a);
  };
  std::vector<TaskId> ready;
  for (TaskId v = 0; v < graph.num_tasks(); ++v) {
    if (engine.ready(v)) ready.push_back(v);
  }
  std::make_heap(ready.begin(), ready.end(), lower_priority);

  Evaluation scratch;
  std::size_t scheduled = 0;
  while (!ready.empty()) {
    std::pop_heap(ready.begin(), ready.end(), lower_priority);
    const TaskId v = ready.back();
    ready.pop_back();
    const ProcId proc = pinned.empty() ? -1 : pinned[v];
    if (proc < 0) {
      engine.commit(engine.evaluate_best(v));
    } else {
      engine.evaluate_into(v, proc, scratch);
      engine.commit(scratch);
    }
    ++scheduled;
    // commit() maintains the engine's indegree counters, so a successor
    // is ready exactly when its last predecessor was just committed.
    for (const EdgeRef& e : graph.successors(v)) {
      if (engine.ready(e.task)) {
        ready.push_back(e.task);
        std::push_heap(ready.begin(), ready.end(), lower_priority);
      }
    }
  }
  OP_ASSERT(scheduled == graph.num_tasks(),
            "priority list scheduled " << scheduled << " of "
                                       << graph.num_tasks() << " tasks");
  return std::move(engine).build_schedule();
}

}  // namespace oneport
