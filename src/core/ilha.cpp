#include "core/ilha.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/heft.hpp"
#include "core/priorities.hpp"
#include "platform/load_balance.hpp"
#include "util/error.hpp"

namespace oneport {

namespace {

/// If every predecessor of `v` lives on one single processor, returns it;
/// otherwise (or when v is an entry task) returns -1.
ProcId common_parent_processor(const TaskGraph& graph, const EftEngine& engine,
                               TaskId v) {
  ProcId common = -1;
  for (const EdgeRef& e : graph.predecessors(v)) {
    const ProcId p = engine.placement(e.task).proc;
    if (common == -1) {
      common = p;
    } else if (common != p) {
      return -1;
    }
  }
  return common;
}

/// Distinct processors hosting predecessors of `v` (size <= 3 needed).
std::vector<ProcId> parent_processors(const TaskGraph& graph,
                                      const EftEngine& engine, TaskId v) {
  std::vector<ProcId> procs;
  for (const EdgeRef& e : graph.predecessors(v)) {
    const ProcId p = engine.placement(e.task).proc;
    if (std::find(procs.begin(), procs.end(), p) == procs.end()) {
      procs.push_back(p);
    }
  }
  return procs;
}

}  // namespace

Schedule ilha(const TaskGraph& graph, const Platform& platform,
              const IlhaOptions& options) {
  OP_REQUIRE(graph.finalized(), "graph must be finalized");
  OP_REQUIRE(options.chunk_size > 0, "chunk size must be positive");
  // "B must be at least equal to the number of processors, otherwise some
  // processors would be kept idle."
  const std::size_t chunk_size = static_cast<std::size_t>(
      std::max(options.chunk_size, platform.num_processors()));

  const std::vector<double> bl = averaged_bottom_levels(graph, platform);
  const PriorityOrder higher_priority{&bl};
  const auto lower_priority = [&higher_priority](TaskId a, TaskId b) {
    return higher_priority(b, a);
  };
  EftEngine engine(graph, platform, options.model, options.routing);

  const std::vector<double> fractions = balanced_fractions(platform);

  // The ready list is kept sorted with the *highest* priority at the
  // back, so carving off a chunk is a suffix copy plus an O(1) resize
  // instead of an O(n) front erase per chunk.  Readiness is counted
  // here rather than read from engine.ready(): successors are released
  // after the whole chunk commits, when a successor of two chunk members
  // would read ready for both.
  std::vector<TaskId> ready;
  std::vector<std::size_t> waiting(graph.num_tasks());
  for (TaskId v = 0; v < graph.num_tasks(); ++v) {
    waiting[v] = graph.in_degree(v);
    if (waiting[v] == 0) ready.push_back(v);
  }
  std::sort(ready.begin(), ready.end(), lower_priority);

  std::vector<TaskId> newly_ready;
  std::size_t scheduled_total = 0;

  const auto nproc = static_cast<std::size_t>(platform.num_processors());
  std::vector<double> load(nproc);
  std::vector<double> quota(nproc);
  // Hoisted per-chunk scratch: the evaluation recycles its comms
  // capacity across commits, the vectors theirs across chunks.
  Evaluation scratch;
  std::vector<TaskId> chunk;
  std::vector<TaskId> merged;
  std::vector<bool> assigned;

  while (!ready.empty()) {
    const std::size_t take = std::min(chunk_size, ready.size());
    chunk.assign(ready.rbegin(), ready.rbegin() + static_cast<long>(take));
    ready.resize(ready.size() - take);

    // Load-balancing quota for this chunk: processor i may take up to
    // c_i * W of the chunk's total weight W.
    double chunk_weight = 0.0;
    for (const TaskId v : chunk) chunk_weight += graph.weight(v);
    for (std::size_t p = 0; p < nproc; ++p) {
      quota[p] = fractions[p] * chunk_weight;
      load[p] = 0.0;
    }
    auto fits_quota = [&](ProcId p, TaskId v) {
      const std::size_t i = static_cast<std::size_t>(p);
      return load[i] + graph.weight(v) <= quota[i] + 1e-9 * (1.0 + quota[i]);
    };

    assigned.assign(chunk.size(), false);
    auto commit_on = [&](std::size_t idx, ProcId p) {
      const TaskId v = chunk[idx];
      engine.evaluate_into(v, p, scratch);
      engine.commit(scratch);
      load[static_cast<std::size_t>(p)] += graph.weight(v);
      assigned[idx] = true;
      ++scheduled_total;
    };

    // Step 1: communication-free assignments under the quota.
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      const TaskId v = chunk[i];
      const ProcId p = common_parent_processor(graph, engine, v);
      if (p >= 0 && fits_quota(p, v)) commit_on(i, p);
    }

    // Optional scan: tasks costing exactly one message.  Candidate target
    // processors are those already hosting parents; a task whose parents
    // span at most two processors can run on either of them with a single
    // message.  Pick the candidate with the earliest finish time.
    if (options.single_comm_scan) {
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        if (assigned[i]) continue;
        const TaskId v = chunk[i];
        const std::vector<ProcId> procs = parent_processors(graph, engine, v);
        if (procs.empty() || procs.size() > 2) continue;
        Evaluation best;
        for (const ProcId p : procs) {
          if (!fits_quota(p, v)) continue;
          engine.evaluate_into(v, p, scratch);
          if (best.proc < 0 || scratch.finish < best.finish - kTimeEps ||
              (scratch.finish < best.finish + kTimeEps && p < best.proc)) {
            std::swap(best, scratch);
          }
        }
        if (best.proc >= 0) {
          engine.commit(best);
          load[static_cast<std::size_t>(best.proc)] += graph.weight(v);
          assigned[i] = true;
          ++scheduled_total;
        }
      }
    }

    // Step 2: HEFT-style earliest finish time for the remainder.
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      if (assigned[i]) continue;
      const TaskId v = chunk[i];
      if (!options.quota_in_step2) {
        engine.commit(engine.evaluate_best(v));
        load[static_cast<std::size_t>(engine.placement(v).proc)] +=
            graph.weight(v);
      } else {
        Evaluation best;
        for (ProcId p = 0; p < platform.num_processors(); ++p) {
          if (!fits_quota(p, v)) continue;
          engine.evaluate_into(v, p, scratch);
          if (best.proc < 0 || scratch.finish < best.finish - kTimeEps) {
            std::swap(best, scratch);
          }
        }
        // All processors saturated: fall back to the unrestricted rule so
        // the schedule always completes.
        if (best.proc < 0) best = engine.evaluate_best(v);
        load[static_cast<std::size_t>(best.proc)] += graph.weight(v);
        engine.commit(best);
      }
      assigned[i] = true;
      ++scheduled_total;
    }

    // Refresh the ready list with tasks released by this chunk.
    newly_ready.clear();
    for (const TaskId v : chunk) {
      for (const EdgeRef& e : graph.successors(v)) {
        if (--waiting[e.task] == 0) newly_ready.push_back(e.task);
      }
    }
    std::sort(newly_ready.begin(), newly_ready.end(), lower_priority);
    merged.clear();
    merged.reserve(ready.size() + newly_ready.size());
    std::merge(ready.begin(), ready.end(), newly_ready.begin(),
               newly_ready.end(), std::back_inserter(merged),
               lower_priority);
    std::swap(ready, merged);
  }

  OP_ASSERT(scheduled_total == graph.num_tasks(),
            "ILHA scheduled " << scheduled_total << " of "
                              << graph.num_tasks() << " tasks");
  Schedule schedule = std::move(engine).build_schedule();

  if (options.reschedule_comms) {
    std::vector<ProcId> allocation(graph.num_tasks());
    for (TaskId v = 0; v < graph.num_tasks(); ++v) {
      allocation[v] = schedule.task(v).proc;
    }
    Schedule rebuilt = reschedule_fixed_allocation(
        graph, platform, allocation, options.model, options.routing);
    // The greedy rebuild is a heuristic for an NP-complete problem
    // (Theorem 2); keep it only when it actually helps.
    if (rebuilt.makespan() < schedule.makespan()) return rebuilt;
  }
  return schedule;
}

Schedule reschedule_fixed_allocation(const TaskGraph& graph,
                                     const Platform& platform,
                                     const std::vector<ProcId>& allocation,
                                     CommModel model,
                                     const RoutingTable* routing) {
  OP_REQUIRE(graph.finalized(), "graph must be finalized");
  OP_REQUIRE(allocation.size() == graph.num_tasks(),
             "allocation arity mismatch");
  // The priority loop reads a negative entry as "earliest finish", so an
  // entry off the platform must be rejected here.
  for (const ProcId p : allocation) {
    OP_REQUIRE(p >= 0 && p < platform.num_processors(),
               "allocation names processor " << p << " outside [0, "
                                             << platform.num_processors()
                                             << ")");
  }
  return priority_list_schedule(graph, platform,
                                averaged_bottom_levels(graph, platform),
                                allocation,
                                {.model = model, .routing = routing});
}

}  // namespace oneport
