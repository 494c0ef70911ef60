#include "support/invariants.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graph/dot_import.hpp"
#include "sched/interval.hpp"
#include "sched/serialize.hpp"
#include "sched/validate.hpp"
#include "util/csv.hpp"

namespace oneport::testsupport {
namespace {

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

std::vector<std::string> check_valid(const Scenario& scenario,
                                     const Schedule& schedule,
                                     CommModel model) {
  std::vector<std::string> errors;
  if (schedule.num_tasks() != scenario.graph.num_tasks()) {
    errors.push_back("schedule has " + std::to_string(schedule.num_tasks()) +
                     " tasks, graph has " +
                     std::to_string(scenario.graph.num_tasks()));
    return errors;
  }
  if (!schedule.complete()) {
    errors.push_back("schedule is incomplete (unplaced tasks)");
    return errors;
  }
  const ValidationResult check =
      validate(schedule, scenario.graph, scenario.platform, model);
  for (const std::string& e : check.errors) errors.push_back(e);
  return errors;
}

std::vector<std::string> check_makespan_lower_bounds(const Scenario& scenario,
                                                     const Schedule& schedule) {
  std::vector<std::string> errors;
  const TaskGraph& g = scenario.graph;
  const Platform& p = scenario.platform;
  const double makespan = schedule.makespan();

  double min_cycle = p.cycle_time(0);
  for (ProcId q = 1; q < p.num_processors(); ++q) {
    min_cycle = std::min(min_cycle, p.cycle_time(q));
  }

  // (a) heaviest task on the fastest processor.
  double heaviest = 0.0;
  for (TaskId v = 0; v < g.num_tasks(); ++v) {
    heaviest = std::max(heaviest, g.weight(v));
  }
  const double single_task_bound = heaviest * min_cycle;

  // (b) perfectly divisible work over the aggregate speed.
  const double area_bound = g.total_weight() / p.aggregate_speed();

  // (c) communication-free critical path, every task on the fastest
  // processor -- a relaxation of any legal execution.
  std::vector<double> done(g.num_tasks(), 0.0);
  double cp_bound = 0.0;
  for (const TaskId v : g.topological_order()) {
    double ready = 0.0;
    for (const EdgeRef& in : g.predecessors(v)) {
      ready = std::max(ready, done[in.task]);
    }
    done[v] = ready + g.weight(v) * min_cycle;
    cp_bound = std::max(cp_bound, done[v]);
  }

  const struct {
    const char* name;
    double bound;
  } bounds[] = {{"single-task", single_task_bound},
                {"area", area_bound},
                {"critical-path", cp_bound}};
  for (const auto& b : bounds) {
    if (makespan < b.bound - kTimeEps) {
      errors.push_back(std::string("makespan ") + fmt(makespan) +
                       " beats the " + b.name + " lower bound " +
                       fmt(b.bound));
    }
  }
  return errors;
}

std::vector<std::string> check_replay_dominance(const Scenario& scenario,
                                                const Schedule& schedule,
                                                CommModel model) {
  std::vector<std::string> errors;
  const double makespan = schedule.makespan();

  const Schedule same =
      asap_replay(schedule, scenario.graph, scenario.platform, model);
  if (same.makespan() > makespan + kTimeEps) {
    errors.push_back("ASAP replay under the same model worsened the "
                     "makespan: " +
                     fmt(makespan) + " -> " + fmt(same.makespan()));
  }

  if (model == CommModel::kOnePort) {
    // Macro-dataflow drops the port constraints, so replaying the same
    // decisions under the relaxed rules can only help.
    const Schedule relaxed = asap_replay(schedule, scenario.graph,
                                         scenario.platform,
                                         CommModel::kMacroDataflow);
    if (relaxed.makespan() > makespan + kTimeEps) {
      errors.push_back("macro-dataflow relaxation worsened the makespan: " +
                       fmt(makespan) + " -> " + fmt(relaxed.makespan()));
    }
  }
  return errors;
}

std::vector<std::string> check_serialize_round_trip(const Scenario& scenario,
                                                    const Schedule& schedule,
                                                    CommModel model) {
  std::vector<std::string> errors;
  const TaskGraph& g = scenario.graph;

  // The JSON writer renders weights and data with csv::format_number, so
  // the reread graph must hold exactly the doubles that text denotes.
  const auto rendered = [](double x) {
    return std::strtod(csv::format_number(x).c_str(), nullptr);
  };
  const auto same_bits = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  std::ostringstream graph_out;
  write_json_graph(graph_out, g, {.graph_name = "p4"});
  ImportedGraph imported;
  try {
    imported = import_json(graph_out.str());
  } catch (const std::exception& e) {
    errors.push_back(std::string("graph round-trip failed to parse: ") +
                     e.what());
    return errors;
  }
  const TaskGraph& graph2 = imported.graph;
  if (imported.graph_name != "p4" || graph2.num_tasks() != g.num_tasks() ||
      graph2.num_edges() != g.num_edges()) {
    errors.push_back("graph round-trip changed the name or the shape");
    return errors;
  }
  for (TaskId v = 0; v < g.num_tasks(); ++v) {
    if (!same_bits(graph2.weight(v), rendered(g.weight(v))) ||
        graph2.name(v) != g.name(v)) {
      errors.push_back("graph round-trip changed task " + std::to_string(v));
    }
    const auto out = g.successors(v);
    const auto out2 = graph2.successors(v);
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (i >= out2.size() || out2[i].task != out[i].task ||
          !same_bits(out2[i].data, rendered(out[i].data))) {
        errors.push_back("graph round-trip lost or changed edge " +
                         std::to_string(v) + "->" +
                         std::to_string(out[i].task));
      }
    }
  }

  std::stringstream sched_io;
  write_schedule(sched_io, schedule);
  Schedule schedule2;
  try {
    schedule2 = read_schedule(sched_io);
  } catch (const std::exception& e) {
    errors.push_back(std::string("schedule round-trip failed to parse: ") +
                     e.what());
    return errors;
  }
  if (schedule2.tasks() != schedule.tasks() ||
      schedule2.comms() != schedule.comms()) {
    errors.push_back("schedule round-trip is not bit-exact");
  }
  // The reread schedule must still pass the independent validator.
  const ValidationResult check =
      validate(schedule2, g, scenario.platform, model);
  if (!check.ok()) {
    errors.push_back("reread schedule fails validation:\n" + check.message());
  }
  return errors;
}

std::vector<std::string> check_comm_bounds(const Scenario& scenario,
                                           const Schedule& schedule) {
  std::vector<std::string> errors;
  const TaskGraph& g = scenario.graph;
  const RoutingTable* routing = scenario.routing_ptr();

  if (scenario.platform.num_processors() == 1 && schedule.num_comms() != 0) {
    errors.push_back("messages on a single-processor platform");
  }

  // Group messages by edge; order within a group by start time (the
  // store-and-forward chain order).
  std::map<std::pair<TaskId, TaskId>, std::vector<const CommPlacement*>>
      by_edge;
  for (const CommPlacement& c : schedule.comms()) {
    if (c.src >= g.num_tasks() || c.dst >= g.num_tasks() ||
        !g.has_edge(c.src, c.dst)) {
      errors.push_back("message for non-edge " + std::to_string(c.src) +
                       "->" + std::to_string(c.dst));
      continue;
    }
    by_edge[{c.src, c.dst}].push_back(&c);
  }

  for (auto& [key, msgs] : by_edge) {
    const auto [u, v] = key;
    const std::string edge_name =
        std::to_string(u) + "->" + std::to_string(v);
    const ProcId q = schedule.task(u).proc;
    const ProcId r = schedule.task(v).proc;
    if (q == r) {
      errors.push_back("message for co-located edge " + edge_name);
      continue;
    }
    // Out-of-range endpoints are an M1 violation; report instead of
    // letting the routing-table lookup below throw, so the checker keeps
    // its return-the-violations contract on arbitrary mutated schedules.
    const int p = scenario.platform.num_processors();
    if (q < 0 || q >= p || r < 0 || r >= p) {
      errors.push_back("edge " + edge_name +
                       " endpoint on invalid processor");
      continue;
    }
    std::sort(msgs.begin(), msgs.end(),
              [](const CommPlacement* a, const CommPlacement* b) {
                return a->start < b->start;
              });
    if (routing == nullptr) {
      // Fully connected: exactly one direct message per cross-processor
      // edge.
      if (msgs.size() != 1) {
        errors.push_back("duplicate message for edge " + edge_name);
      }
      continue;
    }
    // Routed: the messages must be exactly the hops of the table's path
    // between the endpoint processors, in order.
    const std::vector<ProcId> path = routing->path(q, r);
    if (msgs.size() != path.size() - 1) {
      errors.push_back("edge " + edge_name + " carried by " +
                       std::to_string(msgs.size()) +
                       " hops; the routed path needs " +
                       std::to_string(path.size() - 1));
      continue;
    }
    for (std::size_t h = 0; h < msgs.size(); ++h) {
      if (msgs[h]->from != path[h] || msgs[h]->to != path[h + 1]) {
        errors.push_back("edge " + edge_name + " hop " + std::to_string(h) +
                         " travels P" + std::to_string(msgs[h]->from) +
                         "->P" + std::to_string(msgs[h]->to) +
                         " but the routed path says P" +
                         std::to_string(path[h]) + "->P" +
                         std::to_string(path[h + 1]));
      }
    }
  }
  return errors;
}

std::vector<std::string> check_all_invariants(const Scenario& scenario,
                                              const Schedule& schedule,
                                              CommModel model) {
  std::vector<std::string> all;
  const auto absorb = [&](const char* property,
                          std::vector<std::string> errors) {
    for (std::string& e : errors) {
      all.push_back(scenario.description + " [" + property + "] " +
                    std::move(e));
    }
  };
  absorb("P1/valid", check_valid(scenario, schedule, model));
  if (!all.empty()) return all;  // downstream checks assume validity
  absorb("P2/lower-bounds", check_makespan_lower_bounds(scenario, schedule));
  absorb("P3/replay", check_replay_dominance(scenario, schedule, model));
  absorb("P4/serialize",
         check_serialize_round_trip(scenario, schedule, model));
  absorb("P5/comm-bounds", check_comm_bounds(scenario, schedule));
  return all;
}

}  // namespace oneport::testsupport
