// Differential pin of the validators: validate_one_port and
// validate_macro_dataflow must return exactly the error list of the
// map-based reference checker (tests/support/reference_validator.hpp) --
// string for string, in the same order, or throw the same exception --
// on every frozen-rotation schedule, on every fault mutator applied to
// it, and on seeded corruptions aimed at the flat message index: extra
// and missing hops, messages for non-edges or for co-located endpoints,
// unplaced tasks, and equal start times, which decide std::sort's
// tie order in chains and port queues.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "platform/routing.hpp"
#include "sched/validate.hpp"
#include "support/faults.hpp"
#include "support/frozen_oracle.hpp"
#include "support/reference_validator.hpp"
#include "testbeds/testbeds.hpp"
#include "util/rng.hpp"

namespace oneport {
namespace {

using testsupport::frozen_registry;
using testsupport::frozen_static_scenarios;
using testsupport::Scenario;

/// A validator's answer: its error list, or the exception it threw.
struct Verdict {
  std::vector<std::string> errors;
  std::string thrown;

  friend bool operator==(const Verdict&, const Verdict&) = default;
};

template <typename Validate>
Verdict verdict_of(Validate&& validate) {
  Verdict v;
  try {
    v.errors = validate().errors;
  } catch (const std::exception& e) {
    v.thrown = e.what();
  }
  return v;
}

struct Tally {
  std::size_t schedules = 0;
  std::size_t invalid = 0;
};

void expect_same_verdicts(const Schedule& s, const Scenario& scenario,
                          const std::string& tag, Tally& tally) {
  const TaskGraph& g = scenario.graph;
  const Platform& p = scenario.platform;
  const Verdict one_port =
      verdict_of([&] { return validate_one_port(s, g, p); });
  EXPECT_EQ(one_port, verdict_of([&] {
              return testsupport::reference_validate_one_port(s, g, p);
            }))
      << tag << " (one-port)";
  EXPECT_EQ(verdict_of([&] { return validate_macro_dataflow(s, g, p); }),
            verdict_of([&] {
              return testsupport::reference_validate_macro_dataflow(s, g,
                                                                   p);
            }))
      << tag << " (macro-dataflow)";
  ++tally.schedules;
  if (!one_port.errors.empty() || !one_port.thrown.empty()) ++tally.invalid;
}

/// Each mutator of support/faults.hpp; one without a site to mutate
/// throws std::invalid_argument and is skipped.
std::vector<std::pair<std::string, std::function<Schedule(const Schedule&)>>>
fault_mutators(const Scenario& scenario) {
  const int p = scenario.platform.num_processors();
  return {
      {"drop_chain_hop", testsupport::drop_chain_hop},
      {"drop_edge_messages", testsupport::drop_edge_messages},
      {"shift_receive_before_send", testsupport::shift_receive_before_send},
      {"overlap_send_port", testsupport::overlap_send_port},
      {"overlap_recv_port", testsupport::overlap_recv_port},
      {"overlap_compute", testsupport::overlap_compute},
      {"stretch_task_duration", testsupport::stretch_task_duration},
      {"misplace_task",
       [p](const Schedule& s) { return testsupport::misplace_task(s, p); }},
      {"duplicate_message", testsupport::duplicate_message},
      {"reroute_chain_hop",
       [p](const Schedule& s) {
         return testsupport::reroute_chain_hop(s, p - 1);
       }},
      {"compress_schedule",
       [](const Schedule& s) {
         return testsupport::compress_schedule(s, 0.5);
       }},
  };
}

/// Seeded corruptions of a valid schedule, each rebuilt through the bulk
/// Schedule constructor (which admits unplaced tasks).
class Corruptor {
 public:
  Corruptor(const Schedule& s, const Scenario& scenario, std::uint64_t seed)
      : tasks_(s.tasks()),
        comms_(s.comms()),
        graph_(scenario.graph),
        procs_(scenario.platform.num_processors()),
        rng_(seed) {}

  /// Named corrupted copies; a corruption without a site is left out.
  std::vector<std::pair<std::string, Schedule>> all() {
    std::vector<std::pair<std::string, Schedule>> out;
    const auto add = [&](const char* name, std::vector<TaskPlacement> t,
                         std::vector<CommPlacement> c) {
      out.emplace_back(name, Schedule(std::move(t), std::move(c)));
    };
    if (!comms_.empty()) {
      std::vector<CommPlacement> c = comms_;
      const std::size_t i = pick(c.size());
      c.insert(c.begin() + static_cast<std::ptrdiff_t>(pick(c.size() + 1)),
               c[i]);
      add("duplicated-hop", tasks_, std::move(c));

      c = comms_;
      c.erase(c.begin() + static_cast<std::ptrdiff_t>(pick(c.size())));
      add("dropped-hop", tasks_, std::move(c));

      c = comms_;
      const CommPlacement hop = c[pick(c.size())];
      for (int k = 0; k < 20; ++k) {
        // A 21-hop chain on one edge, starts drawn from three values:
        // past std::sort's insertion-sort cutoff, with many ties.
        CommPlacement extra = hop;
        extra.start = hop.start + static_cast<double>(pick(3));
        extra.finish = extra.start + (hop.finish - hop.start);
        extra.from =
            static_cast<ProcId>(pick(static_cast<std::size_t>(procs_)));
        extra.to = (extra.from + 1) % procs_;
        if (extra.from != extra.to) c.push_back(extra);
      }
      add("long-tied-chain", tasks_, std::move(c));

      c = comms_;
      const ProcId sender = c[pick(c.size())].from;
      const double t0 = c[pick(c.size())].start;
      for (CommPlacement& m : c) {
        if (m.from == sender && pick(2) == 0) {
          const double d = m.finish - m.start;
          m.start = t0;
          m.finish = t0 + d;
        }
      }
      add("port-start-ties", tasks_, std::move(c));
    }
    if (procs_ >= 2 && tasks_.size() >= 2) {
      for (int attempt = 0; attempt < 64; ++attempt) {
        const auto u = static_cast<TaskId>(pick(tasks_.size()));
        const auto v = static_cast<TaskId>(pick(tasks_.size()));
        if (u == v || graph_.has_edge(u, v)) continue;
        std::vector<CommPlacement> c = comms_;
        c.push_back({u, v, 0, 1, tasks_[u].finish, tasks_[u].finish + 1.0});
        add("non-edge-message", tasks_, std::move(c));
        break;
      }
    }
    if (const auto chain = two_hop_chain()) {
      std::vector<CommPlacement> c = comms_;
      const double d = c[chain->second].finish - c[chain->second].start;
      c[chain->second].start = c[chain->first].start;
      c[chain->second].finish = c[chain->first].start + d;
      add("chain-equal-start", tasks_, std::move(c));
    }
    if (procs_ >= 2) {
      for (TaskId u = 0; u < graph_.num_tasks(); ++u) {
        const auto succ = graph_.successors(u);
        const auto shared = std::find_if(
            succ.begin(), succ.end(), [&](const EdgeRef& e) {
              return tasks_[u].proc == tasks_[e.task].proc;
            });
        if (shared == succ.end()) continue;
        std::vector<CommPlacement> c = comms_;
        const ProcId q = tasks_[u].proc;
        c.push_back({u, shared->task, q, (q + 1) % procs_, tasks_[u].finish,
                     tasks_[u].finish + shared->data});
        add("co-located-message", tasks_, std::move(c));
        break;
      }
    }
    if (!tasks_.empty()) {
      std::vector<TaskPlacement> t = tasks_;
      t[pick(t.size())] = TaskPlacement{};
      add("unplaced-task", std::move(t), comms_);
    }
    if (!comms_.empty()) {
      // Platform::comm_time throws when the hop's edge is checked; the
      // validators must agree on that too.
      std::vector<CommPlacement> c = comms_;
      c[pick(c.size())].to = procs_;
      add("off-platform-receiver", tasks_, std::move(c));
    }
    return out;
  }

 private:
  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(rng_.below(n));
  }

  /// Positions of two hops of one edge's message chain, if any.
  std::optional<std::pair<std::size_t, std::size_t>> two_hop_chain() const {
    for (std::size_t a = 0; a < comms_.size(); ++a) {
      for (std::size_t b = a + 1; b < comms_.size(); ++b) {
        if (comms_[a].src == comms_[b].src && comms_[a].dst == comms_[b].dst) {
          return std::pair{a, b};
        }
      }
    }
    return std::nullopt;
  }

  std::vector<TaskPlacement> tasks_;
  std::vector<CommPlacement> comms_;
  const TaskGraph& graph_;
  int procs_;
  SplitMix64 rng_;
};

TEST(ValidateOracle, FrozenRotationMutatedAndCorruptedSchedulesMatch) {
  Tally tally;
  std::uint64_t seed = 1;
  for (const Scenario& scenario : frozen_static_scenarios()) {
    for (const SchedulerEntry& entry : frozen_registry(scenario)) {
      const Schedule valid = entry.run(scenario.graph, scenario.platform);
      const std::string tag = scenario.description + "/" + entry.name;
      expect_same_verdicts(valid, scenario, tag, tally);
      for (const auto& [name, mutate] : fault_mutators(scenario)) {
        Schedule mutated;
        try {
          mutated = mutate(valid);
        } catch (const std::invalid_argument&) {
          continue;
        }
        expect_same_verdicts(mutated, scenario, tag + "/" + name, tally);
      }
      for (const auto& [name, corrupted] :
           Corruptor(valid, scenario, seed++).all()) {
        expect_same_verdicts(corrupted, scenario, tag + "/" + name, tally);
      }
    }
  }
  // The battery must actually exercise the error paths.
  EXPECT_GT(tally.schedules, 27u * 11u * 8u);
  EXPECT_GT(tally.invalid, tally.schedules / 2);
}

TEST(ValidateOracle, LargeSchedulesWithTiesMatch) {
  // Port queues and routed chains far longer than std::sort's 16-element
  // insertion-sort cutoff, where its order of equal starts is not the
  // order a stable sort would give.
  testbeds::RandomDagOptions opt;
  opt.layers = 200;
  opt.max_width = 15;
  opt.comm_ratio = 5.0;
  opt.seed = 4242;
  const Platform paper = make_paper_platform();
  RoutedPlatform mesh =
      make_topology_platform("mesh2x5", paper.cycle_times(), 1.0, 1);
  const std::vector<Scenario> scenarios = {
      {4242, "random-layered/full", testbeds::make_random_layered(opt), paper,
       std::nullopt},
      {4242, "random-layered/mesh2x5", testbeds::make_random_layered(opt),
       std::move(mesh.platform), std::move(mesh.routing)}};
  Tally tally;
  std::uint64_t seed = 1000;
  for (const Scenario& scenario : scenarios) {
    for (const char* name : {"heft-oneport", "ilha-oneport", "heft-macro"}) {
      const SchedulerEntry entry = find_scheduler(
          name, SchedulerConfig{.routing = scenario.routing_ptr()});
      const Schedule valid = entry.run(scenario.graph, scenario.platform);
      const std::string tag = scenario.description + "/" + name;
      expect_same_verdicts(valid, scenario, tag, tally);
      for (const auto& [corruption, corrupted] :
           Corruptor(valid, scenario, seed++).all()) {
        expect_same_verdicts(corrupted, scenario, tag + "/" + corruption,
                             tally);
      }
    }
  }
  EXPECT_GT(tally.invalid, tally.schedules / 2);
}

TEST(ValidateOracle, SizeMismatchMatches) {
  const Scenario scenario = testsupport::scenario_sweep(8087, 1).front();
  const Schedule short_schedule(scenario.graph.num_tasks() - 1);
  Tally tally;
  expect_same_verdicts(short_schedule, scenario, "size-mismatch", tally);
}

}  // namespace
}  // namespace oneport
