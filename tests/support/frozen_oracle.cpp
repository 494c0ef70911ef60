#include "support/frozen_oracle.hpp"

#include <bit>
#include <cstdio>

#include "core/heft.hpp"
#include "core/ilha.hpp"
#include "core/registry.hpp"
#include "dynamic/events.hpp"
#include "dynamic/reschedule.hpp"
#include "platform/routing.hpp"
#include "testbeds/registry.hpp"
#include "testbeds/testbeds.hpp"

namespace oneport::testsupport {

namespace {

/// 64-bit FNV-1a over little-endian 8-byte words.
class Fnv1a {
 public:
  void word(std::uint64_t w) noexcept {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (w >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void real(double x) noexcept { word(std::bit_cast<std::uint64_t>(x)); }
  void id(std::int64_t v) noexcept { word(static_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void add_comms(Fnv1a& h, const std::vector<CommPlacement>& comms) {
  h.word(comms.size());
  for (const CommPlacement& c : comms) {
    h.id(c.src);
    h.id(c.dst);
    h.id(c.from);
    h.id(c.to);
    h.real(c.start);
    h.real(c.finish);
  }
}

void add_schedule(Fnv1a& h, const Schedule& s) {
  h.word(s.tasks().size());
  for (const TaskPlacement& t : s.tasks()) {
    h.id(t.proc);
    h.real(t.start);
    h.real(t.finish);
  }
  add_comms(h, s.comms());
}

std::uint64_t digest(const Schedule& s) {
  Fnv1a h;
  add_schedule(h, s);
  return h.value();
}

std::uint64_t digest(const dyn::DynamicResult& r) {
  Fnv1a h;
  add_schedule(h, r.schedule);
  add_comms(h, r.stale_comms);
  h.word(r.epochs.size());
  for (const dyn::EpochSnapshot& epoch : r.epochs) {
    add_schedule(h, epoch.schedule);
  }
  return h.value();
}

// The rotations below deliberately do not share the property sweep's
// helpers: the committed table pins this exact configuration, and it
// must not move when the sweep's own scenarios or registry settings do.

void append(std::vector<Scenario>& to, std::vector<Scenario> from) {
  for (Scenario& s : from) to.push_back(std::move(s));
}

void static_rows(std::vector<FrozenRow>& rows) {
  for (const Scenario& scenario : frozen_static_scenarios()) {
    for (const SchedulerEntry& entry : frozen_registry(scenario)) {
      const Schedule s = entry.run(scenario.graph, scenario.platform);
      rows.push_back({"static/" + scenario.description + "/" + entry.name,
                      s.makespan(), digest(s)});
    }
  }
}

void dynamic_rows(std::vector<FrozenRow>& rows) {
  std::vector<Scenario> scenarios = scenario_sweep(8187, 4);
  append(scenarios, routed_scenario_sweep(9191, 5));
  for (const Scenario& scenario : scenarios) {
    const SchedulerConfig config{.ilha_chunk_size = 5,
                                 .routing = scenario.routing_ptr()};
    for (const SchedulerEntry& entry : frozen_registry(scenario)) {
      const Schedule initial = entry.run(scenario.graph, scenario.platform);
      for (const char* trace_name :
           {"slowdown", "dropout", "mixed", "arrival"}) {
        const dyn::EventTrace trace =
            dyn::make_named_trace(trace_name, scenario.graph,
                                  scenario.platform, initial, scenario.seed);
        const dyn::DynamicResult result =
            dyn::run_dynamic(scenario.graph, scenario.platform, entry.name,
                             config, trace);
        rows.push_back({"dynamic/" + scenario.description + "/" + entry.name +
                            "/" + trace_name,
                        result.makespan(), digest(result)});
      }
    }
  }
}

void heterogeneous_routed_rows(std::vector<FrozenRow>& rows) {
  const TaskGraph g = testbeds::make_stencil(8, 4.0);
  for (const char* name : {"mesh3x3:het0.5:swp", "mesh3x3:het0.5:hot0.25",
                           "torus2x4:alt", "fattree2x2:swp",
                           "mesh2x3:aniso2.5"}) {
    const RoutedPlatform routed = make_topology_platform(
        name, {1.0, 1.0, 2.0, 2.0, 3.0, 3.0}, 1.0, 5);
    const Schedule h = heft(
        g, routed.platform,
        {.model = CommModel::kOnePort, .routing = &routed.routing});
    rows.push_back({std::string("het/") + name + "/heft-oneport",
                    h.makespan(), digest(h)});
    const Schedule i = ilha(g, routed.platform,
                            {.model = CommModel::kOnePort,
                             .chunk_size = 8,
                             .routing = &routed.routing});
    rows.push_back({std::string("het/") + name + "/ilha-oneport",
                    i.makespan(), digest(i)});
  }
}

void fixed_allocation_rows(std::vector<FrozenRow>& rows) {
  for (const Scenario& scenario : frozen_static_scenarios()) {
    const TaskGraph& g = scenario.graph;
    const Platform& platform = scenario.platform;
    const RoutingTable* routing = scenario.routing_ptr();
    const auto p = static_cast<TaskId>(platform.num_processors());
    for (const auto& [model, suffix] :
         {std::pair{CommModel::kMacroDataflow, "macro"},
          std::pair{CommModel::kOnePort, "oneport"}}) {
      const auto add = [&](const char* name, const Schedule& s) {
        rows.push_back({"fixed/" + scenario.description + "/" + name + "-" +
                            suffix,
                        s.makespan(), digest(s)});
      };
      const Schedule h =
          heft(g, platform, {.model = model, .routing = routing});
      std::vector<ProcId> heft_allocation(g.num_tasks());
      std::vector<ProcId> round_robin(g.num_tasks());
      for (TaskId v = 0; v < g.num_tasks(); ++v) {
        heft_allocation[v] = h.task(v).proc;
        round_robin[v] = static_cast<ProcId>(v % p);
      }
      add("heft-allocation", reschedule_fixed_allocation(
                                 g, platform, heft_allocation, model, routing));
      add("round-robin", reschedule_fixed_allocation(g, platform, round_robin,
                                                     model, routing));
      add("ilha-rebuild", ilha(g, platform,
                               {.model = model,
                                .chunk_size = 5,
                                .reschedule_comms = true,
                                .routing = routing}));
      add("ilha-scan-rebuild", ilha(g, platform,
                                    {.model = model,
                                     .chunk_size = 5,
                                     .single_comm_scan = true,
                                     .reschedule_comms = true,
                                     .routing = routing}));
    }
  }
}

void routed_scale_rows(std::vector<FrozenRow>& rows) {
  for (const Scenario& scenario : routed_scale_scenarios()) {
    for (const char* name : {"heft-oneport", "ilha-oneport"}) {
      const Schedule s =
          find_scheduler(name, {.routing = scenario.routing_ptr()})
              .run(scenario.graph, scenario.platform);
      rows.push_back({"scale/" + scenario.description + "/" + name,
                      s.makespan(), digest(s)});
    }
  }
}

}  // namespace

std::vector<Scenario> frozen_static_scenarios() {
  std::vector<Scenario> scenarios = scenario_sweep(8087, 8);
  append(scenarios, edge_case_scenarios());
  append(scenarios, routed_scenario_sweep(9091, 10));
  append(scenarios, workload_scenario_sweep(9191, 4));
  return scenarios;
}

std::vector<Scenario> routed_scale_scenarios() {
  struct Instance {
    const char* family;
    int size;
  };
  const std::vector<double> cycles = make_paper_platform().cycle_times();
  std::vector<Scenario> scenarios;
  for (const char* network :
       {"mesh8x8:het0.5:swp", "fattree3x3", "torus4x4:alt", "ring"}) {
    for (const Instance& instance : {Instance{"MICROSVC", 40},
                                     Instance{"MICROSVC", 80},
                                     Instance{"MLTRAIN", 10},
                                     Instance{"LU", 16}}) {
      RoutedPlatform routed = make_topology_platform(network, cycles);
      scenarios.push_back(
          {1,
           std::string(instance.family) + "/n=" +
               std::to_string(instance.size) + "/" + network,
           testbeds::find_testbed(instance.family)
               .make(instance.size, testbeds::kPaperCommRatio),
           std::move(routed.platform), std::move(routed.routing)});
    }
  }
  return scenarios;
}

std::vector<SchedulerEntry> frozen_registry(const Scenario& scenario) {
  return builtin_schedulers(SchedulerConfig{
      .ilha_chunk_size = 5, .routing = scenario.routing_ptr()});
}

std::vector<FrozenRow> compute_frozen_rows() {
  std::vector<FrozenRow> rows;
  static_rows(rows);
  dynamic_rows(rows);
  heterogeneous_routed_rows(rows);
  routed_scale_rows(rows);
  fixed_allocation_rows(rows);
  return rows;
}

std::span<const FrozenRow> frozen_rows() {
  static const std::vector<FrozenRow> rows = {
#include "support/frozen_schedules.inc"
  };
  return rows;
}

std::string format_frozen_rows(std::span<const FrozenRow> rows) {
  std::string out;
  for (const FrozenRow& row : rows) {
    char numbers[64];
    std::snprintf(numbers, sizeof numbers, "%a, 0x%016llxULL", row.makespan,
                  static_cast<unsigned long long>(row.digest));
    out += "{\"" + row.key + "\", " + numbers + "},\n";
  }
  return out;
}

}  // namespace oneport::testsupport
