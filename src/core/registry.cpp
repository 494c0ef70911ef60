#include "core/registry.hpp"

#include "core/cpop.hpp"
#include "core/gdl.hpp"
#include "core/heft.hpp"
#include "core/ilha.hpp"
#include "core/minmin.hpp"
#include "util/error.hpp"

namespace oneport {

namespace {

/// A heuristic family, run under the model its registry row hands it.
using Heuristic = Schedule (*)(const TaskGraph&, const Platform&,
                               CommModel, const SchedulerConfig&);

constexpr Heuristic kHeft = [](const TaskGraph& g, const Platform& p,
                               CommModel model, const SchedulerConfig& config) {
  return heft(g, p, {.model = model, .routing = config.routing});
};
constexpr Heuristic kIlha = [](const TaskGraph& g, const Platform& p,
                               CommModel model, const SchedulerConfig& config) {
  return ilha(g, p,
              {.model = model,
               .chunk_size = config.ilha_chunk_size,
               .routing = config.routing});
};
constexpr Heuristic kMinMin = [](const TaskGraph& g, const Platform& p,
                                 CommModel model,
                                 const SchedulerConfig& config) {
  return min_min(g, p, {.model = model, .routing = config.routing});
};
constexpr Heuristic kMaxMin = [](const TaskGraph& g, const Platform& p,
                                 CommModel model,
                                 const SchedulerConfig& config) {
  return min_min(g, p,
                 {.model = model, .max_min = true, .routing = config.routing});
};
constexpr Heuristic kGdl = [](const TaskGraph& g, const Platform& p,
                              CommModel model, const SchedulerConfig& config) {
  return gdl(g, p, {.model = model, .routing = config.routing});
};
constexpr Heuristic kCpop = [](const TaskGraph& g, const Platform& p,
                               CommModel model, const SchedulerConfig& config) {
  return cpop(g, p, {.model = model, .routing = config.routing});
};

/// One registry entry.  `model` is both what the entry reports and what
/// its heuristic schedules under, so the two cannot disagree.
struct Row {
  const char* name;
  const char* description;
  CommModel model;
  Heuristic run;
};

constexpr Row kRows[] = {
    {"heft-macro", "HEFT under the macro-dataflow model (unlimited ports)",
     CommModel::kMacroDataflow, kHeft},
    {"heft-oneport", "HEFT adapted to the bi-directional one-port model",
     CommModel::kOnePort, kHeft},
    {"ilha-macro", "ILHA under the macro-dataflow model",
     CommModel::kMacroDataflow, kIlha},
    {"ilha-oneport", "ILHA adapted to the bi-directional one-port model",
     CommModel::kOnePort, kIlha},
    {"minmin-macro", "min-min batch matching, macro-dataflow model",
     CommModel::kMacroDataflow, kMinMin},
    {"minmin-oneport", "min-min batch matching, one-port model",
     CommModel::kOnePort, kMinMin},
    {"maxmin-oneport", "max-min batch matching, one-port model",
     CommModel::kOnePort, kMaxMin},
    {"gdl-macro", "Generalized Dynamic Level (Sih-Lee), macro model",
     CommModel::kMacroDataflow, kGdl},
    {"gdl-oneport", "Generalized Dynamic Level (Sih-Lee), one-port model",
     CommModel::kOnePort, kGdl},
    {"cpop-macro", "CPOP baseline under the macro-dataflow model",
     CommModel::kMacroDataflow, kCpop},
    {"cpop-oneport", "CPOP baseline adapted to the one-port model",
     CommModel::kOnePort, kCpop},
};

}  // namespace

std::vector<SchedulerEntry> builtin_schedulers(const SchedulerConfig& config) {
  std::vector<SchedulerEntry> entries;
  for (const Row& row : kRows) {
    entries.push_back({row.name, row.description, row.model,
                       [run = row.run, model = row.model, config](
                           const TaskGraph& g, const Platform& p) {
                         return run(g, p, model, config);
                       }});
  }
  return entries;
}

std::vector<SchedulerEntry> builtin_schedulers(int ilha_chunk_size) {
  return builtin_schedulers(
      SchedulerConfig{.ilha_chunk_size = ilha_chunk_size});
}

SchedulerEntry find_scheduler(const std::string& name,
                              const SchedulerConfig& config) {
  std::vector<SchedulerEntry> entries = builtin_schedulers(config);
  std::string known;
  for (auto& entry : entries) {
    if (entry.name == name) return std::move(entry);
    if (!known.empty()) known += ", ";
    known += entry.name;
  }
  throw std::invalid_argument("unknown scheduler '" + name +
                              "'; known: " + known);
}

SchedulerEntry find_scheduler(const std::string& name, int ilha_chunk_size) {
  return find_scheduler(name,
                        SchedulerConfig{.ilha_chunk_size = ilha_chunk_size});
}

}  // namespace oneport
