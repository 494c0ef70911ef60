#include "core/registry.hpp"

#include "core/cpop.hpp"
#include "core/gdl.hpp"
#include "core/heft.hpp"
#include "core/ilha.hpp"
#include "core/minmin.hpp"
#include "util/error.hpp"

namespace oneport {

std::vector<SchedulerEntry> builtin_schedulers(const SchedulerConfig& config) {
  using Model = EftEngine::Model;
  std::vector<SchedulerEntry> entries;
  entries.push_back(
      {"heft-macro", "HEFT under the macro-dataflow model (unlimited ports)",
       CommModel::kMacroDataflow,
       [config](const TaskGraph& g, const Platform& p) {
         return heft(g, p, {.model = Model::kMacroDataflow,
                            .routing = config.routing});
       }});
  entries.push_back(
      {"heft-oneport", "HEFT adapted to the bi-directional one-port model",
       CommModel::kOnePort,
       [config](const TaskGraph& g, const Platform& p) {
         return heft(g, p, {.model = Model::kOnePort,
                            .routing = config.routing});
       }});
  entries.push_back(
      {"ilha-macro", "ILHA under the macro-dataflow model",
       CommModel::kMacroDataflow,
       [config](const TaskGraph& g, const Platform& p) {
         return ilha(g, p, {.model = Model::kMacroDataflow,
                            .chunk_size = config.ilha_chunk_size,
                            .routing = config.routing});
       }});
  entries.push_back(
      {"ilha-oneport", "ILHA adapted to the bi-directional one-port model",
       CommModel::kOnePort,
       [config](const TaskGraph& g, const Platform& p) {
         return ilha(g, p, {.model = Model::kOnePort,
                            .chunk_size = config.ilha_chunk_size,
                            .routing = config.routing});
       }});
  entries.push_back(
      {"minmin-macro", "min-min batch matching, macro-dataflow model",
       CommModel::kMacroDataflow,
       [config](const TaskGraph& g, const Platform& p) {
         return min_min(g, p, {.model = Model::kMacroDataflow,
                               .routing = config.routing});
       }});
  entries.push_back(
      {"minmin-oneport", "min-min batch matching, one-port model",
       CommModel::kOnePort,
       [config](const TaskGraph& g, const Platform& p) {
         return min_min(g, p, {.model = Model::kOnePort,
                               .routing = config.routing});
       }});
  entries.push_back(
      {"maxmin-oneport", "max-min batch matching, one-port model",
       CommModel::kOnePort,
       [config](const TaskGraph& g, const Platform& p) {
         return min_min(g, p, {.model = Model::kOnePort, .max_min = true,
                               .routing = config.routing});
       }});
  entries.push_back(
      {"gdl-macro", "Generalized Dynamic Level (Sih-Lee), macro model",
       CommModel::kMacroDataflow,
       [config](const TaskGraph& g, const Platform& p) {
         return gdl(g, p, {.model = Model::kMacroDataflow,
                           .routing = config.routing});
       }});
  entries.push_back(
      {"gdl-oneport", "Generalized Dynamic Level (Sih-Lee), one-port model",
       CommModel::kOnePort,
       [config](const TaskGraph& g, const Platform& p) {
         return gdl(g, p, {.model = Model::kOnePort,
                           .routing = config.routing});
       }});
  entries.push_back(
      {"cpop-macro", "CPOP baseline under the macro-dataflow model",
       CommModel::kMacroDataflow,
       [config](const TaskGraph& g, const Platform& p) {
         return cpop(g, p, {.model = Model::kMacroDataflow,
                            .routing = config.routing});
       }});
  entries.push_back(
      {"cpop-oneport", "CPOP baseline adapted to the one-port model",
       CommModel::kOnePort,
       [config](const TaskGraph& g, const Platform& p) {
         return cpop(g, p, {.model = Model::kOnePort,
                            .routing = config.routing});
       }});
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
