#include "graph/task_graph.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace oneport {

namespace {

/// Packs per-node lists into one CSR lane (offsets + flat arena, list
/// order kept) and releases the lists.
void pack(std::vector<std::vector<EdgeRef>>& lists, std::size_t num_edges,
          std::vector<std::size_t>& offsets, std::vector<EdgeRef>& edges) {
  offsets.clear();
  offsets.reserve(lists.size() + 1);
  edges.clear();
  edges.reserve(num_edges);
  offsets.push_back(0);
  for (const std::vector<EdgeRef>& list : lists) {
    edges.insert(edges.end(), list.begin(), list.end());
    offsets.push_back(edges.size());
  }
  std::vector<std::vector<EdgeRef>>().swap(lists);
}

}  // namespace

TaskId TaskGraph::add_task(double weight, std::string name) {
  OP_REQUIRE(!finalized_, "cannot add tasks to a finalized graph");
  OP_REQUIRE(weight >= 0.0, "task weight must be non-negative");
  const auto id = static_cast<TaskId>(weights_.size());
  weights_.push_back(weight);
  names_.push_back(std::move(name));
  succ_build_.emplace_back();
  pred_build_.emplace_back();
  total_weight_ += weight;
  return id;
}

void TaskGraph::add_edge(TaskId src, TaskId dst, double data) {
  OP_REQUIRE(!finalized_, "cannot add edges to a finalized graph");
  check_task(src);
  check_task(dst);
  OP_REQUIRE(src != dst, "self-loop on task " << src);
  OP_REQUIRE(data >= 0.0, "edge data volume must be non-negative");
  OP_REQUIRE(!has_edge(src, dst), "duplicate edge " << src << "->" << dst);
  succ_build_[src].push_back({dst, data});
  pred_build_[dst].push_back({src, data});
  ++num_edges_;
}

void TaskGraph::finalize() {
  if (finalized_) return;
  // Kahn's algorithm; doubles as the acyclicity check.  It runs on the
  // builder lists so a cyclic graph is left exactly as it was.
  const std::size_t n = num_tasks();
  std::vector<std::size_t> remaining(n);
  topo_.clear();
  topo_.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    remaining[v] = pred_build_[v].size();
    if (remaining[v] == 0) topo_.push_back(static_cast<TaskId>(v));
  }
  for (std::size_t head = 0; head < topo_.size(); ++head) {
    for (const EdgeRef& e : succ_build_[topo_[head]]) {
      if (--remaining[e.task] == 0) topo_.push_back(e.task);
    }
  }
  OP_REQUIRE(topo_.size() == n, "task graph contains a cycle");
  pack(succ_build_, num_edges_, succ_off_, succ_edges_);
  pack(pred_build_, num_edges_, pred_off_, pred_edges_);
  finalized_ = true;
}

const std::string& TaskGraph::name(TaskId v) const {
  check_task(v);
  return names_[v];
}

void TaskGraph::lane_error(TaskId v) const {
  OP_REQUIRE(finalized_, "graph must be finalized");
  OP_REQUIRE(false, "task id " << v << " out of range");
}

std::span<const EdgeRef> TaskGraph::out_edges(TaskId src) const {
  if (finalized_) return successors(src);
  check_task(src);
  return succ_build_[src];
}

double TaskGraph::edge_data(TaskId src, TaskId dst) const {
  const std::span<const EdgeRef> out = out_edges(src);
  check_task(dst);
  for (const EdgeRef& e : out) {
    if (e.task == dst) return e.data;
  }
  OP_REQUIRE(false, "no edge " << src << "->" << dst);
  return 0.0;  // unreachable
}

bool TaskGraph::has_edge(TaskId src, TaskId dst) const {
  const std::span<const EdgeRef> out = out_edges(src);
  check_task(dst);
  return std::any_of(out.begin(), out.end(),
                     [dst](const EdgeRef& e) { return e.task == dst; });
}

std::span<const TaskId> TaskGraph::topological_order() const {
  OP_REQUIRE(finalized_, "graph must be finalized");
  return topo_;
}

std::vector<TaskId> TaskGraph::entry_tasks() const {
  OP_REQUIRE(finalized_, "graph must be finalized");
  std::vector<TaskId> out;
  for (TaskId v = 0; v < num_tasks(); ++v)
    if (pred_off_[v] == pred_off_[v + 1]) out.push_back(v);
  return out;
}

std::vector<TaskId> TaskGraph::exit_tasks() const {
  OP_REQUIRE(finalized_, "graph must be finalized");
  std::vector<TaskId> out;
  for (TaskId v = 0; v < num_tasks(); ++v)
    if (succ_off_[v] == succ_off_[v + 1]) out.push_back(v);
  return out;
}

}  // namespace oneport
