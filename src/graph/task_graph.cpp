#include "graph/task_graph.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace oneport {

TaskId TaskGraph::add_task(double weight, std::string name) {
  OP_REQUIRE(!finalized_, "cannot add tasks to a finalized graph");
  OP_REQUIRE(weight >= 0.0, "task weight must be non-negative");
  const auto id = static_cast<TaskId>(weights_.size());
  weights_.push_back(weight);
  names_.push_back(std::move(name));
  build_nodes_.emplace_back();
  total_weight_ += weight;
  return id;
}

void TaskGraph::add_edge(TaskId src, TaskId dst, double data) {
  OP_REQUIRE(!finalized_, "cannot add edges to a finalized graph");
  check_task(src);
  check_task(dst);
  OP_REQUIRE(src != dst, "self-loop on task " << src);
  OP_REQUIRE(data >= 0.0, "edge data volume must be non-negative");
  OP_REQUIRE(find_build_edge(src, dst) == kNoEdge,
             "duplicate edge " << src << "->" << dst);
  OP_REQUIRE(build_edges_.size() < kNoEdge, "too many edges");
  const auto id = static_cast<std::uint32_t>(build_edges_.size());
  BuildNode& from = build_nodes_[src];
  BuildNode& to = build_nodes_[dst];
  build_edges_.push_back({src, dst, data, from.out_head, to.in_head});
  from.out_head = id;
  ++from.out_count;
  to.in_head = id;
  ++to.in_count;
  ++num_edges_;
}

void TaskGraph::finalize() {
  if (finalized_) return;
  // CSR lanes by a stable counting sort of the builder edges, so each
  // node's lanes keep insertion order.
  const std::size_t n = num_tasks();
  std::vector<std::size_t> succ_off(n + 1, 0);
  std::vector<std::size_t> pred_off(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    succ_off[v + 1] = succ_off[v] + build_nodes_[v].out_count;
    pred_off[v + 1] = pred_off[v] + build_nodes_[v].in_count;
  }
  std::vector<EdgeRef> succ_edges(num_edges_);
  std::vector<EdgeRef> pred_edges(num_edges_);
  {
    std::vector<std::size_t> succ_at(succ_off.begin(), succ_off.end() - 1);
    std::vector<std::size_t> pred_at(pred_off.begin(), pred_off.end() - 1);
    for (const BuildEdge& e : build_edges_) {
      succ_edges[succ_at[e.src]++] = {e.dst, e.data};
      pred_edges[pred_at[e.dst]++] = {e.src, e.data};
    }
  }
  // Kahn's algorithm; doubles as the acyclicity check.  Nothing is
  // committed before it passes, so a cyclic graph is left as it was.
  std::vector<std::size_t> remaining(n);
  std::vector<TaskId> topo;
  topo.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    remaining[v] = pred_off[v + 1] - pred_off[v];
    if (remaining[v] == 0) topo.push_back(static_cast<TaskId>(v));
  }
  for (std::size_t head = 0; head < topo.size(); ++head) {
    const TaskId u = topo[head];
    for (std::size_t i = succ_off[u]; i < succ_off[u + 1]; ++i) {
      if (--remaining[succ_edges[i].task] == 0) {
        topo.push_back(succ_edges[i].task);
      }
    }
  }
  OP_REQUIRE(topo.size() == n, "task graph contains a cycle");
  succ_off_ = std::move(succ_off);
  pred_off_ = std::move(pred_off);
  succ_edges_ = std::move(succ_edges);
  pred_edges_ = std::move(pred_edges);
  topo_ = std::move(topo);
  std::vector<BuildEdge>().swap(build_edges_);
  std::vector<BuildNode>().swap(build_nodes_);
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

std::uint32_t TaskGraph::find_build_edge(TaskId src, TaskId dst) const {
  const BuildNode& from = build_nodes_[src];
  const BuildNode& to = build_nodes_[dst];
  if (to.in_count < from.out_count) {
    for (std::uint32_t e = to.in_head; e != kNoEdge;
         e = build_edges_[e].next_in) {
      if (build_edges_[e].src == src) return e;
    }
  } else {
    for (std::uint32_t e = from.out_head; e != kNoEdge;
         e = build_edges_[e].next_out) {
      if (build_edges_[e].dst == dst) return e;
    }
  }
  return kNoEdge;
}

double TaskGraph::edge_data(TaskId src, TaskId dst) const {
  if (finalized_) {
    const std::span<const EdgeRef> out = successors(src);
    check_task(dst);
    for (const EdgeRef& e : out) {
      if (e.task == dst) return e.data;
    }
  } else {
    check_task(src);
    check_task(dst);
    const std::uint32_t e = find_build_edge(src, dst);
    if (e != kNoEdge) return build_edges_[e].data;
  }
  OP_REQUIRE(false, "no edge " << src << "->" << dst);
  return 0.0;  // unreachable
}

bool TaskGraph::has_edge(TaskId src, TaskId dst) const {
  if (!finalized_) {
    check_task(src);
    check_task(dst);
    return find_build_edge(src, dst) != kNoEdge;
  }
  const std::span<const EdgeRef> out = successors(src);
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
