// Directed acyclic task graph: the application model of the paper (§2.1).
//
// A TaskGraph is a vertex-weighted, edge-weighted DAG G = (V, E, w, data):
//   * w(v)       -- computation cost of task v (abstract cycles); the time
//                   to run v on processor P_i is w(v) * t_i.
//   * data(u,v)  -- number of data items shipped from u to v; the transfer
//                   time between P_q and P_r is data(u,v) * link(q,r).
//
// The graph is built incrementally (add_task / add_edge) and then
// finalize()d, which checks acyclicity, computes a topological order and
// freezes the structure.  All algorithms require a finalized graph.
//
// Adjacency is stored twice over its lifetime.  While building, the edges
// sit in one flat array in insertion order, each threaded onto its
// source's out-list and its target's in-list (has_edge, and so add_edge's
// duplicate check, walks the shorter of the two), so building allocates
// nothing per node or per edge.  finalize() packs them into CSR lanes --
// one flat EdgeRef arena per direction plus (n+1) offsets, per-node
// insertion order kept -- and releases the builder, so the schedulers'
// hot loops walk dense memory with no per-node indirection.  The lanes
// hold offsets, not pointers, so copies of a finalized graph are
// independent of it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace oneport {

using TaskId = std::uint32_t;
inline constexpr TaskId kInvalidTask = static_cast<TaskId>(-1);

/// One endpoint of an edge as seen from a vertex: the neighbor task plus
/// the communication volume carried by the edge.
struct EdgeRef {
  TaskId task;
  double data;
};

class TaskGraph {
 public:
  TaskGraph() = default;

  /// Creates a task with computation cost `weight` (>= 0) and an optional
  /// display name; returns its id (ids are dense, starting at 0).
  TaskId add_task(double weight, std::string name = {});

  /// Adds the precedence edge src -> dst carrying `data` (>= 0) items.
  /// Duplicate edges and self-loops are rejected.
  void add_edge(TaskId src, TaskId dst, double data);

  /// Freezes the graph: verifies acyclicity and computes the topological
  /// order returned by topological_order().  Throws std::invalid_argument
  /// if the graph has a cycle.  Idempotent.
  void finalize();

  [[nodiscard]] bool finalized() const noexcept { return finalized_; }
  [[nodiscard]] std::size_t num_tasks() const noexcept {
    return weights_.size();
  }
  [[nodiscard]] std::size_t num_edges() const noexcept { return num_edges_; }

  // weight/successors/predecessors are defined inline: the EFT engine
  // hits them millions of times per schedule, and the call overhead of
  // out-of-line accessors is measurable at 10k+ tasks.
  [[nodiscard]] double weight(TaskId v) const {
    check_task(v);
    return weights_[v];
  }
  [[nodiscard]] const std::string& name(TaskId v) const;
  /// Sum of all task weights (the total work W of the application).
  [[nodiscard]] double total_weight() const noexcept { return total_weight_; }

  /// Adjacency lanes in edge insertion order (require finalized()).
  [[nodiscard]] std::span<const EdgeRef> successors(TaskId v) const {
    check_lane(v);
    return {succ_edges_.data() + succ_off_[v], succ_off_[v + 1] - succ_off_[v]};
  }
  [[nodiscard]] std::span<const EdgeRef> predecessors(TaskId v) const {
    check_lane(v);
    return {pred_edges_.data() + pred_off_[v], pred_off_[v + 1] - pred_off_[v]};
  }
  [[nodiscard]] std::size_t in_degree(TaskId v) const {
    return predecessors(v).size();
  }
  [[nodiscard]] std::size_t out_degree(TaskId v) const {
    return successors(v).size();
  }

  /// Communication volume on edge src->dst; throws if the edge is absent.
  /// Works before and after finalize().
  [[nodiscard]] double edge_data(TaskId src, TaskId dst) const;
  [[nodiscard]] bool has_edge(TaskId src, TaskId dst) const;

  /// Topological order (requires finalized()).
  [[nodiscard]] std::span<const TaskId> topological_order() const;

  /// Tasks with no predecessors / successors (requires finalized()).
  [[nodiscard]] std::vector<TaskId> entry_tasks() const;
  [[nodiscard]] std::vector<TaskId> exit_tasks() const;

 private:
  void check_task(TaskId v) const {
    OP_REQUIRE(v < num_tasks(), "task id " << v << " out of range");
  }
  // One predictable branch on the hot path; the throw lives out of line.
  void check_lane(TaskId v) const {
    if (!finalized_ || v >= num_tasks()) [[unlikely]] {
      lane_error(v);
    }
  }
  [[noreturn]] void lane_error(TaskId v) const;

  static constexpr std::uint32_t kNoEdge = static_cast<std::uint32_t>(-1);
  /// A builder edge and the next (older) edge of its source's out-list
  /// and of its target's in-list.
  struct BuildEdge {
    TaskId src;
    TaskId dst;
    double data;
    std::uint32_t next_out;
    std::uint32_t next_in;
  };
  /// A node's newest out- and in-edge, and the lists' lengths.
  struct BuildNode {
    std::uint32_t out_head = kNoEdge;
    std::uint32_t in_head = kNoEdge;
    std::uint32_t out_count = 0;
    std::uint32_t in_count = 0;
  };
  /// Index of the builder edge src->dst, or kNoEdge (before finalize()).
  [[nodiscard]] std::uint32_t find_build_edge(TaskId src, TaskId dst) const;

  std::vector<double> weights_;
  std::vector<std::string> names_;
  // Builder state, released by finalize().
  std::vector<BuildEdge> build_edges_;
  std::vector<BuildNode> build_nodes_;
  // CSR lanes, filled by finalize(): node v's edges are
  // *_edges_[*_off_[v] .. *_off_[v + 1]).
  std::vector<std::size_t> succ_off_;
  std::vector<std::size_t> pred_off_;
  std::vector<EdgeRef> succ_edges_;
  std::vector<EdgeRef> pred_edges_;
  std::vector<TaskId> topo_;
  std::size_t num_edges_ = 0;
  double total_weight_ = 0.0;
  bool finalized_ = false;
};

}  // namespace oneport
