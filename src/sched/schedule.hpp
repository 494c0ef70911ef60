// The output of a scheduler: where and when every task runs, plus when
// every inter-processor message travels.
//
// A Schedule is a passive value object; validity with respect to a graph,
// a platform, and a communication model (CommModel, the one type every
// layer names the model by) is checked by sched/validate.hpp.
#pragma once

#include <vector>

#include "graph/task_graph.hpp"
#include "platform/platform.hpp"

namespace oneport {

enum class CommModel {
  kMacroDataflow,  ///< unlimited ports, contention-free network (§2.1)
  kOnePort,        ///< one send + one receive port per processor (§2.3)
};

struct TaskPlacement {
  ProcId proc = -1;
  double start = 0.0;
  double finish = 0.0;

  [[nodiscard]] bool placed() const noexcept { return proc >= 0; }
  friend bool operator==(const TaskPlacement&, const TaskPlacement&) = default;
};

/// One message: the data of edge src->dst shipped from processor `from` to
/// processor `to` during [start, finish).
struct CommPlacement {
  TaskId src = kInvalidTask;
  TaskId dst = kInvalidTask;
  ProcId from = -1;
  ProcId to = -1;
  double start = 0.0;
  double finish = 0.0;

  friend bool operator==(const CommPlacement&, const CommPlacement&) = default;
};

class Schedule {
 public:
  Schedule() = default;
  explicit Schedule(std::size_t num_tasks) : tasks_(num_tasks) {}

  /// Bulk construction from an engine's arena-backed record store: adopts
  /// both vectors wholesale (no per-record push_back) and validates each
  /// record with the same rules place_task/add_comm enforce, in one pass.
  /// Unplaced tasks are allowed, as with the incremental path.
  Schedule(std::vector<TaskPlacement> tasks, std::vector<CommPlacement> comms);

  [[nodiscard]] std::size_t num_tasks() const noexcept {
    return tasks_.size();
  }

  void place_task(TaskId v, ProcId proc, double start, double finish);
  void add_comm(CommPlacement comm);

  [[nodiscard]] const TaskPlacement& task(TaskId v) const;
  [[nodiscard]] const std::vector<TaskPlacement>& tasks() const noexcept {
    return tasks_;
  }
  [[nodiscard]] const std::vector<CommPlacement>& comms() const noexcept {
    return comms_;
  }

  /// True when every task has been placed.
  [[nodiscard]] bool complete() const noexcept;

  /// Latest finish over all tasks and communications (0 for empty).
  [[nodiscard]] double makespan() const noexcept;

  /// Number of inter-processor messages.
  [[nodiscard]] std::size_t num_comms() const noexcept {
    return comms_.size();
  }

 private:
  std::vector<TaskPlacement> tasks_;
  std::vector<CommPlacement> comms_;
};

}  // namespace oneport
