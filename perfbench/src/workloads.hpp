// The three workloads and the request pipeline they share.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>

#include "common.hpp"
#include "core/registry.hpp"
#include "graph/task_graph.hpp"
#include "platform/platform.hpp"
#include "sched/schedule.hpp"
#include "sched/serialize.hpp"
#include "sched/validate.hpp"
#include "trace.hpp"
#include "util/profiler.hpp"

namespace perfbench {

RunResult run_large_dag(const RunOptions& options, Tracer& tracer);
RunResult run_routed_trace(const RunOptions& options, Tracer& tracer);
RunResult run_service_open(const RunOptions& options, Tracer& tracer);

/// One scheduled request: the schedule, its serialized text (empty when
/// not serialized) and the validator's complaint (empty when valid).
struct Solved {
  oneport::Schedule schedule;
  std::string text;
  std::string error;
};

/// schedule -> validate_one_port -> (optionally) write_schedule, each call
/// a child span of `parent`.
inline Solved solve(const oneport::SchedulerEntry& scheduler,
                    const oneport::TaskGraph& graph,
                    const oneport::Platform& platform, Tracer& tracer,
                    std::uint64_t request, std::uint64_t parent,
                    bool serialize) {
  Solved out;
  {
    const ScopedSpan span(tracer, "core.schedule", request, parent);
    out.schedule = scheduler.run(graph, platform);
  }
  {
    const ScopedSpan span(tracer, "sched.validate", request, parent);
    const oneport::ValidationResult verdict =
        oneport::validate_one_port(out.schedule, graph, platform);
    if (!verdict.ok()) out.error = verdict.message();
  }
  if (serialize) {
    const ScopedSpan span(tracer, "sched.serialize", request, parent);
    std::ostringstream os;
    oneport::write_schedule(os, out.schedule);
    out.text = std::move(os).str();
  }
  return out;
}

/// True when `text` parses back through read_schedule into exactly
/// `schedule` (every placement bit-equal) and re-serializes to `text`.
inline bool schedule_round_trips(const oneport::Schedule& schedule,
                                 const std::string& text) {
  std::istringstream is(text);
  const oneport::Schedule back = oneport::read_schedule(is);
  if (back.tasks() != schedule.tasks() || back.comms() != schedule.comms()) {
    return false;
  }
  std::ostringstream os;
  oneport::write_schedule(os, back);
  return os.str() == text;
}

/// The hot-path counters of the public prof:: API that the per-layer
/// metrics are built from.
struct Counters {
  std::uint64_t next_fit = 0;
  std::uint64_t horizon_hits = 0;
  std::uint64_t reserves = 0;
  std::uint64_t prune_evals = 0;
  std::uint64_t prune_skips = 0;
  std::uint64_t gap_flushes = 0;

  friend bool operator==(const Counters&, const Counters&) = default;

  static Counters read() {
    using oneport::prof::Counter;
    const oneport::prof::Counts c = oneport::prof::aggregate();
    const auto at = [&c](Counter k) { return c[static_cast<std::size_t>(k)]; };
    return {at(Counter::kTimelineNextFit), at(Counter::kTimelineHorizonHits),
            at(Counter::kTimelineReserves), at(Counter::kPruneEvals),
            at(Counter::kPruneSkips), at(Counter::kGapFlushes)};
  }

  /// Per-task ratios over `tasks` scheduled tasks.
  void report(RunResult& result, double tasks) const {
    const auto ratio = [](double num, double den) {
      return den > 0.0 ? num / den : 0.0;
    };
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    result.metrics["core.prune_evals_per_task"] = ratio(d(prune_evals), tasks);
    result.metrics["core.prune_skip_frac"] =
        ratio(d(prune_skips), d(prune_evals + prune_skips));
    result.metrics["sched.probes_per_task"] = ratio(d(next_fit), tasks);
    result.metrics["sched.horizon_hit_frac"] =
        ratio(d(horizon_hits), d(next_fit));
    result.metrics["sched.reserves_per_task"] = ratio(d(reserves), tasks);
    result.metrics["sched.gap_flushes"] = d(gap_flushes);
  }
};

}  // namespace perfbench
