// Shared vocabulary of the benchmark: run options, the result every
// workload returns, the metric catalog, and the small statistics helpers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return 1e3 * seconds_between(from, to);
}

/// The default seed, which the pins refer to: at this seed `large-dag` is
/// bench_scale's `scale/n=100000` graph.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Each workload repeats its set-up at least kSetupRepeats times and for
/// at least kSetupSeconds (but at most kSetupMaxRepeats times).
inline constexpr std::size_t kSetupRepeats = 3;
inline constexpr double kSetupSeconds = 0.5;
inline constexpr std::size_t kSetupMaxRepeats = 200;

struct RunOptions {
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;  ///< measuring budget of one run
  bool trace = false;     ///< traced run: per-layer metrics instead
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every workload in untraced runs.  The
/// names and units must match BENCHMARK.json (run.py --smoke checks it).
inline const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"solve_s", "s"},
      {"tasks_per_s", "1/s"},
      {"latency_p50_ms", "ms"},
      {"max_rate_rps", "1/s"},
  };
  return specs;
}

/// Per-layer metrics, reported by every workload in traced runs.  A layer
/// a workload never calls reports 0.
inline const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"testbeds.generate_ms", "ms"},
      {"graph.import_ms", "ms"},
      {"graph.import_mb_per_s", "MB/s"},
      {"analysis.route_build_ms", "ms"},
      {"analysis.route_lookup_us", "us"},
      {"core.priorities_ms", "ms"},
      {"core.schedule_ms", "ms"},
      {"core.schedule_us_per_task", "us"},
      {"core.prune_evals_per_task", "count"},
      {"core.prune_skip_frac", "fraction"},
      {"sched.probes_per_task", "count"},
      {"sched.horizon_hit_frac", "fraction"},
      {"sched.reserves_per_task", "count"},
      {"sched.gap_flushes", "count"},
      {"sched.validate_ms", "ms"},
      {"sched.serialize_ms", "ms"},
      {"sched.serialize_mb_per_s", "MB/s"},
      {"service.latency_p99_ms.light", "ms"},
      {"service.latency_p50_ms.heavy", "ms"},
      {"service.latency_p99_ms.heavy", "ms"},
      {"service.queue_ms_p50", "ms"},
      {"service.queue_ms_p99", "ms"},
      {"service.service_ms_p50", "ms"},
      {"service.service_ms_p99", "ms"},
      {"service.batch_mean", "count"},
      {"service.peak_queue_depth", "count"},
      {"service.rejects", "count"},
      {"loadgen.lag_ms_max", "ms"},
      {"trace.overhead_frac", "fraction"},
  };
  return specs;
}

/// What one workload run produced.  `failed` counts every operation that
/// went wrong (exception, invalid schedule, rejected request, round-trip
/// mismatch, pinned value missed); `errors` says what.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> metrics;
  /// Human-readable lines printed before the result (never parsed).
  std::vector<std::string> notes;

  void fail(std::string why) {
    ++failed;
    if (errors.size() < 20) errors.push_back(std::move(why));
  }
  [[nodiscard]] bool correct() const { return failed == 0; }
};

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

inline double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

/// Runs `setup(rep)` for rep = 0, 1, ... as set out above and returns the
/// median wall time of one set-up in seconds (setup_s).
template <typename Fn>
double median_setup_s(Fn&& setup) {
  std::vector<double> times;
  const Clock::time_point start = Clock::now();
  while (times.size() < kSetupRepeats ||
         (times.size() < kSetupMaxRepeats &&
          seconds_between(start, Clock::now()) < kSetupSeconds)) {
    const Clock::time_point t0 = Clock::now();
    setup(times.size());
    times.push_back(seconds_between(t0, Clock::now()));
  }
  return median(std::move(times));
}

/// Peak resident set of this process in MB (getrusage's ru_maxrss).
double peak_rss_mb();

}  // namespace perfbench
