// Per-thread scalability profiler: cache-line-padded counter slabs in
// the style of nfos' scalability-profiler, wired into the scheduling hot
// path (timeline probes, prune hits/misses, overlay resets,
// parallel_for thread latencies).
//
// Design constraints, in order:
//   1. Near-zero overhead when disabled (the default): one relaxed
//      atomic-bool load and a predictable branch per probe.  No slab is
//      ever allocated while disabled -- which is what the profiler-off
//      pin test and the bench OP_ASSERT check, since "no counter ever
//      moved and no slab ever existed" is a property a test can prove,
//      unlike a wall-clock delta.
//   2. Scalable when enabled: each thread bumps its own alignas(64) slab
//      (no false sharing, no locks on the hot path); slabs register once
//      under a mutex and are aggregated only at quiescence points
//      (bench teardown, sweep end).
//
// Enabling: set the ONEPORT_PROFILE environment variable to a non-empty
// value other than "0" before the process starts, or call
// prof::set_enabled(true) / use prof::ScopedProfiler in tests.  Counters
// surface as "prof_<name>" entries in bench_scale's benchmark JSON and
// in sweep_cli --json's "profile" context block (see docs/PROFILING.md).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

namespace oneport::prof {

/// The counter catalog.  Keep counter_names() in sync.
enum class Counter : std::uint32_t {
  kTimelineNextFit = 0,    ///< TimelineIndex::next_fit probes
  kTimelineHorizonHits,    ///< probes answered by the O(1) horizon fast path
  kTimelineReserves,       ///< TimelineIndex::reserve commits
  kOverlayResets,          ///< evaluation-epoch overlay invalidations
  kPruneEvals,             ///< candidate processors actually evaluated
  kPruneSkips,             ///< candidates pruned by the finish lower bound
  kEngineCommits,          ///< EftEngine::commit calls
  /// Always 0: the deferred-buffer compactions it counted are gone
  /// (TimelineIndex keeps fixed-size gap blocks); kept because the
  /// repository benchmark reports it as sched.gap_flushes.
  kGapFlushes,
  kPoolTasks,              ///< threads util::parallel_for started
  kPoolTaskNanos,          ///< total wall nanoseconds of those threads
  kCount,
};

inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::kCount);

/// Stable snake_case name ("timeline_next_fit", ...) used as the JSON
/// counter key (prefixed with "prof_" by the emitters).
[[nodiscard]] const char* counter_name(Counter c) noexcept;

/// One aggregated counter vector.
using Counts = std::array<std::uint64_t, kNumCounters>;

namespace detail {

/// One cache line per slab start so two threads' hot counters never share
/// a line.  Counters are relaxed atomics written only by the owning
/// thread: the load+add+store pair is a plain add on x86, and the atomic
/// type makes concurrent aggregation well-defined (though snapshots are
/// only meaningful at quiescence).
struct alignas(64) Slab {
  std::array<std::atomic<std::uint64_t>, kNumCounters> counts{};
};

extern std::atomic<bool> g_enabled;

/// Out-of-line: finds (or registers) the calling thread's slab and adds.
void bump_slow(Counter c, std::uint64_t n) noexcept;

}  // namespace detail

/// Always true: every build compiles the profiler in.  Kept because the
/// repository benchmark prints it in its run context.
[[nodiscard]] inline bool compiled_in() noexcept { return true; }

[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

void set_enabled(bool on) noexcept;

/// Adds `n` to the calling thread's counter; a relaxed load + untaken
/// branch when the profiler is disabled.
inline void bump(Counter c, std::uint64_t n = 1) noexcept {
  if (!enabled()) return;
  detail::bump_slow(c, n);
}

/// Number of registered per-thread slabs (0 until some thread bumps a
/// counter while enabled; slabs persist for the process lifetime).
[[nodiscard]] std::size_t slab_count() noexcept;

/// Sum of every registered slab.  Meaningful at quiescence (no worker
/// mid-bump).
[[nodiscard]] Counts aggregate() noexcept;

/// Zeroes every registered slab (the slabs stay registered).
void reset() noexcept;

/// RAII enable/disable for tests and benches; restores the previous
/// state and resets the counters it produced on destruction when asked.
class ScopedProfiler {
 public:
  explicit ScopedProfiler(bool on, bool reset_on_exit = true)
      : previous_(enabled()), reset_on_exit_(reset_on_exit) {
    set_enabled(on);
  }
  ~ScopedProfiler() {
    set_enabled(previous_);
    if (reset_on_exit_) reset();
  }
  ScopedProfiler(const ScopedProfiler&) = delete;
  ScopedProfiler& operator=(const ScopedProfiler&) = delete;

 private:
  bool previous_;
  bool reset_on_exit_;
};

}  // namespace oneport::prof
