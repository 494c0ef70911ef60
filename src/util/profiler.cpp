#include "util/profiler.hpp"

#include <memory>

#include "util/annotations.hpp"
#include "util/env_knobs.hpp"

namespace oneport::prof {

const char* counter_name(Counter c) noexcept {
  switch (c) {
    case Counter::kTimelineNextFit: return "timeline_next_fit";
    case Counter::kTimelineHorizonHits: return "timeline_horizon_hits";
    case Counter::kTimelineReserves: return "timeline_reserves";
    case Counter::kOverlayResets: return "overlay_resets";
    case Counter::kPruneEvals: return "prune_evals";
    case Counter::kPruneSkips: return "prune_skips";
    case Counter::kEngineCommits: return "engine_commits";
    case Counter::kGapFlushes: return "gap_flushes";
    case Counter::kPoolTasks: return "pool_tasks";
    case Counter::kPoolTaskNanos: return "pool_task_nanos";
    case Counter::kCount: break;
  }
  return "unknown";
}

#if !defined(ONEPORT_NO_PROFILER)

namespace detail {

namespace {

/// Slab registry: grows, never shrinks.  Threads die but their counters
/// keep counting toward the aggregate, which is exactly what a run-level
/// profile wants.  Leaked intentionally so worker threads racing process
/// teardown never touch a destroyed registry.  The slab list is guarded;
/// the counters inside each slab are relaxed atomics written only by the
/// owning thread, so aggregation never needs to stop the writers.
struct SlabRegistry {
  util::Mutex mutex;
  std::vector<std::unique_ptr<Slab>> slabs OP_GUARDED_BY(mutex);
};

SlabRegistry& registry() noexcept {
  static auto* r = new SlabRegistry();
  return *r;
}

}  // namespace

std::atomic<bool> g_enabled{env::flag(env::Knob::kProfile)};

void bump_slow(Counter c, std::uint64_t n) noexcept {
  thread_local Slab* slab = nullptr;
  if (slab == nullptr) {
    SlabRegistry& reg = registry();
    util::MutexLock lock(reg.mutex);
    reg.slabs.push_back(std::make_unique<Slab>());
    slab = reg.slabs.back().get();
  }
  auto& slot = slab->counts[static_cast<std::size_t>(c)];
  slot.store(slot.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
}

}  // namespace detail

void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

std::size_t slab_count() noexcept {
  detail::SlabRegistry& reg = detail::registry();
  util::MutexLock lock(reg.mutex);
  return reg.slabs.size();
}

std::vector<Counts> per_thread() {
  detail::SlabRegistry& reg = detail::registry();
  util::MutexLock lock(reg.mutex);
  std::vector<Counts> out;
  out.reserve(reg.slabs.size());
  for (const auto& slab : reg.slabs) {
    Counts counts{};
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      counts[i] = slab->counts[i].load(std::memory_order_relaxed);
    }
    out.push_back(counts);
  }
  return out;
}

Counts aggregate() noexcept {
  Counts total{};
  detail::SlabRegistry& reg = detail::registry();
  util::MutexLock lock(reg.mutex);
  for (const auto& slab : reg.slabs) {
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      total[i] += slab->counts[i].load(std::memory_order_relaxed);
    }
  }
  return total;
}

void reset() noexcept {
  detail::SlabRegistry& reg = detail::registry();
  util::MutexLock lock(reg.mutex);
  for (const auto& slab : reg.slabs) {
    for (auto& slot : slab->counts) {
      slot.store(0, std::memory_order_relaxed);
    }
  }
}

#endif  // !ONEPORT_NO_PROFILER

}  // namespace oneport::prof
