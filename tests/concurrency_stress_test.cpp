// Concurrency stress for the repo's three load-bearing shared-state
// sites: the thread pool (contended submit/drain, exceptions inside
// tasks), the process-wide routed-platform cache
// (process_topology_cache), and the profiler's per-thread slab
// registry.  (The scheduler service built on top of all three has its
// own battery in tests/service_test.cpp.)
//
// These suites are the dynamic half of the static correctness layer:
// Clang -Wthread-safety proves lock discipline over the
// OP_GUARDED_BY-annotated members at compile time, and this binary runs
// under BOTH sanitizer CI legs (label `pool`: the ASan+UBSan job's full
// battery and the TSan job's pool slice) to catch what annotations
// cannot -- ordering bugs, missed notifications, racy initialization.
// Worker counts are forced >= 4 so the pool really spawns threads even
// on single-core runners (ThreadPool(0) would collapse to inline mode
// there and test nothing).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/topology_cache.hpp"
#include "platform/routing.hpp"
#include "util/profiler.hpp"
#include "util/thread_pool.hpp"

namespace oneport {
namespace {

constexpr unsigned kWorkers = 4;

// ------------------------------------------------------------ thread pool

TEST(ThreadPoolStress, ContendedSubmitDrainCycles) {
  ThreadPool pool(kWorkers);
  ASSERT_EQ(pool.size(), kWorkers);
  std::atomic<std::uint64_t> sum{0};
  // Many fork/join rounds of many tiny jobs: maximal contention on the
  // queue mutex and the pending-counter/idle-condvar handshake.
  constexpr int kRounds = 50;
  constexpr int kJobsPerRound = 64;
  for (int round = 0; round < kRounds; ++round) {
    for (int job = 0; job < kJobsPerRound; ++job) {
      pool.submit([&sum] { sum.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait_idle();
  }
  EXPECT_EQ(sum.load(), static_cast<std::uint64_t>(kRounds * kJobsPerRound));
}

TEST(ThreadPoolStress, ParallelForWritesEverySlotExactlyOnce) {
  ThreadPool pool(kWorkers);
  constexpr std::size_t kCount = 10'000;
  std::vector<int> hits(kCount, 0);
  pool.parallel_for(kCount, [&hits](std::size_t i) { hits[i] += 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(kCount));
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(ThreadPoolStress, FirstTaskExceptionRethrownPoolStaysUsable) {
  ThreadPool pool(kWorkers);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&ran, i] {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (i % 10 == 3) {
        throw std::runtime_error("task " + std::to_string(i) + " failed");
      }
    });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // Every job still ran (a throwing job must not wedge the drain)...
  EXPECT_EQ(ran.load(), 100);
  // ...the error slot was consumed by the rethrow...
  pool.wait_idle();
  // ...and the pool accepts and completes new work afterwards.
  std::atomic<int> after{0};
  pool.parallel_for(32, [&after](std::size_t) {
    after.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(after.load(), 32);
}

TEST(ThreadPoolStress, ParallelForRethrowsFromWorker) {
  ThreadPool pool(kWorkers);
  EXPECT_THROW(
      pool.parallel_for(1'000,
                        [](std::size_t i) {
                          if (i == 777) throw std::logic_error("boom");
                        }),
      std::logic_error);
}

TEST(ThreadPoolStress, DestructorDrainsQueuedJobs) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(kWorkers);
    for (int i = 0; i < 200; ++i) {
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    // No wait_idle(): destruction must still run every queued job before
    // joining (workers drain the queue after stop).
  }
  EXPECT_EQ(ran.load(), 200);
}

// ------------------------------------------ process_topology_cache

// Regression shape for the satellite audit of the cache's locking: many
// workers demanding the same small key set concurrently.  The contract
// is that every caller receives the SAME RoutedPlatform instance per
// key -- a racy first build is allowed to construct twice, but
// map::emplace keeps the first insert and hands the winner to every
// caller, losers included.  Run under TSan this also proves the
// build-outside-the-lock window touches no shared mutable state.
TEST(TopologyCacheStress, ConcurrentHitsShareOneInstancePerKey) {
  const std::vector<double> cycles{4.0, 5.0, 6.0, 10.0};
  const std::vector<std::string> names{"ring", "star", "mesh2x2",
                                       "mesh2x2:het0.5:swp"};
  constexpr std::size_t kLookups = 256;
  std::vector<std::shared_ptr<const RoutedPlatform>> got(kLookups);
  ThreadPool pool(kWorkers);
  pool.parallel_for(kLookups, [&](std::size_t i) {
    // Distinct seeds multiply the key space; i % 2 seeds collide across
    // workers so both the build path and the hit path stay contended.
    got[i] = analysis::process_topology_cache().get(
        names[i % names.size()], cycles, /*link=*/1.0, /*seed=*/i % 2);
  });
  for (std::size_t i = 0; i < kLookups; ++i) {
    ASSERT_NE(got[i], nullptr);
    for (std::size_t j = i + 1; j < kLookups; ++j) {
      if (i % names.size() == j % names.size() && i % 2 == j % 2) {
        EXPECT_EQ(got[i].get(), got[j].get())
            << "cache returned two instances for one key (" << i << ", " << j
            << ")";
      }
    }
  }
}

// The process-wide cache under a wide key set: demanding the whole set
// concurrently, over and over, must hand every caller of one key the
// same instance.
TEST(TopologyCacheStress, ShardedSingletonHoldsAcrossWideKeySet) {
  analysis::TopologyCacheShard& cache = analysis::process_topology_cache();
  const std::vector<double> cycles{3.0, 7.0, 9.0};
  const std::vector<std::string> names{"ring", "star", "line", "mesh2x2",
                                       "torus2x2", "fattree1x2"};
  constexpr std::size_t kLookups = 240;
  std::vector<std::shared_ptr<const RoutedPlatform>> got(kLookups);
  ThreadPool pool(kWorkers);
  pool.parallel_for(kLookups, [&](std::size_t i) {
    got[i] = cache.get(names[i % names.size()], cycles, /*link=*/1.0,
                       /*seed=*/7 + i % 4);
  });
  for (std::size_t i = 0; i < kLookups; ++i) {
    ASSERT_NE(got[i], nullptr);
    // Same key (name, seed) => same instance, even when routed through
    // different submitting threads and resolved in different orders.
    const std::size_t peer = i + names.size() * 4;
    if (peer < kLookups) {
      EXPECT_EQ(got[i].get(), got[peer].get())
          << "cache returned two instances for one key (" << i
          << ", " << peer << ")";
    }
  }
}

// ------------------------------------------------ profiler slab registry

TEST(ProfilerStress, ConcurrentBumpsAggregateExactly) {
  if (!prof::compiled_in()) GTEST_SKIP() << "profiler compiled out";
  const prof::Counts before = prof::aggregate();
  {
    prof::ScopedProfiler scoped(true);
    ThreadPool pool(kWorkers);
    constexpr std::size_t kBumps = 20'000;
    pool.parallel_for(kBumps, [](std::size_t) {
      prof::bump(prof::Counter::kOverlayResets);
    });
    const prof::Counts totals = prof::aggregate();
    const auto overlay =
        static_cast<std::size_t>(prof::Counter::kOverlayResets);
    EXPECT_EQ(totals[overlay] - before[overlay], kBumps)
        << "per-thread slabs lost or double-counted bumps under contention";
    // Aggregation while workers are live must also be race-free; TSan
    // checks that here (values are only asserted at quiescence above).
    pool.parallel_for(1'000, [](std::size_t) {
      prof::bump(prof::Counter::kPruneEvals);
      (void)prof::aggregate();
    });
  }
}

}  // namespace
}  // namespace oneport
