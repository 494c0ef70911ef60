// Concurrency stress for util::parallel_for (every slot written once,
// exceptions inside calls) and the shared state it runs over: the
// process-wide routed-platform cache (process_topology_cache) and the
// profiler's per-thread slab registry.  (The scheduler service has its
// own battery in tests/service_test.cpp.)
//
// These suites are the dynamic half of the static correctness layer:
// Clang -Wthread-safety proves lock discipline over the
// OP_GUARDED_BY-annotated members at compile time, and this binary runs
// under BOTH sanitizer CI legs (label `pool`: the ASan+UBSan job's full
// battery and the TSan job's pool slice) to catch what annotations
// cannot -- ordering bugs, missed notifications, racy initialization.
// Every call passes an explicit worker count of 4, so parallel_for
// really starts threads even on single-core runners (0 would resolve to
// one hardware thread there, run inline and test nothing).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/topology_cache.hpp"
#include "platform/routing.hpp"
#include "util/parallel_for.hpp"
#include "util/profiler.hpp"

namespace oneport {
namespace {

constexpr unsigned kWorkers = 4;

// ----------------------------------------------------------- parallel_for

TEST(ParallelForStress, WritesEverySlotExactlyOnce) {
  constexpr std::size_t kCount = 10'000;
  std::vector<int> hits(kCount, 0);
  util::parallel_for(kWorkers, kCount,
                     [&hits](std::size_t i) { hits[i] += 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(kCount));
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

// Two calls throw; whichever throws first, the lower index's exception is
// rethrown, as in an inline run.
TEST(ParallelForStress, RethrowsFromWorker) {
  for (const unsigned workers : {kWorkers, 1u}) {
    SCOPED_TRACE(workers);
    try {
      util::parallel_for(workers, 1'000, [](std::size_t i) {
        if (i == 123 || i == 777) {
          throw std::logic_error("boom " + std::to_string(i));
        }
      });
      ADD_FAILURE() << "parallel_for swallowed the exception";
    } catch (const std::logic_error& e) {
      EXPECT_STREQ(e.what(), "boom 123");
    }
  }
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
  util::parallel_for(kWorkers, kLookups, [&](std::size_t i) {
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
  util::parallel_for(kWorkers, kLookups, [&](std::size_t i) {
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
  const prof::Counts before = prof::aggregate();
  {
    prof::ScopedProfiler scoped(true);
    constexpr std::size_t kBumps = 20'000;
    util::parallel_for(kWorkers, kBumps, [](std::size_t) {
      prof::bump(prof::Counter::kOverlayResets);
    });
    const prof::Counts totals = prof::aggregate();
    const auto overlay =
        static_cast<std::size_t>(prof::Counter::kOverlayResets);
    EXPECT_EQ(totals[overlay] - before[overlay], kBumps)
        << "per-thread slabs lost or double-counted bumps under contention";
    // Aggregation while workers are live must also be race-free; TSan
    // checks that here (values are only asserted at quiescence above).
    util::parallel_for(kWorkers, 1'000, [](std::size_t) {
      prof::bump(prof::Counter::kPruneEvals);
      (void)prof::aggregate();
    });
  }
}

}  // namespace
}  // namespace oneport
