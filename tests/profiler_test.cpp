// Per-thread scalability profiler (util/profiler.hpp): the zero-overhead
// contract when disabled, counter semantics when enabled, and the pin
// that turning the profiler on cannot change a single scheduling
// decision.
//
// ORDERING MATTERS: counter slabs persist for the process lifetime once
// any thread bumps while enabled, so the "disabled path never allocates"
// pin must be the FIRST test in this file -- gtest runs tests in
// definition order within a binary.  Every later test that enables the
// profiler uses ScopedProfiler, which restores the previous state and
// resets the counters it produced.
#include <gtest/gtest.h>

#include <string>

#include "core/registry.hpp"
#include "sched/schedule.hpp"
#include "support/scenario.hpp"
#include "util/env_knobs.hpp"
#include "util/parallel_for.hpp"
#include "util/profiler.hpp"

namespace oneport {
namespace {

using testsupport::Scenario;

Scenario make_scenario() { return testsupport::random_scenario(7207); }

Schedule run_heft(const Scenario& scenario) {
  return find_scheduler("heft-oneport")
      .run(scenario.graph, scenario.platform);
}

// The zero-overhead pin, stated as a provable allocation property rather
// than a flaky wall-clock delta: while the profiler is disabled, no
// counter ever moves and no per-thread slab is ever allocated -- even
// though the scheduling hot path calls prof::bump() millions of times.
// MUST STAY THE FIRST TEST IN THIS FILE (see header comment).
TEST(ProfilerDisabled, NeverAllocatesSlabsOrMovesCounters) {
  if (env::flag(env::Knob::kProfile)) {
    GTEST_SKIP() << "ONEPORT_PROFILE is set: slabs legitimately exist";
  }
  ASSERT_FALSE(prof::enabled());
  const Scenario scenario = make_scenario();
  const Schedule schedule = run_heft(scenario);
  ASSERT_GT(schedule.num_tasks(), 0u);
  // Exercise the parallel_for probe sites too.
  util::parallel_for(2, 16, [](std::size_t) {});
  EXPECT_EQ(prof::slab_count(), 0u)
      << "the disabled path allocated a counter slab, breaking the "
         "zero-overhead contract";
  const prof::Counts totals = prof::aggregate();
  for (std::size_t i = 0; i < prof::kNumCounters; ++i) {
    EXPECT_EQ(totals[i], 0u)
        << "counter " << prof::counter_name(static_cast<prof::Counter>(i))
        << " moved while the profiler was disabled";
  }
}

TEST(Profiler, CounterNamesAreStableSnakeCase) {
  EXPECT_STREQ(prof::counter_name(prof::Counter::kTimelineNextFit),
               "timeline_next_fit");
  EXPECT_STREQ(prof::counter_name(prof::Counter::kEngineCommits),
               "engine_commits");
  EXPECT_STREQ(prof::counter_name(prof::Counter::kGapFlushes), "gap_flushes");
  EXPECT_STREQ(prof::counter_name(prof::Counter::kPoolTaskNanos),
               "pool_task_nanos");
  for (std::size_t i = 0; i < prof::kNumCounters; ++i) {
    const char* name = prof::counter_name(static_cast<prof::Counter>(i));
    ASSERT_NE(name, nullptr);
    for (const char* p = name; *p != '\0'; ++p) {
      EXPECT_TRUE((*p >= 'a' && *p <= 'z') || (*p >= '0' && *p <= '9') ||
                  *p == '_')
          << "counter name '" << name << "' is not snake_case";
    }
  }
}

TEST(Profiler, ScopedProfilerRestoresPreviousState) {
  const bool before = prof::enabled();
  {
    prof::ScopedProfiler guard(true);
    EXPECT_TRUE(prof::enabled());
    {
      prof::ScopedProfiler inner(false);
      EXPECT_FALSE(prof::enabled());
    }
    EXPECT_TRUE(prof::enabled());
  }
  EXPECT_EQ(prof::enabled(), before);
}

// One static HEFT run commits each task exactly once, so the
// engine_commits counter is an exact pin, and the timeline probe
// counters must have moved (every placement probes at least one
// processor timeline).
TEST(Profiler, CountersTrackOneScheduleRunExactly) {
  const Scenario scenario = make_scenario();
  prof::ScopedProfiler guard(true);
  prof::reset();
  const Schedule schedule = run_heft(scenario);
  EXPECT_GE(prof::slab_count(), 1u);
  const prof::Counts totals = prof::aggregate();
  EXPECT_EQ(totals[static_cast<std::size_t>(prof::Counter::kEngineCommits)],
            static_cast<std::uint64_t>(schedule.num_tasks()));
  EXPECT_GT(totals[static_cast<std::size_t>(prof::Counter::kTimelineNextFit)],
            0u);
  EXPECT_GT(totals[static_cast<std::size_t>(prof::Counter::kTimelineReserves)],
            0u);
}

TEST(Profiler, ResetZeroesEveryRegisteredSlab) {
  const Scenario scenario = make_scenario();
  prof::ScopedProfiler guard(true);
  (void)run_heft(scenario);
  ASSERT_GE(prof::slab_count(), 1u);
  prof::reset();
  const prof::Counts totals = prof::aggregate();
  for (std::size_t i = 0; i < prof::kNumCounters; ++i) {
    EXPECT_EQ(totals[i], 0u)
        << prof::counter_name(static_cast<prof::Counter>(i));
  }
  // Slabs stay registered across reset; only the counts are zeroed.
  EXPECT_GE(prof::slab_count(), 1u);
}

TEST(Profiler, PoolJobsAreCountedWithWallTime) {
  prof::ScopedProfiler guard(true);
  prof::reset();
  const auto pool_tasks = [] {
    return prof::aggregate()[static_cast<std::size_t>(
        prof::Counter::kPoolTasks)];
  };
  util::parallel_for(2, 32, [](std::size_t) {});
  EXPECT_EQ(pool_tasks(), 2u) << "each started thread counts once";
  // Never more threads than indices; one thread runs inline, uncounted.
  util::parallel_for(4, 3, [](std::size_t) {});
  EXPECT_EQ(pool_tasks(), 5u);
  util::parallel_for(4, 1, [](std::size_t) {});
  EXPECT_EQ(pool_tasks(), 5u);
}

// The behavioral pin: profiling observes, never steers.  The same
// (graph, platform, heuristic) input must yield bit-identical schedules
// with the profiler on and off, for every registered heuristic.
TEST(Profiler, SchedulesAreBitIdenticalProfilerOnVsOff) {
  for (const Scenario& scenario : testsupport::scenario_sweep(7307, 4)) {
    for (const SchedulerEntry& entry : builtin_schedulers(
             SchedulerConfig{.ilha_chunk_size = 5,
                             .routing = scenario.routing_ptr()})) {
      SCOPED_TRACE(scenario.description + " scheduler=" + entry.name);
      Schedule off_schedule;
      Schedule on_schedule;
      {
        prof::ScopedProfiler guard(false);
        off_schedule = entry.run(scenario.graph, scenario.platform);
      }
      {
        prof::ScopedProfiler guard(true);
        on_schedule = entry.run(scenario.graph, scenario.platform);
      }
      EXPECT_TRUE(off_schedule.tasks() == on_schedule.tasks())
          << "profiler changed task placements";
      EXPECT_TRUE(off_schedule.comms() == on_schedule.comms())
          << "profiler changed communications";
      EXPECT_EQ(off_schedule.makespan(), on_schedule.makespan());
    }
  }
}

}  // namespace
}  // namespace oneport
