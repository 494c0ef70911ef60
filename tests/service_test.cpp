// Concurrency + correctness battery for the scheduler service.  Labeled
// quick AND pool: the Debug CI leg runs it for fast feedback and the
// TSan leg replays it for races across the request queue, the worker
// threads, and the shared routed-platform cache.
//
// The load-bearing pins:
//   * a schedule produced through the service is BIT-identical to the
//     same SweepPoint run through analysis::run_sweep -- both paths call
//     run_sweep_point, and this suite keeps that true from the outside;
//   * routed requests resolve their networks through the one
//     process-wide cache, which returns one instance per key no matter
//     how many threads demand it concurrently;
//   * ServiceOptions alone configures the service: its defaults need no
//     environment, and a zero queue depth or batch size is rejected;
//   * backpressure is principled: block-mode submitters park and every
//     request completes, even with a single worker and a one-slot queue;
//     reject-mode tickets partition cleanly into accepted (future
//     resolves) and rejected (retry-after hint, no id consumed), and
//     submitting after stop() always rejects.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/topology_cache.hpp"
#include "platform/platform.hpp"
#include "platform/routing.hpp"
#include "service/scheduler_service.hpp"
#include "util/parallel_for.hpp"

namespace oneport {
namespace {

constexpr unsigned kWorkers = 4;

analysis::SweepPoint make_point(const std::string& testbed, int size,
                                const std::string& scheduler,
                                const std::string& topology = "full") {
  analysis::SweepPoint point;
  point.testbed = testbed;
  point.size = size;
  point.scheduler = scheduler;
  point.topology = topology;
  return point;
}

// A small mixed grid covering both heuristics, two testbeds, and a
// routed topology -- the shapes the service replays in production.
std::vector<analysis::SweepPoint> mixed_grid() {
  return {
      make_point("FORK-JOIN", 20, "heft-oneport"),
      make_point("LU", 40, "ilha-oneport"),
      make_point("FORK-JOIN", 30, "ilha-oneport"),
      make_point("LU", 20, "heft-oneport", "ring"),
      make_point("STENCIL", 25, "heft-oneport", "mesh2x2"),
  };
}

// ---------------------------------------------------------- bit identity

TEST(SchedulerService, ResultsBitIdenticalToRunSweep) {
  const Platform platform = make_paper_platform();
  const std::vector<analysis::SweepPoint> grid = mixed_grid();
  const std::vector<analysis::SweepResult> expected =
      analysis::run_sweep(grid, platform, {.workers = 1});

  service::ServiceOptions options;
  options.shards = 3;  // requests spread over three workers
  options.batch_size = 2;
  service::SchedulerService svc(platform, options);
  std::vector<service::Ticket> tickets;
  for (const analysis::SweepPoint& point : grid) {
    tickets.push_back(svc.submit(point));
  }
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ASSERT_TRUE(tickets[i].accepted);
    const service::Response response = tickets[i].response.get();
    const analysis::SweepResult& want = expected[i];
    // Doubles compared with EXPECT_EQ on purpose: the service path must
    // be the same arithmetic, not merely close.
    EXPECT_EQ(response.result.makespan, want.makespan) << grid[i].testbed;
    EXPECT_EQ(response.result.speedup, want.speedup);
    EXPECT_EQ(response.result.num_tasks, want.num_tasks);
    EXPECT_EQ(response.result.num_comms, want.num_comms);
    EXPECT_EQ(response.result.imbalance_before, want.imbalance_before);
    EXPECT_EQ(response.result.imbalance_after, want.imbalance_after);
    EXPECT_GT(response.latency_ns, 0u);
    EXPECT_GE(response.latency_ns, response.service_ns);
  }
}

// ----------------------------------------------------- contended replay

TEST(SchedulerService, ContendedSubmitDrainCompletesEverything) {
  const Platform platform = make_paper_platform();
  service::ServiceOptions options;
  options.shards = 2;
  options.queue_depth = 8;  // small: submitters really do park
  options.batch_size = 3;
  options.backpressure = service::Backpressure::kBlock;
  service::SchedulerService svc(platform, options);

  constexpr std::size_t kSubmitters = 4;
  constexpr std::size_t kPerSubmitter = 32;
  std::atomic<std::uint64_t> resolved{0};
  util::parallel_for(kWorkers, kSubmitters, [&](std::size_t) {
    for (std::size_t i = 0; i < kPerSubmitter; ++i) {
      service::Ticket ticket =
          svc.submit(make_point("FORK-JOIN", 10, "heft-oneport"));
      ASSERT_TRUE(ticket.accepted);  // block mode never rejects live
      const service::Response response = ticket.response.get();
      EXPECT_EQ(response.result.point.testbed, "FORK-JOIN");
      resolved.fetch_add(1, std::memory_order_relaxed);
    }
  });
  svc.drain();
  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(resolved.load(), kSubmitters * kPerSubmitter);
  EXPECT_EQ(stats.submitted, kSubmitters * kPerSubmitter);
  EXPECT_EQ(stats.completed, kSubmitters * kPerSubmitter);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_LE(stats.peak_queue_depth, options.queue_depth);
  EXPECT_GT(stats.batches, 0u);
  EXPECT_GT(stats.latency_p99_ms, 0.0);
  EXPECT_GE(stats.latency_p99_ms, stats.latency_p50_ms);
  EXPECT_EQ(svc.latencies_ns().size(), kSubmitters * kPerSubmitter);
}

// ------------------------------------------------------ configuration

TEST(SchedulerService, DefaultOptionsNeedNoEnvironment) {
  const Platform platform = make_paper_platform();
  {
    service::SchedulerService svc(platform);
    EXPECT_EQ(svc.queue_depth(), 256u);
    EXPECT_EQ(svc.batch_size(), 8u);
    EXPECT_EQ(svc.backpressure(), service::Backpressure::kBlock);
    EXPECT_GE(svc.shards(), 1u);
  }
  service::ServiceOptions no_queue;
  no_queue.shards = 1;
  no_queue.queue_depth = 0;
  EXPECT_THROW((void)service::SchedulerService(platform, no_queue),
               std::invalid_argument);
  service::ServiceOptions no_batch;
  no_batch.shards = 1;
  no_batch.batch_size = 0;
  EXPECT_THROW((void)service::SchedulerService(platform, no_batch),
               std::invalid_argument);
}

// -------------------------------------------------------- backpressure

// One worker behind a one-slot queue in block mode: every submission
// after the first parks until the worker admits the one before it, so
// all four complete only if the worker runs on its own thread.
TEST(SchedulerService, SingleWorkerBlockModeDrains) {
  const Platform platform = make_paper_platform();
  service::ServiceOptions options;
  options.shards = 1;
  options.queue_depth = 1;
  options.backpressure = service::Backpressure::kBlock;
  service::SchedulerService svc(platform, options);
  std::vector<service::Ticket> tickets;
  for (int i = 0; i < 4; ++i) {
    tickets.push_back(
        svc.submit(make_point("FORK-JOIN", 10 + i, "heft-oneport")));
  }
  for (service::Ticket& ticket : tickets) {
    ASSERT_TRUE(ticket.accepted);
    EXPECT_NO_THROW((void)ticket.response.get());
  }
  svc.drain();
  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_LE(stats.peak_queue_depth, 1u);
}


TEST(SchedulerService, RejectModePartitionsTicketsCleanly) {
  const Platform platform = make_paper_platform();
  service::ServiceOptions options;
  options.shards = 1;
  options.queue_depth = 1;
  options.batch_size = 1;
  options.backpressure = service::Backpressure::kReject;
  service::SchedulerService svc(platform, options);

  constexpr int kAttempts = 64;
  std::vector<service::Ticket> accepted;
  std::uint64_t rejected = 0;
  for (int i = 0; i < kAttempts; ++i) {
    service::Ticket ticket =
        svc.submit(make_point("FORK-JOIN", 15, "heft-oneport"));
    if (ticket.accepted) {
      accepted.push_back(std::move(ticket));
    } else {
      // Rejection is fully described: the hint is set and no future was
      // attached.
      EXPECT_EQ(ticket.retry_after_ms, service::kRetryAfterMs);
      EXPECT_FALSE(ticket.response.valid());
      ++rejected;
    }
  }
  for (service::Ticket& ticket : accepted) {
    EXPECT_NO_THROW((void)ticket.response.get());
  }
  svc.drain();
  const service::ServiceStats stats = svc.stats();
  // Every attempt is accounted for exactly once; rejected submissions
  // consume no ticket id.
  EXPECT_EQ(accepted.size() + rejected, static_cast<std::size_t>(kAttempts));
  EXPECT_EQ(stats.submitted, accepted.size());
  EXPECT_EQ(stats.completed, accepted.size());
  EXPECT_EQ(stats.rejected, rejected);
}

TEST(SchedulerService, SubmitAfterStopRejectsDeterministically) {
  const Platform platform = make_paper_platform();
  service::ServiceOptions options;
  options.shards = 1;
  service::SchedulerService svc(platform, options);
  service::Ticket before =
      svc.submit(make_point("FORK-JOIN", 10, "heft-oneport"));
  ASSERT_TRUE(before.accepted);
  (void)before.response.get();
  svc.stop();
  svc.stop();  // idempotent
  for (int i = 0; i < 3; ++i) {
    service::Ticket after =
        svc.submit(make_point("FORK-JOIN", 10, "heft-oneport"));
    EXPECT_FALSE(after.accepted);
    EXPECT_EQ(after.retry_after_ms, service::kRetryAfterMs);
    EXPECT_FALSE(after.response.valid());
  }
  EXPECT_EQ(svc.stats().completed, 1u);
}

TEST(SchedulerService, FaultingRequestResolvesItsFutureOnly) {
  const Platform platform = make_paper_platform();
  service::ServiceOptions options;
  options.shards = 1;
  options.batch_size = 4;
  service::SchedulerService svc(platform, options);
  // One poisoned request in the middle of a batch: its future throws,
  // its neighbors complete normally, and the worker survives.
  service::Ticket ok1 = svc.submit(make_point("FORK-JOIN", 10, "heft-oneport"));
  service::Ticket bad = svc.submit(make_point("NO-SUCH-TESTBED", 10,
                                              "heft-oneport"));
  service::Ticket ok2 = svc.submit(make_point("LU", 10, "heft-oneport"));
  ASSERT_TRUE(ok1.accepted && bad.accepted && ok2.accepted);
  EXPECT_NO_THROW((void)ok1.response.get());
  EXPECT_THROW((void)bad.response.get(), std::exception);
  EXPECT_NO_THROW((void)ok2.response.get());
  svc.drain();  // the failed request must not leave in_flight_ stuck
}

TEST(SchedulerService, BackpressureParsing) {
  EXPECT_EQ(service::parse_backpressure("block"),
            service::Backpressure::kBlock);
  EXPECT_EQ(service::parse_backpressure("reject"),
            service::Backpressure::kReject);
  EXPECT_THROW((void)service::parse_backpressure("drop"),
               std::invalid_argument);
  EXPECT_STREQ(service::backpressure_name(service::Backpressure::kBlock),
               "block");
  EXPECT_STREQ(service::backpressure_name(service::Backpressure::kReject),
               "reject");
}

// ------------------------------------------------- routed-platform cache

TEST(ShardedTopologyCache, ShardGetIsOneInstancePerKeyUnderContention) {
  analysis::TopologyCacheShard shard;
  const std::vector<double> cycles{4.0, 5.0, 6.0, 10.0};
  constexpr std::size_t kLookups = 256;
  std::vector<std::shared_ptr<const RoutedPlatform>> got(kLookups);
  util::parallel_for(kWorkers, kLookups, [&](std::size_t i) {
    got[i] = shard.get(i % 2 == 0 ? "ring" : "star", cycles, /*link=*/1.0,
                       /*seed=*/i % 3);
  });
  for (std::size_t i = 0; i < kLookups; ++i) {
    ASSERT_NE(got[i], nullptr);
    for (std::size_t j = i + 1; j < kLookups; ++j) {
      if (i % 2 == j % 2 && i % 3 == j % 3) {
        EXPECT_EQ(got[i].get(), got[j].get())
            << "shard built two instances for one key (" << i << ", " << j
            << ")";
      }
    }
  }
  EXPECT_EQ(shard.size(), 6u);  // 2 topologies x 3 seeds
}

// Routed requests served by two workers build each network once, in the
// process-wide cache the batch path reads too, and their schedules equal
// run_sweep's bit for bit.  The topology seed is one no other test in
// this binary uses, so the cache's growth counts this test's keys only.
TEST(SchedulerService, RoutedRequestsShareTheProcessCache) {
  constexpr std::uint64_t kSeed = 9173;
  const Platform platform = make_paper_platform();
  std::vector<analysis::SweepPoint> grid;
  for (int copy = 0; copy < 3; ++copy) {
    for (const char* topology : {"mesh2x2", "mesh3x3:het0.5:swp"}) {
      analysis::SweepPoint point =
          make_point("LU", 20 + 10 * copy, "heft-oneport", topology);
      point.topology_seed = kSeed;
      grid.push_back(point);
    }
  }
  constexpr std::size_t kDistinctKeys = 2;

  const std::size_t before = analysis::process_topology_cache().size();
  service::ServiceOptions options;
  options.shards = 2;
  options.batch_size = 1;
  service::SchedulerService svc(platform, options);
  std::vector<service::Ticket> tickets;
  for (const analysis::SweepPoint& point : grid) {
    tickets.push_back(svc.submit(point));
  }
  std::vector<service::Response> responses;
  for (service::Ticket& ticket : tickets) {
    ASSERT_TRUE(ticket.accepted);
    responses.push_back(ticket.response.get());
  }
  EXPECT_EQ(analysis::process_topology_cache().size(), before + kDistinctKeys);

  const std::vector<analysis::SweepResult> expected =
      analysis::run_sweep(grid, platform, {.workers = 1});
  EXPECT_EQ(analysis::process_topology_cache().size(), before + kDistinctKeys);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const analysis::SweepResult& got = responses[i].result;
    EXPECT_EQ(got.makespan, expected[i].makespan) << grid[i].topology;
    EXPECT_EQ(got.speedup, expected[i].speedup);
    EXPECT_EQ(got.num_tasks, expected[i].num_tasks);
    EXPECT_EQ(got.num_comms, expected[i].num_comms);
  }
}

}  // namespace
}  // namespace oneport
