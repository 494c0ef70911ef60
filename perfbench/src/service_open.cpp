// service-open: one load-generator thread sends seeded Poisson arrivals
// into service::SchedulerService (2 shards, reject backpressure,
// validation on), so three threads run in all.  Each request is one of
// LU, FORK-JOIN, STENCIL, MLTRAIN, MICROSVC x n in {20, 40, 80} x
// {heft, ilha}-oneport.  Latency runs from a request's scheduled send
// time to its completion, so a stalled generator or service shows up in
// every request behind the stall.  Per-request overheads (generation,
// engine set-up, validation), queueing and batching dominate; there is no
// serialization and gap lists stay short.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/experiment.hpp"
#include "core/priorities.hpp"
#include "service/scheduler_service.hpp"
#include "testbeds/registry.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace oneport;

/// Offered rates of the open loop, in requests/s.
constexpr double kLightRps = 200.0;
constexpr double kHeavyRps = 600.0;
/// The latency limit each open-loop step's p99 is reported against.
constexpr double kLatencyLimitMs = 50.0;
/// The generator must run no later than a tenth of the limit; a step
/// whose generator lagged more is measured again, and a run where it
/// still lagged is marked invalid.
constexpr double kLagLimitMs = kLatencyLimitMs / 10.0;
constexpr int kLagRetries = 1;
constexpr auto kSpinWindow = std::chrono::microseconds(500);
constexpr unsigned kShards = 2;
/// Requests sent at once to measure the saturated completion rate.
constexpr std::size_t kBurstRequests = 600;
/// How a run of S seconds is spent: kRounds rounds, each offering the
/// light rate for kLightShare / kRounds * S, replaying the mix for
/// kReplayShare / kRounds * S and sending one burst; the first round also
/// offers the heavy rate for kHeavyShare * S.
constexpr int kRounds = 4;
constexpr double kLightShare = 0.35;
constexpr double kReplayShare = 0.25;
constexpr double kHeavyShare = 0.15;

std::vector<analysis::SweepPoint> request_kinds() {
  std::vector<analysis::SweepPoint> kinds;
  for (const char* testbed :
       {"LU", "FORK-JOIN", "STENCIL", "MLTRAIN", "MICROSVC"}) {
    for (const int n : {20, 40, 80}) {
      for (const char* scheduler : {"heft-oneport", "ilha-oneport"}) {
        analysis::SweepPoint point;
        point.testbed = testbed;
        point.size = n;
        point.scheduler = scheduler;
        kinds.push_back(point);
      }
    }
  }
  return kinds;
}

service::ServiceOptions service_options() {
  service::ServiceOptions options;
  options.shards = kShards;
  // Deep enough that no step fills it: a reject is a failure.
  options.queue_depth = 1u << 15;
  options.batch_size = 8;
  options.backpressure = service::Backpressure::kReject;
  options.validate = true;
  return options;
}

struct Step {
  std::vector<double> latency_ms;
  std::vector<double> queue_ms;
  std::vector<double> service_ms;
  std::uint64_t batches = 0;
  std::size_t peak_queue_depth = 0;
  std::size_t backlog_at_last_send = 0;
  std::uint64_t rejects = 0;
  double lag_ms_max = 0.0;
  double completed_rps = 0.0;
};

/// Offers requests to a fresh service and waits for every response: at
/// `rate` requests/s for `seconds` (Poisson arrivals drawn from `rng`),
/// or, when `burst` is nonzero, `burst` requests all due at once.
Step run_step(double rate, double seconds, std::size_t burst, SplitMix64 rng,
              const std::vector<analysis::SweepPoint>& kinds,
              const std::vector<double>& expected, const Platform& platform,
              Tracer& tracer, std::uint64_t& next_request,
              RunResult& result) {
  struct Sent {
    Clock::time_point due;
    Clock::time_point sent;
    std::size_t kind;
    std::future<service::Response> response;
  };
  Step step;
  std::vector<Sent> sent;
  sent.reserve(burst + static_cast<std::size_t>(1.5 * rate * seconds) + 16);

  service::SchedulerService service(platform, service_options());
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(2);
  double offset_s = 0.0;
  for (std::size_t count = 0;; ++count) {
    if (burst != 0) {
      if (count == burst) break;
    } else {
      offset_s += -std::log(1.0 - rng.uniform01()) / rate;
      if (offset_s >= seconds) break;
    }
    const std::size_t kind = rng.below(kinds.size());
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(offset_s));
    // Sleep to just before the send time, then spin: waking a sleeping
    // thread costs up to milliseconds on a virtual machine, and that lag
    // would be charged to the service.
    std::this_thread::sleep_until(due - kSpinWindow);
    Clock::time_point now = Clock::now();
    while (now < due) now = Clock::now();
    step.lag_ms_max = std::max(step.lag_ms_max, ms_between(due, now));
    service::Ticket ticket = service.submit(kinds[kind]);
    ++result.attempted;
    if (!ticket.accepted) {
      ++step.rejects;
      result.fail("request rejected by backpressure");
      continue;
    }
    sent.push_back({due, now, kind, std::move(ticket.response)});
  }
  {
    const service::ServiceStats stats = service.stats();
    step.backlog_at_last_send =
        static_cast<std::size_t>(stats.submitted - stats.completed);
  }

  Clock::time_point last_done = start;
  for (Sent& s : sent) {
    try {
      const service::Response r = s.response.get();
      const Clock::time_point done =
          s.sent + std::chrono::nanoseconds(r.latency_ns);
      last_done = std::max(last_done, done);
      step.latency_ms.push_back(ms_between(s.due, done));
      step.queue_ms.push_back(1e-6 * static_cast<double>(r.queue_ns));
      step.service_ms.push_back(1e-6 * static_cast<double>(r.service_ns));
      if (r.result.makespan != expected[s.kind]) {
        result.fail("service makespan differs from the warm-up's");
      }
      if (tracer.enabled()) {
        const std::uint64_t id = next_request++;
        const Clock::time_point admitted =
            s.sent + std::chrono::nanoseconds(r.queue_ns);
        const std::uint64_t root =
            tracer.record("request", id, 0, s.due, done, 0, true);
        tracer.record("loadgen.lag", id, root, s.due, s.sent, 0, true);
        tracer.record("service.queue", id, root, s.sent, admitted, 0, true);
        tracer.record("service.run", id, root, admitted, done,
                      1 + static_cast<int>(r.shard), false);
      }
    } catch (const std::exception& e) {
      result.fail(std::string("exception: ") + e.what());
    }
  }
  const service::ServiceStats stats = service.stats();
  service.stop();
  step.batches = stats.batches;
  step.peak_queue_depth = stats.peak_queue_depth;
  step.completed_rps = static_cast<double>(step.latency_ms.size()) /
                       seconds_between(start, last_done);
  return step;
}

}  // namespace

RunResult run_service_open(const RunOptions& options, Tracer& tracer) {
  RunResult result;
  Tracer untraced(false);
  const Platform platform = make_paper_platform();
  const std::vector<analysis::SweepPoint> kinds = request_kinds();

  // Set-up: start the service and warm it with every request kind once;
  // the first warm-up's makespans are what every later response must equal.
  std::vector<double> expected(kinds.size(), -1.0);
  for (unsigned shard = 0; shard < kShards; ++shard) {
    tracer.name_lane(1 + static_cast<int>(shard),
                     "shard " + std::to_string(shard));
  }
  const double setup_s = median_setup_s([&](std::size_t rep) {
    service::SchedulerService service(platform, service_options());
    std::vector<std::future<service::Response>> responses;
    for (const analysis::SweepPoint& kind : kinds) {
      service::Ticket ticket = service.submit(kind);
      ++result.attempted;
      if (!ticket.accepted) {
        result.fail("warm-up request rejected");
        return;
      }
      responses.push_back(std::move(ticket.response));
    }
    for (std::size_t i = 0; i < responses.size(); ++i) {
      try {
        const double makespan = responses[i].get().result.makespan;
        if (rep == 0) {
          expected[i] = makespan;
        } else if (makespan != expected[i]) {
          result.fail("warm-up makespans differ between set-ups");
        }
      } catch (const std::exception& e) {
        result.fail(std::string("exception: ") + e.what());
      }
    }
    service.stop();
  });

  // Replay of the request mix on this thread through the layer functions
  // the service calls: every kind once per pass, in a seeded order.  In
  // the traced run each request runs untraced, then traced with the
  // profiler on, which splits service time into layers and gives the
  // tracing overhead.
  std::vector<std::size_t> order(kinds.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  SplitMix64 shuffle(options.seed);
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[shuffle.below(i + 1)]);
  }
  std::uint64_t next_request = 1;
  std::vector<double> pass_s;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  double pass_tasks = 0.0;
  Counters counters;
  const auto replay = [&](std::size_t k, Tracer& t, std::uint64_t id) {
    const analysis::SweepPoint& kind = kinds[k];
    ++result.attempted;
    const Clock::time_point t0 = Clock::now();
    std::size_t tasks = 0;
    try {
      const ScopedSpan root(t, "request", id);
      TaskGraph graph;
      {
        const ScopedSpan span(t, "testbeds.generate", id, root.id());
        graph = testbeds::find_testbed(kind.testbed)
                    .make(kind.size, kind.comm_ratio);
      }
      const SchedulerEntry scheduler =
          find_scheduler(kind.scheduler, kind.chunk_size);
      const Solved s = solve(scheduler, graph, platform, t, id, root.id(),
                             /*serialize=*/false);
      tasks = graph.num_tasks();
      if (!s.error.empty()) {
        result.fail("invalid schedule: " + s.error.substr(0, 200));
      } else if (s.schedule.makespan() != expected[k]) {
        result.fail("replayed makespan differs from the service's");
      }
      if (t.enabled()) {
        const ScopedSpan span(t, "core.priorities", id);
        (void)averaged_bottom_levels(graph, platform);
      }
    } catch (const std::exception& e) {
      result.fail(std::string("exception: ") + e.what());
    }
    return std::make_pair(seconds_between(t0, Clock::now()), tasks);
  };
  const auto replay_for = [&](double seconds) {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    do {
      double wall_s = 0.0;
      double tasks = 0.0;
      if (tracer.enabled()) prof::reset();
      for (const std::size_t k : order) {
        const auto [s, n] = replay(k, untraced, 0);
        wall_s += s;
        tasks += static_cast<double>(n);
        if (tracer.enabled()) {
          const prof::ScopedProfiler profile(true, /*reset_on_exit=*/false);
          untraced_s += s;
          traced_s += replay(k, tracer, next_request++).first;
        }
      }
      pass_s.push_back(wall_s);
      pass_tasks = tasks;
      if (tracer.enabled()) {
        const Counters now = Counters::read();
        if (pass_s.size() > 1 && now != counters) {
          result.fail("profiler counts differ between identical passes");
        }
        counters = now;
      }
    } while (Clock::now() < deadline);
  };

  // One open-loop step, measured again when the generator lagged.
  std::uint64_t step_index = 0;
  double lag_ms_max = 0.0;
  std::uint64_t rejects = 0;
  const auto measure = [&](double rate, double seconds, std::size_t burst) {
    // The traced run keeps the profiler on in the service too.
    const prof::ScopedProfiler profile(tracer.enabled(),
                                       /*reset_on_exit=*/false);
    Step step;
    for (int attempt = 0; attempt <= kLagRetries; ++attempt) {
      SplitMix64 rng(options.seed * 0x9E3779B97F4A7C15ULL + step_index);
      step = run_step(rate, seconds, burst, rng, kinds, expected, platform,
                      tracer, next_request, result);
      // A burst is due all at once, so only paced steps can lag.
      if (burst != 0 || step.lag_ms_max <= kLagLimitMs) break;
    }
    ++step_index;
    rejects += step.rejects;
    char line[200];
    if (burst != 0) {
      std::snprintf(line, sizeof line,
                    "service-open: burst of %zu, %.1f/s completed",
                    burst, step.completed_rps);
    } else {
      lag_ms_max = std::max(lag_ms_max, step.lag_ms_max);
      const double p99 = percentile(step.latency_ms, 0.99);
      std::snprintf(line, sizeof line,
                    "service-open: %4.0f/s offered, %6.1f/s completed, p50 "
                    "%.2f ms, p99 %.2f ms (%s the %.0f ms limit), %zu "
                    "outstanding at the last send",
                    rate, step.completed_rps, median(step.latency_ms), p99,
                    p99 <= kLatencyLimitMs ? "within" : "over",
                    kLatencyLimitMs, step.backlog_at_last_send);
    }
    result.notes.emplace_back(line);
    return step;
  };

  // The run is split into rounds, each with a light window, a slice of
  // the replay and one burst, so that a slow phase of the machine touches
  // every metric a little instead of one metric wholly.
  std::vector<double> light_ms;
  std::vector<double> burst_rps;
  Step heavy;
  for (int round = 0; round < kRounds; ++round) {
    const Step light =
        measure(kLightRps, kLightShare / kRounds * options.seconds, 0);
    light_ms.insert(light_ms.end(), light.latency_ms.begin(),
                    light.latency_ms.end());
    replay_for(kReplayShare / kRounds * options.seconds);
    burst_rps.push_back(measure(0.0, 0.0, kBurstRequests).completed_rps);
    if (round == 0) {
      heavy = measure(kHeavyRps, kHeavyShare * options.seconds, 0);
    }
  }
  if (lag_ms_max > kLagLimitMs) {
    result.notes.emplace_back(
        "service-open: INVALID open loop -- the generator lagged " +
        std::to_string(lag_ms_max) + " ms (limit " +
        std::to_string(kLagLimitMs) + " ms)");
  }
  char note[200];
  std::snprintf(note, sizeof note,
                "service-open: light %zu requests, heavy %zu requests, "
                "generator lag max %.3f ms, %zu replay passes",
                light_ms.size(), heavy.latency_ms.size(), lag_ms_max,
                pass_s.size());
  result.notes.emplace_back(note);

  if (!tracer.enabled()) {
    // Means over the replay (see README.md).
    const double passes = static_cast<double>(pass_s.size());
    result.metrics["setup_s"] = setup_s;
    result.metrics["solve_s"] =
        sum(pass_s) / (passes * static_cast<double>(kinds.size()));
    result.metrics["tasks_per_s"] = pass_tasks * passes / sum(pass_s);
    result.metrics["latency_p50_ms"] = median(light_ms);
    result.metrics["max_rate_rps"] = median(burst_rps);
  } else {
    const std::vector<double> schedule_ms = tracer.self_ms("core.schedule");
    result.metrics["testbeds.generate_ms"] =
        median(tracer.self_ms("testbeds.generate"));
    result.metrics["core.priorities_ms"] =
        median(tracer.self_ms("core.priorities"));
    result.metrics["core.schedule_ms"] = median(schedule_ms);
    result.metrics["core.schedule_us_per_task"] =
        1e3 * sum(schedule_ms) /
        (static_cast<double>(pass_s.size()) * pass_tasks);
    result.metrics["sched.validate_ms"] =
        median(tracer.self_ms("sched.validate"));
    result.metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0;
    counters.report(result, pass_tasks);
    result.metrics["service.latency_p99_ms.light"] =
        percentile(light_ms, 0.99);
    result.metrics["service.latency_p50_ms.heavy"] = median(heavy.latency_ms);
    result.metrics["service.latency_p99_ms.heavy"] =
        percentile(heavy.latency_ms, 0.99);
    result.metrics["service.queue_ms_p50"] = median(heavy.queue_ms);
    result.metrics["service.queue_ms_p99"] = percentile(heavy.queue_ms, 0.99);
    result.metrics["service.service_ms_p50"] = median(heavy.service_ms);
    result.metrics["service.service_ms_p99"] =
        percentile(heavy.service_ms, 0.99);
    result.metrics["service.batch_mean"] =
        static_cast<double>(heavy.service_ms.size()) /
        static_cast<double>(std::max<std::uint64_t>(heavy.batches, 1));
    result.metrics["service.peak_queue_depth"] =
        static_cast<double>(heavy.peak_queue_depth);
    result.metrics["service.rejects"] = static_cast<double>(rejects);
    result.metrics["loadgen.lag_ms_max"] = lag_ms_max;
  }
  return result;
}

}  // namespace perfbench
