// Scheduler-service replay driver: stand up a service::SchedulerService
// over the paper platform, replay a seeded stream of mixed-size DAG
// scheduling requests through it, and report sustained schedules/sec
// with p50/p99 enqueue-to-completion latency.
//
// Usage:
//   service_cli [--requests=200 | --seconds=2]
//               [--shards=0] [--queue-depth=256] [--batch=8]
//               [--backpressure=block|reject]
//               [--testbeds=LU,FORK-JOIN,STENCIL] [--sizes=20,40,80]
//               [--schedulers=heft-oneport,ilha-oneport]
//               [--seed=1] [--no-validate] [--json=out.json] [--quiet]
//
// The stream is seeded (--seed) and drawn uniformly over the testbeds x
// sizes x schedulers axes, so a replay is reproducible: the same seed
// submits the same requests in the same order.  --requests replays a
// fixed count; --seconds instead submits closed-loop until the deadline
// (the CI smoke mode).  The service flags default to ServiceOptions'
// defaults (--shards=0 = one worker per hardware thread).  Under
// --backpressure=reject, rejected submissions honor the ticket's
// retry-after hint and resubmit, so every generated request eventually
// completes and the reported throughput is the service's, not the
// reject path's.
//
// The exit status is the smoke test: service_cli exits non-zero when
// zero requests completed (a wedged queue or dead worker cannot report
// a plausible-looking 0.0 schedules/sec and still pass CI).
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "platform/platform.hpp"
#include "service/scheduler_service.hpp"
#include "util/args.hpp"
#include "util/error.hpp"

namespace {

using namespace oneport;

/// The seeded request stream: request i is a uniform draw over the
/// testbed/size/scheduler axes from an engine seeded once, so the same
/// --seed replays the same mixed-size stream.
class RequestStream {
 public:
  RequestStream(std::vector<std::string> testbeds, std::vector<int> sizes,
                std::vector<std::string> schedulers, std::uint64_t seed)
      : testbeds_(std::move(testbeds)),
        sizes_(std::move(sizes)),
        schedulers_(std::move(schedulers)),
        rng_(seed) {}

  analysis::SweepPoint next() {
    analysis::SweepPoint point;
    point.testbed = pick(testbeds_);
    point.size = pick(sizes_);
    point.scheduler = pick(schedulers_);
    return point;
  }

 private:
  template <typename T>
  const T& pick(const std::vector<T>& axis) {
    std::uniform_int_distribution<std::size_t> dist(0, axis.size() - 1);
    return axis[dist(rng_)];
  }

  std::vector<std::string> testbeds_;
  std::vector<int> sizes_;
  std::vector<std::string> schedulers_;
  std::mt19937_64 rng_;
};

/// Submits one request, honoring reject backpressure by sleeping the
/// ticket's retry-after hint and resubmitting.
service::Ticket submit_with_retry(service::SchedulerService& svc,
                                  const analysis::SweepPoint& point) {
  while (true) {
    service::Ticket ticket = svc.submit(point);
    if (ticket.accepted) return ticket;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(ticket.retry_after_ms));
  }
}

void write_json(std::ostream& os, const service::SchedulerService& svc,
                const service::ServiceStats& stats, double wall_seconds,
                double throughput) {
  os << "{\n  \"context\": {\n"
     << "    \"executable\": \"service_cli\",\n"
     << "    \"shards\": " << svc.shards() << ",\n"
     << "    \"queue_depth\": " << svc.queue_depth() << ",\n"
     << "    \"batch_size\": " << svc.batch_size() << ",\n"
     << "    \"backpressure\": \""
     << service::backpressure_name(svc.backpressure()) << "\"\n"
     << "  },\n  \"benchmarks\": [\n"
     << "    {\n"
     << "      \"name\": \"service/replay\",\n"
     << "      \"run_type\": \"service\",\n"
     << "      \"completed\": " << stats.completed << ",\n"
     << "      \"rejected\": " << stats.rejected << ",\n"
     << "      \"batches\": " << stats.batches << ",\n"
     << "      \"peak_queue_depth\": " << stats.peak_queue_depth << ",\n"
     << "      \"wall_seconds\": " << wall_seconds << ",\n"
     << "      \"schedules_per_second\": " << throughput << ",\n"
     << "      \"latency_p50_ms\": " << stats.latency_p50_ms << ",\n"
     << "      \"latency_p99_ms\": " << stats.latency_p99_ms << "\n"
     << "    }\n  ]\n}\n";
}

int run(int argc, char** argv) {
  const Args args(argc, argv);
  if (args.has("help")) {
    std::cout
        << "usage: service_cli [--requests=200 | --seconds=S]\n"
           "                   [--shards=0] [--queue-depth=256] [--batch=8]\n"
           "                   [--backpressure=block|reject]\n"
           "                   [--testbeds=LU,FORK-JOIN,STENCIL]\n"
           "                   [--sizes=20,40,80]\n"
           "                   [--schedulers=heft-oneport,ilha-oneport]\n"
           "                   [--seed=1] [--no-validate]\n"
           "                   [--json=out.json] [--quiet]\n"
           "\n"
           "Replays a seeded stream of mixed-size DAG scheduling\n"
           "requests through the scheduler service and reports\n"
           "schedules/sec with p50/p99 latency.  --requests submits a\n"
           "fixed count; --seconds submits closed-loop until the\n"
           "deadline.  --shards=0 starts one worker per hardware\n"
           "thread.\n"
           "Exits non-zero if no request completes.\n";
    return 0;
  }

  const std::vector<std::string> testbeds =
      split_list(args.get("testbeds", "LU,FORK-JOIN,STENCIL"));
  const std::vector<int> sizes =
      split_ints("sizes", args.get("sizes", "20,40,80"));
  const std::vector<std::string> schedulers =
      split_list(args.get("schedulers", "heft-oneport,ilha-oneport"));
  ensure(!testbeds.empty() && !sizes.empty() && !schedulers.empty(),
         "every stream axis needs at least one entry");
  const std::uint64_t seed = args.get_u64("seed", 1);
  const int requests = args.get_int("requests", 200);
  const double seconds = args.get_double("seconds", 0.0);
  ensure(requests > 0 || seconds > 0.0,
         "--requests must be positive (or give --seconds)");

  const int shards = args.get_int("shards", 0);
  const int queue_depth = args.get_int("queue-depth", 256);
  const int batch = args.get_int("batch", 8);
  ensure(shards >= 0 && queue_depth >= 0 && batch >= 0,
         "--shards, --queue-depth and --batch must not be negative");
  service::ServiceOptions options;
  options.shards = static_cast<unsigned>(shards);
  options.queue_depth = static_cast<std::size_t>(queue_depth);
  options.batch_size = static_cast<std::size_t>(batch);
  options.backpressure =
      service::parse_backpressure(args.get("backpressure", "block"));
  options.validate = !args.has("no-validate");

  const Platform platform = make_paper_platform();
  service::SchedulerService svc(platform, options);
  RequestStream stream(testbeds, sizes, schedulers, seed);

  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  std::uint64_t submitted = 0;
  if (seconds > 0.0) {
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    while (Clock::now() < deadline) {
      (void)submit_with_retry(svc, stream.next());
      ++submitted;
    }
  } else {
    for (int i = 0; i < requests; ++i) {
      (void)submit_with_retry(svc, stream.next());
      ++submitted;
    }
  }
  svc.drain();
  const double wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  svc.stop();

  const service::ServiceStats stats = svc.stats();
  const double throughput =
      wall_seconds > 0.0 ? static_cast<double>(stats.completed) / wall_seconds
                         : 0.0;

  if (!args.has("quiet")) {
    std::cout << "service: " << svc.shards() << " shards, queue depth "
              << svc.queue_depth() << ", batch " << svc.batch_size()
              << ", backpressure "
              << service::backpressure_name(svc.backpressure()) << "\n"
              << "replay:  " << submitted << " submitted, " << stats.completed
              << " completed, " << stats.rejected << " rejected, "
              << stats.batches << " batches, peak depth "
              << stats.peak_queue_depth << "\n"
              << "rate:    " << throughput << " schedules/sec over "
              << wall_seconds << " s\n"
              << "latency: p50 " << stats.latency_p50_ms << " ms, p99 "
              << stats.latency_p99_ms << " ms\n";
  }
  if (args.has("json")) {
    std::ofstream os(args.get("json", ""));
    ensure(os.good(), "cannot open --json path for writing");
    write_json(os, svc, stats, wall_seconds, throughput);
    if (!args.has("quiet")) {
      std::cout << "JSON artifact: " << args.get("json", "") << "\n";
    }
  }

  if (stats.completed == 0) {
    std::cerr << "service_cli: no request completed\n";
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "service_cli: " << e.what() << "\n";
    return 1;
  }
}
