// Scheduler-as-a-service: a long-running batched request server (the
// full design narrative lives in docs/SERVICE.md).
//
// Shape, in the nfos data-plane idiom:
//
//   clients --submit()--> [ bounded MPMC queue ] --batched drain--> worker 0
//                              |  (depth D,           (<= K per wake) worker 1
//                         backpressure when full)                     ...
//                                                                     worker N-1
//
//   * the request queue is bounded (`queue_depth`); a full queue engages
//     the selected backpressure policy -- kBlock parks the submitter on
//     a not-full condvar, kReject returns an unaccepted ticket with a
//     retry-after hint and bumps the reject counter;
//   * N worker threads, started by the constructor and joined by stop(),
//     drain up to `batch_size` requests per wake -- one lock acquisition
//     admits a whole batch, so queue-mutex traffic scales with batches,
//     not requests;
//   * every request runs through analysis::run_sweep_point -- the exact
//     executor each run_sweep thread runs, resolving routed platforms
//     through the same process-wide cache -- so a service schedule is
//     bit-identical to the same job run through the batch path
//     (tests/service_test.cpp pins this);
//   * per-request latency (enqueue -> completion) lands in the response
//     and in the service's own stats.
//
// ServiceOptions carries every default; service_cli exposes each field
// as a flag.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/experiment.hpp"
#include "platform/platform.hpp"
#include "util/annotations.hpp"

namespace oneport::service {

/// Full-queue policy.
enum class Backpressure { kBlock, kReject };

/// Parses "block"/"reject" (throws std::invalid_argument otherwise).
[[nodiscard]] Backpressure parse_backpressure(std::string_view name);
[[nodiscard]] const char* backpressure_name(Backpressure mode) noexcept;

/// Retry-after hint handed back with every rejected ticket.
inline constexpr int kRetryAfterMs = 1;

struct ServiceOptions {
  /// Worker threads; 0 = every hardware thread (util::resolve_workers).
  unsigned shards = 0;
  /// Request-queue bound; must be positive.
  std::size_t queue_depth = 256;
  /// Max requests drained per worker wake; must be positive.
  std::size_t batch_size = 8;
  /// Full-queue policy.
  Backpressure backpressure = Backpressure::kBlock;
  /// Validate every static schedule (same meaning as SweepOptions).
  bool validate = true;
};

/// One completed request.
struct Response {
  std::uint64_t id = 0;            ///< ticket id, in submission order
  analysis::SweepResult result;    ///< identical to run_sweep's row
  std::uint64_t queue_ns = 0;      ///< enqueue -> admission
  std::uint64_t service_ns = 0;    ///< admission -> completion
  std::uint64_t latency_ns = 0;    ///< enqueue -> completion
  unsigned shard = 0;              ///< worker that served the request
};

/// submit()'s result.  When `accepted`, `response` resolves once a
/// worker completes (or faults) the request; when rejected (kReject
/// backpressure on a full queue, or submit after stop), `response` is
/// invalid and `retry_after_ms` (kRetryAfterMs) hints when to try again.
struct Ticket {
  bool accepted = false;
  int retry_after_ms = 0;
  std::uint64_t id = 0;
  std::future<Response> response;
};

/// Aggregate counters + latency percentiles, readable any time (values
/// are exact at quiescence -- after drain() or stop()).
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t batches = 0;
  std::size_t peak_queue_depth = 0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
};

class SchedulerService {
 public:
  /// Copies `platform` (requests may outlive the caller's copy) and
  /// starts the worker threads immediately.  Throws
  /// std::invalid_argument on a zero queue depth or batch size.
  explicit SchedulerService(const Platform& platform,
                            const ServiceOptions& options = {});
  /// stop()s if the caller has not.
  ~SchedulerService();

  SchedulerService(const SchedulerService&) = delete;
  SchedulerService& operator=(const SchedulerService&) = delete;

  /// Enqueues one job.  Under kBlock this waits for queue space (so a
  /// closed-loop client is throttled to service speed); under kReject a
  /// full queue returns an unaccepted ticket immediately.
  [[nodiscard]] Ticket submit(analysis::SweepPoint point);

  /// Blocks until the queue is empty and no request is in flight.
  void drain();

  /// Stops accepting work, drains what was accepted, joins the workers.
  /// Idempotent.
  void stop();

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] unsigned shards() const noexcept { return shards_; }
  [[nodiscard]] std::size_t queue_depth() const noexcept { return depth_; }
  [[nodiscard]] std::size_t batch_size() const noexcept { return batch_; }
  [[nodiscard]] Backpressure backpressure() const noexcept { return mode_; }

  /// Completed-request latencies in nanoseconds, submission-completion
  /// order unspecified.  Meaningful at quiescence.
  [[nodiscard]] std::vector<std::uint64_t> latencies_ns() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Job {
    std::uint64_t id = 0;
    analysis::SweepPoint point;
    std::promise<Response> promise;
    Clock::time_point enqueued;
  };

  void worker_loop(unsigned worker);

  Platform platform_;
  unsigned shards_;
  std::size_t depth_;
  std::size_t batch_;
  Backpressure mode_;
  analysis::SweepOptions sweep_options_;

  mutable util::Mutex mutex_;
  util::CondVar not_empty_;
  util::CondVar not_full_;
  util::CondVar idle_;
  std::deque<Job> queue_ OP_GUARDED_BY(mutex_);
  std::size_t in_flight_ OP_GUARDED_BY(mutex_) = 0;
  bool stopping_ OP_GUARDED_BY(mutex_) = false;
  std::uint64_t next_id_ OP_GUARDED_BY(mutex_) = 0;
  std::uint64_t completed_ OP_GUARDED_BY(mutex_) = 0;
  std::uint64_t rejected_ OP_GUARDED_BY(mutex_) = 0;
  std::uint64_t batches_ OP_GUARDED_BY(mutex_) = 0;
  std::size_t peak_depth_ OP_GUARDED_BY(mutex_) = 0;
  std::vector<std::uint64_t> latencies_ OP_GUARDED_BY(mutex_);
  /// Emptied by the stop() that joins them.
  std::vector<std::thread> workers_ OP_GUARDED_BY(mutex_);
};

/// Sorted-vector percentile in milliseconds (q in [0, 1], nearest-rank);
/// shared by stats(), service_cli, and the service benches so every
/// reported p50/p99 means the same thing.
[[nodiscard]] double latency_percentile_ms(
    std::vector<std::uint64_t> latencies_ns, double q);

}  // namespace oneport::service
