// Scheduler-as-a-service: a long-running batched request server over the
// thread pool (the ISSUE-9 tentpole; the full design narrative lives in
// docs/SERVICE.md).
//
// Shape, in the nfos data-plane idiom:
//
//   clients --submit()--> [ bounded MPMC queue ] --batched drain--> shard 0
//                              |  (depth D,           (<= K per wake) shard 1
//                         backpressure when full)                     ...
//                                                                     shard N-1
//
//   * the request queue is bounded (`queue_depth`); a full queue engages
//     the selected backpressure policy -- kBlock parks the submitter on
//     a not-full condvar, kReject returns an unaccepted ticket with a
//     retry-after hint and bumps the reject counter;
//   * N shard workers (threads of a util/thread_pool.hpp pool owned by
//     the service) drain up to `batch_size` requests per wake -- one
//     lock acquisition admits a whole batch, so queue-mutex traffic
//     scales with batches, not requests;
//   * each worker OWNS one TopologyCacheShard (analysis/topology_cache):
//     routed platform lookups never contend across workers, which is the
//     sharding that replaced the old process-wide single-mutex cache;
//   * every request runs through analysis::run_sweep_point -- the exact
//     executor run_sweep farms over the pool -- so a service schedule is
//     bit-identical to the same job run through the batch path
//     (tests/service_test.cpp pins this);
//   * per-request latency (enqueue -> completion) lands in the response
//     and in the service's own stats.
//
// Defaults resolve from the ONEPORT_SERVICE_* env knobs (docs/KNOBS.md);
// explicit ServiceOptions fields win over the environment.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <string_view>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/topology_cache.hpp"
#include "platform/platform.hpp"
#include "util/annotations.hpp"
#include "util/thread_pool.hpp"

namespace oneport::service {

/// Full-queue policy.  kDefault resolves ONEPORT_SERVICE_BACKPRESSURE
/// ("block" unless overridden) at service construction.
enum class Backpressure { kDefault, kBlock, kReject };

/// Parses "block"/"reject" (throws std::invalid_argument otherwise).
[[nodiscard]] Backpressure parse_backpressure(std::string_view name);
[[nodiscard]] const char* backpressure_name(Backpressure mode) noexcept;

struct ServiceOptions {
  /// Shard workers; 0 = ONEPORT_SERVICE_SHARDS, then hardware
  /// concurrency (min 1).
  unsigned shards = 0;
  /// Request-queue bound; 0 = ONEPORT_SERVICE_QUEUE_DEPTH, then 256.
  std::size_t queue_depth = 0;
  /// Max requests drained per worker wake; 0 = ONEPORT_SERVICE_BATCH,
  /// then 8.
  std::size_t batch_size = 0;
  /// Full-queue policy; kDefault = ONEPORT_SERVICE_BACKPRESSURE.
  Backpressure backpressure = Backpressure::kDefault;
  /// Validate every static schedule (same meaning as SweepOptions).
  bool validate = true;
  /// Retry-after hint handed back on kReject, in milliseconds.
  int retry_after_ms = 1;
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

/// submit()'s result.  When `accepted`, `response` resolves once a shard
/// worker completes (or faults) the request; when rejected (kReject
/// backpressure on a full queue, or submit after stop), `response` is
/// invalid and `retry_after_ms` hints when to try again.
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
  /// starts the shard workers immediately.
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

  void worker_loop(unsigned shard);

  Platform platform_;
  unsigned shards_;
  std::size_t depth_;
  std::size_t batch_;
  Backpressure mode_;
  analysis::SweepOptions sweep_options_;
  int retry_after_ms_;
  analysis::ShardedTopologyCache cache_;

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

  // Declared last so the worker threads die before any state they touch.
  // The pool is sized max(2, shards): a 1-thread ThreadPool runs jobs
  // inline on the submitting thread, which would turn the first
  // worker-loop submission into a deadlock in the constructor.
  std::unique_ptr<ThreadPool> pool_;
};

/// Sorted-vector percentile in milliseconds (q in [0, 1], nearest-rank);
/// shared by stats(), service_cli, and the service benches so every
/// reported p50/p99 means the same thing.
[[nodiscard]] double latency_percentile_ms(
    std::vector<std::uint64_t> latencies_ns, double q);

}  // namespace oneport::service
