#include "service/scheduler_service.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "util/error.hpp"
#include "util/parallel_for.hpp"

namespace oneport::service {

namespace {

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point from,
                         std::chrono::steady_clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
          .count());
}

}  // namespace

Backpressure parse_backpressure(std::string_view name) {
  if (name == "block") return Backpressure::kBlock;
  if (name == "reject") return Backpressure::kReject;
  throw std::invalid_argument("unknown backpressure mode '" +
                              std::string(name) +
                              "' (expected block or reject)");
}

const char* backpressure_name(Backpressure mode) noexcept {
  switch (mode) {
    case Backpressure::kBlock: return "block";
    case Backpressure::kReject: return "reject";
  }
  return "?";
}

SchedulerService::SchedulerService(const Platform& platform,
                                   const ServiceOptions& options)
    : platform_(platform),
      shards_(util::resolve_workers(options.shards)),
      depth_(options.queue_depth),
      batch_(options.batch_size),
      mode_(options.backpressure),
      sweep_options_{.validate = options.validate} {
  require(depth_ > 0, "service queue depth must be positive");
  require(batch_ > 0, "service batch size must be positive");
  try {
    util::MutexLock lock(mutex_);
    workers_.reserve(shards_);
    for (unsigned worker = 0; worker < shards_; ++worker) {
      workers_.emplace_back([this, worker] { worker_loop(worker); });
    }
  } catch (...) {
    stop();  // a failed thread start must not leave the others joinable
    throw;
  }
}

SchedulerService::~SchedulerService() { stop(); }

Ticket SchedulerService::submit(analysis::SweepPoint point) {
  Ticket ticket;
  Job job;
  job.point = std::move(point);
  job.enqueued = Clock::now();
  std::future<Response> response = job.promise.get_future();
  {
    util::MutexLock lock(mutex_);
    if (mode_ == Backpressure::kReject) {
      if (queue_.size() >= depth_ || stopping_) {
        ++rejected_;
        ticket.retry_after_ms = kRetryAfterMs;
        return ticket;
      }
    } else {
      while (queue_.size() >= depth_ && !stopping_) not_full_.wait(lock);
      if (stopping_) {
        ++rejected_;
        ticket.retry_after_ms = kRetryAfterMs;
        return ticket;
      }
    }
    job.id = next_id_++;
    ticket.id = job.id;
    queue_.push_back(std::move(job));
    peak_depth_ = std::max(peak_depth_, queue_.size());
  }
  not_empty_.notify_one();
  ticket.accepted = true;
  ticket.response = std::move(response);
  return ticket;
}

void SchedulerService::worker_loop(unsigned worker) {
  std::vector<Job> batch;
  while (true) {
    batch.clear();
    {
      util::MutexLock lock(mutex_);
      while (queue_.empty() && !stopping_) not_empty_.wait(lock);
      if (queue_.empty()) return;  // stopping_ set and nothing left
      const std::size_t take = std::min(batch_, queue_.size());
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      in_flight_ += take;
      ++batches_;
    }
    // A whole batch freed up to `batch_` queue slots: wake every parked
    // submitter, not just one.
    not_full_.notify_all();

    std::vector<std::uint64_t> batch_latencies;
    batch_latencies.reserve(batch.size());
    for (Job& job : batch) {
      const Clock::time_point admitted = Clock::now();
      Response response;
      response.id = job.id;
      response.shard = worker;
      response.queue_ns = elapsed_ns(job.enqueued, admitted);
      try {
        response.result =
            analysis::run_sweep_point(job.point, platform_, sweep_options_);
        const Clock::time_point done = Clock::now();
        response.service_ns = elapsed_ns(admitted, done);
        response.latency_ns = elapsed_ns(job.enqueued, done);
        batch_latencies.push_back(response.latency_ns);
        job.promise.set_value(std::move(response));
      } catch (...) {
        // A faulting request (unknown testbed, failed validation, ...)
        // resolves its own future with the exception and must never
        // take the worker -- or the other requests in the batch -- down.
        job.promise.set_exception(std::current_exception());
      }
    }

    {
      util::MutexLock lock(mutex_);
      in_flight_ -= batch.size();
      completed_ += batch.size();
      latencies_.insert(latencies_.end(), batch_latencies.begin(),
                        batch_latencies.end());
      if (queue_.empty() && in_flight_ == 0) idle_.notify_all();
    }
  }
}

void SchedulerService::drain() {
  util::MutexLock lock(mutex_);
  while (!queue_.empty() || in_flight_ != 0) idle_.wait(lock);
}

void SchedulerService::stop() {
  std::vector<std::thread> workers;
  {
    util::MutexLock lock(mutex_);
    stopping_ = true;
    workers.swap(workers_);
  }
  // Wake the workers (to drain and exit) and any parked submitters (to
  // return rejected tickets).
  not_empty_.notify_all();
  not_full_.notify_all();
  for (std::thread& worker : workers) worker.join();
}

ServiceStats SchedulerService::stats() const {
  ServiceStats out;
  std::vector<std::uint64_t> latencies;
  {
    util::MutexLock lock(mutex_);
    out.submitted = next_id_;
    out.completed = completed_;
    out.rejected = rejected_;
    out.batches = batches_;
    out.peak_queue_depth = peak_depth_;
    latencies = latencies_;
  }
  out.latency_p50_ms = latency_percentile_ms(latencies, 0.50);
  out.latency_p99_ms = latency_percentile_ms(std::move(latencies), 0.99);
  return out;
}

std::vector<std::uint64_t> SchedulerService::latencies_ns() const {
  util::MutexLock lock(mutex_);
  return latencies_;
}

double latency_percentile_ms(std::vector<std::uint64_t> latencies_ns,
                             double q) {
  if (latencies_ns.empty()) return 0.0;
  std::sort(latencies_ns.begin(), latencies_ns.end());
  const double clamped = std::clamp(q, 0.0, 1.0);
  // Nearest-rank: ceil(q * n) in 1-based rank terms.
  const auto rank = static_cast<std::size_t>(std::ceil(
      clamped * static_cast<double>(latencies_ns.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  return static_cast<double>(latencies_ns[index]) / 1e6;
}

}  // namespace oneport::service
