#include "service/scheduler_service.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/env_knobs.hpp"

namespace oneport::service {

namespace {

unsigned resolve_shards(unsigned requested) {
  if (requested > 0) return requested;
  const long knob = env::integer(env::Knob::kServiceShards, 0);
  if (knob > 0) return static_cast<unsigned>(knob);
  return ThreadPool::default_workers();
}

std::size_t resolve_size(std::size_t requested, env::Knob knob,
                         long fallback) {
  if (requested > 0) return requested;
  const long value = env::integer(knob, fallback);
  return value > 0 ? static_cast<std::size_t>(value)
                   : static_cast<std::size_t>(fallback);
}

Backpressure resolve_backpressure(Backpressure requested) {
  if (requested != Backpressure::kDefault) return requested;
  return parse_backpressure(
      env::text(env::Knob::kServiceBackpressure, "block"));
}

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
    case Backpressure::kDefault: break;
  }
  return "default";
}

SchedulerService::SchedulerService(const Platform& platform,
                                   const ServiceOptions& options)
    : platform_(platform),
      shards_(resolve_shards(options.shards)),
      depth_(resolve_size(options.queue_depth,
                          env::Knob::kServiceQueueDepth, 256)),
      batch_(resolve_size(options.batch_size, env::Knob::kServiceBatch, 8)),
      mode_(resolve_backpressure(options.backpressure)),
      sweep_options_{.workers = 1, .validate = options.validate},
      retry_after_ms_(options.retry_after_ms),
      cache_(shards_) {
  pool_ = std::make_unique<ThreadPool>(std::max(2u, shards_));
  for (unsigned shard = 0; shard < shards_; ++shard) {
    pool_->submit([this, shard] { worker_loop(shard); });
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
        ticket.retry_after_ms = retry_after_ms_;
        return ticket;
      }
    } else {
      while (queue_.size() >= depth_ && !stopping_) not_full_.wait(lock);
      if (stopping_) {
        ++rejected_;
        ticket.retry_after_ms = retry_after_ms_;
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

void SchedulerService::worker_loop(unsigned shard) {
  analysis::TopologyCacheShard& cache = cache_.shard(shard);
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
      response.shard = shard;
      response.queue_ns = elapsed_ns(job.enqueued, admitted);
      try {
        response.result =
            analysis::run_sweep_point(job.point, platform_, sweep_options_,
                                      &cache);
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
  {
    util::MutexLock lock(mutex_);
    if (stopping_ && pool_ == nullptr) return;
    stopping_ = true;
  }
  // Wake the workers (to drain and exit) and any parked submitters (to
  // return rejected tickets).
  not_empty_.notify_all();
  not_full_.notify_all();
  if (pool_ != nullptr) {
    pool_->wait_idle();  // worker loops return once the queue is drained
    pool_.reset();
  }
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
