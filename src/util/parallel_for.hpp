// Fork/join over an index range: parallel_for(workers, count, fn) calls
// fn(i) once for every i in [0, count) and returns when all calls have.
//
//   * It starts min(resolve_workers(workers), count) threads, which claim
//     indices from one atomic counter, and joins every one of them before
//     it returns.  fn(i) writes a caller-owned slot, so results land in
//     index order whichever thread finishes first.
//   * With one thread it starts none: the calls run inline on the caller,
//     in index order.
//   * Once a call throws, no thread claims another index, and the call
//     rethrows the exception of the LOWEST index that threw.  Indices are
//     claimed in increasing order and a claimed index always runs, so
//     every index below a throwing one has run: for calls that behave the
//     same on every run, that is the exception an inline run throws,
//     whatever the worker count.
//   * A thread that fails to start stops the claiming; the started
//     threads are joined and the start failure is rethrown.
//   * Each started thread counts once toward prof::Counter::kPoolTasks,
//     and its wall time toward kPoolTaskNanos.  The clock is read only
//     while the profiler is enabled.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <thread>
#include <vector>

#include "util/profiler.hpp"

namespace oneport::util {

/// `workers`, or every hardware thread (at least 1) when it is 0.
[[nodiscard]] inline unsigned resolve_workers(unsigned workers) noexcept {
  return workers > 0 ? workers
                     : std::max(1u, std::thread::hardware_concurrency());
}

/// Calls fn(i) for every i in [0, count) on up to `workers` threads (0 =
/// every hardware thread), as the header comment describes.
template <typename Fn>
void parallel_for(unsigned workers, std::size_t count, Fn&& fn) {
  const std::size_t threads =
      std::min<std::size_t>(resolve_workers(workers), count);
  if (threads <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  struct Failure {
    std::size_t index = std::numeric_limits<std::size_t>::max();
    std::exception_ptr error;
  };
  // One slot per thread, read only after the joins.
  std::vector<Failure> failures(threads);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> stop{false};
  const auto run = [&](Failure& failure) {
    using Clock = std::chrono::steady_clock;
    const bool timed = prof::enabled();
    const Clock::time_point start = timed ? Clock::now() : Clock::time_point{};
    std::size_t i = 0;
    try {
      while (!stop.load(std::memory_order_relaxed) &&
             (i = next.fetch_add(1)) < count) {
        fn(i);
      }
    } catch (...) {
      failure = {i, std::current_exception()};
      stop.store(true, std::memory_order_relaxed);
    }
    if (timed) {
      prof::bump(prof::Counter::kPoolTasks);
      prof::bump(prof::Counter::kPoolTaskNanos,
                 static_cast<std::uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         Clock::now() - start)
                         .count()));
    }
  };

  std::vector<std::thread> started;
  std::exception_ptr start_error;
  try {
    started.reserve(threads);
    for (Failure& failure : failures) {
      started.emplace_back(run, std::ref(failure));
    }
  } catch (...) {
    start_error = std::current_exception();
    stop.store(true, std::memory_order_relaxed);
  }
  for (std::thread& thread : started) thread.join();
  if (start_error) std::rethrow_exception(start_error);

  const Failure& first = *std::min_element(
      failures.begin(), failures.end(),
      [](const Failure& a, const Failure& b) { return a.index < b.index; });
  if (first.error) std::rethrow_exception(first.error);
}

}  // namespace oneport::util
