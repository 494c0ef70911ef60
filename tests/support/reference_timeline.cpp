#include "support/reference_timeline.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace oneport::testsupport {

namespace {

/// First busy interval whose end is after `t` (candidates that could block
/// a slot starting at or after `t`).
std::vector<Interval>::const_iterator first_blocking(
    const std::vector<Interval>& busy, double t) {
  return std::partition_point(
      busy.begin(), busy.end(),
      [t](const Interval& iv) { return iv.end <= t + kTimeEps; });
}

}  // namespace

double ReferenceTimeline::next_fit(double ready, double duration) const {
  OP_REQUIRE(duration >= 0.0, "duration must be non-negative");
  if (duration <= kTimeEps) return ready;
  double candidate = ready;
  for (auto it = first_blocking(busy_, candidate); it != busy_.end(); ++it) {
    if (candidate + duration <= it->start + kTimeEps) break;
    candidate = std::max(candidate, it->end);
  }
  return candidate;
}

void ReferenceTimeline::reserve(double start, double end) {
  OP_REQUIRE(end >= start - kTimeEps, "interval end before start");
  const Interval iv{start, end};
  if (iv.degenerate()) return;
  const auto pos = std::partition_point(
      busy_.begin(), busy_.end(),
      [&iv](const Interval& b) { return b.start < iv.start; });
  // Conflict check against the neighbors.
  if (pos != busy_.begin()) {
    OP_ASSERT(!overlaps(*(pos - 1), iv),
              "reservation [" << start << "," << end << ") overlaps ["
                              << (pos - 1)->start << "," << (pos - 1)->end
                              << ")");
  }
  if (pos != busy_.end()) {
    OP_ASSERT(!overlaps(*pos, iv),
              "reservation [" << start << "," << end << ") overlaps ["
                              << pos->start << "," << pos->end << ")");
  }
  // Merge with touching neighbors to keep the vector compact; list
  // scheduling produces long runs of back-to-back reservations.
  auto inserted = busy_.insert(pos, iv);
  if (inserted != busy_.begin()) {
    auto prev = inserted - 1;
    if (inserted->start <= prev->end + kTimeEps) {
      prev->end = std::max(prev->end, inserted->end);
      inserted = busy_.erase(inserted) - 1;
    }
  }
  if (inserted + 1 != busy_.end()) {
    auto next = inserted + 1;
    if (next->start <= inserted->end + kTimeEps) {
      inserted->end = std::max(inserted->end, next->end);
      busy_.erase(next);
    }
  }
}

bool ReferenceTimeline::is_free(double start, double end) const {
  const Interval iv{start, end};
  if (iv.degenerate()) return true;
  for (auto it = first_blocking(busy_, start); it != busy_.end(); ++it) {
    if (it->start >= end - kTimeEps) break;
    if (overlaps(*it, iv)) return false;
  }
  return true;
}

double ReferenceTimeline::busy_time() const noexcept {
  double total = 0.0;
  for (const Interval& iv : busy_) total += iv.duration();
  return total;
}

}  // namespace oneport::testsupport
