// Reference busy-interval timeline: the test oracle for TimelineIndex.
//
// A sorted vector of busy intervals, scanned linearly from a
// binary-searched lower bound.  Slow on long timelines but simple enough
// to audit line by line, and it implements the same next_fit / reserve /
// is_free contract as the production TimelineIndex (sched/timeline.hpp),
// down to the kTimeEps tolerance rules.  The timeline suites drive both
// through identical operation sequences and demand bit-identical answers.
#pragma once

#include <vector>

#include "sched/interval.hpp"

namespace oneport::testsupport {

class ReferenceTimeline {
 public:
  /// Earliest start >= `ready` such that [start, start+duration) is free.
  /// duration == 0 always fits at `ready`.
  [[nodiscard]] double next_fit(double ready, double duration) const;

  /// Marks [start, end) busy.  Throws std::logic_error when the slot
  /// conflicts with an existing reservation.  Degenerate intervals are
  /// ignored.
  void reserve(double start, double end);

  [[nodiscard]] bool is_free(double start, double end) const;

  /// End of the last busy interval (0 when empty).
  [[nodiscard]] double horizon() const noexcept {
    return busy_.empty() ? 0.0 : busy_.back().end;
  }
  [[nodiscard]] std::vector<Interval> busy_intervals() const { return busy_; }
  [[nodiscard]] bool empty() const noexcept { return busy_.empty(); }
  void clear() noexcept { busy_.clear(); }

  /// Total busy time.
  [[nodiscard]] double busy_time() const noexcept;

 private:
  // Sorted by start; pairwise non-overlapping (touching allowed; adjacent
  // reservations are merged to keep the vector short).
  std::vector<Interval> busy_;
};

}  // namespace oneport::testsupport
