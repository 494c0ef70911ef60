// Busy-interval timeline of a single exclusive resource (a processor's
// compute unit, send port, or receive port).
//
// The operations supported are the two queries list scheduling needs:
//   * next_fit(ready, duration): earliest start >= ready of a free slot,
//     i.e. insertion-based gap search;
//   * reserve(start, end): mark a slot busy.
// plus a joint search over two timelines (sender port + receiver port) for
// scheduling one-port communications, and an overlay mechanism so that
// heuristics can *tentatively* reserve slots while evaluating a candidate
// processor without mutating the committed state.
//
// tests/support/reference_timeline.hpp keeps a plain sorted busy-interval
// vector with the same contract as the test oracle; the timeline suites
// fuzz TimelineIndex against it and demand bit-identical answers.
#pragma once

#include <span>
#include <vector>

#include "sched/interval.hpp"
#include "util/error.hpp"
#include "util/profiler.hpp"

namespace oneport {

/// The state is the complement of the busy set: the sorted list of free
/// gaps.  The first gap starts at -infinity and the last gap ends at
/// +infinity; consecutive gaps are separated by exactly one busy
/// interval, so `gap i end .. gap i+1 start` *is* the i-th busy
/// interval.  next_fit/reserve locate the gap covering a time point by
/// first probing a cursor remembering where the previous reservation
/// landed (list scheduling reserves back-to-back slots, so the probe
/// almost always hits) and only then falling back to a galloping search.
///
/// Reservations that split a gap far from the back of the list are
/// *deferred*: instead of an O(n) vector middle-insert per reservation
/// (which turns the rescheduling workload's repeated prefix-freeze seeding
/// quadratic), they accumulate in a small sorted side buffer that every
/// query consults, and are folded into the gap list by a linear-merge
/// compaction once the buffer reaches ~sqrt(gaps).  That bounds the
/// amortized middle-insert cost at O(sqrt(n)) while leaving the hot
/// back-to-back append path untouched (the buffer stays empty).
///
/// The index also caches the busy horizon: a probe at or beyond it
/// (within kTimeEps) provably returns `ready` (no stored interval ends
/// after ready + kTimeEps), so list scheduling's dominant append pattern
/// is answered inline without a gap search.
///
/// Not thread-safe, not even for const queries: the cursor is updated
/// from next_fit.  Use one timeline (engine) per thread.
class TimelineIndex {
 public:
  /// Earliest start >= `ready` such that [start, start+duration) is free.
  /// duration == 0 always fits at `ready`.
  [[nodiscard]] double next_fit(double ready, double duration) const {
    prof::bump(prof::Counter::kTimelineNextFit);
    OP_REQUIRE(duration >= 0.0, "duration must be non-negative");
    if (duration <= kTimeEps) return ready;
    if (ready >= horizon_ - kTimeEps) {
      prof::bump(prof::Counter::kTimelineHorizonHits);
      return ready;
    }
    return search(ready, duration);
  }

  /// Marks [start, end) busy.  Throws std::logic_error when the slot
  /// conflicts with an existing reservation (library bug).  Degenerate
  /// intervals are ignored.
  void reserve(double start, double end) {
    prof::bump(prof::Counter::kTimelineReserves);
    insert(start, end);
    // Degenerate reservations are ignored and must not advance the
    // cached horizon.
    if (end > horizon_ && !Interval{start, end}.degenerate()) horizon_ = end;
  }

  [[nodiscard]] bool is_free(double start, double end) const;

  /// End of the last non-degenerate reservation (0 when empty).
  [[nodiscard]] double horizon() const noexcept { return horizon_; }
  [[nodiscard]] bool empty() const noexcept {
    return gap_starts_.size() < 2 && pending_.empty();
  }
  void clear() noexcept {
    gap_starts_.clear();
    gap_ends_.clear();
    pending_.clear();
    pending_min_start_ = 0.0;
    pending_max_end_ = 0.0;
    hint_ = 0;
    widest_interior_ = 0.0;
    horizon_ = 0.0;
  }

  /// Total busy time.
  [[nodiscard]] double busy_time() const noexcept;
  /// Materialized busy intervals, sorted, touching intervals merged.
  [[nodiscard]] std::vector<Interval> busy_intervals() const;

  /// Cost counters for the deferred-compaction machinery, used by the
  /// scale benchmarks to pin the middle-insert complexity.
  struct Stats {
    std::size_t deferred_inserts = 0;  ///< reservations buffered instead
    std::size_t flushes = 0;           ///< linear-merge compactions run
    std::size_t moved_elements = 0;    ///< vector elements shifted/merged
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  /// Gap search behind next_fit, for probes short of the horizon.
  [[nodiscard]] double search(double ready, double duration) const;

  /// The gap-list update behind reserve.
  void insert(double start, double end);

  /// Index of the first gap whose end is after `t` (the gap in or after
  /// which a slot starting at or after `t` must begin).  Requires a
  /// non-empty gap list.
  [[nodiscard]] std::size_t gap_ending_after(double t) const;

  /// Folds pending_ into the gap list with one linear merge.
  void flush_pending();

  // Free gaps as structure-of-arrays: gap i spans
  // [gap_starts_[i], gap_ends_[i]).  The ends get their own dense array
  // because locating a gap is a binary search over ends alone -- an
  // 8-byte stride touches half the cache lines a packed Interval pair
  // would.  Empty means "never reserved" == one gap (-inf, +inf);
  // materialized on the first reserve() so default-constructed timelines
  // stay allocation-free.
  std::vector<double> gap_starts_;
  std::vector<double> gap_ends_;
  // Deferred busy intervals: sorted by start, pairwise non-overlapping,
  // each strictly inside one materialized gap at the time it was buffered.
  std::vector<Interval> pending_;
  // Envelope of the buffer (meaningful only while pending_ is non-empty):
  // a probe at or past every buffered end, or ending at or before every
  // buffered start, provably absorbs nothing, so the per-probe
  // partition_point over the buffer is skipped entirely.
  double pending_min_start_ = 0.0;
  double pending_max_end_ = 0.0;
  mutable std::size_t hint_ = 0;  ///< gap index probed before searching
  // Upper bound on the width of every materialized gap with two finite
  // endpoints (interior gaps; the -inf head and +inf sentinel are
  // excluded).  Reservations only shrink or split gaps, so the bound can
  // go stale high but never low; it is retightened exactly on every
  // flush_pending().  search() uses it to answer "no interior gap can
  // hold this duration" in O(1) and jump straight to the horizon, which
  // is the dominant outcome for interior probes on long timelines whose
  // surviving gaps are small.
  double widest_interior_ = 0.0;
  double horizon_ = 0.0;  ///< end of the last non-degenerate reservation
  Stats stats_;
};

// ---------------------------------------------------------- overlays

/// A read-only view of a TimelineIndex plus a small set of *pending*
/// extra reservations, used while evaluating candidate processors.  The
/// extras are typically the communications tentatively scheduled for
/// earlier parents of the same task.  Overlays are designed for reuse:
/// the EFT engine keeps one per processor and reset()s it instead of
/// reallocating (the extras vector keeps its capacity).
class TimelineOverlay {
 public:
  TimelineOverlay() = default;
  explicit TimelineOverlay(const TimelineIndex& base)
      : base_(&base), base_horizon_(base.horizon()) {}

  /// Re-points the overlay at `base` and drops the extras, keeping the
  /// allocated capacity.  The base horizon is cached here: during one
  /// evaluation the base is never mutated, so a probe at or beyond both
  /// the base horizon and every extra's end is answered inline.
  void reset(const TimelineIndex& base) {
    base_ = &base;
    base_horizon_ = base.horizon();
    extras_horizon_ = 0.0;
    extras_.clear();
  }

  [[nodiscard]] double next_fit(double ready, double duration) const;
  void add(double start, double end);
  [[nodiscard]] std::span<const Interval> extras() const noexcept {
    return extras_;
  }

 private:
  const TimelineIndex* base_ = nullptr;
  double base_horizon_ = 0.0;    ///< base->horizon() at reset time
  double extras_horizon_ = 0.0;  ///< max end over the extras
  std::vector<Interval> extras_;  // kept sorted by start
};

/// Earliest start >= `ready` at which BOTH overlays have [start,
/// start+duration) free -- the one-port constraint for a transfer that
/// occupies the sender's send port and the receiver's receive port
/// simultaneously.
[[nodiscard]] double earliest_joint_fit(const TimelineOverlay& a,
                                        const TimelineOverlay& b,
                                        double ready, double duration);

}  // namespace oneport
