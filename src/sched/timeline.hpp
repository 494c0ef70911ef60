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

#include <memory>
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
/// interval.
///
/// The list is cut into blocks of at most kBlockGaps gaps, each one
/// fixed allocation, with two summaries per block kept in dense arrays:
/// the end of its last gap, so a binary search over blocks and one inside
/// a block locate any time point, and an upper bound on the durations
/// its finite gaps can hold, so a fit search skips whole blocks.  A
/// reservation rewrites one block (a full block is first cut in two, an
/// emptied one is dropped): O(log blocks + kBlockGaps), no rebuild.
///
/// Two shortcuts answer the common probes without a search: the busy
/// horizon (a probe at or beyond it, within kTimeEps, provably returns
/// `ready`), and a remembered (block, gap) position of the last search,
/// checked before use, since successive probes of one timeline cluster.
///
/// Not thread-safe, not even for const queries: the remembered position
/// is updated from next_fit.  Use one timeline (engine) per thread.
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
  [[nodiscard]] bool empty() const noexcept { return blocks_.empty(); }
  void clear() noexcept {
    blocks_.clear();
    last_ends_.clear();
    fit_limits_.clear();
    cursor_ = {};
    horizon_ = 0.0;
  }

  /// Total busy time.
  [[nodiscard]] double busy_time() const noexcept;
  /// Materialized busy intervals, sorted.
  [[nodiscard]] std::vector<Interval> busy_intervals() const;

  /// Cost counter of the block updates, used by the scale benchmarks to
  /// pin the middle-insert complexity.
  struct Stats {
    std::size_t moved_elements = 0;  ///< gaps shifted or copied
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  static constexpr std::size_t kBlockGaps = 128;  ///< gaps per block

  // Free gaps as structure-of-arrays: gap i spans [starts[i], ends[i]).
  // The ends get their own dense array because locating a gap is a
  // binary search over ends alone.
  struct Block {
    std::size_t size = 0;
    double starts[kBlockGaps];
    double ends[kBlockGaps];
  };
  struct Pos {
    std::size_t block = 0;
    std::size_t gap = 0;
  };

  /// Gap search behind next_fit, for probes short of the horizon.
  [[nodiscard]] double search(double ready, double duration) const;

  /// The gap-list update behind reserve.
  void insert(double start, double end);

  /// Position of the first gap whose end is after `t` + kTimeEps (the
  /// gap in or after which a slot starting at or after `t` must begin).
  /// Requires a non-empty gap list.
  [[nodiscard]] Pos locate(double t) const;

  /// Inserts gap [start, end) at `pos`, cutting a full block in two.
  void insert_gap(Pos pos, double start, double end);

  /// Removes the gap at `pos`, dropping its block when it empties.
  void erase_gap(Pos pos);

  /// Recomputes block b's fit limit from its finite gaps.
  void refit(std::size_t b);

  [[nodiscard]] double tail_start() const noexcept {
    const Block& last = *blocks_.back();
    return last.starts[last.size - 1];
  }

  // Empty means "never reserved" == one gap (-inf, +inf); materialized on
  // the first reserve() so default-constructed timelines stay
  // allocation-free.
  std::vector<std::unique_ptr<Block>> blocks_;
  std::vector<double> last_ends_;  ///< per block: end of its last gap
  // Per block: no duration at or above the limit fits any of its gaps
  // with two finite endpoints (the -inf head and +inf tail gaps are left
  // out; see fit_limit in the .cpp).  Exact when a block is cut, folded
  // when a new finite gap splits off the head or the tail, and otherwise
  // stale high only: reservations shrink gaps.
  std::vector<double> fit_limits_;
  mutable Pos cursor_;    ///< position of the last search, checked on use
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

/// Earliest start >= `ready` at which BOTH ports have [start,
/// start+duration) free -- the one-port constraint for a transfer that
/// occupies the sender's send port and the receiver's receive port
/// simultaneously.  Each port is a TimelineIndex or a TimelineOverlay.
template <typename SendPort, typename RecvPort>
[[nodiscard]] double earliest_joint_fit(const SendPort& send,
                                        const RecvPort& recv, double ready,
                                        double duration) {
  if (duration <= kTimeEps) return ready;
  double candidate = ready;
  while (true) {
    const double cs = send.next_fit(candidate, duration);
    const double cr = recv.next_fit(cs, duration);
    if (cr <= cs + kTimeEps) return cs;
    candidate = cr;
  }
}

}  // namespace oneport
