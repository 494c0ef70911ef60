#include "sched/timeline.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace oneport {

std::size_t TimelineIndex::gap_ending_after(double t) const {
  // The wanted index is the partition point of "gap end <= bound" (gap
  // ends are strictly increasing).  Successive probes of one timeline
  // cluster tightly -- list scheduling's next_fit/reserve pairs land in
  // the same gap, the joint-fit search advances gap by gap, and
  // consecutive tasks arrive near the same frontier -- so gallop
  // *outward from the hinted position* and pay O(log distance-from-hint)
  // cache-local probes (over the dense ends array) instead of restarting
  // from the sentinel end.
  const double bound = t + kTimeEps;
  const double* const ends = gap_ends_.data();
  const std::size_t n = gap_ends_.size();
  const std::size_t h = hint_ < n ? hint_ : n - 1;
  std::size_t lo;       // first index that might end after `bound`
  std::size_t up_incl;  // an index known to end after `bound`
  if (ends[h] > bound) {
    if (h == 0 || ends[h - 1] <= bound) return hint_ = h;
    // Target lies left of the hint.
    std::size_t w = 1;
    while (w <= h && ends[h - w] > bound) w <<= 1;
    lo = w <= h ? h - w + 1 : 0;
    up_incl = h - (w >> 1);
  } else {
    // Target lies right of the hint; the +inf sentinel bounds the
    // gallop, so the last probe always ends after `bound`.
    std::size_t w = 1;
    while (h + w < n - 1 && ends[h + w] <= bound) w <<= 1;
    lo = h + (w >> 1) + 1;
    up_incl = h + w < n - 1 ? h + w : n - 1;
  }
  const double* const it =
      std::partition_point(ends + lo, ends + up_incl + 1,
                           [bound](double e) { return e <= bound; });
  hint_ = static_cast<std::size_t>(it - ends);
  return hint_;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A gap-splitting reservation closer than this to the back of the gap
/// list is always middle-inserted directly; the memmove is short and the
/// append-heavy list-scheduling path never touches the buffer.  Beyond
/// it, deferral kicks in once the tail outgrows ~8*sqrt(gaps) (see
/// insert), keeping the amortized middle-insert cost O(sqrt(n)) while
/// long timelines -- whose interior splits cluster near the frontier --
/// still take the direct path almost always.
constexpr std::size_t kDeferTailMin = 32;
/// Minimum buffered count before a compaction is even considered: tiny
/// timelines gain nothing from deferral bookkeeping.
constexpr std::size_t kMinFlush = 16;

}  // namespace

double TimelineIndex::search(double ready, double duration) const {
  // The cached horizon is clamped at 0, so probes at negative times can
  // still land at or past the last busy end here.  A slot there always
  // starts at `ready` inside the +inf sentinel gap: deferred reservations
  // end strictly before it (they split interior gaps).
  if (gap_starts_.empty()) return ready;
  if (ready >= gap_starts_.back() - kTimeEps) return ready;
  double candidate = ready;
  while (true) {
    // Walk the materialized gaps from the candidate.
    double fit = candidate;
    bool found = candidate >= gap_starts_.back() - kTimeEps;
    if (!found && duration > widest_interior_ + kTimeEps &&
        candidate >= gap_ends_.front() - kTimeEps) {
      // O(1) horizon jump, no gap search: the candidate lies past the
      // -inf head gap, so every gap it could use short of the +inf
      // sentinel has two finite endpoints and width at most
      // widest_interior_ < duration -- including the usable tail of the
      // gap holding the candidate itself.  The walk below would fall
      // through to the sentinel and return exactly the horizon.
      fit = gap_starts_.back();
      found = true;
    }
    if (!found) {
      std::size_t i = gap_ending_after(candidate);
      // `candidate` counts as inside the first gap when it is at most
      // kTimeEps before its start: the reference oracle's scan skips busy
      // intervals ending within kTimeEps after it, so both then return
      // the candidate itself.
      const double start =
          gap_starts_[i] <= candidate + kTimeEps ? candidate : gap_starts_[i];
      if (start + duration <= gap_ends_[i] + kTimeEps) {
        fit = start;
        found = true;
      } else if (duration > widest_interior_ + kTimeEps) {
        // No later gap can hold the slot: every gap beyond the first has
        // two finite endpoints and a width bounded by widest_interior_,
        // and such a gap accepts the slot iff duration <= width +
        // kTimeEps.  The walk would fall through to the +inf sentinel,
        // whose start is past candidate + kTimeEps here, so the fit
        // starts exactly at the horizon.
        fit = gap_starts_.back();
        found = true;
      } else {
        // Later gaps always start after candidate + kTimeEps, so the
        // candidate never truncates them.
        for (++i; i < gap_starts_.size(); ++i) {
          if (gap_starts_[i] + duration <= gap_ends_[i] + kTimeEps) {
            fit = gap_starts_[i];
            found = true;
            break;
          }
        }
      }
    }
    OP_ASSERT(found, "gap list lost its +inf sentinel");
    candidate = fit;
    if (pending_.empty()) return candidate;
    // O(1) disjointness via the buffer envelope: nothing buffered ends
    // after the candidate, or nothing buffered starts before the slot's
    // end, so the ordered absorb pass below would touch nothing.
    if (candidate >= pending_max_end_ - kTimeEps ||
        pending_min_start_ >= candidate + duration - kTimeEps) {
      return candidate;
    }
    // Absorb deferred reservations the sliding candidate overlaps, then
    // re-walk the gaps -- the TimelineOverlay fixpoint pattern.  The
    // buffer is start-sorted and non-overlapping, so the scan starts at
    // the first buffered interval ending past the candidate (nothing
    // before it can overlap) and one ordered pass suffices per round.
    bool moved = false;
    for (auto p = std::partition_point(
             pending_.begin(), pending_.end(),
             [candidate](const Interval& b) {
               return b.end <= candidate + kTimeEps;
             });
         p != pending_.end() && p->start < candidate + duration - kTimeEps;
         ++p) {
      if (overlaps(*p, {candidate, candidate + duration})) {
        candidate = p->end;
        moved = true;
      }
    }
    if (!moved) return candidate;
  }
}

void TimelineIndex::insert(double start, double end) {
  OP_REQUIRE(end >= start - kTimeEps, "interval end before start");
  if (Interval{start, end}.degenerate()) return;
  if (gap_starts_.empty()) {
    gap_starts_.push_back(-kInf);
    gap_ends_.push_back(kInf);
  }
  // Append fast path: a slot at or past the horizon lives in the +inf
  // sentinel gap (its predecessor ends within kTimeEps of the horizon at
  // most), so the search is free.
  const std::size_t i = start >= gap_starts_.back() - kTimeEps
                            ? gap_starts_.size() - 1
                            : gap_ending_after(start);
  const Interval g{gap_starts_[i], gap_ends_[i]};
  // The slot must sit inside one free gap (modulo the usual tolerance for
  // touching); otherwise it overlaps the busy interval bounding the gap.
  OP_ASSERT(start >= g.start - kTimeEps,
            "reservation [" << start << "," << end << ") overlaps ["
                            << (i == 0 ? -kInf : gap_ends_[i - 1]) << ","
                            << g.start << ")");
  OP_ASSERT(end <= g.end + kTimeEps,
            "reservation [" << start << "," << end << ") overlaps ["
                            << g.end << ","
                            << (i + 1 < gap_starts_.size()
                                    ? gap_starts_[i + 1]
                                    : kInf)
                            << ")");
  // ...and must clear the deferred buffer too.  Only the first buffered
  // interval ending after `start` can overlap: the buffer is start-sorted
  // and non-overlapping, so if that one clears the slot, every later one
  // starts at or after the slot's end.
  if (!pending_.empty()) {
    const Interval iv{start, end};
    const auto p = std::partition_point(
        pending_.begin(), pending_.end(),
        [start](const Interval& b) { return b.end <= start + kTimeEps; });
    if (p != pending_.end()) {
      OP_ASSERT(!overlaps(*p, iv),
                "reservation [" << start << "," << end
                                << ") overlaps deferred [" << p->start << ","
                                << p->end << ")");
    }
  }
  // Remnants within kTimeEps of the gap boundary merge into the adjacent
  // busy interval, mirroring the reference's touching-neighbor merge.
  const bool keep_left = start > g.start + kTimeEps;
  const bool keep_right = g.end > end + kTimeEps;
  if (keep_left && keep_right) {
    const std::size_t tail = gap_starts_.size() - i;
    if (tail > kDeferTailMin && tail * tail > 64 * gap_starts_.size()) {
      // Deferred middle-insert: buffer the busy interval instead of
      // shifting `tail` gaps, merging with touching buffered neighbors
      // exactly like the reference merges touching busy intervals.
      const Interval iv{start, end};
      auto pos = std::partition_point(
          pending_.begin(), pending_.end(),
          [&iv](const Interval& b) { return b.start < iv.start; });
      pos = pending_.insert(pos, iv);
      stats_.moved_elements +=
          static_cast<std::size_t>(pending_.end() - pos) - 1;
      if (pos != pending_.begin()) {
        auto prev = pos - 1;
        if (pos->start <= prev->end + kTimeEps) {
          prev->end = std::max(prev->end, pos->end);
          pos = pending_.erase(pos) - 1;
        }
      }
      if (pos + 1 != pending_.end()) {
        auto next = pos + 1;
        if (next->start <= pos->end + kTimeEps) {
          pos->end = std::max(pos->end, next->end);
          pending_.erase(next);
        }
      }
      pending_min_start_ = pending_.front().start;
      pending_max_end_ = std::max(pending_max_end_, end);
      ++stats_.deferred_inserts;
      prof::bump(prof::Counter::kGapDeferredInserts);
      if (pending_.size() >= kMinFlush &&
          pending_.size() * pending_.size() >= gap_starts_.size()) {
        flush_pending();
      }
      return;
    }
    gap_ends_[i] = start;
    gap_starts_.insert(gap_starts_.begin() + static_cast<std::ptrdiff_t>(i + 1),
                       end);
    gap_ends_.insert(gap_ends_.begin() + static_cast<std::ptrdiff_t>(i + 1),
                     g.end);
    stats_.moved_elements += tail;
    hint_ = i + 1;
    // Splitting a gap with an infinite endpoint (the -inf head or the
    // +inf sentinel) mints a brand-new finite gap whose width is not
    // covered by the parent's; fold it into the interior-width bound.
    // Finite parents only shrink, so the max() is a no-op for them.
    if (std::isfinite(g.start)) {
      widest_interior_ = std::max(widest_interior_, start - g.start);
    }
    if (std::isfinite(g.end)) {
      widest_interior_ = std::max(widest_interior_, g.end - end);
    }
  } else if (keep_left) {
    gap_ends_[i] = start;
    hint_ = i + 1;  // the slot ran up to the next busy interval
  } else if (keep_right) {
    gap_starts_[i] = end;
    hint_ = i;
  } else {
    // The reservation bridges the two neighboring busy intervals; the
    // last gap ends at +inf and is therefore never erased.
    gap_starts_.erase(gap_starts_.begin() + static_cast<std::ptrdiff_t>(i));
    gap_ends_.erase(gap_ends_.begin() + static_cast<std::ptrdiff_t>(i));
    stats_.moved_elements += gap_starts_.size() - i;
    hint_ = i;
  }
}

bool TimelineIndex::is_free(double start, double end) const {
  if (Interval{start, end}.degenerate()) return true;
  if (gap_starts_.empty()) return true;
  const std::size_t i = gap_ending_after(start);
  if (start < gap_starts_[i] - kTimeEps || end > gap_ends_[i] + kTimeEps) {
    return false;
  }
  if (pending_.empty()) return true;
  const Interval iv{start, end};
  for (auto p = std::partition_point(
           pending_.begin(), pending_.end(),
           [start](const Interval& b) { return b.end <= start + kTimeEps; });
       p != pending_.end() && p->start < end - kTimeEps; ++p) {
    if (overlaps(*p, iv)) return false;
  }
  return true;
}

double TimelineIndex::busy_time() const noexcept {
  double total = 0.0;
  for (std::size_t i = 0; i + 1 < gap_starts_.size(); ++i) {
    total += gap_starts_[i + 1] - gap_ends_[i];
  }
  // Buffered intervals are disjoint from the materialized busy set, so
  // their durations add independently.
  for (const Interval& p : pending_) total += p.duration();
  return total;
}

std::vector<Interval> TimelineIndex::busy_intervals() const {
  std::vector<Interval> busy;
  if (gap_starts_.size() < 2 && pending_.empty()) return busy;
  busy.reserve((gap_starts_.empty() ? 0 : gap_starts_.size() - 1) +
               pending_.size());
  const auto push = [&busy](const Interval& iv) {
    if (!busy.empty() && iv.start <= busy.back().end + kTimeEps) {
      busy.back().end = std::max(busy.back().end, iv.end);
    } else {
      busy.push_back(iv);
    }
  };
  // Linear merge of the two start-sorted busy streams (gap complements
  // and the deferred buffer), merging touching intervals exactly like the
  // reference's reserve does.
  std::size_t k = 0;  // busy interval between gap k and gap k + 1
  std::size_t p = 0;
  while (k + 1 < gap_starts_.size() || p < pending_.size()) {
    const bool take_gap =
        k + 1 < gap_starts_.size() &&
        (p >= pending_.size() || gap_ends_[k] <= pending_[p].start);
    if (take_gap) {
      push({gap_ends_[k], gap_starts_[k + 1]});
      ++k;
    } else {
      push(pending_[p]);
      ++p;
    }
  }
  return busy;
}

void TimelineIndex::flush_pending() {
  if (pending_.empty()) return;
  ++stats_.flushes;
  prof::bump(prof::Counter::kGapFlushes);
  stats_.moved_elements += gap_starts_.size() + pending_.size();
  const std::vector<Interval> busy = busy_intervals();
  pending_min_start_ = 0.0;
  pending_max_end_ = 0.0;
  gap_starts_.clear();
  gap_ends_.clear();
  gap_starts_.reserve(busy.size() + 1);
  gap_ends_.reserve(busy.size() + 1);
  // The rebuild visits every gap anyway, so retighten the interior-width
  // bound exactly (reservations since the last flush can only have left
  // it stale high).
  widest_interior_ = 0.0;
  double free_from = -kInf;
  for (const Interval& iv : busy) {
    gap_starts_.push_back(free_from);
    gap_ends_.push_back(iv.start);
    if (std::isfinite(free_from)) {
      widest_interior_ = std::max(widest_interior_, iv.start - free_from);
    }
    free_from = iv.end;
  }
  gap_starts_.push_back(free_from);
  gap_ends_.push_back(kInf);
  pending_.clear();
  hint_ = 0;
}

// ---------------------------------------------------------- overlays

double TimelineOverlay::next_fit(double ready, double duration) const {
  OP_ASSERT(base_ != nullptr, "overlay used before reset()");
  if (duration <= kTimeEps) return ready;
  // O(1) fast path: nothing -- base reservation or extra -- ends after
  // ready + kTimeEps, so no interval can block a slot at `ready`.  This
  // is exactly the answer the scan below would produce.
  if (ready >= base_horizon_ - kTimeEps && ready >= extras_horizon_ - kTimeEps) {
    return ready;
  }
  // Most evaluations add zero or one extras per port; skip the merge
  // machinery entirely while the overlay is still transparent.
  if (extras_.empty()) return base_->next_fit(ready, duration);
  double candidate = ready;
  while (true) {
    candidate = base_->next_fit(candidate, duration);
    // One ordered pass over the start-sorted extras, absorbing every
    // extra the sliding candidate still overlaps.  The pass starts from
    // the front on purpose: add() accepts arbitrary (even overlapping)
    // intervals, so ends are not sorted and passed extras cannot be
    // skipped by binary search.  Extras are bounded by the task's
    // in-degree, so the pass is short.
    bool moved = false;
    for (const Interval& extra : extras_) {
      if (extra.start >= candidate + duration - kTimeEps) break;
      if (overlaps(extra, {candidate, candidate + duration})) {
        candidate = extra.end;
        moved = true;
      }
    }
    if (!moved) return candidate;
  }
}

void TimelineOverlay::add(double start, double end) {
  const Interval iv{start, end};
  if (iv.degenerate()) return;
  if (end > extras_horizon_) extras_horizon_ = end;
  const auto pos = std::partition_point(
      extras_.begin(), extras_.end(),
      [&iv](const Interval& e) { return e.start < iv.start; });
  extras_.insert(pos, iv);
}

double earliest_joint_fit(const TimelineOverlay& a, const TimelineOverlay& b,
                          double ready, double duration) {
  if (duration <= kTimeEps) return ready;
  double candidate = ready;
  while (true) {
    const double ca = a.next_fit(candidate, duration);
    const double cb = b.next_fit(ca, duration);
    if (cb <= ca + kTimeEps) return ca;
    candidate = cb;
  }
}

}  // namespace oneport
