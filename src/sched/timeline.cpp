#include "sched/timeline.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace oneport {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A duration at or above which the gap walk's per-gap test
/// `s + d <= e + kTimeEps` fails for the finite gap [s, e), in floating
/// point.  Write x+ for next_up(x), the next double above x.  With
/// E = fl(e + kTimeEps), fl(s + d) <= E forces s + d < E+: rounding is
/// monotone and E+ rounds to itself.  And E+ - s < R+ for R = fl(E+ - s),
/// because round-to-nearest lands within half an ulp of the exact
/// difference.  So every accepted d is below R+, the returned limit.
/// (The plain width test `d > e - s + kTimeEps` is not this predicate:
/// with times near 1e9, where kTimeEps is below half an ulp, it rejects
/// durations the gap walk accepts.)
double fit_limit(double s, double e) {
  return next_up(next_up(e + kTimeEps) - s);
}

}  // namespace

TimelineIndex::Pos TimelineIndex::locate(double t) const {
  // The wanted gap is the partition point of "gap end <= bound" (gap
  // ends are strictly increasing).  Successive probes cluster -- list
  // scheduling's next_fit/reserve pairs land in the same gap -- so the
  // last search's block, then its gap, is tried before searching; the
  // partition test checks each.
  const double bound = t + kTimeEps;
  const auto ends_by = [bound](double e) { return e <= bound; };
  const auto [cb, cg] = cursor_;
  std::size_t b = cb;
  if (cb < blocks_.size() && last_ends_[cb] > bound &&
      (cb == 0 || last_ends_[cb - 1] <= bound)) {
    const Block& k = *blocks_[cb];
    if (cg < k.size && k.ends[cg] > bound &&
        (cg == 0 || k.ends[cg - 1] <= bound)) {
      return cursor_;
    }
  } else {
    // The last block ends at +inf, so the search lands inside.
    b = static_cast<std::size_t>(
        std::partition_point(last_ends_.begin(), last_ends_.end(), ends_by) -
        last_ends_.begin());
  }
  const Block& k = *blocks_[b];
  return {b, static_cast<std::size_t>(
                 std::partition_point(k.ends, k.ends + k.size, ends_by) -
                 k.ends)};
}

double TimelineIndex::search(double ready, double duration) const {
  // The cached horizon is clamped at 0, so probes at negative times can
  // still land at or past the last busy end here.  A slot there always
  // starts at `ready` inside the +inf tail gap.
  if (blocks_.empty() || ready >= tail_start() - kTimeEps) return ready;
  const Pos at = locate(ready);
  cursor_ = at;
  const Block* k = blocks_[at.block].get();
  // `ready` counts as inside the located gap when it is at most kTimeEps
  // before its start: the reference oracle's scan skips busy intervals
  // ending within kTimeEps after it, so both then return `ready` itself.
  const double first =
      k->starts[at.gap] <= ready + kTimeEps ? ready : k->starts[at.gap];
  if (first + duration <= k->ends[at.gap] + kTimeEps) return first;
  // Walk the later gaps, which start after ready + kTimeEps, so `ready`
  // never truncates them.  A block whose fit limit rules the duration out
  // is skipped whole; the +inf tail gap, last in the last block, takes
  // any slot.
  std::size_t b = at.block;
  std::size_t g = at.gap + 1;
  while (true) {
    if (duration < fit_limits_[b]) {
      for (; g < k->size; ++g) {
        if (k->starts[g] + duration <= k->ends[g] + kTimeEps) {
          return k->starts[g];
        }
      }
    } else if (b + 1 == blocks_.size()) {
      return k->starts[k->size - 1];
    }
    k = blocks_[++b].get();
    g = 0;
  }
}

void TimelineIndex::insert(double start, double end) {
  OP_REQUIRE(end >= start - kTimeEps, "interval end before start");
  if (Interval{start, end}.degenerate()) return;
  if (blocks_.empty()) {
    blocks_.push_back(std::make_unique_for_overwrite<Block>());
    blocks_[0]->size = 1;
    blocks_[0]->starts[0] = -kInf;
    blocks_[0]->ends[0] = kInf;
    last_ends_.push_back(kInf);
    fit_limits_.push_back(0.0);
  }
  // Append fast path: a slot at or past the tail start lives in the +inf
  // tail gap, so the search is free.
  const Pos at = start >= tail_start() - kTimeEps
                     ? Pos{blocks_.size() - 1, blocks_.back()->size - 1}
                     : locate(start);
  Block& k = *blocks_[at.block];
  const double gs = k.starts[at.gap];
  const double ge = k.ends[at.gap];
  // The slot must sit inside one free gap (modulo the usual tolerance for
  // touching); otherwise it overlaps a busy interval bounding the gap.
  OP_ASSERT(start >= gs - kTimeEps && end <= ge + kTimeEps,
            "reservation [" << start << "," << end
                            << ") overlaps a busy neighbor of free gap ["
                            << gs << "," << ge << ")");
  // Remnants within kTimeEps of the gap boundary merge into the adjacent
  // busy interval, mirroring the reference's touching-neighbor merge.
  const bool keep_left = start > gs + kTimeEps;
  const bool keep_right = ge > end + kTimeEps;
  if (keep_left && keep_right) {
    // Splitting the -inf head or the +inf tail mints a finite gap the fit
    // limit does not cover yet; remnants of a finite gap only shrink.
    if (std::isinf(gs) != std::isinf(ge)) {
      const double minted =
          std::isinf(gs) ? fit_limit(end, ge) : fit_limit(gs, start);
      fit_limits_[at.block] = std::max(fit_limits_[at.block], minted);
    }
    k.ends[at.gap] = start;
    insert_gap({at.block, at.gap + 1}, end, ge);
  } else if (keep_left) {
    k.ends[at.gap] = start;
    if (at.gap + 1 == k.size) last_ends_[at.block] = start;
  } else if (keep_right) {
    k.starts[at.gap] = end;
  } else {
    // The reservation bridges the two neighboring busy intervals; the
    // head and tail gaps are infinite and therefore never erased.
    erase_gap(at);
  }
}

void TimelineIndex::insert_gap(Pos at, double start, double end) {
  const std::size_t cut_block = at.block;
  const bool cut = blocks_[at.block]->size == kBlockGaps;
  if (cut) {
    constexpr std::size_t kHalf = kBlockGaps / 2;
    Block& lower = *blocks_[at.block];
    auto upper = std::make_unique_for_overwrite<Block>();
    upper->size = kBlockGaps - kHalf;
    std::copy(lower.starts + kHalf, lower.starts + kBlockGaps, upper->starts);
    std::copy(lower.ends + kHalf, lower.ends + kBlockGaps, upper->ends);
    lower.size = kHalf;
    stats_.moved_elements += kBlockGaps - kHalf;
    const auto next = static_cast<std::ptrdiff_t>(at.block + 1);
    blocks_.insert(blocks_.begin() + next, std::move(upper));
    last_ends_.insert(last_ends_.begin() + next, last_ends_[at.block]);
    last_ends_[at.block] = lower.ends[kHalf - 1];
    fit_limits_.insert(fit_limits_.begin() + next, 0.0);
    if (at.gap > kHalf) at = {at.block + 1, at.gap - kHalf};
  }
  Block& k = *blocks_[at.block];
  std::copy_backward(k.starts + at.gap, k.starts + k.size,
                     k.starts + k.size + 1);
  std::copy_backward(k.ends + at.gap, k.ends + k.size, k.ends + k.size + 1);
  stats_.moved_elements += k.size - at.gap;
  k.starts[at.gap] = start;
  k.ends[at.gap] = end;
  ++k.size;
  if (at.gap + 1 == k.size) last_ends_[at.block] = end;
  if (cut) {
    // Exact limits for both halves, the inserted gap included.
    refit(cut_block);
    refit(cut_block + 1);
  }
}

void TimelineIndex::erase_gap(Pos at) {
  Block& k = *blocks_[at.block];
  std::copy(k.starts + at.gap + 1, k.starts + k.size, k.starts + at.gap);
  std::copy(k.ends + at.gap + 1, k.ends + k.size, k.ends + at.gap);
  --k.size;
  stats_.moved_elements += k.size - at.gap;
  if (k.size == 0) {
    const auto b = static_cast<std::ptrdiff_t>(at.block);
    blocks_.erase(blocks_.begin() + b);
    last_ends_.erase(last_ends_.begin() + b);
    fit_limits_.erase(fit_limits_.begin() + b);
  } else if (at.gap == k.size) {
    last_ends_[at.block] = k.ends[k.size - 1];
  }
}

void TimelineIndex::refit(std::size_t b) {
  const Block& k = *blocks_[b];
  double limit = 0.0;
  for (std::size_t g = 0; g < k.size; ++g) {
    if (std::isfinite(k.starts[g]) && std::isfinite(k.ends[g])) {
      limit = std::max(limit, fit_limit(k.starts[g], k.ends[g]));
    }
  }
  fit_limits_[b] = limit;
}

bool TimelineIndex::is_free(double start, double end) const {
  if (Interval{start, end}.degenerate() || blocks_.empty()) return true;
  const Pos at = locate(start);
  const Block& k = *blocks_[at.block];
  return start >= k.starts[at.gap] - kTimeEps &&
         end <= k.ends[at.gap] + kTimeEps;
}

double TimelineIndex::busy_time() const noexcept {
  // Busy interval = previous gap's end .. this gap's start; only the -inf
  // head gap has no predecessor.
  double total = 0.0;
  double busy_from = 0.0;
  for (const auto& k : blocks_) {
    for (std::size_t g = 0; g < k->size; ++g) {
      if (std::isfinite(k->starts[g])) total += k->starts[g] - busy_from;
      busy_from = k->ends[g];
    }
  }
  return total;
}

std::vector<Interval> TimelineIndex::busy_intervals() const {
  // Gaps are wider than kTimeEps, so no two busy intervals touch.
  std::vector<Interval> busy;
  double busy_from = 0.0;
  for (const auto& k : blocks_) {
    for (std::size_t g = 0; g < k->size; ++g) {
      if (std::isfinite(k->starts[g])) busy.push_back({busy_from, k->starts[g]});
      busy_from = k->ends[g];
    }
  }
  return busy;
}

// ---------------------------------------------------------- overlays

double TimelineOverlay::next_fit(double ready, double duration) const {
  OP_ASSERT(base_ != nullptr, "overlay used before reset()");
  if (duration <= kTimeEps) return ready;
  // O(1) fast path: nothing -- base reservation or extra (the last one
  // ends last) -- ends after ready + kTimeEps, so no interval can block
  // a slot at `ready`.  This is exactly the answer the scan below would
  // produce.
  if (ready >= base_horizon_ - kTimeEps &&
      (extras_.empty() || ready >= extras_.back().end - kTimeEps)) {
    return ready;
  }
  // Most evaluations add zero or one extras per port; skip the merge
  // machinery entirely while the overlay is still transparent.
  if (extras_.empty()) return base_->next_fit(ready, duration);
  double candidate = ready;
  while (true) {
    candidate = base_->next_fit(candidate, duration);
    // One ordered pass over the start-sorted extras, absorbing every
    // extra the sliding candidate still overlaps.  An extra with
    // `candidate >= end - kTimeEps` fails overlaps()'s second test, so
    // it cannot move the candidate; the extras are disjoint by add()'s
    // contract, so their ends ascend and those extras are a prefix,
    // skipped by binary search.  The pass then visits the same extras
    // with the same candidate as one from the front: if it would have
    // stopped inside the prefix, it stops at its first extra, which
    // starts no earlier.
    bool moved = false;
    const auto first = std::partition_point(
        extras_.begin(), extras_.end(), [candidate](const Interval& e) {
          return !(candidate < e.end - kTimeEps);
        });
    for (auto extra = first; extra != extras_.end(); ++extra) {
      if (extra->start >= candidate + duration - kTimeEps) break;
      if (overlaps(*extra, {candidate, candidate + duration})) {
        candidate = extra->end;
        moved = true;
      }
    }
    if (!moved) return candidate;
  }
}

void TimelineOverlay::add(double start, double end) {
  const Interval iv{start, end};
  if (iv.degenerate()) return;
  const auto pos = std::partition_point(
      extras_.begin(), extras_.end(),
      [&iv](const Interval& e) { return e.start < iv.start; });
  // next_fit's binary search needs ends ascending with the starts.
  // Disjoint, non-degenerate extras have them, up to rounding below
  // kTimeEps, so both facts are checked against the two neighbours.
  const auto fits_after = [](const Interval& a, const Interval& b) {
    return !overlaps(a, b) && a.end <= b.end;
  };
  OP_ASSERT((pos == extras_.begin() || fits_after(pos[-1], iv)) &&
                (pos == extras_.end() || fits_after(iv, *pos)),
            "extra [" << start << "," << end
                      << ") overlaps a kept extra of the overlay");
  extras_.insert(pos, iv);
}

}  // namespace oneport
