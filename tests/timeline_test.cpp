#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sched/timeline.hpp"
#include "support/reference_timeline.hpp"
#include "util/rng.hpp"

namespace oneport {
namespace {

using testsupport::ReferenceTimeline;

// Every contract test below runs against both the production
// TimelineIndex (gap blocks, cached horizon) and the
// sorted-busy-vector oracle in tests/support.  They must agree not just
// on semantics but on the exact doubles they return -- the frozen-oracle
// schedule table was recorded with the oracle.
template <typename T>
class TimelineContractTest : public ::testing::Test {};

using Timelines = ::testing::Types<ReferenceTimeline, TimelineIndex>;
TYPED_TEST_SUITE(TimelineContractTest, Timelines);

TYPED_TEST(TimelineContractTest, EmptyFitsAnywhere) {
  TypeParam t;
  EXPECT_DOUBLE_EQ(t.next_fit(0.0, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(t.next_fit(3.5, 5.0), 3.5);
  EXPECT_DOUBLE_EQ(t.horizon(), 0.0);
  EXPECT_TRUE(t.empty());
}

TYPED_TEST(TimelineContractTest, FitsIntoExactGap) {
  TypeParam t;
  t.reserve(0.0, 2.0);
  t.reserve(5.0, 8.0);
  EXPECT_DOUBLE_EQ(t.next_fit(0.0, 3.0), 2.0);  // the [2,5) hole
  EXPECT_DOUBLE_EQ(t.next_fit(0.0, 4.0), 8.0);  // too big -> after the end
  EXPECT_DOUBLE_EQ(t.next_fit(6.0, 1.0), 8.0);  // ready inside a busy slot
  EXPECT_DOUBLE_EQ(t.next_fit(2.0, 2.0), 2.0);
}

TYPED_TEST(TimelineContractTest, ZeroDurationAlwaysFits) {
  TypeParam t;
  t.reserve(0.0, 10.0);
  EXPECT_DOUBLE_EQ(t.next_fit(4.0, 0.0), 4.0);
}

TYPED_TEST(TimelineContractTest, ReserveRejectsOverlap) {
  TypeParam t;
  t.reserve(0.0, 2.0);
  EXPECT_THROW(t.reserve(1.0, 3.0), std::logic_error);
  EXPECT_THROW(t.reserve(-1.0, 0.5), std::logic_error);
  EXPECT_NO_THROW(t.reserve(2.0, 3.0));  // touching is fine
}

TYPED_TEST(TimelineContractTest, ReserveMergesTouchingIntervals) {
  TypeParam t;
  t.reserve(0.0, 1.0);
  t.reserve(2.0, 3.0);
  t.reserve(1.0, 2.0);  // bridges both neighbours
  const std::vector<Interval> busy = t.busy_intervals();
  ASSERT_EQ(busy.size(), 1u);
  EXPECT_DOUBLE_EQ(busy[0].start, 0.0);
  EXPECT_DOUBLE_EQ(busy[0].end, 3.0);
  EXPECT_DOUBLE_EQ(t.busy_time(), 3.0);
}

TYPED_TEST(TimelineContractTest, IsFree) {
  TypeParam t;
  t.reserve(2.0, 4.0);
  EXPECT_TRUE(t.is_free(0.0, 2.0));
  EXPECT_TRUE(t.is_free(4.0, 9.0));
  EXPECT_FALSE(t.is_free(3.0, 5.0));
  EXPECT_FALSE(t.is_free(1.0, 3.0));
  EXPECT_TRUE(t.is_free(3.0, 3.0));  // degenerate
}

TYPED_TEST(TimelineContractTest, NextFitRejectsNegativeDuration) {
  TypeParam t;
  EXPECT_THROW((void)t.next_fit(0.0, -1.0), std::invalid_argument);
}

TYPED_TEST(TimelineContractTest, ClearResets) {
  TypeParam t;
  t.reserve(0.0, 5.0);
  t.reserve(7.0, 9.0);
  EXPECT_FALSE(t.empty());
  t.clear();
  EXPECT_TRUE(t.empty());
  EXPECT_DOUBLE_EQ(t.horizon(), 0.0);
  EXPECT_DOUBLE_EQ(t.next_fit(0.0, 100.0), 0.0);
  t.reserve(1.0, 2.0);  // usable again after clear
  EXPECT_DOUBLE_EQ(t.next_fit(0.0, 2.0), 2.0);
}

// ------------------------------------- adversarial gap patterns

/// Many small gaps: 100 unit reservations leaving 0.5-wide holes; a
/// 0.5-slot fits into the first hole, a 0.6-slot only after everything.
TYPED_TEST(TimelineContractTest, ManySmallGaps) {
  TypeParam t;
  for (int i = 0; i < 100; ++i) {
    const double start = 1.5 * i;
    t.reserve(start, start + 1.0);
  }
  EXPECT_DOUBLE_EQ(t.next_fit(0.0, 0.5), 1.0);    // the [1, 1.5) hole
  EXPECT_DOUBLE_EQ(t.next_fit(0.0, 0.6), 149.5);  // no interior hole fits
  EXPECT_DOUBLE_EQ(t.next_fit(76.0, 0.5), 76.0);  // mid-sequence hole
  EXPECT_DOUBLE_EQ(t.next_fit(76.2, 0.5), 77.5);  // partially eaten hole
  EXPECT_EQ(t.busy_intervals().size(), 100u);
  // Fill one hole and the neighbours merge into a triple-length run.
  t.reserve(10.0, 10.5);
  EXPECT_EQ(t.busy_intervals().size(), 99u);
  EXPECT_DOUBLE_EQ(t.next_fit(9.0, 0.5), 11.5);
}

/// Eps-touching reservations must merge exactly like exactly-touching
/// ones, and next_fit may start inside the eps shadow of a busy end.
TYPED_TEST(TimelineContractTest, EpsTouchingReservations) {
  TypeParam t;
  t.reserve(0.0, 1.0);
  t.reserve(1.0 + 0.5 * kTimeEps, 2.0);  // within tolerance: merges
  ASSERT_EQ(t.busy_intervals().size(), 1u);
  EXPECT_DOUBLE_EQ(t.busy_intervals()[0].end, 2.0);
  // A slot requested within eps *before* the busy end is granted as-is:
  // the reference scan treats the busy interval as already over.
  const double ready = 2.0 - 0.5 * kTimeEps;
  EXPECT_DOUBLE_EQ(t.next_fit(ready, 1.0), ready);
  // ...but asking well inside the busy interval snaps to its end.
  EXPECT_DOUBLE_EQ(t.next_fit(1.5, 1.0), 2.0);
}

/// Zero-duration fits never move and never conflict, even inside busy
/// intervals or exactly at boundaries.
TYPED_TEST(TimelineContractTest, ZeroDurationFits) {
  TypeParam t;
  t.reserve(0.0, 2.0);
  t.reserve(3.0, 5.0);
  for (const double at : {0.0, 1.0, 2.0, 2.5, 3.0, 4.999, 5.0, 100.0}) {
    EXPECT_DOUBLE_EQ(t.next_fit(at, 0.0), at) << "at=" << at;
    EXPECT_TRUE(t.is_free(at, at));
  }
  // Degenerate reservations are ignored entirely, even inside busy slots.
  t.reserve(1.0, 1.0);
  t.reserve(4.0, 4.0 + 0.5 * kTimeEps);
  EXPECT_EQ(t.busy_intervals().size(), 2u);
}

/// Backward-jumping readies: after appending at the far end, queries way
/// back in time must still see the old holes (exercises the gap cursor).
TYPED_TEST(TimelineContractTest, BackwardJumpsAfterAppends) {
  TypeParam t;
  double cursor = 0.0;
  for (int i = 0; i < 50; ++i) {  // back-to-back appends, hole at [24,25)
    const double next = (i == 16) ? cursor + 1.0 : cursor;
    t.reserve(next, next + 1.5);
    cursor = next + 1.5;
  }
  EXPECT_DOUBLE_EQ(t.next_fit(0.0, 1.0), 24.0);  // the punched hole
  EXPECT_DOUBLE_EQ(t.next_fit(0.0, 1.5), cursor);
  EXPECT_DOUBLE_EQ(t.next_fit(10.0, 0.5), 24.0);
  t.reserve(24.0, 25.0);  // plug it; everything merges into one run
  EXPECT_EQ(t.busy_intervals().size(), 1u);
}

TEST(Interval, OverlapSemantics) {
  EXPECT_TRUE(overlaps({0.0, 2.0}, {1.0, 3.0}));
  EXPECT_FALSE(overlaps({0.0, 2.0}, {2.0, 3.0}));  // touching
  EXPECT_FALSE(overlaps({0.0, 2.0}, {5.0, 6.0}));
  EXPECT_FALSE(overlaps({1.0, 1.0}, {0.0, 9.0}));  // degenerate
}

// ----------------------------------------------- differential fuzzing

/// Drives the oracle and the production index through an identical
/// random op sequence and demands exactly equal answers and busy
/// structures at every step.  Probes go through TimelineIndex's public
/// entry points, so its cached-horizon fast path is fuzzed along with
/// the gap search.
class TimelineDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TimelineDifferentialTest, ImplementationsAgreeExactly) {
  SplitMix64 rng(GetParam());
  ReferenceTimeline reference;
  TimelineIndex index;
  for (int i = 0; i < 400; ++i) {
    const double ready = rng.uniform(0.0, 60.0);
    const double duration =
        rng.below(8) == 0 ? 0.0 : rng.uniform(0.0, 4.0);
    const double fit_ref = reference.next_fit(ready, duration);
    const double fit = index.next_fit(ready, duration);
    ASSERT_EQ(fit_ref, fit)  // bitwise: no tolerance
        << "step " << i << " ready=" << ready << " duration=" << duration;
    const double probe_end = ready + rng.uniform(0.0, 5.0);
    ASSERT_EQ(reference.is_free(ready, probe_end),
              index.is_free(ready, probe_end))
        << "step " << i;
    if (rng.below(3) != 0) {  // reserve the found slot 2/3 of the time
      reference.reserve(fit_ref, fit_ref + duration);
      index.reserve(fit, fit + duration);
    }
    ASSERT_EQ(reference.busy_intervals(), index.busy_intervals())
        << "step " << i;
    ASSERT_EQ(reference.horizon(), index.horizon()) << "step " << i;
  }
  EXPECT_NEAR(reference.busy_time(), index.busy_time(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimelineDifferentialTest,
                         ::testing::Values<std::uint64_t>(7, 21, 99, 1234,
                                                          777777));

// --------------------------------------------------------- overlays

TEST(TimelineOverlay, SeesBaseAndExtras) {
  TimelineIndex base;
  base.reserve(0.0, 2.0);
  TimelineOverlay overlay(base);
  overlay.add(3.0, 5.0);
  EXPECT_DOUBLE_EQ(overlay.next_fit(0.0, 1.0), 2.0);  // the [2,3) hole
  EXPECT_DOUBLE_EQ(overlay.next_fit(0.0, 2.0), 5.0);  // hole too small
  EXPECT_DOUBLE_EQ(overlay.next_fit(4.0, 1.0), 5.0);
}

TEST(TimelineOverlay, ExtrasDoNotMutateBase) {
  TimelineIndex base;
  TimelineOverlay overlay(base);
  overlay.add(0.0, 4.0);
  EXPECT_TRUE(base.empty());
  EXPECT_DOUBLE_EQ(base.next_fit(0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(overlay.next_fit(0.0, 1.0), 4.0);
}

TEST(TimelineOverlay, UnsortedAddsHandled) {
  TimelineIndex base;
  TimelineOverlay overlay(base);
  overlay.add(6.0, 8.0);
  overlay.add(0.0, 2.0);
  overlay.add(3.0, 4.0);
  EXPECT_DOUBLE_EQ(overlay.next_fit(0.0, 2.0), 4.0);  // between 4 and 6
  EXPECT_DOUBLE_EQ(overlay.next_fit(0.0, 3.0), 8.0);
}

TEST(TimelineOverlay, ResetKeepsViewFreshAcrossBases) {
  TimelineIndex first, second;
  first.reserve(0.0, 10.0);
  TimelineOverlay overlay(first);
  overlay.add(12.0, 14.0);
  EXPECT_DOUBLE_EQ(overlay.next_fit(0.0, 3.0), 14.0);
  overlay.reset(second);  // extras dropped, base swapped
  EXPECT_TRUE(overlay.extras().empty());
  EXPECT_DOUBLE_EQ(overlay.next_fit(0.0, 3.0), 0.0);
}

TEST(TimelineOverlay, ManyExtrasOrderedPass) {
  TimelineIndex base;
  base.reserve(0.0, 1.0);
  TimelineOverlay overlay(base);
  for (int i = 1; i <= 50; ++i) {  // extras [2i, 2i+1): unit holes between
    overlay.add(2.0 * i, 2.0 * i + 1.0);
  }
  EXPECT_DOUBLE_EQ(overlay.next_fit(0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(overlay.next_fit(0.0, 1.5), 101.0);  // past every extra
  EXPECT_DOUBLE_EQ(overlay.next_fit(50.0, 1.0), 51.0);
}

// --------------------------------------------------------- joint fit

TEST(JointFit, BothFreeImmediately) {
  TimelineIndex a, b;
  TimelineOverlay oa(a), ob(b);
  EXPECT_DOUBLE_EQ(earliest_joint_fit(oa, ob, 1.0, 2.0), 1.0);
}

TEST(JointFit, AlternatingBusySlots) {
  // a busy [0,2), b busy [2,4): the first joint 1-slot is at 4.
  TimelineIndex a, b;
  a.reserve(0.0, 2.0);
  b.reserve(2.0, 4.0);
  TimelineOverlay oa(a), ob(b);
  EXPECT_DOUBLE_EQ(earliest_joint_fit(oa, ob, 0.0, 1.0), 4.0);
}

TEST(JointFit, FindsSharedHole) {
  TimelineIndex a, b;
  a.reserve(0.0, 1.0);
  a.reserve(4.0, 6.0);
  b.reserve(0.0, 2.0);
  b.reserve(5.0, 7.0);
  TimelineOverlay oa(a), ob(b);
  // Shared holes: [2,4) then [7,inf); a 2-slot fits at 2.
  EXPECT_DOUBLE_EQ(earliest_joint_fit(oa, ob, 0.0, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(earliest_joint_fit(oa, ob, 0.0, 3.0), 7.0);
}

TEST(JointFit, ZeroDuration) {
  TimelineIndex a, b;
  a.reserve(0.0, 5.0);
  TimelineOverlay oa(a), ob(b);
  EXPECT_DOUBLE_EQ(earliest_joint_fit(oa, ob, 3.0, 0.0), 3.0);
}

// --------------------------------------------------------- properties

class TimelinePropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

/// next_fit always returns a slot that reserve() accepts, for arbitrary
/// reservation sequences -- on the index and the oracle alike.
template <typename T>
void next_fit_slots_always_reservable(std::uint64_t seed) {
  SplitMix64 rng(seed);
  T t;
  double total = 0.0;
  for (int i = 0; i < 200; ++i) {
    const double ready = rng.uniform(0.0, 50.0);
    const double duration = rng.uniform(0.0, 5.0);
    const double start = t.next_fit(ready, duration);
    EXPECT_GE(start, ready);
    EXPECT_TRUE(t.is_free(start, start + duration));
    ASSERT_NO_THROW(t.reserve(start, start + duration));
    total += duration;
  }
  EXPECT_NEAR(t.busy_time(), total, 1e-6);
}

TEST_P(TimelinePropertyTest, NextFitSlotsAreAlwaysReservable) {
  next_fit_slots_always_reservable<ReferenceTimeline>(GetParam());
  next_fit_slots_always_reservable<TimelineIndex>(GetParam());
}

/// Busy intervals stay sorted and disjoint on the index and the oracle.
template <typename T>
void invariant_sorted_disjoint(std::uint64_t seed) {
  SplitMix64 rng(seed + 1000);
  T t;
  for (int i = 0; i < 150; ++i) {
    const double duration = rng.uniform(0.1, 3.0);
    const double start = t.next_fit(rng.uniform(0.0, 100.0), duration);
    t.reserve(start, start + duration);
  }
  const std::vector<Interval> busy = t.busy_intervals();
  for (std::size_t i = 1; i < busy.size(); ++i) {
    EXPECT_GE(busy[i].start, busy[i - 1].end - kTimeEps);
  }
}

TEST_P(TimelinePropertyTest, InvariantSortedDisjoint) {
  invariant_sorted_disjoint<ReferenceTimeline>(GetParam());
  invariant_sorted_disjoint<TimelineIndex>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimelinePropertyTest,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u, 12345u));

// ------------------------------------------------- long timelines

// The scenarios below build timelines of thousands of gaps, so they cross
// many blocks: cuts of full blocks, locates across block boundaries,
// emptied blocks and block skips, which the short fuzz above never
// reaches (400 ops on [0, 60) never fill one block).

/// next_fit, is_free and the horizon agree bit for bit at one probe.
::testing::AssertionResult agree(const ReferenceTimeline& reference,
                                 const TimelineIndex& index, double ready,
                                 double duration) {
  const double expected = reference.next_fit(ready, duration);
  const double actual = index.next_fit(ready, duration);
  if (expected != actual) {
    return ::testing::AssertionFailure()
           << "next_fit(" << ready << ", " << duration << ") = " << actual
           << ", oracle " << expected;
  }
  const double end = ready + duration;
  if (reference.is_free(ready, end) != index.is_free(ready, end)) {
    return ::testing::AssertionFailure()
           << "is_free(" << ready << ", " << end << ") disagrees";
  }
  // The index's cached horizon starts at 0 and only grows, so it clamps
  // an all-negative timeline's horizon at 0.
  if (std::max(reference.horizon(), 0.0) != index.horizon()) {
    return ::testing::AssertionFailure()
           << "horizon " << index.horizon() << ", oracle "
           << reference.horizon();
  }
  return ::testing::AssertionSuccess();
}

/// The oracle's free gaps between busy intervals.
std::vector<Interval> interior_gaps(const ReferenceTimeline& t) {
  const std::vector<Interval> busy = t.busy_intervals();
  std::vector<Interval> gaps;
  for (std::size_t i = 1; i < busy.size(); ++i) {
    gaps.push_back({busy[i - 1].end, busy[i].start});
  }
  return gaps;
}

class TimelineLongDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TimelineLongDifferentialTest, BlocksAgreeWithReference) {
  SplitMix64 rng(GetParam());
  ReferenceTimeline reference;
  TimelineIndex index;
  int steps = 0;
  const auto reserve = [&](double start, double end) {
    reference.reserve(start, end);
    index.reserve(start, end);
  };
  const auto check = [&](double ready, double duration) {
    ::testing::AssertionResult result =
        agree(reference, index, ready, duration);
    if (result && ++steps % 16 == 0 &&
        reference.busy_intervals() != index.busy_intervals()) {
      result = ::testing::AssertionFailure() << "busy intervals differ";
    }
    return result << " (step " << steps << ")";
  };
  const auto random_duration = [&rng] {
    return rng.below(8) == 0 ? 0.0 : rng.uniform(0.0, 3.0);
  };

  // Appends that leave holes, from negative times on (the cached horizon
  // is clamped at 0): back to back, eps-touching (both merge), slivers
  // just over kTimeEps, zero-length (ignored), and holes that are small
  // early and up to 4 wide later, so long probes skip the early blocks.
  double t = -200.0;
  for (int i = 0; i < 4000; ++i) {
    double hole = rng.uniform(0.05, i < 2000 ? 1.0 : 4.0);
    switch (rng.below(6)) {
      case 0: hole = 0.0; break;
      case 1: hole = 0.5 * kTimeEps; break;
      case 2: hole = 3.0 * kTimeEps; break;
      default: break;
    }
    const double length = rng.below(10) == 0 ? 0.0 : rng.uniform(0.1, 2.0);
    reserve(t + hole, t + hole + length);
    t += hole + length;
    ASSERT_TRUE(check(rng.uniform(-220.0, t), random_duration()));
  }
  ASSERT_GT(interior_gaps(reference).size(), 2000u);

  // Deep insertion probes, reserved two times in three.  Some durations
  // are a gap's exact width, or half an eps or one eps over it (the edge
  // of the per-gap tolerance), and some probes start half an eps before
  // the gap or at its end.  Half of those take the widest gap, the widest
  // of its block too, so the block's fit limit alone decides whether the
  // walk looks at it.
  const auto by_width = [](const Interval& a, const Interval& b) {
    return a.duration() < b.duration();
  };
  for (int i = 0; i < 3000; ++i) {
    double ready = rng.uniform(-220.0, t);
    double duration = random_duration();
    if (rng.below(4) == 0) {
      const std::vector<Interval> gaps = interior_gaps(reference);
      const Interval& g =
          rng.below(2) == 0
              ? *std::max_element(gaps.begin(), gaps.end(), by_width)
              : gaps[rng.below(gaps.size())];
      duration = g.duration() + 0.5 * kTimeEps * static_cast<double>(rng.below(3));
      ready = rng.below(2) == 0 ? g.start - 0.5 * kTimeEps
                                : rng.uniform(-220.0, g.start);
      if (rng.below(4) == 0) ready = g.end;
    }
    ASSERT_TRUE(check(ready, duration));
    if (rng.below(3) != 0) {
      const double fit = reference.next_fit(ready, duration);
      reserve(fit, fit + duration);
    }
  }

  // Bridging reservations: fill runs of 300 consecutive gaps exactly or
  // eps-shaved (both merge with the neighbors), which erases the last gap
  // of a block and empties whole blocks; probe around each fill.
  for (int run = 0; run < 3; ++run) {
    const std::vector<Interval> gaps = interior_gaps(reference);
    ASSERT_GT(gaps.size(), 300u);
    const std::size_t first = rng.below(gaps.size() - 300);
    for (std::size_t k = first; k < first + 300; ++k) {
      const Interval& g = gaps[k];
      const double shave = rng.below(2) == 0 ? 0.0 : 0.5 * kTimeEps;
      reserve(g.start + shave, g.end - shave);
      ASSERT_TRUE(check(g.start - rng.uniform(0.0, 3.0), random_duration()));
    }
  }
  EXPECT_EQ(reference.busy_intervals(), index.busy_intervals());
  EXPECT_NEAR(reference.busy_time(), index.busy_time(), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimelineLongDifferentialTest,
                         ::testing::Values<std::uint64_t>(5, 2024));

// The scenarios below reserve deep inside long timelines -- the pattern
// the dynamic rescheduler's prefix-freeze produces -- so every insert
// splits a gap far from the tail.

/// A long alternating timeline: blocks [4i, 4i+1), gaps in between.
template <typename T>
void lay_down_blocks(T& t, int blocks) {
  for (int i = 0; i < blocks; ++i) {
    t.reserve(4.0 * i, 4.0 * i + 1.0);
  }
}

/// Element moves of middle inserts into n gaps: one block shift each
/// keeps the total near n * kBlockGaps; a flat gap list would shift
/// ~n^2/2.  The factor-8 n*sqrt(n) bound (the one bench_scale's
/// timeline/middle-insert asserts) keeps the pin about the asymptotic,
/// not the exact constants.
bool moves_subquadratic(const TimelineIndex& t, int n) {
  const auto count = static_cast<double>(n);
  return static_cast<double>(t.stats().moved_elements) <
         8.0 * count * std::sqrt(count);
}

class TimelineMiddleInsertTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TimelineMiddleInsertTest, RandomMiddleInsertsAgreeWithReference) {
  SplitMix64 rng(GetParam());
  ReferenceTimeline reference;
  TimelineIndex index;
  const int blocks = 600;
  lay_down_blocks(reference, blocks);
  lay_down_blocks(index, blocks);

  // Visit the interior gaps in a random order and drop a sliver strictly
  // inside each: every insert splits a gap far from the tail.
  std::vector<int> order(static_cast<std::size_t>(blocks - 1));
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<int>(i);
  }
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  for (std::size_t step = 0; step < order.size(); ++step) {
    const double base = 4.0 * order[step];
    const double start = base + 1.5 + rng.uniform(0.0, 0.5);
    const double end = start + rng.uniform(0.2, 0.8);
    reference.reserve(start, end);
    index.reserve(start, end);
    // Interleave queries: each must already see every deep insert.
    const double ready = rng.uniform(0.0, 4.0 * blocks);
    const double duration = rng.uniform(0.0, 2.0);
    ASSERT_EQ(reference.next_fit(ready, duration),
              index.next_fit(ready, duration))
        << "step " << step;
    ASSERT_EQ(reference.is_free(start - 0.1, end),
              index.is_free(start - 0.1, end))
        << "step " << step;
    if (step % 64 == 0) {
      ASSERT_EQ(reference.busy_intervals(), index.busy_intervals())
          << "step " << step;
    }
  }
  EXPECT_EQ(reference.busy_intervals(), index.busy_intervals());
  EXPECT_NEAR(reference.busy_time(), index.busy_time(), 1e-9);
  EXPECT_EQ(reference.horizon(), index.horizon());
  EXPECT_TRUE(moves_subquadratic(index, blocks));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimelineMiddleInsertTest,
                         ::testing::Values<std::uint64_t>(11, 42, 4096,
                                                          31337));

TEST(TimelineMiddleInsert, DeepInsertIsVisibleToNextQuery) {
  TimelineIndex gap;
  lay_down_blocks(gap, 200);
  // Split an early gap, with ~200 gaps after it.
  gap.reserve(9.5, 10.5);
  EXPECT_FALSE(gap.is_free(9.5, 10.5));
  EXPECT_FALSE(gap.is_free(9.0, 10.0));
  // next_fit must not hand the slot out again.
  EXPECT_DOUBLE_EQ(gap.next_fit(9.0, 1.0), 10.5);
  // And the busy view holds it in place.
  const std::vector<Interval> busy = gap.busy_intervals();
  const Interval expected{9.5, 10.5};
  bool found = false;
  for (const Interval& iv : busy) found |= iv == expected;
  EXPECT_TRUE(found);
}

TEST(TimelineMiddleInsert, MovedElementsStaySubquadratic) {
  TimelineIndex gap;
  const int blocks = 400;
  lay_down_blocks(gap, blocks);
  for (int i = 0; i + 1 < blocks; ++i) {
    gap.reserve(4.0 * i + 2.0, 4.0 * i + 3.0);
  }
  EXPECT_TRUE(moves_subquadratic(gap, blocks))
      << "middle inserts moved " << gap.stats().moved_elements
      << " elements";
  // The result is still exactly right: blocks and slivers alternate.
  const std::vector<Interval> busy = gap.busy_intervals();
  ASSERT_EQ(busy.size(), static_cast<std::size_t>(2 * blocks - 1));
}

}  // namespace
}  // namespace oneport
