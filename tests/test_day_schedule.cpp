// Unit tests for DaySchedule: daily projection, circular waits, and the
// worst-case wait analysis the delay metric builds on.
#include <gtest/gtest.h>

#include "interval/day_schedule.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dosn::interval {
namespace {

constexpr Seconds kH = 3600;

DaySchedule sched(std::initializer_list<Interval> list) {
  return DaySchedule(IntervalSet(std::vector<Interval>(list)));
}

TEST(TimeOfDay, NormalizesIntoDay) {
  EXPECT_EQ(time_of_day(0), 0);
  EXPECT_EQ(time_of_day(kDaySeconds), 0);
  EXPECT_EQ(time_of_day(kDaySeconds + 5), 5);
  EXPECT_EQ(time_of_day(-1), kDaySeconds - 1);
  EXPECT_EQ(time_of_day(-kDaySeconds), 0);
}

TEST(DaySchedule, EmptyAndAlways) {
  DaySchedule never;
  EXPECT_TRUE(never.empty());
  EXPECT_EQ(never.coverage(), 0.0);
  EXPECT_FALSE(never.online_at(100));

  auto always = DaySchedule::always();
  EXPECT_DOUBLE_EQ(always.coverage(), 1.0);
  EXPECT_TRUE(always.online_at(0));
  EXPECT_TRUE(always.online_at(kDaySeconds - 1));
}

TEST(DaySchedule, RejectsOutOfDaySet) {
  EXPECT_THROW(DaySchedule(IntervalSet::single(-5, 10)), util::ContractError);
  EXPECT_THROW(DaySchedule(IntervalSet::single(10, kDaySeconds + 1)),
               util::ContractError);
}

TEST(DaySchedule, ProjectSimpleInterval) {
  const Interval iv{3 * kH, 5 * kH};
  auto s = DaySchedule::project({&iv, 1});
  EXPECT_EQ(s.online_seconds(), 2 * kH);
  EXPECT_TRUE(s.online_at(4 * kH));
}

TEST(DaySchedule, ProjectAbsoluteTimestampFromLaterDay) {
  // Day 3, 10:00-11:00 projects onto 10:00-11:00.
  const Interval iv{3 * kDaySeconds + 10 * kH, 3 * kDaySeconds + 11 * kH};
  auto s = DaySchedule::project({&iv, 1});
  EXPECT_TRUE(s.online_at(10 * kH + 30 * 60));
  EXPECT_FALSE(s.online_at(9 * kH));
}

TEST(DaySchedule, ProjectWrapsMidnight) {
  // 23:00-01:00 splits into [23:00,24:00) and [00:00,01:00).
  const Interval iv{23 * kH, 25 * kH};
  auto s = DaySchedule::project({&iv, 1});
  EXPECT_EQ(s.online_seconds(), 2 * kH);
  EXPECT_TRUE(s.online_at(23 * kH + 1));
  EXPECT_TRUE(s.online_at(30 * 60));
  EXPECT_FALSE(s.online_at(2 * kH));
  EXPECT_EQ(s.set().piece_count(), 2u);
}

TEST(DaySchedule, ProjectFullDayInterval) {
  const Interval iv{5, 5 + kDaySeconds};
  auto s = DaySchedule::project({&iv, 1});
  EXPECT_DOUBLE_EQ(s.coverage(), 1.0);
}

TEST(DaySchedule, ProjectManySessionsUnion) {
  std::vector<Interval> sessions{{10 * kH, 11 * kH},
                                 {kDaySeconds + 10 * kH + 1800,
                                  kDaySeconds + 12 * kH}};
  auto s = DaySchedule::project(sessions);
  EXPECT_EQ(s.online_seconds(), 2 * kH);  // [10:00,12:00) merged
}

/// DaySchedule::project before batching: one IntervalSet::add per piece,
/// stopping early once the set covers the whole day. Kept as the oracle
/// for the batched projection.
DaySchedule incremental_project(std::span<const Interval> absolute) {
  IntervalSet day;
  for (const auto& iv : absolute) {
    if (iv.length() >= kDaySeconds) return DaySchedule::always();
    const Seconds s = time_of_day(iv.start);
    const Seconds e = s + iv.length();
    if (e <= kDaySeconds) {
      day.add(s, e);
    } else {
      day.add(s, kDaySeconds);
      day.add(0, e - kDaySeconds);
    }
    if (day.measure() == kDaySeconds) return DaySchedule::always();
  }
  return DaySchedule(std::move(day));
}

TEST(DaySchedule, ProjectEqualsIncrementalFold) {
  util::Rng rng(86400);
  for (int trial = 0; trial < 3000; ++trial) {
    // Short lists of long sessions reach a full day; long lists of short
    // ones give many merges and midnight wraps. Starts may be negative.
    const std::size_t n = rng.below(trial % 2 == 0 ? 8 : 120);
    const Seconds max_len = trial % 5 == 0 ? 2 * kDaySeconds : 4 * kH;
    std::vector<Interval> sessions;
    for (std::size_t i = 0; i < n; ++i) {
      const Seconds start = rng.range(-3 * kDaySeconds, 10 * kDaySeconds);
      sessions.push_back({start, start + rng.range(1, max_len)});
    }
    const DaySchedule batched = DaySchedule::project(sessions);
    ASSERT_EQ(batched, incremental_project(sessions)) << "trial " << trial;
    ASSERT_TRUE(batched.set().is_canonical());
  }
}

TEST(DaySchedule, ProjectAbuttingPiecesCoverTheDay) {
  // Four abutting 6 h pieces, one wrapping midnight, on different days:
  // the batched union is exactly always().
  const std::vector<Interval> sessions{{kDaySeconds + 21 * kH, kDaySeconds + 27 * kH},
                                       {3 * kH, 9 * kH},
                                       {5 * kDaySeconds + 9 * kH, 5 * kDaySeconds + 15 * kH},
                                       {15 * kH, 21 * kH}};
  EXPECT_EQ(DaySchedule::project(sessions), DaySchedule::always());
  EXPECT_EQ(incremental_project(sessions), DaySchedule::always());
}

TEST(DaySchedule, ProjectRejectsEmptyInterval) {
  const std::vector<Interval> sessions{{10, 20}, {30, 30}};
  EXPECT_THROW(DaySchedule::project(sessions), ConfigError);
}

TEST(DaySchedule, WaitUntilOnlineInsideIsZero) {
  auto s = sched({{10 * kH, 12 * kH}});
  EXPECT_EQ(s.wait_until_online(11 * kH), 0);
  EXPECT_EQ(s.wait_until_online(10 * kH), 0);
}

TEST(DaySchedule, WaitUntilOnlineForward) {
  auto s = sched({{10 * kH, 12 * kH}});
  EXPECT_EQ(s.wait_until_online(8 * kH), 2 * kH);
  // Half-open: at 12:00 the node just went offline; next slot is tomorrow.
  EXPECT_EQ(s.wait_until_online(12 * kH), 22 * kH);
}

TEST(DaySchedule, WaitUntilOnlineWrapsToTomorrow) {
  auto s = sched({{2 * kH, 3 * kH}});
  EXPECT_EQ(s.wait_until_online(20 * kH), 6 * kH);
}

TEST(DaySchedule, WaitUntilOnlineEmptyIsNull) {
  DaySchedule never;
  EXPECT_EQ(never.wait_until_online(0), std::nullopt);
}

TEST(DaySchedule, WaitHandlesAbsoluteTimes) {
  auto s = sched({{10 * kH, 12 * kH}});
  EXPECT_EQ(s.wait_until_online(5 * kDaySeconds + 8 * kH), 2 * kH);
}

TEST(DaySchedule, OnlineWithinWindowSimple) {
  auto s = sched({{10 * kH, 12 * kH}});
  EXPECT_EQ(s.online_within_window(9 * kH, 2 * kH), kH);
  EXPECT_EQ(s.online_within_window(10 * kH, kH), kH);
  EXPECT_EQ(s.online_within_window(13 * kH, kH), 0);
}

TEST(DaySchedule, OnlineWithinWindowWrapsMidnight) {
  auto s = sched({{1 * kH, 2 * kH}});
  // Window 23:00 -> 02:00 next day covers the 01:00-02:00 piece.
  EXPECT_EQ(s.online_within_window(23 * kH, 3 * kH), kH);
}

TEST(DaySchedule, OnlineWithinWindowMultiDay) {
  auto s = sched({{1 * kH, 2 * kH}});
  // 2.5 days starting at 00:00 covers two full pieces and one more.
  EXPECT_EQ(s.online_within_window(0, 2 * kDaySeconds + 12 * kH), 3 * kH);
}

TEST(DaySchedule, UniteIntersectOverlap) {
  auto a = sched({{10 * kH, 12 * kH}});
  auto b = sched({{11 * kH, 13 * kH}});
  EXPECT_EQ(a.unite(b).online_seconds(), 3 * kH);
  EXPECT_EQ(a.intersect(b).online_seconds(), kH);
  EXPECT_EQ(a.overlap_seconds(b), kH);
  EXPECT_TRUE(a.intersects(b));
}

// --- worst_case_wait: the paper's per-edge delay ----------------------

TEST(WorstCaseWait, PaperSingleIntervalFormula) {
  // Two single daily windows overlapping d hours: worst wait = 24h - d.
  auto v1 = sched({{8 * kH, 14 * kH}});
  auto v2 = sched({{12 * kH, 18 * kH}});
  const auto overlap = v1.intersect(v2);  // 12:00-14:00, d = 2h
  const auto worst = worst_case_wait(v1, overlap);
  ASSERT_TRUE(worst.has_value());
  EXPECT_EQ(worst->wait, kDaySeconds - 2 * kH);
  // Worst case: the update lands exactly when the rendezvous closes.
  EXPECT_EQ(worst->at, 14 * kH);
}

TEST(WorstCaseWait, SourceEqualsTargetStillPaysFullGap) {
  // Identical 6h windows: the paper's 24h - d still applies — an update at
  // the instant both go offline waits 18h for the next rendezvous.
  auto s = sched({{8 * kH, 14 * kH}});
  const auto worst = worst_case_wait(s, s);
  ASSERT_TRUE(worst.has_value());
  EXPECT_EQ(worst->wait, 18 * kH);
  EXPECT_EQ(worst->at, 14 * kH);
}

TEST(WorstCaseWait, EmptyEitherSideIsNull) {
  auto s = sched({{8 * kH, 14 * kH}});
  DaySchedule never;
  EXPECT_EQ(worst_case_wait(never, s), std::nullopt);
  EXPECT_EQ(worst_case_wait(s, never), std::nullopt);
}

TEST(WorstCaseWait, TargetNotSubsetOfSource) {
  // UnconRep-style: target is the receiver's whole schedule.
  auto src = sched({{8 * kH, 10 * kH}});
  auto dst = sched({{20 * kH, 21 * kH}});
  const auto worst = worst_case_wait(src, dst);
  ASSERT_TRUE(worst.has_value());
  // Posting at 08:00 waits 12h; posting just before 10:00 waits 10h.
  EXPECT_EQ(worst->wait, 12 * kH);
  EXPECT_EQ(worst->at, 8 * kH);
}

TEST(WorstCaseWait, MultiIntervalWorstAtOverlapEnd) {
  // Source online 08-16; target online 09-10 and 13-14.
  auto src = sched({{8 * kH, 16 * kH}});
  auto dst = sched({{9 * kH, 10 * kH}, {13 * kH, 14 * kH}});
  const auto worst = worst_case_wait(src, dst);
  ASSERT_TRUE(worst.has_value());
  // Worst: post at 14:00 (end of the late rendezvous, still online),
  // wait until 09:00 tomorrow = 19h.
  EXPECT_EQ(worst->wait, 19 * kH);
  EXPECT_EQ(worst->at, 14 * kH);
}

TEST(WorstCaseWait, BruteForceAgreement) {
  // Exhaustive check on coarse random schedules: the analytic worst case
  // equals a brute-force maximum over every second in the source.
  util::Rng rng(1234);
  for (int round = 0; round < 30; ++round) {
    // Build small random schedules on a coarse grid (minutes as "seconds").
    auto random_sched = [&](int max_pieces) {
      IntervalSet s;
      const int pieces = 1 + static_cast<int>(rng.below(
          static_cast<std::uint64_t>(max_pieces)));
      for (int i = 0; i < pieces; ++i) {
        const Seconds start = rng.range(0, kDaySeconds - 7200);
        const Seconds len = 60 * rng.range(1, 90);
        s.add(start / 60 * 60, std::min(start / 60 * 60 + len, kDaySeconds));
      }
      return DaySchedule(std::move(s));
    };
    const auto src = random_sched(3);
    const auto dst = random_sched(3);
    const auto overlap = src.intersect(dst);
    if (overlap.empty()) continue;

    const auto analytic = worst_case_wait(src, overlap);
    ASSERT_TRUE(analytic.has_value());

    // Brute force over the closure of the source at minute granularity
    // (all schedule boundaries are minute-aligned by construction).
    Seconds brute = 0;
    for (const auto& piece : src.set().pieces())
      for (Seconds t = piece.start; t <= piece.end; t += 60)
        brute = std::max(brute, *overlap.wait_until_online(t));
    EXPECT_EQ(analytic->wait, brute);
  }
}

}  // namespace
}  // namespace dosn::interval
