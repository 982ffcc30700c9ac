// Unit tests for the online-time models (Sec IV-C semantics).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>

#include "graph/social_graph.hpp"
#include "onlinetime/continuous.hpp"
#include "onlinetime/enriched.hpp"
#include "onlinetime/model.hpp"
#include "onlinetime/sessions.hpp"
#include "onlinetime/sporadic.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace dosn::onlinetime {
namespace {

using graph::GraphKind;
using graph::SocialGraphBuilder;
using interval::kDaySeconds;
using interval::time_of_day;
using trace::Activity;

constexpr Seconds kH = 3600;

trace::Dataset dataset_with(std::vector<Activity> acts, std::size_t users) {
  SocialGraphBuilder b(GraphKind::kUndirected, users);
  for (graph::UserId u = 1; u < users; ++u) b.add_edge(0, u);
  trace::Dataset d;
  d.name = "t";
  d.graph = std::move(b).build();
  d.trace = trace::ActivityTrace(users, std::move(acts));
  return d;
}

TEST(Sporadic, SessionContainsActivityInstant) {
  // One activity at day 2, 10:00.
  const Seconds ts = 2 * kDaySeconds + 10 * kH;
  auto d = dataset_with({{0, 1, ts}}, 2);
  SporadicModel model(20 * 60);
  util::Rng rng(1);
  const auto scheds = model.schedules(d, rng);
  ASSERT_EQ(scheds.size(), 2u);
  EXPECT_TRUE(scheds[0].online_at(ts));
  EXPECT_EQ(scheds[0].online_seconds(), 20 * 60);
  // User 1 created nothing: never online.
  EXPECT_TRUE(scheds[1].empty());
}

TEST(Sporadic, MultipleSessionsUnion) {
  auto d = dataset_with({{0, 1, 10 * kH}, {0, 1, 20 * kH}}, 2);
  SporadicModel model(20 * 60);
  util::Rng rng(2);
  const auto scheds = model.schedules(d, rng);
  EXPECT_TRUE(scheds[0].online_at(10 * kH));
  EXPECT_TRUE(scheds[0].online_at(20 * kH));
  EXPECT_LE(scheds[0].online_seconds(), 40 * 60);
}

TEST(Sporadic, SessionLengthControlsCoverage) {
  std::vector<Activity> acts;
  for (int i = 0; i < 20; ++i)
    acts.push_back({0, 0, static_cast<Seconds>(i) * kH + 30 * 60});
  auto d = dataset_with(std::move(acts), 1);
  util::Rng rng(3);
  SporadicModel short_model(10 * 60);
  SporadicModel long_model(4 * kH);
  util::Rng rng2(3);
  const auto short_s = short_model.schedules(d, rng)[0].online_seconds();
  const auto long_s = long_model.schedules(d, rng2)[0].online_seconds();
  EXPECT_LT(short_s, long_s);
}

TEST(Sporadic, WrapsMidnightSessions) {
  // Activity at 00:05 with 20-minute sessions can start the prior evening.
  auto d = dataset_with({{0, 1, kDaySeconds + 5 * 60}}, 2);
  SporadicModel model(20 * 60);
  util::Rng rng(4);
  const auto scheds = model.schedules(d, rng);
  EXPECT_EQ(scheds[0].online_seconds(), 20 * 60);
  EXPECT_TRUE(scheds[0].online_at(5 * 60));
}

TEST(Sporadic, RejectsNonPositiveSession) {
  EXPECT_THROW(SporadicModel(0), ConfigError);
}

TEST(Sporadic, NameIncludesLength) {
  EXPECT_EQ(SporadicModel(1200).name(), "Sporadic(1200s)");
}

TEST(BestWindowStart, CoversActivityMode) {
  // Seven activities near 21:00, two near 09:00: a 2h window must cover
  // the evening cluster.
  std::vector<Seconds> times;
  for (int i = 0; i < 7; ++i) times.push_back(21 * kH + i * 60);
  times.push_back(9 * kH);
  times.push_back(9 * kH + 300);
  const Seconds start = best_window_start(times, 2 * kH);
  EXPECT_LE(start, 21 * kH);
  EXPECT_GT(start + 2 * kH, 21 * kH + 6 * 60);
}

TEST(BestWindowStart, HandlesWrapAroundCluster) {
  // Cluster straddling midnight: 23:30 and 00:10 (+ outlier at noon).
  std::vector<Seconds> times{23 * kH + 30 * 60, 10 * 60, 12 * kH};
  const Seconds start = best_window_start(times, 2 * kH);
  // The best 2h window covers both midnight-straddling points.
  const interval::Interval window{start, start + 2 * kH};
  auto sched = interval::DaySchedule::project({&window, 1});
  EXPECT_TRUE(sched.online_at(23 * kH + 30 * 60));
  EXPECT_TRUE(sched.online_at(10 * 60));
}

TEST(BestWindowStart, EmptyTimesGiveZero) {
  EXPECT_EQ(best_window_start({}, 2 * kH), 0);
}

TEST(FixedLength, WindowHasExactLength) {
  auto d = dataset_with({{0, 1, 13 * kH}, {0, 1, 14 * kH}}, 2);
  FixedLengthModel model(2.0);
  util::Rng rng(5);
  const auto scheds = model.schedules(d, rng);
  EXPECT_EQ(scheds[0].online_seconds(), 2 * kH);
  EXPECT_TRUE(scheds[0].online_at(13 * kH));
}

TEST(FixedLength, UserWithoutActivityGetsRandomWindow) {
  auto d = dataset_with({{0, 1, 13 * kH}}, 3);
  FixedLengthModel model(4.0);
  util::Rng rng(6);
  const auto scheds = model.schedules(d, rng);
  EXPECT_EQ(scheds[2].online_seconds(), 4 * kH);  // still a full window
}

TEST(FixedLength, FullDayWindow) {
  auto d = dataset_with({{0, 1, 13 * kH}}, 2);
  FixedLengthModel model(24.0);
  util::Rng rng(7);
  const auto scheds = model.schedules(d, rng);
  EXPECT_DOUBLE_EQ(scheds[0].coverage(), 1.0);
}

TEST(FixedLength, RejectsBadHours) {
  EXPECT_THROW(FixedLengthModel(0.0), ConfigError);
  EXPECT_THROW(FixedLengthModel(25.0), ConfigError);
}

TEST(RandomLength, WindowWithinRange) {
  auto d = dataset_with({{0, 1, 13 * kH}}, 2);
  RandomLengthModel model(2.0, 8.0);
  util::Rng rng(8);
  for (int round = 0; round < 10; ++round) {
    const auto scheds = model.schedules(d, rng);
    EXPECT_GE(scheds[0].online_seconds(), 2 * kH);
    EXPECT_LE(scheds[0].online_seconds(), 8 * kH);
  }
}

TEST(RandomLength, IsRandomized) {
  RandomLengthModel model;
  EXPECT_TRUE(model.randomized());
  SporadicModel sporadic;
  EXPECT_FALSE(sporadic.randomized());
  FixedLengthModel fixed;
  EXPECT_FALSE(fixed.randomized());
}

TEST(RandomLength, RejectsBadRange) {
  EXPECT_THROW(RandomLengthModel(5.0, 2.0), ConfigError);
  EXPECT_THROW(RandomLengthModel(0.0, 2.0), ConfigError);
}

TEST(ModelFactory, CreatesAllKinds) {
  ModelParams params;
  params.session_length = 600;
  params.window_hours = 2.0;
  EXPECT_EQ(make_model(ModelKind::kSporadic, params)->name(),
            "Sporadic(600s)");
  EXPECT_EQ(make_model(ModelKind::kFixedLength, params)->name(),
            "FixedLength(2h)");
  EXPECT_EQ(make_model(ModelKind::kRandomLength, params)->name(),
            "RandomLength(2-8h)");
  EXPECT_EQ(to_string(ModelKind::kSporadic), "Sporadic");
}

TEST(FixedLength, CentersOnActivityMajority) {
  // 10 activities at 20:00-20:30, 3 at 06:00: window must cover evening.
  std::vector<Activity> acts;
  for (int i = 0; i < 10; ++i)
    acts.push_back({0, 1, 20 * kH + i * 180});
  for (int i = 0; i < 3; ++i) acts.push_back({0, 1, 6 * kH + i * 60});
  auto d = dataset_with(std::move(acts), 2);
  FixedLengthModel model(2.0);
  util::Rng rng(9);
  const auto scheds = model.schedules(d, rng);
  EXPECT_TRUE(scheds[0].online_at(20 * kH + 15 * 60));
  EXPECT_FALSE(scheds[0].online_at(6 * kH));
}


// ------------------------------------------- serial reference realization
//
// The models realize schedules in two phases: serial rng draws, then a
// parallel per-user build. The references below are the one-pass serial
// loops that phase split replaced, kept as differential oracles: the
// two-phase output must equal them bit for bit, for every pool size, and
// leave the caller's rng in the same state.

/// best_window_start before the two-pointer sweep: one lower_bound per
/// candidate over the circularly doubled sorted list.
Seconds ref_best_window_start(std::span<const Seconds> times_of_day,
                              Seconds window_length) {
  if (times_of_day.empty() || window_length >= kDaySeconds) return 0;
  std::vector<Seconds> sorted(times_of_day.begin(), times_of_day.end());
  std::sort(sorted.begin(), sorted.end());
  const std::size_t m = sorted.size();
  std::vector<Seconds> doubled(sorted);
  doubled.reserve(2 * m);
  for (Seconds t : sorted) doubled.push_back(t + kDaySeconds);

  std::size_t best_count = 0;
  Seconds best_start = sorted.front();
  for (std::size_t i = 0; i < m; ++i) {
    const auto end = std::lower_bound(doubled.begin(), doubled.end(),
                                      sorted[i] + window_length);
    const auto count = static_cast<std::size_t>(end - doubled.begin()) - i;
    if (count > best_count) {
      best_count = count;
      best_start = sorted[i];
    }
  }
  return best_start;
}

std::vector<DaySchedule> ref_sporadic(const trace::Dataset& dataset,
                                      util::Rng& rng, Seconds session_length) {
  const std::size_t n = dataset.num_users();
  std::vector<DaySchedule> out(n);
  std::vector<interval::Interval> sessions;
  for (graph::UserId u = 0; u < n; ++u) {
    sessions.clear();
    for (std::uint32_t idx : dataset.trace.created_index(u)) {
      const trace::Seconds ts = dataset.trace.activity(idx).timestamp;
      const auto offset = static_cast<Seconds>(
          rng.below(static_cast<std::uint64_t>(session_length)));
      sessions.push_back({ts - offset, ts - offset + session_length});
    }
    if (!sessions.empty()) out[u] = DaySchedule::project(sessions);
  }
  return out;
}

std::vector<DaySchedule> ref_continuous(
    const trace::Dataset& dataset, util::Rng& rng,
    const std::function<Seconds(util::Rng&)>& window_length) {
  const std::size_t n = dataset.num_users();
  std::vector<DaySchedule> out(n);
  std::vector<Seconds> times;
  for (graph::UserId u = 0; u < n; ++u) {
    const Seconds len = std::min(window_length(rng), kDaySeconds);
    if (len == kDaySeconds) {
      out[u] = DaySchedule::always();
      continue;
    }
    times.clear();
    for (std::uint32_t idx : dataset.trace.created_index(u))
      times.push_back(time_of_day(dataset.trace.activity(idx).timestamp));
    const Seconds start =
        times.empty() ? static_cast<Seconds>(rng.below(kDaySeconds))
                      : ref_best_window_start(times, len);
    const interval::Interval window{start, start + len};
    out[u] = DaySchedule::project({&window, 1});
  }
  return out;
}

std::vector<DaySchedule> ref_enriched(const trace::Dataset& dataset,
                                      util::Rng& rng, Seconds session_length,
                                      double extra_sessions_per_day,
                                      double habit_stddev_hours) {
  const std::size_t n = dataset.num_users();
  const Seconds span = dataset.trace.empty()
                           ? kDaySeconds
                           : dataset.trace.max_timestamp() -
                                 dataset.trace.min_timestamp();
  const auto trace_days =
      std::max<std::int64_t>(1, (span + kDaySeconds - 1) / kDaySeconds);

  std::vector<DaySchedule> out(n);
  std::vector<interval::Interval> sessions;
  std::vector<Seconds> times;
  for (graph::UserId u = 0; u < n; ++u) {
    sessions.clear();
    times.clear();
    for (std::uint32_t idx : dataset.trace.created_index(u)) {
      const trace::Seconds ts = dataset.trace.activity(idx).timestamp;
      times.push_back(time_of_day(ts));
      const auto offset = static_cast<Seconds>(
          rng.below(static_cast<std::uint64_t>(session_length)));
      sessions.push_back({ts - offset, ts - offset + session_length});
    }
    if (times.empty()) continue;
    const Seconds habit = ref_best_window_start(times, session_length);
    const auto extra = static_cast<std::int64_t>(std::llround(
        extra_sessions_per_day * static_cast<double>(trace_days)));
    for (std::int64_t k = 0; k < extra; ++k) {
      const double center_h = static_cast<double>(habit) / 3600.0 +
                              rng.normal(0.0, habit_stddev_hours);
      const double wrapped = center_h - 24.0 * std::floor(center_h / 24.0);
      const auto start = static_cast<Seconds>(wrapped * 3600.0);
      sessions.push_back({start, start + session_length});
    }
    out[u] = DaySchedule::project(sessions);
  }
  return out;
}

/// Users 0..3 create nothing; user 4 posts three activities every 30 s
/// around the clock, so its 20-minute sessions cover the whole day; the
/// rest post 0..60 activities at random times over a week.
trace::Dataset realization_dataset() {
  constexpr std::size_t kUsers = 48;
  constexpr graph::UserId kFullDayUser = 4;
  std::vector<Activity> acts;
  for (Seconds t = 0; t < kDaySeconds; t += 30)
    for (int i = 0; i < 3; ++i)
      acts.push_back({kFullDayUser, 0, 3 * kDaySeconds + t});
  util::Rng rng(20120618);
  for (graph::UserId u = kFullDayUser + 1; u < kUsers; ++u) {
    const auto count = rng.below(61);
    for (std::uint64_t i = 0; i < count; ++i)
      acts.push_back({u, static_cast<graph::UserId>(rng.below(kUsers)),
                      static_cast<Seconds>(rng.below(7 * kDaySeconds))});
  }
  return dataset_with(std::move(acts), kUsers);
}

/// One model under test with its serial reference.
struct RealizationCase {
  std::string label;
  std::unique_ptr<OnlineTimeModel> model;
  std::function<std::vector<DaySchedule>(const trace::Dataset&, util::Rng&)>
      reference;
};

std::vector<RealizationCase> realization_cases() {
  std::vector<RealizationCase> cases;
  cases.push_back({"sporadic", make_model(ModelKind::kSporadic),
                   [](const trace::Dataset& d, util::Rng& rng) {
                     return ref_sporadic(d, rng, 20 * 60);
                   }});
  cases.push_back({"sporadic_full_day",
                   make_model(ModelKind::kSporadic,
                              {.session_length = kDaySeconds + 1}),
                   [](const trace::Dataset& d, util::Rng& rng) {
                     return ref_sporadic(d, rng, kDaySeconds + 1);
                   }});
  for (const double hours : {2.0, 8.0, 24.0}) {
    cases.push_back(
        {"fixed" + std::to_string(hours),
         make_model(ModelKind::kFixedLength, {.window_hours = hours}),
         [hours](const trace::Dataset& d, util::Rng& rng) {
           return ref_continuous(d, rng, [hours](util::Rng&) {
             return static_cast<Seconds>(std::llround(hours * 3600.0));
           });
         }});
  }
  for (const auto& range : {std::pair{2.0, 8.0}, std::pair{20.0, 24.0}}) {
    const double lo = range.first;
    const double hi = range.second;
    cases.push_back(
        {"random" + std::to_string(lo),
         make_model(ModelKind::kRandomLength,
                    {.random_min_hours = lo, .random_max_hours = hi}),
         [lo, hi](const trace::Dataset& d, util::Rng& rng) {
           return ref_continuous(d, rng, [lo, hi](util::Rng& r) {
             return static_cast<Seconds>(
                 std::llround(r.uniform(lo, hi) * 3600.0));
           });
         }});
  }
  cases.push_back({"enriched", make_model(ModelKind::kEnrichedSporadic),
                   [](const trace::Dataset& d, util::Rng& rng) {
                     return ref_enriched(d, rng, 20 * 60, 2.0, 2.0);
                   }});
  return cases;
}

TEST(ScheduleRealization, MatchesSerialReferenceForEveryModel) {
  const auto dataset = realization_dataset();
  for (const std::size_t threads : {0u, 1u, 2u, 4u, 8u}) {
    std::optional<util::ThreadPool> pool;  // threads = 0: a null pool
    if (threads > 0) pool.emplace(threads);
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      for (const auto& c : realization_cases()) {
        SCOPED_TRACE(c.label + " threads=" + std::to_string(threads) +
                     " seed=" + std::to_string(seed));
        util::Rng rng(seed);
        util::Rng ref_rng(seed);
        const auto got = c.model->schedules(dataset, rng,
                                            pool ? &*pool : nullptr);
        const auto want = c.reference(dataset, ref_rng);
        EXPECT_EQ(got, want);
        EXPECT_EQ(rng(), ref_rng()) << "rng left in a different state";
      }
    }
  }
}

TEST(ScheduleRealization, DatasetCoversEdgeCases) {
  // The oracle above is only as good as its input: users without activity
  // and a user whose sessions cover the whole day must both be present.
  const auto dataset = realization_dataset();
  util::Rng rng(1);
  const auto scheds = SporadicModel().schedules(dataset, rng);
  EXPECT_TRUE(scheds[0].empty());
  EXPECT_EQ(scheds[4], DaySchedule::always());
  EXPECT_FALSE(scheds[5].empty());
}

TEST(ScheduleRealization, PrecomputedModelPassesThrough) {
  const auto dataset = realization_dataset();
  util::Rng source_rng(5);
  const auto schedules = ref_sporadic(dataset, source_rng, 20 * 60);
  const PrecomputedModel model(schedules);
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    util::ThreadPool pool(threads);
    util::Rng rng(9);
    util::Rng untouched(9);
    EXPECT_EQ(model.schedules(dataset, rng, &pool), schedules);
    EXPECT_EQ(rng(), untouched());
  }
}

TEST(BestWindowStart, MatchesDoubledListOracleOnRandomInputs) {
  util::Rng rng(1210);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t m = 1 + rng.below(40);
    // Narrow ranges make many times collide, so ties are common.
    const std::uint64_t range =
        trial % 3 == 0 ? 1 + rng.below(50) : static_cast<std::uint64_t>(kDaySeconds);
    std::vector<Seconds> times(m);
    for (auto& t : times) t = static_cast<Seconds>(rng.below(range));
    const Seconds len = 1 + static_cast<Seconds>(rng.below(kDaySeconds + 100));
    ASSERT_EQ(best_window_start(times, len), ref_best_window_start(times, len))
        << "trial " << trial << " m=" << m << " len=" << len;
  }
}

TEST(BestWindowStart, TiesResolveToTheSmallestStart) {
  // Evenly spaced times: every start covers the same count.
  std::vector<Seconds> times;
  for (Seconds t = 6 * kH; t < kDaySeconds; t += 6 * kH) times.push_back(t);
  times.push_back(0);
  for (const Seconds len : {Seconds{1}, 2 * kH, 6 * kH, 12 * kH, Seconds{12345}}) {
    EXPECT_EQ(best_window_start(times, len), 0) << len;
    EXPECT_EQ(best_window_start(times, len), ref_best_window_start(times, len));
  }
  // Duplicates tie with each other, not with the larger start.
  const std::vector<Seconds> dup{500, 500, 900, 900};
  EXPECT_EQ(best_window_start(dup, 100), 500);
  EXPECT_EQ(best_window_start(dup, 100), ref_best_window_start(dup, 100));
}

TEST(BestWindowStart, WindowOfADayOrMoreStartsAtZero) {
  const std::vector<Seconds> times{10, 5000, 70000};
  for (const Seconds len : {kDaySeconds, kDaySeconds + 1, 3 * kDaySeconds}) {
    EXPECT_EQ(best_window_start(times, len), 0);
    EXPECT_EQ(ref_best_window_start(times, len), 0);
  }
}

}  // namespace
}  // namespace dosn::onlinetime
