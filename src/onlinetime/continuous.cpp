#include "onlinetime/continuous.hpp"

#include <algorithm>
#include <cmath>

#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace dosn::onlinetime {

using interval::kDaySeconds;
using interval::time_of_day;

Seconds best_window_start(std::span<const Seconds> times_of_day,
                          Seconds window_length) {
  DOSN_REQUIRE(window_length > 0, "best_window_start: empty window");
  if (times_of_day.empty() || window_length >= kDaySeconds) return 0;

  // Some maximal window starts exactly at an activity time, so it suffices
  // to evaluate those candidates. Over the sorted times t, the window from
  // t[i] covers the circularly doubled list t[0..m) ++ t[0..m) + day from
  // index i up to (not including) the first entry >= t[i] + length. That
  // end index only grows with i, so one two-pointer sweep finds them all.
  thread_local std::vector<Seconds> sorted;
  sorted.assign(times_of_day.begin(), times_of_day.end());
  std::sort(sorted.begin(), sorted.end());
  const std::size_t m = sorted.size();
  const auto doubled = [&](std::size_t k) {
    return k < m ? sorted[k] : sorted[k - m] + kDaySeconds;
  };

  std::size_t best_count = 0;
  Seconds best_start = sorted.front();
  std::size_t end = 0;
  for (std::size_t i = 0; i < m; ++i) {
    // Stops by index i + m at the latest: t[i] + day > t[i] + length.
    const Seconds limit = sorted[i] + window_length;
    while (doubled(end) < limit) ++end;
    const std::size_t count = end - i;
    if (count > best_count) {  // strict: the smallest start wins ties
      best_count = count;
      best_start = sorted[i];
    }
  }
  return best_start;
}

std::vector<DaySchedule> ContinuousModel::schedules_impl(
    const trace::Dataset& dataset, util::Rng& rng,
    util::ThreadPool* pool) const {
  const std::size_t n = dataset.num_users();

  // Phase 1 (serial): per user in id order, the window length, then a
  // uniform start for a user without activity whose window is shorter
  // than a day — the rng's consumption order. Both fit 4 bytes (at most
  // one day).
  struct Draw {
    std::uint32_t length = 0;
    std::uint32_t start = 0;  // used only by users without activity
  };
  std::vector<Draw> draws(n);
  for (graph::UserId u = 0; u < n; ++u) {
    const Seconds len = std::min(window_length(u, rng), kDaySeconds);
    DOSN_ASSERT(len > 0);
    draws[u].length = static_cast<std::uint32_t>(len);
    if (len < kDaySeconds && dataset.trace.created_index(u).empty())
      draws[u].start = static_cast<std::uint32_t>(rng.below(kDaySeconds));
  }

  // Phase 2 (parallel): each user's window over the activity mode.
  std::vector<DaySchedule> out(n);
  util::parallel_for_each(pool, n, [&](std::size_t u) {
    const Seconds len = draws[u].length;
    if (len == kDaySeconds) {
      out[u] = DaySchedule::always();
      return;
    }
    const auto created = dataset.trace.created_index(
        static_cast<graph::UserId>(u));
    Seconds start = draws[u].start;
    if (!created.empty()) {
      thread_local std::vector<Seconds> times;
      times.clear();
      for (std::uint32_t idx : created)
        times.push_back(time_of_day(dataset.trace.activity(idx).timestamp));
      start = best_window_start(times, len);
    }
    const interval::Interval window{start, start + len};
    out[u] = DaySchedule::project({&window, 1});
  });
  return out;
}

FixedLengthModel::FixedLengthModel(double window_hours)
    : window_hours_(window_hours) {
  DOSN_REQUIRE(window_hours > 0.0 && window_hours <= 24.0,
               "FixedLengthModel: window must be in (0, 24] hours");
}

std::string FixedLengthModel::name() const {
  return util::format("FixedLength(%gh)", window_hours_);
}

Seconds FixedLengthModel::window_length(graph::UserId, util::Rng&) const {
  return static_cast<Seconds>(std::llround(window_hours_ * 3600.0));
}

RandomLengthModel::RandomLengthModel(double min_hours, double max_hours)
    : min_hours_(min_hours), max_hours_(max_hours) {
  DOSN_REQUIRE(min_hours > 0.0 && max_hours <= 24.0 && min_hours <= max_hours,
               "RandomLengthModel: invalid hour range");
}

std::string RandomLengthModel::name() const {
  return util::format("RandomLength(%g-%gh)", min_hours_, max_hours_);
}

Seconds RandomLengthModel::window_length(graph::UserId, util::Rng& rng) const {
  return static_cast<Seconds>(
      std::llround(rng.uniform(min_hours_, max_hours_) * 3600.0));
}

}  // namespace dosn::onlinetime
