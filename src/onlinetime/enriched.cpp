#include "onlinetime/enriched.hpp"

#include <cmath>

#include "onlinetime/continuous.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace dosn::onlinetime {

using interval::kDaySeconds;
using interval::time_of_day;

EnrichedSporadicModel::EnrichedSporadicModel(Seconds session_length,
                                             double extra_sessions_per_day,
                                             double habit_stddev_hours)
    : session_length_(session_length),
      extra_sessions_per_day_(extra_sessions_per_day),
      habit_stddev_hours_(habit_stddev_hours) {
  DOSN_REQUIRE(session_length_ > 0,
               "EnrichedSporadicModel: session length must be positive");
  DOSN_REQUIRE(extra_sessions_per_day_ >= 0.0,
               "EnrichedSporadicModel: extra sessions must be >= 0");
  DOSN_REQUIRE(habit_stddev_hours_ > 0.0,
               "EnrichedSporadicModel: habit spread must be positive");
}

std::string EnrichedSporadicModel::name() const {
  return util::format("EnrichedSporadic(%llds,+%.1f/day)",
                      static_cast<long long>(session_length_),
                      extra_sessions_per_day_);
}

std::vector<DaySchedule> EnrichedSporadicModel::schedules_impl(
    const trace::Dataset& dataset, util::Rng& rng,
    util::ThreadPool* pool) const {
  const std::size_t n = dataset.num_users();
  const Seconds span = dataset.trace.empty()
                           ? kDaySeconds
                           : dataset.trace.max_timestamp() -
                                 dataset.trace.min_timestamp();
  const auto trace_days =
      std::max<std::int64_t>(1, (span + kDaySeconds - 1) / kDaySeconds);
  const auto extra = static_cast<std::int64_t>(std::llround(
      extra_sessions_per_day_ * static_cast<double>(trace_days)));
  const auto bound = static_cast<std::uint64_t>(session_length_);
  // As in SporadicModel: a session of a day or more covers the cycle
  // whatever its offset, and a shorter one's offset fits 4 bytes.
  const bool full_day = session_length_ >= kDaySeconds;

  // Phase 1 (serial): per user with activity, in id order, one offset per
  // created activity and then the `extra` habit deviations — the rng's
  // consumption order. A deviation does not depend on the habit, so it
  // can be drawn before the habit is known.
  std::vector<std::size_t> first_offset(n);
  std::vector<std::size_t> first_normal(n);
  std::vector<std::uint32_t> offsets;
  offsets.reserve(dataset.trace.size());  // every activity has one creator
  std::vector<double> normals;
  for (graph::UserId u = 0; u < n; ++u) {
    first_offset[u] = offsets.size();
    first_normal[u] = normals.size();
    const std::size_t created = dataset.trace.created_index(u).size();
    if (created == 0) continue;  // no signal about this user at all
    for (std::size_t j = 0; j < created; ++j) {
      const std::uint64_t offset = rng.below(bound);
      offsets.push_back(full_day ? 0 : static_cast<std::uint32_t>(offset));
    }
    for (std::int64_t k = 0; k < extra; ++k)
      normals.push_back(rng.normal(0.0, habit_stddev_hours_));
  }

  // Phase 2 (parallel): each user's schedule from the recorded draws.
  std::vector<DaySchedule> out(n);
  util::parallel_for_each(pool, n, [&](std::size_t u) {
    const auto created = dataset.trace.created_index(
        static_cast<graph::UserId>(u));
    if (created.empty()) return;
    thread_local std::vector<interval::Interval> sessions;
    thread_local std::vector<Seconds> times;
    sessions.clear();
    times.clear();

    // Activity-anchored sessions, as in the plain Sporadic model.
    for (std::size_t j = 0; j < created.size(); ++j) {
      const trace::Seconds ts = dataset.trace.activity(created[j]).timestamp;
      times.push_back(time_of_day(ts));
      const auto offset = static_cast<Seconds>(offsets[first_offset[u] + j]);
      sessions.push_back({ts - offset, ts - offset + session_length_});
    }

    // Passive sessions clustered around the user's diurnal habit.
    const Seconds habit = best_window_start(times, session_length_);
    for (std::int64_t k = 0; k < extra; ++k) {
      const double center_h =
          static_cast<double>(habit) / 3600.0 +
          normals[first_normal[u] + static_cast<std::size_t>(k)];
      const double wrapped = center_h - 24.0 * std::floor(center_h / 24.0);
      const auto start = static_cast<Seconds>(wrapped * 3600.0);
      sessions.push_back({start, start + session_length_});
    }
    out[u] = DaySchedule::project(sessions);
  });
  return out;
}

}  // namespace dosn::onlinetime
