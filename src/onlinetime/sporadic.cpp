#include "onlinetime/sporadic.hpp"

#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace dosn::onlinetime {

SporadicModel::SporadicModel(Seconds session_length)
    : session_length_(session_length) {
  DOSN_REQUIRE(session_length_ > 0,
               "SporadicModel: session length must be positive");
}

std::string SporadicModel::name() const {
  return util::format("Sporadic(%llds)",
                      static_cast<long long>(session_length_));
}

std::vector<DaySchedule> SporadicModel::schedules_impl(
    const trace::Dataset& dataset, util::Rng& rng,
    util::ThreadPool* pool) const {
  const std::size_t n = dataset.num_users();
  const auto bound = static_cast<std::uint64_t>(session_length_);
  // A session of a day or more covers the whole cycle wherever its offset
  // puts it, so only the draw count matters there; below a day every
  // offset fits the 4-byte buffer.
  const bool full_day = session_length_ >= interval::kDaySeconds;

  // Phase 1 (serial): one offset per created activity, users in id order,
  // activities in created_index order — the rng's consumption order.
  std::vector<std::size_t> first(n);
  std::vector<std::uint32_t> offsets;
  offsets.reserve(dataset.trace.size());  // every activity has one creator
  for (graph::UserId u = 0; u < n; ++u) {
    first[u] = offsets.size();
    const std::size_t created = dataset.trace.created_index(u).size();
    for (std::size_t j = 0; j < created; ++j) {
      const std::uint64_t offset = rng.below(bound);
      offsets.push_back(full_day ? 0 : static_cast<std::uint32_t>(offset));
    }
  }

  // Phase 2 (parallel): each user's sessions, projected into its own slot.
  // The activity sits at a uniform random point inside its session.
  std::vector<DaySchedule> out(n);
  util::parallel_for_each(pool, n, [&](std::size_t u) {
    const auto created = dataset.trace.created_index(
        static_cast<graph::UserId>(u));
    if (created.empty()) return;
    thread_local std::vector<interval::Interval> sessions;
    sessions.clear();
    for (std::size_t j = 0; j < created.size(); ++j) {
      const trace::Seconds ts = dataset.trace.activity(created[j]).timestamp;
      const auto offset = static_cast<Seconds>(offsets[first[u] + j]);
      sessions.push_back({ts - offset, ts - offset + session_length_});
    }
    out[u] = DaySchedule::project(sessions);
  });
  return out;
}

}  // namespace dosn::onlinetime
