// Sporadic online-time model: one session per activity.
#pragma once

#include "onlinetime/model.hpp"

namespace dosn::onlinetime {

/// For every activity a user *created*, the user is online for one session
/// of fixed length containing the activity at a uniformly random offset;
/// all sessions are projected onto the daily cycle and unioned.
class SporadicModel final : public OnlineTimeModel {
 public:
  explicit SporadicModel(Seconds session_length = 20 * 60);

  std::string name() const override;
  std::vector<DaySchedule> schedules_impl(
      const trace::Dataset& dataset, util::Rng& rng,
      util::ThreadPool* pool) const override;

  Seconds session_length() const { return session_length_; }

 private:
  Seconds session_length_;
};

}  // namespace dosn::onlinetime
