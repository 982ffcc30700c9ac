// EnrichedSporadic: sporadic sessions plus passive-presence sessions
// (extension).
//
// The paper notes (Sec IV) that the traces record only one activity type
// and that "considering an even richer set of activities like passive
// profile viewing, personal communication or chats ... would increase the
// user's online time and thus availability of his profile". This model
// quantifies that: on top of the activity-anchored Sporadic sessions, each
// user gets `extra_sessions_per_day` additional sessions per trace day,
// placed around his diurnal habit (the mode of his activity times), i.e.
// browsing without posting.
#pragma once

#include "onlinetime/model.hpp"

namespace dosn::onlinetime {

class EnrichedSporadicModel final : public OnlineTimeModel {
 public:
  EnrichedSporadicModel(Seconds session_length = 20 * 60,
                        double extra_sessions_per_day = 2.0,
                        double habit_stddev_hours = 2.0);

  std::string name() const override;
  bool randomized() const override { return true; }  // extra sessions drawn
  std::vector<DaySchedule> schedules_impl(
      const trace::Dataset& dataset, util::Rng& rng,
      util::ThreadPool* pool) const override;

 private:
  Seconds session_length_;
  double extra_sessions_per_day_;
  double habit_stddev_hours_;
};

}  // namespace dosn::onlinetime
