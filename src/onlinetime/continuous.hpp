// Continuous online-time models: one daily window per user, positioned over
// the user's activity mode.
#pragma once

#include "onlinetime/model.hpp"

namespace dosn::onlinetime {

/// Places a single daily window of `window(u)` seconds so that it covers as
/// many of the user's created-activity times-of-day as possible (the
/// paper's "centered around the majority of their activity times"). Users
/// without activities receive a uniformly random window position.
class ContinuousModel : public OnlineTimeModel {
 public:
  std::vector<DaySchedule> schedules_impl(
      const trace::Dataset& dataset, util::Rng& rng,
      util::ThreadPool* pool) const final;

 protected:
  /// Window length for user u (may consult rng — RandomLength does).
  virtual Seconds window_length(graph::UserId u, util::Rng& rng) const = 0;
};

/// All users share one fixed window length (paper: 2, 4, 6 or 8 hours).
class FixedLengthModel final : public ContinuousModel {
 public:
  explicit FixedLengthModel(double window_hours = 8.0);

  std::string name() const override;
  double window_hours() const { return window_hours_; }

 protected:
  Seconds window_length(graph::UserId u, util::Rng& rng) const override;

 private:
  double window_hours_;
};

/// Each user draws his own window length uniformly from [min, max] hours.
class RandomLengthModel final : public ContinuousModel {
 public:
  RandomLengthModel(double min_hours = 2.0, double max_hours = 8.0);

  std::string name() const override;
  bool randomized() const override { return true; }

 protected:
  Seconds window_length(graph::UserId u, util::Rng& rng) const override;

 private:
  double min_hours_;
  double max_hours_;
};

/// Exposed for testing: the best window start (seconds, time-of-day) for a
/// circular multiset of activity times-of-day. Ties resolve to the smallest
/// start; activity times are weighted equally.
Seconds best_window_start(std::span<const Seconds> times_of_day,
                          Seconds window_length);

}  // namespace dosn::onlinetime
