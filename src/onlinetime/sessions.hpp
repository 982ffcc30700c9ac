// Real session logs as online-time input.
//
// The online-time models exist because the paper's traces lack session
// data. When real session logs *are* available (e.g. the instant-messenger
// availability dataset of the paper's related work [19]), they can be
// loaded directly: one session per line, `<user> <start_ts> <end_ts>`
// (absolute seconds, '#'/'%' comments), projected onto the daily cycle.
// PrecomputedModel wraps such schedules behind the OnlineTimeModel
// interface so they drive the same Study sweeps as the synthetic models.
#pragma once

#include "onlinetime/model.hpp"
#include "trace/parsers.hpp"

namespace dosn::onlinetime {

/// Parses a session file; `ids` maps external tokens to dense UserIds
/// (share it with the graph/trace loaders). Returns one schedule per dense
/// id in [0, num_users); users without sessions stay empty. Sessions of
/// users with id >= num_users are rejected.
std::vector<DaySchedule> load_session_schedules(const std::string& path,
                                                trace::IdMap& ids,
                                                std::size_t num_users);

/// Writes a session file readable by load_session_schedules: each daily
/// piece of each schedule becomes one session on day 0.
void save_session_schedules(const std::string& path,
                            std::span<const DaySchedule> schedules);

/// Fixed, externally supplied schedules behind the model interface.
class PrecomputedModel final : public OnlineTimeModel {
 public:
  explicit PrecomputedModel(std::vector<DaySchedule> schedules,
                            std::string label = "Precomputed");

  std::string name() const override { return label_; }
  std::vector<DaySchedule> schedules_impl(
      const trace::Dataset& dataset, util::Rng& rng,
      util::ThreadPool* pool) const override;

 private:
  std::vector<DaySchedule> schedules_;
  std::string label_;
};

}  // namespace dosn::onlinetime
