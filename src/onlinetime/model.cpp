#include "onlinetime/model.hpp"

#include "onlinetime/continuous.hpp"
#include "onlinetime/enriched.hpp"
#include "onlinetime/sporadic.hpp"
#include "util/check.hpp"

namespace dosn::onlinetime {

std::vector<DaySchedule> OnlineTimeModel::schedules(
    const trace::Dataset& dataset, util::Rng& rng,
    util::ThreadPool* pool) const {
  std::vector<DaySchedule> out = schedules_impl(dataset, rng, pool);
  DOSN_CHECK(out.size() == dataset.num_users(), name(), ": produced ",
             out.size(), " schedules for ", dataset.num_users(), " users");
  return out;
}

std::unique_ptr<OnlineTimeModel> make_model(ModelKind kind,
                                            const ModelParams& params) {
  switch (kind) {
    case ModelKind::kSporadic:
      return std::make_unique<SporadicModel>(params.session_length);
    case ModelKind::kFixedLength:
      return std::make_unique<FixedLengthModel>(params.window_hours);
    case ModelKind::kRandomLength:
      return std::make_unique<RandomLengthModel>(params.random_min_hours,
                                                 params.random_max_hours);
    case ModelKind::kEnrichedSporadic:
      return std::make_unique<EnrichedSporadicModel>(
          params.session_length, params.extra_sessions_per_day,
          params.habit_stddev_hours);
  }
  throw ConfigError("make_model: unknown model kind");
}

std::string to_string(ModelKind kind) {
  switch (kind) {
    case ModelKind::kSporadic: return "Sporadic";
    case ModelKind::kFixedLength: return "FixedLength";
    case ModelKind::kRandomLength: return "RandomLength";
    case ModelKind::kEnrichedSporadic: return "EnrichedSporadic";
  }
  return "?";
}

}  // namespace dosn::onlinetime
