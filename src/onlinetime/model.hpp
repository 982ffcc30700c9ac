// User online-time models (Sec IV-C of the paper).
//
// The traces record *activities*, not sessions, so the study approximates
// each user's daily online schedule OT_u from his activity timestamps.
// Three models are defined:
//
//   * Sporadic          — one fixed-length session per activity, the
//                         activity placed uniformly at random inside it;
//                         the paper's most realistic model (default 20 min).
//   * FixedLength       — one continuous daily window of a fixed length
//                         (2/4/6/8 h), positioned over the user's activity
//                         mode ("centered around the majority of their
//                         activity times").
//   * RandomLength      — FixedLength with a per-user window length drawn
//                         uniformly from [2 h, 8 h].
//
// A model maps a whole dataset to one DaySchedule per user.
//
// The synthetic models realize schedules in two phases (DESIGN.md §7).
// Phase 1 walks the users in id order on the calling thread and consumes
// the caller's rng exactly as a plain serial loop would, recording every
// draw in a flat buffer (Rng::below uses rejection sampling, so draws
// cannot be skipped ahead; they are replayed in order). Phase 2 builds
// each user's DaySchedule into its own slot from those recorded draws, in
// parallel over the caller's pool. The output, and the rng's final state,
// do not depend on the pool or its thread count.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "interval/day_schedule.hpp"
#include "trace/dataset.hpp"
#include "util/rng.hpp"

namespace dosn::util {
class ThreadPool;
}  // namespace dosn::util

namespace dosn::onlinetime {

using interval::DaySchedule;
using interval::Seconds;

class OnlineTimeModel {
 public:
  virtual ~OnlineTimeModel() = default;

  virtual std::string name() const = 0;

  /// True when the model itself draws random choices that the paper's
  /// methodology averages over repetitions (RandomLength).
  virtual bool randomized() const { return false; }

  /// One daily schedule per user of the dataset.
  ///
  /// Non-virtual template method: runs the model's schedules_impl and
  /// DOSN_CHECKs the schedule contract — exactly one DaySchedule per user
  /// of the dataset (each DaySchedule already enforces the within-day
  /// invariant on construction). A model returning the wrong number of
  /// schedules would silently misalign every UserId-indexed lookup.
  ///
  /// `pool` runs the per-user build phase; null runs it serially on the
  /// calling thread. The result is bit-identical either way.
  std::vector<DaySchedule> schedules(const trace::Dataset& dataset,
                                     util::Rng& rng,
                                     util::ThreadPool* pool = nullptr) const;

 protected:
  /// Model-specific generation; see schedules() for the enforced contract.
  virtual std::vector<DaySchedule> schedules_impl(
      const trace::Dataset& dataset, util::Rng& rng,
      util::ThreadPool* pool) const = 0;
};

enum class ModelKind {
  kSporadic,          ///< session per activity (paper Sec IV-C1)
  kFixedLength,       ///< fixed daily window over the activity mode (C2)
  kRandomLength,      ///< per-user window length in [2, 8] h (C3)
  kEnrichedSporadic,  ///< Sporadic + passive-presence sessions (extension)
};

struct ModelParams {
  /// Sporadic: session length in seconds (paper default: 20 min).
  Seconds session_length = 20 * 60;
  /// FixedLength: daily window length in hours (paper: 2, 4, 6, 8).
  double window_hours = 8.0;
  /// RandomLength: per-user window drawn uniformly from this range (hours).
  double random_min_hours = 2.0;
  double random_max_hours = 8.0;
  /// EnrichedSporadic: passive sessions added per trace day, and the
  /// spread (hours) of their placement around the user's diurnal habit.
  double extra_sessions_per_day = 2.0;
  double habit_stddev_hours = 2.0;
};

std::unique_ptr<OnlineTimeModel> make_model(ModelKind kind,
                                            const ModelParams& params = {});

std::string to_string(ModelKind kind);

}  // namespace dosn::onlinetime
