// Per-user metric evaluation: one user, one replica configuration, all of
// the paper's efficiency metrics at once.
#pragma once

#include <span>
#include <vector>

#include "interval/day_schedule.hpp"
#include "metrics/availability.hpp"
#include "metrics/delay.hpp"
#include "trace/dataset.hpp"

namespace dosn::sim {

using interval::DaySchedule;

/// All Sec II-C metrics for one user under one replica configuration.
struct UserMetrics {
  double availability = 0.0;
  double max_availability = 0.0;  ///< F2F upper bound (all contacts)
  double aod_time = 0.0;
  double aod_activity = 0.0;
  double aod_activity_expected = 0.0;
  double aod_activity_unexpected = 0.0;
  double delay_actual_h = 0.0;
  double delay_observed_h = 0.0;
  double replicas_used = 0.0;  ///< realized replication degree
};

/// Evaluates user `u` hosting replicas at `replica_holders` (selection
/// prefix of a policy). `schedules` spans every user in the dataset.
UserMetrics evaluate_user(const trace::Dataset& dataset,
                          std::span<const DaySchedule> schedules,
                          graph::UserId u,
                          std::span<const graph::UserId> replica_holders,
                          placement::Connectivity connectivity);

/// Evaluates user `u` at every replication prefix of `selected` at once:
/// element k of the result equals
/// evaluate_user(dataset, schedules, u, selected[0..min(k, |selected|)), c)
/// bit for bit, for k = 0..k_max. One pass shares the work the per-prefix
/// evaluation repeats: contacts, the demand union, and the availability
/// bound are computed once; the profile union grows incrementally; each
/// activity is classified once (the smallest prefix that serves it, which
/// is monotone because the profile only grows); and the delay graph grows
/// one node per prefix instead of being rebuilt (DelayPrefixEvaluator).
std::vector<UserMetrics> evaluate_user_prefixes(
    const trace::Dataset& dataset, std::span<const DaySchedule> schedules,
    graph::UserId u, std::span<const graph::UserId> selected,
    placement::Connectivity connectivity, std::size_t k_max);

/// Reusable buffers for the allocation-free evaluate_user_prefixes
/// overload: one instance per worker, reused across every user it evaluates,
/// so steady-state evaluation does not allocate once the buffers have
/// warmed up. Default-constructed cold; contents are overwritten per call.
struct EvalScratch {
  interval::IntervalSet profile;      ///< growing replica-prefix union
  interval::IntervalSet demand;       ///< union of the contacts' schedules
  interval::IntervalSet max_profile;  ///< demand ∪ owner (F2F bound)
  std::vector<interval::Interval> unite_scratch;
  std::vector<std::size_t> expected_at;
  std::vector<std::size_t> unexpected_at;
  /// Reset per user; the placeholder construction is never queried.
  metrics::DelayPrefixEvaluator delay{DaySchedule{},
                                      placement::Connectivity::kConRep};
};

/// Allocation-free evaluate_user_prefixes: identical rows (bit for bit),
/// written into `out` (cleared first) using only `scratch`'s buffers. The
/// allocating overload above is a thin wrapper over this one.
void evaluate_user_prefixes(const trace::Dataset& dataset,
                            std::span<const DaySchedule> schedules,
                            graph::UserId u,
                            std::span<const graph::UserId> selected,
                            placement::Connectivity connectivity,
                            std::size_t k_max, EvalScratch& scratch,
                            std::vector<UserMetrics>& out);

}  // namespace dosn::sim
