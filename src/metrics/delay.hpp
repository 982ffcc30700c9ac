// Update-propagation delay (Sec II-C3 of the paper).
//
// Replicas of one profile form a weighted "replica time-connectivity
// graph": vertices are the owner plus the replica holders; under ConRep an
// edge joins two vertices whose daily schedules overlap and its weight is
// the worst case, over update times t in the source's online time, of the
// wait until the next instant both are online (for single daily intervals
// this is the paper's `24h − overlap`). Updates travel along multi-hop
// shortest paths; the user's Update Propagation Delay is the weight of the
// longest of the all-pairs shortest paths (the graph's weighted diameter),
// i.e. the worst-case time for an update to reach every replica.
//
// Under UnconRep replicas exchange updates through third-party storage, so
// every ordered pair (i, j) has a direct edge weighing the worst case, over
// t in OT_i, of the wait until j is next online (upload is immediate — the
// creator is online when updating).
//
// The *observed* delay excludes the reader's offline time: of an actual
// delay D ending at a replica j, only the part of D during which j was
// online is experienced by j. We report the worst case over alignments of
// a window of length D ending at an online instant of j.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "interval/day_schedule.hpp"
#include "interval/delay_graph.hpp"
#include "placement/policy.hpp"

namespace dosn::metrics {

using interval::DaySchedule;
using interval::Seconds;
using placement::Connectivity;

struct DelayResult {
  /// Weighted diameter in seconds: worst-case end-to-end (actual) delay.
  Seconds actual = 0;
  /// Worst-case observed delay (seconds of reader online time) for the
  /// diameter pair.
  Seconds observed = 0;
  /// False when some replica pair cannot exchange updates at all (then the
  /// delays cover only the reachable pairs).
  bool fully_connected = true;
  /// Number of vertices that participated (owner + non-empty replicas).
  std::size_t nodes = 0;

  double actual_hours() const { return static_cast<double>(actual) / 3600.0; }
  double observed_hours() const {
    return static_cast<double>(observed) / 3600.0;
  }
};

/// Worst-case delay of one direct exchange from `source` to `target`
/// (ConRep: via their rendezvous overlap; UnconRep: via the relay).
/// nullopt when no exchange is ever possible.
std::optional<Seconds> edge_delay(const DaySchedule& source,
                                  const DaySchedule& target,
                                  Connectivity connectivity);

/// Update propagation delay for one user's replica configuration. Replicas
/// with empty schedules can never exchange updates and are excluded (they
/// also cannot be selected by ConRep placement). With fewer than two
/// participating vertices the delay is zero.
DelayResult update_propagation_delay(const DaySchedule& owner,
                                     std::span<const DaySchedule> replicas,
                                     Connectivity connectivity);

/// Worst observed (reader-online) delay at `reader` for an actual delay of
/// `actual` seconds: max over windows of that length ending at an online
/// instant of the reader. Exposed for testing.
Seconds worst_observed_delay(const DaySchedule& reader, Seconds actual);

/// update_propagation_delay over growing replica prefixes. After pushing
/// replicas r_0..r_{i-1}, result() is identical (bit for bit) to
/// update_propagation_delay(owner, {r_0..r_{i-1}}, connectivity), but the
/// whole prefix sequence costs one pair_delay per ordered node pair instead
/// of one per pair per prefix.
class DelayPrefixEvaluator {
 public:
  DelayPrefixEvaluator(const DaySchedule& owner, Connectivity connectivity);

  /// Appends the next replica of the selection order.
  void push(const DaySchedule& replica);

  /// Restarts the evaluator for a new owner (as freshly constructed) while
  /// keeping buffer capacity — lets one instance serve a worker's users.
  void reset(const DaySchedule& owner, Connectivity connectivity);

  /// Delay metrics for the owner plus every replica pushed so far.
  DelayResult result() const;

 private:
  std::vector<DaySchedule> nodes_;  ///< owner first, then pushed replicas
  interval::IncrementalGroupDelay group_;
};

}  // namespace dosn::metrics
