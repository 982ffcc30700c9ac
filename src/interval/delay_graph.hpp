// Worst-case propagation delay of a replica group — pure schedule math.
//
// Given the daily schedules of a group of nodes, builds the weighted
// "replica time-connectivity graph" (paper Sec II-C3): the directed edge
// i -> j weighs the worst case, over event times in i's schedule, of the
// wait until the two can next exchange state — directly while both online
// (kDirect / the paper's ConRep) or through an always-online relay
// (kRelay / UnconRep). The group delay is the weighted diameter of the
// all-pairs shortest paths. metrics::update_propagation_delay wraps this;
// delay-aware placement policies consume it directly.
#pragma once

#include <optional>
#include <span>

#include "interval/day_schedule.hpp"

namespace dosn::interval {

enum class RendezvousMode {
  kDirect,  ///< state moves only when both nodes are online simultaneously
  kRelay,   ///< state parks at third-party storage (reader picks it up)
};

/// Worst-case one-hop delay from `source` to `target`; nullopt when the
/// pair can never exchange state.
std::optional<Seconds> pair_delay(const DaySchedule& source,
                                  const DaySchedule& target,
                                  RendezvousMode mode);

struct GroupDelayResult {
  /// Weighted diameter (seconds) over participating nodes.
  Seconds diameter = 0;
  /// Index (into the input span) of the receiving node of the worst pair.
  std::size_t worst_target = 0;
  /// False when some ordered pair has no route.
  bool fully_connected = true;
  /// Nodes with non-empty schedules (empty ones never exchange anything
  /// and are excluded).
  std::size_t participants = 0;
};

/// Diameter of the group's delay graph (Floyd–Warshall; groups are tiny).
/// Fewer than two participants yield a zero diameter.
GroupDelayResult group_delay(std::span<const DaySchedule> nodes,
                             RendezvousMode mode);

/// Incrementally maintained group_delay over a growing node sequence.
///
/// After i push() calls, result() is identical (bit for bit) to
/// group_delay(span of those i nodes, mode). The study engine evaluates
/// every replication prefix 0..k of a selection, so recomputing the
/// all-pairs matrix per prefix costs O(k^2) pair_delay edge computations
/// per prefix — O(k^3) total, with pair_delay (interval algebra) the
/// expensive part. Growing the matrix one node at a time computes each
/// edge exactly once: adding node v sets dist(i,v) = min_j dist(i,j) +
/// edge(j,v) and dist(v,j) symmetrically, then relaxes old pairs through
/// v — exact for nonnegative weights, because a shortest path in the new
/// graph either avoids v (old distance) or passes through v once.
class IncrementalGroupDelay {
 public:
  explicit IncrementalGroupDelay(RendezvousMode mode) : mode_(mode) {}

  /// Appends the next node. Empty schedules are recorded (they keep their
  /// slot in the input indexing) but never participate.
  void push(const DaySchedule& node);

  /// Returns to the empty state (as freshly constructed with `mode`) while
  /// keeping buffer capacity, so per-worker loops can reuse one instance across
  /// many users without reallocating the matrix per user.
  void reset(RendezvousMode mode);

  /// Equivalent of group_delay over every node pushed so far.
  GroupDelayResult result() const;

  std::size_t pushed() const { return pushed_; }

 private:
  Seconds at(std::size_t i, std::size_t j) const {
    return dist_[i * participants_.size() + j];
  }

  RendezvousMode mode_;
  std::size_t pushed_ = 0;
  std::vector<DaySchedule> participants_;  // non-empty pushed nodes
  std::vector<std::size_t> index_;         // their slots in push order
  std::vector<Seconds> dist_;              // shortest delays, row-major
  // push() scratch, kept as members so steady-state pushes are
  // allocation-free once the buffers have warmed up.
  std::vector<Seconds> edge_to_, edge_from_;
  std::vector<Seconds> dist_to_, dist_from_;
  std::vector<Seconds> next_;
};

}  // namespace dosn::interval
