// Event-driven simulation of one profile's replica group.
//
// The analytic delay metric (src/metrics) computes worst cases from the
// periodic schedules; this simulator *executes* the same system — nodes
// churn according to their daily schedules, replicas exchange state
// whenever they are simultaneously online (ConRep) or through an
// always-online relay (UnconRep) — and measures realized propagation
// delays and availability. It both cross-validates the analytic engine
// (empirical delay <= analytic worst case; empirical max approaches it)
// and carries the eventual-consistency layer of the core library.
//
// Synchronization model: pairwise anti-entropy with zero transfer latency.
// Every pair of simultaneously-online replicas is "connected in time", so
// at any instant all online replicas share one state; a node joining the
// online group merges its state bidirectionally, a node leaving keeps a
// snapshot. Under UnconRep the shared store is persistent (the relay).
#pragma once

#include <optional>
#include <vector>

#include "interval/day_schedule.hpp"
#include "net/event_queue.hpp"
#include "net/fault.hpp"
#include "placement/policy.hpp"

namespace dosn::net {

using interval::DaySchedule;
using interval::Seconds;
using placement::Connectivity;

/// Node failure at `at`: crash-stop when `recover_at` is absent (the node
/// goes offline for good; its held state survives on disk but never syncs
/// again), transient otherwise (the node resumes its schedule at
/// `recover_at` and re-merges the state it held when it went down at its
/// next session).
struct NodeFailure {
  std::size_t node = 0;
  SimTime at = 0;
  std::optional<SimTime> recover_at;
};

struct ReplicaSimConfig {
  Connectivity connectivity = Connectivity::kConRep;
  /// Simulation horizon in days (schedules repeat daily).
  int horizon_days = 14;
  /// Injected node failures (merged into `faults` as node outages).
  std::vector<NodeFailure> failures;
  /// Injected faults: session churn, node outages, and — under UnconRep —
  /// relay outage windows during which the persistent store is
  /// unreachable (the group falls back to ConRep semantics and re-merges
  /// with the relay when it returns). The zero plan with no failures
  /// reproduces the unfaulted simulation bit for bit.
  FaultPlan faults;
};

/// One update to inject. `origin` indexes the simulated node list. If the
/// origin is offline at `time`, it holds the update locally and shares it
/// when it next comes online (a user writing his own profile offline).
struct UpdateSpec {
  SimTime time = 0;
  std::size_t origin = 0;
};

/// Delivery record of one update: arrival time per node (nullopt = never
/// delivered within the horizon). arrival[origin] is the injection time.
struct UpdateDelivery {
  SimTime creation = 0;
  std::size_t origin = 0;
  std::vector<std::optional<SimTime>> arrival;
};

struct ReplicaSimReport {
  std::vector<UpdateDelivery> deliveries;
  /// Worst realized propagation delay across updates and nodes (seconds).
  Seconds max_delay = 0;
  /// Mean realized delay over delivered (update, node) pairs.
  double mean_delay = 0.0;
  /// True when every update reached every node with a non-empty schedule.
  bool all_delivered = true;
  /// Fraction of the horizon during which >= 1 node was online.
  double empirical_availability = 0.0;
  /// Events processed (diagnostics).
  std::uint64_t events = 0;
};

/// Simulates `nodes` (index 0 is conventionally the owner) for the given
/// horizon, injecting `updates`, and reports realized delays. Updates must
/// be sorted by time and lie within the horizon.
ReplicaSimReport simulate_replica_group(std::span<const DaySchedule> nodes,
                                        std::span<const UpdateSpec> updates,
                                        const ReplicaSimConfig& config);

/// The instants a ConRep write by node 0 can become durable: node 0's
/// realized sessions intersected with the union of every other node's,
/// under the fault realization simulate_replica_group builds for the same
/// `config` (its `faults`, with `failures` folded into node outages).
///
/// Until node 0 meets another node online it is the update's only
/// holder, and anti-entropy passes state only between co-online replicas;
/// the simulator's equal-time order (offline, then online, then update)
/// is the half-open intersection, and a midnight-split session leaves and
/// rejoins at one instant like the merged piece. So for an update node 0
/// creates at `t`, first_non_origin_arrival of its simulated delivery is
/// exactly `surface.next_at_or_after(t)`. Publishes the same `net.fault.*`
/// totals as the simulator; requires ConRep and a non-empty node list.
interval::IntervalSet conrep_delivery_surface(
    std::span<const DaySchedule* const> nodes, const ReplicaSimConfig& config);
interval::IntervalSet conrep_delivery_surface(
    std::span<const DaySchedule> nodes, const ReplicaSimConfig& config);

/// Earliest arrival of the update at any node other than its origin —
/// the instant the write becomes durable beyond the writer's own copy.
/// nullopt when no other node received it within the horizon (or the
/// group has no other node).
std::optional<SimTime> first_non_origin_arrival(const UpdateDelivery& delivery);

/// Draws `count` update times uniformly inside `origin`'s online time over
/// the horizon (what the analytic metric assumes can happen), with the
/// origin cycling over the given candidates. Helper for validation runs.
std::vector<UpdateSpec> updates_within_schedules(
    std::span<const DaySchedule> nodes, std::size_t count, int horizon_days,
    util::Rng& rng);

}  // namespace dosn::net
