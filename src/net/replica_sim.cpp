#include "net/replica_sim.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "util/stats.hpp"

namespace dosn::net {

using interval::kDaySeconds;

namespace {

/// Per-run totals, flushed once per simulate_replica_group call so the
/// event loop itself carries no instrumentation cost.
inline constexpr std::int64_t kGroupSizeBounds[] = {1, 2, 4, 8, 16, 32, 64};

struct SimMetrics {
  obs::Counter& runs =
      obs::Registry::global().counter("net.replica_sim.runs");
  obs::Counter& updates =
      obs::Registry::global().counter("net.replica_sim.updates");
  obs::Counter& deliveries =
      obs::Registry::global().counter("net.replica_sim.deliveries");
  obs::Histogram& group_size = obs::Registry::global().histogram(
      "net.replica_sim.group_size", kGroupSizeBounds);
};

SimMetrics& sim_metrics() {
  static SimMetrics m;
  return m;
}

// Equal-time ordering: relay transitions run first (half-open outage
// windows: the relay is down at the window start and back at its end,
// before any join at the same instant), then offline transitions
// (half-open intervals: a node is not online at its interval end), then
// online transitions, then update injections (an update at the instant a
// node comes online is received by it).
enum class EventKind {
  kRelayDown = 0,
  kRelayUp = 1,
  kOffline = 2,
  kOnline = 3,
  kUpdate = 4,
};

struct RawEvent {
  SimTime time;
  EventKind kind;
  std::size_t node;
  std::size_t update = 0;  // for kUpdate
};

class GroupState {
 public:
  GroupState(std::size_t nodes, std::size_t updates, bool persistent_store)
      : persistent_(persistent_store),
        known_(nodes, std::vector<bool>(updates, false)),
        group_(updates, false),
        relay_(updates, false),
        online_(nodes, false) {}

  bool online(std::size_t i) const { return online_[i]; }

  /// Node i joins the online group at time t; returns for each side the
  /// newly learned updates via `record`.
  template <typename Record>
  void join(std::size_t i, SimTime t, Record&& record) {
    DOSN_ASSERT(!online_[i]);
    if (online_count_ == 0 && !durable()) group_.assign(group_.size(), false);
    // Updates the group learns from i reach every online member now.
    for (std::size_t u = 0; u < group_.size(); ++u) {
      if (known_[i][u] && !group_[u]) {
        group_[u] = true;
        for (std::size_t j = 0; j < known_.size(); ++j)
          if (online_[j]) record(j, u, t);
      } else if (!known_[i][u] && group_[u]) {
        record(i, u, t);
      }
    }
    online_[i] = true;
    ++online_count_;
    known_[i] = group_;
    sync_relay();
  }

  void leave(std::size_t i) {
    DOSN_ASSERT(online_[i]);
    known_[i] = group_;
    online_[i] = false;
    --online_count_;
  }

  /// Injects update u at node i at time t.
  template <typename Record>
  void inject(std::size_t i, std::size_t u, SimTime t, Record&& record) {
    record(i, u, t);
    known_[i][u] = true;
    if (online_[i]) {
      if (!group_[u]) {
        group_[u] = true;
        for (std::size_t j = 0; j < known_.size(); ++j)
          if (online_[j] && j != i) record(j, u, t);
      }
      known_[i] = group_;
      sync_relay();
    }
  }

  /// The relay becomes unreachable: the store freezes at its current
  /// content and the group falls back to ConRep semantics (a dissolved
  /// live group loses its shared state).
  void relay_down() {
    relay_ = group_;  // already mirrored while durable; freeze explicitly
    relay_up_ = false;
  }

  /// The relay returns: live group and relay re-merge bidirectionally;
  /// with nobody online only the relay's durable content survives.
  template <typename Record>
  void relay_up(SimTime t, Record&& record) {
    relay_up_ = true;
    if (online_count_ > 0) {
      for (std::size_t u = 0; u < group_.size(); ++u) {
        if (relay_[u] && !group_[u]) {
          group_[u] = true;
          for (std::size_t j = 0; j < known_.size(); ++j)
            if (online_[j]) record(j, u, t);
        }
      }
      relay_ = group_;
    } else {
      group_ = relay_;
    }
  }

  std::size_t online_count() const { return online_count_; }

 private:
  /// Shared state survives an empty group only while the persistent store
  /// is reachable.
  bool durable() const { return persistent_ && relay_up_; }

  void sync_relay() {
    if (durable()) relay_ = group_;
  }

  bool persistent_;
  bool relay_up_ = true;
  std::vector<std::vector<bool>> known_;
  std::vector<bool> group_;
  std::vector<bool> relay_;  // the persistent store's content (UnconRep)
  std::vector<bool> online_;
  std::size_t online_count_ = 0;
};

/// Effective fault plan: explicit NodeFailures become node outages of the
/// injected plan (crash-stop when no recovery time is given). Sessions
/// then come through the injector — a session inside an outage window is
/// dropped, one in progress at the failure instant is cut short, and a
/// transient failure's sessions resume after recovery (the node's held
/// state re-merges at its next join).
FaultPlan effective_plan(std::size_t nodes, const ReplicaSimConfig& config) {
  FaultPlan plan = config.faults;
  for (const auto& f : config.failures)
    plan.node_outages.push_back({f.node, f.at, f.recover_at});
  for (const auto& o : plan.node_outages)
    DOSN_REQUIRE(o.node < nodes, "replica sim: bad failure node");
  return plan;
}

}  // namespace

ReplicaSimReport simulate_replica_group(std::span<const DaySchedule> nodes,
                                        std::span<const UpdateSpec> updates,
                                        const ReplicaSimConfig& config) {
  DOSN_REQUIRE(config.horizon_days > 0, "replica sim: horizon must be > 0");
  const SimTime horizon =
      static_cast<SimTime>(config.horizon_days) * kDaySeconds;
  for (const auto& u : updates) {
    DOSN_REQUIRE(u.origin < nodes.size(), "replica sim: bad update origin");
    DOSN_REQUIRE(u.time >= 0 && u.time < horizon,
                 "replica sim: update outside horizon");
  }

  const FaultPlan plan = effective_plan(nodes.size(), config);
  FaultInjector injector(plan);

  std::vector<RawEvent> raw;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (const auto& iv :
         injector.sessions(i, nodes[i], config.horizon_days)) {
      raw.push_back({iv.start, EventKind::kOnline, i, 0});
      raw.push_back({iv.end, EventKind::kOffline, i, 0});
    }
  }
  for (std::size_t u = 0; u < updates.size(); ++u)
    raw.push_back({updates[u].time, EventKind::kUpdate, updates[u].origin, u});

  // Relay outage windows only exist under UnconRep (ConRep has no relay).
  // Overlapping windows are canonicalized so down/up events alternate.
  const bool persistent = config.connectivity == Connectivity::kUnconRep;
  if (persistent) {
    interval::IntervalSet windows;
    for (const auto& w : plan.relay_outages) {
      const SimTime start = std::min(w.start, horizon);
      const SimTime end = std::min(w.end, horizon);
      if (start < end) windows.add(start, end);
    }
    for (const auto& w : windows.pieces()) {
      raw.push_back({w.start, EventKind::kRelayDown, 0, 0});
      raw.push_back({w.end, EventKind::kRelayUp, 0, 0});
    }
  }
  std::sort(raw.begin(), raw.end(), [](const RawEvent& a, const RawEvent& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.kind != b.kind) return a.kind < b.kind;
    if (a.node != b.node) return a.node < b.node;
    return a.update < b.update;
  });

  ReplicaSimReport report;
  report.deliveries.resize(updates.size());
  for (std::size_t u = 0; u < updates.size(); ++u) {
    report.deliveries[u].creation = updates[u].time;
    report.deliveries[u].origin = updates[u].origin;
    report.deliveries[u].arrival.assign(nodes.size(), std::nullopt);
  }

  GroupState state(nodes.size(), updates.size(), persistent);
  auto record = [&](std::size_t node, std::size_t update, SimTime t) {
    auto& slot = report.deliveries[update].arrival[node];
    if (!slot) slot = t;
  };

  EventQueue queue;
  SimTime last_transition = 0;
  SimTime any_online_time = 0;
  for (const auto& ev : raw) {
    queue.schedule(ev.time, [&, ev] {
      const bool was_any = state.online_count() > 0;
      if (was_any) any_online_time += ev.time - last_transition;
      last_transition = ev.time;
      switch (ev.kind) {
        case EventKind::kRelayDown: state.relay_down(); break;
        case EventKind::kRelayUp: state.relay_up(ev.time, record); break;
        case EventKind::kOffline: state.leave(ev.node); break;
        case EventKind::kOnline: state.join(ev.node, ev.time, record); break;
        case EventKind::kUpdate:
          state.inject(ev.node, ev.update, ev.time, record);
          break;
      }
    });
  }
  queue.run_all();
  if (state.online_count() > 0) any_online_time += horizon - last_transition;
  report.events = queue.processed();
  report.empirical_availability =
      static_cast<double>(any_online_time) / static_cast<double>(horizon);

  // Delay statistics over non-origin nodes with non-empty schedules.
  util::RunningStats delays;
  std::uint64_t delivered = 0;
  for (const auto& d : report.deliveries) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (i == d.origin || nodes[i].empty()) continue;
      if (!d.arrival[i]) {
        report.all_delivered = false;
        continue;
      }
      ++delivered;
      const Seconds delay = *d.arrival[i] - d.creation;
      report.max_delay = std::max(report.max_delay, delay);
      delays.add(static_cast<double>(delay));
    }
  }
  report.mean_delay = delays.mean();

  SimMetrics& m = sim_metrics();
  m.runs.add(1);
  m.updates.add(updates.size());
  m.deliveries.add(delivered);
  m.group_size.record(static_cast<std::int64_t>(nodes.size()));
  injector.flush_stats();
  return report;
}

interval::IntervalSet conrep_delivery_surface(
    std::span<const DaySchedule* const> nodes, const ReplicaSimConfig& config) {
  DOSN_REQUIRE(config.connectivity == Connectivity::kConRep,
               "conrep surface: requires ConRep connectivity");
  DOSN_REQUIRE(config.horizon_days > 0, "replica sim: horizon must be > 0");
  DOSN_REQUIRE(!nodes.empty(), "conrep surface: node 0 is the writer");
  FaultInjector injector(effective_plan(nodes.size(), config));
  const interval::IntervalSet writer(
      injector.sessions(0, *nodes[0], config.horizon_days));
  std::vector<interval::Interval> others;
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    const auto sessions = injector.sessions(i, *nodes[i], config.horizon_days);
    others.insert(others.end(), sessions.begin(), sessions.end());
  }
  injector.flush_stats();
  return writer.intersect(interval::IntervalSet(std::move(others)));
}

interval::IntervalSet conrep_delivery_surface(
    std::span<const DaySchedule> nodes, const ReplicaSimConfig& config) {
  std::vector<const DaySchedule*> pointers;
  pointers.reserve(nodes.size());
  for (const auto& node : nodes) pointers.push_back(&node);
  return conrep_delivery_surface(pointers, config);
}

std::optional<SimTime> first_non_origin_arrival(
    const UpdateDelivery& delivery) {
  std::optional<SimTime> earliest;
  for (std::size_t node = 0; node < delivery.arrival.size(); ++node) {
    if (node == delivery.origin) continue;
    const auto& at = delivery.arrival[node];
    if (at && (!earliest || *at < *earliest)) earliest = *at;
  }
  return earliest;
}

std::vector<UpdateSpec> updates_within_schedules(
    std::span<const DaySchedule> nodes, std::size_t count, int horizon_days,
    util::Rng& rng) {
  std::vector<std::size_t> eligible;
  for (std::size_t i = 0; i < nodes.size(); ++i)
    if (!nodes[i].empty()) eligible.push_back(i);
  DOSN_REQUIRE(!eligible.empty(),
               "updates_within_schedules: no node is ever online");

  std::vector<UpdateSpec> out;
  out.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t origin = eligible[k % eligible.size()];
    const auto& sched = nodes[origin];
    const auto day = static_cast<SimTime>(
        rng.below(static_cast<std::uint64_t>(horizon_days)));
    // Uniform second within the node's daily online time.
    auto offset = static_cast<Seconds>(rng.below(
        static_cast<std::uint64_t>(sched.online_seconds())));
    Seconds tod = 0;
    for (const auto& iv : sched.set().pieces()) {
      if (offset < iv.length()) {
        tod = iv.start + offset;
        break;
      }
      offset -= iv.length();
    }
    out.push_back({day * kDaySeconds + tod, origin});
  }
  std::sort(out.begin(), out.end(),
            [](const UpdateSpec& a, const UpdateSpec& b) {
              return a.time < b.time;
            });
  return out;
}

}  // namespace dosn::net
