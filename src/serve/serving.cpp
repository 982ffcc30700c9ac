#include "serve/serving.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <optional>

#include "interval/day_schedule.hpp"
#include "interval/interval_set.hpp"
#include "net/replica_sim.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/thread_annotations.hpp"

namespace dosn::serve {

using interval::DaySchedule;
using interval::Interval;
using interval::IntervalSet;
using net::SimTime;

namespace {

/// Stream tag of the per-user placement streams (distinct from the
/// workload tag and every study-engine stream family).
inline constexpr std::uint64_t kPlacementTag = 0x53455256'504c4143ULL;  // "SERVPLAC"

inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
}

/// Per-run totals, flushed in batches so the request loop carries one
/// shard-add per user, not per request. Latency histograms are recorded
/// per request (a relaxed bucket add when observability is on).
struct ServeMetrics {
  obs::Counter& requests = obs::Registry::global().counter("serve.requests");
  obs::Counter& unserved = obs::Registry::global().counter("serve.unserved");
  obs::Counter& slo_misses =
      obs::Registry::global().counter("serve.slo_misses");
  obs::Histogram& read = obs::Registry::global().histogram(
      "serve.latency.read", LatencyHistogram::default_bounds());
  obs::Histogram& feed = obs::Registry::global().histogram(
      "serve.latency.feed", LatencyHistogram::default_bounds());
  obs::Histogram& write = obs::Registry::global().histogram(
      "serve.latency.write", LatencyHistogram::default_bounds());
  obs::Counter& retries =
      obs::Registry::global().counter("serve.resilience.retries");
  obs::Counter& hedges =
      obs::Registry::global().counter("serve.resilience.hedges");
  obs::Counter& hedge_wins =
      obs::Registry::global().counter("serve.resilience.hedge_wins");
  obs::Counter& stale_served =
      obs::Registry::global().counter("serve.resilience.stale_served");
  obs::Counter& degraded_feeds =
      obs::Registry::global().counter("serve.resilience.degraded_feeds");
  obs::Counter& dht_lookups =
      obs::Registry::global().counter("net.social_dht.lookups");
  obs::Counter& dht_lookup_hops =
      obs::Registry::global().counter("net.social_dht.lookup_hops");
  obs::Counter& dht_locality_hits =
      obs::Registry::global().counter("net.social_dht.locality_hits");
  obs::Counter& storekeepers =
      obs::Registry::global().counter("placement.super_peer.storekeepers");
};

ServeMetrics& serve_metrics() {
  static ServeMetrics m;
  return m;
}

/// One profile's realized serving surface: the replica selection plus the
/// canonical union of the group members' fault-degraded absolute online
/// sessions over the horizon. Under a resilience policy the *advertised*
/// surfaces are materialized too: `ideal` is the unfaulted group union
/// (the stale-failover surface and the feed budget's reference), `hedge`
/// the unfaulted union of the top-2 availability-ranked members (the
/// hedged-read surface). Under the zero plan ideal == online bit for bit
/// (both are produced by FaultInjector::sessions, preserving the same
/// per-(day, piece) event structure).
struct GroupTimeline {
  std::vector<graph::UserId> selection;
  /// kSuperPeer only: volunteer storekeepers widening the read surface
  /// (empty under every other regime — and under the threshold-1.0
  /// degeneracy, which is what keeps that path bit-identical).
  std::vector<graph::UserId> storekeepers;
  std::vector<Interval> online;
  /// kSocialDht only: realized union of the non-owner responsible nodes —
  /// the surface a DHT put must reach for durability.
  std::vector<Interval> store;
  std::vector<Interval> ideal;
  std::vector<Interval> hedge;
};

/// Canonical pieces of the union of `pieces` (any order, overlapping).
std::vector<Interval> canonical(std::vector<Interval> pieces) {
  const IntervalSet set(std::move(pieces));
  return {set.pieces().begin(), set.pieces().end()};
}

/// Wait from `t` until `pieces` (canonical absolute intervals) next
/// covers an instant; nullopt when nothing remains within the horizon.
std::optional<Seconds> wait_within(std::span<const Interval> pieces,
                                   SimTime t) {
  // First piece ending after t.
  const auto it = std::upper_bound(
      pieces.begin(), pieces.end(), t,
      [](SimTime v, const Interval& p) { return v < p.end; });
  if (it == pieces.end()) return std::nullopt;
  return it->start <= t ? 0 : it->start - t;
}

/// Absolute instant `pieces` next covers at or after `t`; nullopt when
/// nothing remains within the horizon.
std::optional<SimTime> arrival_within(std::span<const Interval> pieces,
                                      SimTime t) {
  const auto wait = wait_within(pieces, t);
  if (!wait) return std::nullopt;
  return t + *wait;
}

/// Per-served-user accumulation, reduced serially in cohort order.
struct UserLoad {
  KindStats read;
  KindStats feed;
  KindStats write;
  ResilienceStats res;
  RegimeStats regime;
  std::uint64_t digest = kFnvOffset;
};

/// The serving study's per-run immutable context, shared by all workers.
struct RunContext {
  const trace::Dataset& dataset;
  std::span<const DaySchedule> schedules;
  const ServingConfig& config;
  const placement::ReplicaPolicy& policy;
  std::uint64_t seed;
  std::uint64_t placement_stream;
  SimTime horizon;
  /// Resilience policy enabled (config.resilience is non-zero)?
  bool resilient;
  /// Any active flash-crowd entries in the scenario?
  bool flash;
  /// Relay availability under UnconRep: canonical outage windows clipped
  /// to the horizon (explicit plan windows — identical for every user).
  std::vector<Interval> relay_outages;
  /// Storage regime of the run (mirrors config.regime).
  placement::StorageRegime regime = placement::StorageRegime::kReplicaGroup;
  /// Scaled ring under kSocialDht; null otherwise.
  const net::SocialDht* dht = nullptr;
  /// Volunteer directory under kSuperPeer; null otherwise.
  const placement::SuperPeerDirectory* directory = nullptr;
  /// kSuperPeer churn predicate: dht_crashed over the *global* (unmixed)
  /// plan seed, so every user's assignment walk sees the same volunteer
  /// up/down state. Null outside the regime.
  const net::FaultInjector* churn = nullptr;

  bool relay_exists() const {
    return config.connectivity == placement::Connectivity::kUnconRep;
  }

  /// Wait from `t` until the relay is reachable (0 when no outage covers
  /// t). Only meaningful under UnconRep.
  Seconds relay_wait(SimTime t) const {
    const auto it = std::upper_bound(
        relay_outages.begin(), relay_outages.end(), t,
        [](SimTime v, const Interval& w) { return v < w.end; });
    if (it == relay_outages.end() || !it->contains(t)) return 0;
    return it->end - t;
  }

  net::FaultPlan plan_for(graph::UserId user) const {
    net::FaultPlan plan = config.faults;
    plan.seed = util::mix64(plan.seed, user);
    return plan;
  }

  /// Selection plus realized group sessions for `user`'s profile. A pure
  /// function of (seed, plan seed, user): identical whether the user is
  /// being served or fanned into a friend's feed.
  GroupTimeline realize_group(graph::UserId user) const {
    GroupTimeline g;
    util::Rng rng(util::mix64(placement_stream, user));
    if (regime == placement::StorageRegime::kSocialDht) {
      // The ring replaces the policy: the profile lives on the successor
      // nodes of its (socially remapped) key. The owner's local copy
      // always serves too, so the owner is dropped from the stored
      // selection on the rare ring that picks it. No draw is consumed —
      // the per-user placement stream simply goes unused.
      for (const graph::UserId n : dht->responsible_nodes(user))
        if (n != user) g.selection.push_back(n);
    } else {
      placement::PlacementContext ctx;
      ctx.user = user;
      ctx.candidates = dataset.graph.contacts(user);
      ctx.schedules = schedules;
      ctx.trace = &dataset.trace;
      ctx.connectivity = config.connectivity;
      ctx.max_replicas = config.replicas;
      g.selection = policy.select(ctx, rng);
    }
    if (regime == placement::StorageRegime::kSuperPeer) {
      // Volunteer storekeepers for a group that misses the availability
      // target; crashed volunteers are skipped (graceful re-assignment).
      // An empty directory (threshold 1.0) assigns nobody and the path
      // below is bit-identical to kReplicaGroup.
      std::vector<graph::UserId> group;
      group.reserve(g.selection.size() + 1);
      group.push_back(user);
      group.insert(group.end(), g.selection.begin(), g.selection.end());
      g.storekeepers = directory->assign_storekeepers(
          user, group, seed, [this](graph::UserId v) {
            return churn->dht_crashed(v);
          });
    }

    // Each union normalizes all its members' session pieces at once; an
    // add() per session would cost O(pieces) each.
    net::FaultInjector injector(plan_for(user));
    std::vector<Interval> online;
    std::vector<Interval> store;  // kSocialDht write surface: non-owners
    const bool dht_regime = regime == placement::StorageRegime::kSocialDht;
    const auto add_sessions = [&](std::size_t node_index,
                                  const DaySchedule& schedule) {
      const auto sessions = injector.sessions(node_index, schedule,
                                              config.workload.horizon_days);
      online.insert(online.end(), sessions.begin(), sessions.end());
      if (dht_regime && node_index > 0)
        store.insert(store.end(), sessions.begin(), sessions.end());
    };
    add_sessions(0, schedules[user]);
    for (std::size_t i = 0; i < g.selection.size(); ++i)
      add_sessions(i + 1, schedules[g.selection[i]]);
    for (std::size_t i = 0; i < g.storekeepers.size(); ++i)
      add_sessions(g.selection.size() + 1 + i, schedules[g.storekeepers[i]]);
    g.online = canonical(std::move(online));
    if (dht_regime) g.store = canonical(std::move(store));

    if (resilient) {
      // Advertised (unfaulted) surfaces for the resilience paths, built
      // through a zero-plan injector so they share the realized surface's
      // event structure exactly — under the zero plan ideal == online.
      const auto member_schedule =
          [&](std::size_t m) -> const DaySchedule& {
        if (m == 0) return schedules[user];
        if (m <= g.selection.size()) return schedules[g.selection[m - 1]];
        return schedules[g.storekeepers[m - 1 - g.selection.size()]];
      };
      const std::size_t members =
          1 + g.selection.size() + g.storekeepers.size();
      net::FaultInjector unfaulted{net::FaultPlan{}};
      const auto add_unfaulted = [&](std::vector<Interval>& pieces,
                                     std::size_t m) {
        const auto sessions = unfaulted.sessions(
            m, member_schedule(m), config.workload.horizon_days);
        pieces.insert(pieces.end(), sessions.begin(), sessions.end());
      };
      std::vector<Interval> ideal;
      for (std::size_t m = 0; m < members; ++m) add_unfaulted(ideal, m);
      g.ideal = canonical(std::move(ideal));

      if (config.resilience.hedged_reads) {
        // Top-2 members by advertised daily online time (ties to the
        // lower member index — owner first, then selection order).
        std::size_t first = 0, second = members;
        for (std::size_t m = 1; m < members; ++m) {
          const Seconds secs = member_schedule(m).online_seconds();
          if (secs > member_schedule(first).online_seconds()) {
            second = first;
            first = m;
          } else if (second == members ||
                     secs > member_schedule(second).online_seconds()) {
            second = m;
          }
        }
        std::vector<Interval> hedge;
        add_unfaulted(hedge, first);
        if (second < members) add_unfaulted(hedge, second);
        g.hedge = canonical(std::move(hedge));
      }
    }
    return g;
  }
};

/// Sharded memo of realized group timelines. Feed fan-in touches every
/// friend of every served user — including hubs whose greedy placement is
/// expensive — and popular profiles recur across served users, so each
/// referenced profile is realized exactly once per run. Caching cannot
/// reach a result bit: realize_group is a pure function of (seed, user),
/// and computing under the shard lock keeps the placement obs counters at
/// one realization per unique profile (a thread-count-invariant total).
/// Keyed access only — the maps are never iterated, so container order
/// cannot leak into any result.
class GroupCache {
 public:
  explicit GroupCache(const RunContext& run) : run_(run) {}

  const GroupTimeline& get(graph::UserId user) {
    Shard& shard = shards_[user % kShards];
    util::MutexLock lock(shard.mutex);
    const auto [it, inserted] = shard.groups.try_emplace(user);
    if (inserted) it->second = run_.realize_group(user);
    return it->second;
  }

 private:
  static constexpr std::size_t kShards = 64;
  struct Shard {
    util::Mutex mutex;
    std::map<graph::UserId, GroupTimeline> groups DOSN_GUARDED_BY(mutex);
  };

  const RunContext& run_;
  std::array<Shard, kShards> shards_;
};

/// Read latency of one profile fetch at time t against `group` (nullopt:
/// unreachable within the horizon). Crypto cost is added by the caller.
std::optional<Seconds> fetch_wait(const RunContext& run,
                                  const GroupTimeline& group, SimTime t) {
  const auto group_wait = wait_within(group.online, t);
  if (!run.relay_exists()) return group_wait;
  const Seconds relay = run.relay_wait(t);
  if (!group_wait) return relay;
  return std::min(*group_wait, relay);
}

/// Instant the client gives up on fresh data: the capped-backoff retry
/// schedule summed from `t`, clipped to the deadline budget. With no
/// retries the deadline alone (or `t` itself) times the give-up.
SimTime give_up_instant(const ResiliencePolicy& p, SimTime t) {
  SimTime give_up = t;
  Seconds backoff = p.retry_backoff;
  for (int i = 0; i < p.max_retries; ++i) {
    give_up += backoff;
    backoff = std::min(p.retry_backoff_cap, backoff * 2);
  }
  if (p.deadline > 0) give_up = std::min(give_up, t + p.deadline);
  return give_up;
}

/// One resilient profile fetch: the primary (realized) wait raced against
/// the hedged and stale alternatives (serving.hpp). Every alternative is
/// no earlier than the primary under the zero plan, so the winning
/// arrival — and the request log — is bit-identical to the naive path
/// when no fault fires. Ties go to the freshest path (primary, then
/// hedge, then stale).
struct FetchOutcome {
  std::optional<SimTime> arrival;
  std::uint32_t retries = 0;
  bool hedged = false;
  bool hedge_win = false;
  bool stale_win = false;
};

FetchOutcome resilient_fetch(const RunContext& run,
                             const GroupTimeline& group, SimTime t) {
  const ResiliencePolicy& p = run.config.resilience;
  FetchOutcome out;
  const auto primary_wait = fetch_wait(run, group, t);
  std::optional<SimTime> best;
  if (primary_wait) best = t + *primary_wait;

  if (p.hedged_reads && (!best || *best > t + p.hedge_delay)) {
    // Primary not done by the hedge delay: launch the hedge against the
    // top-2 members' advertised surface.
    out.hedged = true;
    const auto hedge = arrival_within(group.hedge, t + p.hedge_delay);
    if (hedge && (!best || *hedge < *best)) {
      best = hedge;
      out.hedge_win = true;
    }
  }
  if (p.stale_failover) {
    // The freshest gossip-cached copy: retrievable from the give-up
    // instant onward whenever a group member would be online per its
    // advertised schedule, at the staleness tax.
    const auto cached = arrival_within(group.ideal, t);
    if (cached) {
      const SimTime stale =
          std::max(give_up_instant(p, t), *cached) + p.stale_read_tax;
      if (!best || stale < *best) {
        best = stale;
        out.hedge_win = false;
        out.stale_win = true;
      }
    }
  }
  if (p.max_retries > 0) {
    // Retries that actually fired: schedule instants before completion
    // (all scheduled instants when the request is never served).
    SimTime at = t;
    Seconds backoff = p.retry_backoff;
    for (int i = 0; i < p.max_retries; ++i) {
      at += backoff;
      backoff = std::min(p.retry_backoff_cap, backoff * 2);
      if (p.deadline > 0 && at > t + p.deadline) break;
      if (!best || at < *best) ++out.retries;
    }
  }
  out.arrival = best;
  return out;
}

void serve_user(const RunContext& run, GroupCache& cache, graph::UserId user,
                UserLoad& load) {
  const auto contacts = run.dataset.graph.contacts(user);
  auto requests = user_requests(run.config.workload, run.seed, user,
                                contacts.size());
  if (run.flash)
    requests = merge_requests(
        std::move(requests),
        flash_requests(run.config.workload, run.config.faults.scenario,
                       run.config.faults.seed, user, contacts.size()));

  const GroupTimeline& own = cache.get(user);
  const auto friend_group = [&](std::size_t i) -> const GroupTimeline& {
    return cache.get(contacts[i]);
  };
  const bool dht_regime =
      run.regime == placement::StorageRegime::kSocialDht;

  // Regime axes of the served user's own profile (regime-independent —
  // kReplicaGroup reports them too, which is what turns the degeneracy
  // differentials into whole-report equalities).
  load.regime.groups += 1;
  load.regime.replica_holders +=
      own.selection.size() + own.storekeepers.size();
  load.regime.storekeepers += own.storekeepers.size();
  for (const Interval& iv : own.online)
    load.regime.online_seconds += static_cast<std::uint64_t>(iv.end - iv.start);

  // Write surfaces, built once per served user with writes. A ConRep
  // write is durable at the first instant the owner and a selected
  // replica are online together (net::conrep_delivery_surface — exactly
  // the replica simulator's first non-origin arrival, under the same
  // per-user fault plan the read path realizes its sessions from). An
  // UnconRep write is durable once uploaded: the owner online while the
  // relay is up (own.online includes the replicas, so the owner's
  // sessions are re-derived alone).
  const bool has_writes =
      std::any_of(requests.begin(), requests.end(), [](const Request& r) {
        return r.kind == RequestKind::kPostWrite;
      });
  const bool local_writes = own.selection.empty();
  IntervalSet durable;
  if (has_writes && !dht_regime) {
    if (run.relay_exists()) {
      net::FaultInjector injector(run.plan_for(user));
      const IntervalSet owner_online(injector.sessions(
          0, run.schedules[user], run.config.workload.horizon_days));
      const IntervalSet outages{std::vector<Interval>(
          run.relay_outages.begin(), run.relay_outages.end())};
      durable = owner_online.subtract(outages);
    } else if (!local_writes) {
      std::vector<const DaySchedule*> nodes{&run.schedules[user]};
      for (const auto holder : own.selection)
        nodes.push_back(&run.schedules[holder]);
      net::ReplicaSimConfig sim_config;
      sim_config.horizon_days = run.config.workload.horizon_days;
      sim_config.faults = run.plan_for(user);
      durable = net::conrep_delivery_surface(nodes, sim_config);
    }
  }

  ServeMetrics& metrics = serve_metrics();
  const Seconds crypto = run.config.crypto_op_cost;
  const auto note_fetch = [&load](const FetchOutcome& o) {
    load.res.retries += o.retries;
    if (o.hedged) ++load.res.hedges;
    if (o.hedge_win) ++load.res.hedge_wins;
    if (o.stale_win) ++load.res.stale_served;
  };
  std::vector<SimTime> arrivals;  // feed scratch, reused across requests
  std::vector<graph::UserId> feed_owners;  // DHT fan-in scratch
  for (const auto& r : requests) {
    std::optional<Seconds> latency;
    // Extra wait the storage regime itself charges this request (DHT
    // routing hops at hop_cost each); 0 outside kSocialDht. Applied after
    // the switch so every exit path of every kind pays it uniformly.
    Seconds regime_tax = 0;
    switch (r.kind) {
      case RequestKind::kProfileRead: {
        if (contacts.empty()) {
          latency = 0;
        } else {
          const std::size_t target = r.target_index % contacts.size();
          if (dht_regime) {
            const auto l = run.dht->lookup_from(user, contacts[target]);
            ++load.regime.lookups;
            load.regime.lookup_hops += l.hops;
            regime_tax = run.config.social_dht.hop_cost *
                         static_cast<Seconds>(l.hops);
          }
          if (!run.resilient) {
            latency = fetch_wait(run, friend_group(target), r.time);
          } else {
            const auto o = resilient_fetch(run, friend_group(target), r.time);
            note_fetch(o);
            if (o.arrival) latency = *o.arrival - r.time;
          }
        }
        if (latency) *latency += crypto;
        break;
      }
      case RequestKind::kFeedAssembly: {
        if (dht_regime) {
          // Fan-in resolution: every friend's key is resolved, but a
          // friend whose owner node was already contacted by this feed is
          // a replica-locality hit and routes for free — the payoff of
          // the socially-aware remap (cluster-mates share owner arcs).
          feed_owners.clear();
          std::size_t route_hops = 0;
          for (std::size_t i = 0; i < contacts.size(); ++i) {
            const graph::UserId owner = run.dht->owner_of(contacts[i]);
            ++load.regime.lookups;
            if (std::find(feed_owners.begin(), feed_owners.end(), owner) !=
                feed_owners.end()) {
              ++load.regime.locality_hits;
            } else {
              feed_owners.push_back(owner);
              const auto l = run.dht->lookup_from(user, contacts[i]);
              load.regime.lookup_hops += l.hops;
              route_hops += l.hops;
            }
          }
          regime_tax = run.config.social_dht.hop_cost *
                       static_cast<Seconds>(route_hops);
        }
        const Seconds fan_crypto =
            crypto * static_cast<Seconds>(contacts.size());
        if (!run.resilient) {
          // Fan-in: the feed completes with the slowest friend fetch; one
          // unreachable friend leaves the feed unassembled (unserved).
          Seconds slowest = 0;
          bool complete = true;
          for (std::size_t i = 0; i < contacts.size(); ++i) {
            const auto wait = fetch_wait(run, friend_group(i), r.time);
            if (!wait) {
              complete = false;
              break;
            }
            slowest = std::max(slowest, *wait);
          }
          if (complete) {
            latency = slowest + fan_crypto;
            load.res.feed_coverage_sum += 1.0;
            ++load.res.feed_coverage_count;
          }
          break;
        }
        // Resilient fan-in: every friend fetched through the resilient
        // path; a feed whose slowest fetches blow the feed budget is
        // served partial at the budget instant when coverage allows
        // (serving.hpp). The budget is never below the ideal feed
        // completion, so under the zero plan the full-serve branch is
        // always taken and the outcome matches the naive path bit for
        // bit.
        const ResiliencePolicy& p = run.config.resilience;
        arrivals.clear();
        bool reachable = true;
        SimTime done = r.time;
        bool budgetable = p.degrade_feeds;
        SimTime ideal_done = r.time;
        for (std::size_t i = 0; i < contacts.size(); ++i) {
          const GroupTimeline& fg = friend_group(i);
          const auto o = resilient_fetch(run, fg, r.time);
          note_fetch(o);
          if (o.arrival) {
            arrivals.push_back(*o.arrival);
            done = std::max(done, *o.arrival);
          } else {
            reachable = false;
          }
          if (budgetable) {
            const auto ideal = arrival_within(fg.ideal, r.time);
            if (ideal)
              ideal_done = std::max(ideal_done, *ideal);
            else
              budgetable = false;
          }
        }
        const SimTime budget = std::max(
            ideal_done, r.time + std::max(p.deadline, run.config.slo));
        double coverage = -1.0;
        if (reachable && done <= budget) {
          latency = done - r.time + fan_crypto;
          coverage = 1.0;
        } else if (budgetable) {
          std::size_t kept = 0;
          for (const SimTime a : arrivals)
            if (a <= budget) ++kept;
          const double cov =
              contacts.empty() ? 1.0
                               : static_cast<double>(kept) /
                                     static_cast<double>(contacts.size());
          if (cov >= p.feed_min_coverage) {
            latency = budget - r.time + fan_crypto;
            coverage = cov;
            ++load.res.degraded_feeds;
          } else if (reachable) {
            latency = done - r.time + fan_crypto;
            coverage = 1.0;
          }
        } else if (reachable) {
          latency = done - r.time + fan_crypto;
          coverage = 1.0;
        }
        if (coverage >= 0.0) {
          load.res.feed_coverage_sum += coverage;
          ++load.res.feed_coverage_count;
        }
        break;
      }
      case RequestKind::kPostWrite: {
        if (dht_regime) {
          // A DHT put is durable once it reaches the first non-owner
          // responsible node — the wait until the realized store surface
          // next covers an instant. A ring too small to have one (the
          // owner is the whole responsible set) stores locally.
          latency = own.selection.empty()
                        ? std::optional<Seconds>(0)
                        : wait_within(own.store, r.time);
        } else if (!run.relay_exists() && local_writes) {
          latency = 0;  // single-node group: local durability
        } else {
          latency = wait_within(durable.pieces(), r.time);
        }
        if (latency)
          *latency += crypto * static_cast<Seconds>(1 + own.selection.size());
        break;
      }
    }
    if (latency) *latency += regime_tax;

    KindStats& stats = r.kind == RequestKind::kProfileRead ? load.read
                       : r.kind == RequestKind::kFeedAssembly ? load.feed
                                                              : load.write;
    ++stats.requests;
    if (latency) {
      stats.latency.record(*latency);
      if (*latency > run.config.slo) ++stats.slo_misses;
      obs::Histogram& h = r.kind == RequestKind::kProfileRead ? metrics.read
                          : r.kind == RequestKind::kFeedAssembly
                              ? metrics.feed
                              : metrics.write;
      h.record(*latency);
    } else {
      ++stats.unserved;
      ++stats.slo_misses;
    }

    fnv_mix(load.digest, static_cast<std::uint64_t>(r.kind));
    fnv_mix(load.digest, static_cast<std::uint64_t>(r.time));
    fnv_mix(load.digest,
            latency ? static_cast<std::uint64_t>(*latency) + 1 : 0);
  }

  metrics.requests.add(requests.size());
  metrics.unserved.add(load.read.unserved + load.feed.unserved +
                       load.write.unserved);
  metrics.slo_misses.add(load.read.slo_misses + load.feed.slo_misses +
                         load.write.slo_misses);
  if (run.resilient) {
    metrics.retries.add(load.res.retries);
    metrics.hedges.add(load.res.hedges);
    metrics.hedge_wins.add(load.res.hedge_wins);
    metrics.stale_served.add(load.res.stale_served);
    metrics.degraded_feeds.add(load.res.degraded_feeds);
  }
  if (run.regime != placement::StorageRegime::kReplicaGroup) {
    metrics.dht_lookups.add(load.regime.lookups);
    metrics.dht_lookup_hops.add(load.regime.lookup_hops);
    metrics.dht_locality_hits.add(load.regime.locality_hits);
    metrics.storekeepers.add(load.regime.storekeepers);
  }
}

void merge_kind(KindStats& into, const KindStats& from) {
  into.latency.merge(from.latency);
  into.requests += from.requests;
  into.unserved += from.unserved;
  into.slo_misses += from.slo_misses;
}

void merge_res(ResilienceStats& into, const ResilienceStats& from) {
  into.retries += from.retries;
  into.hedges += from.hedges;
  into.hedge_wins += from.hedge_wins;
  into.stale_served += from.stale_served;
  into.degraded_feeds += from.degraded_feeds;
  into.feed_coverage_sum += from.feed_coverage_sum;
  into.feed_coverage_count += from.feed_coverage_count;
}

void merge_regime(RegimeStats& into, const RegimeStats& from) {
  into.groups += from.groups;
  into.replica_holders += from.replica_holders;
  into.storekeepers += from.storekeepers;
  into.online_seconds += from.online_seconds;
  into.lookups += from.lookups;
  into.lookup_hops += from.lookup_hops;
  into.locality_hits += from.locality_hits;
}

}  // namespace

void validate(const ResiliencePolicy& policy) {
  if (policy.hedge_delay < 0)
    throw ConfigError("resilience: hedge_delay must be >= 0");
  if (policy.stale_read_tax < 0)
    throw ConfigError("resilience: stale_read_tax must be >= 0");
  if (policy.max_retries < 0 || policy.max_retries > 32)
    throw ConfigError("resilience: max_retries must be in [0, 32]");
  if (policy.max_retries > 0) {
    if (policy.retry_backoff <= 0)
      throw ConfigError("resilience: retry_backoff must be > 0");
    if (policy.retry_backoff_cap < policy.retry_backoff)
      throw ConfigError("resilience: retry_backoff_cap must be >= retry_backoff");
  }
  if (policy.deadline < 0)
    throw ConfigError("resilience: deadline must be >= 0");
  if (policy.feed_min_coverage < 0.0 || policy.feed_min_coverage > 1.0)
    throw ConfigError("resilience: feed_min_coverage must be in [0, 1]");
}

void validate(const ServingConfig& config) {
  validate(config.workload);
  net::validate(config.faults);
  validate(config.resilience);
  net::validate(config.social_dht);
  placement::validate(config.super_peer);
  if (config.regime != placement::StorageRegime::kReplicaGroup &&
      config.connectivity != placement::Connectivity::kConRep)
    throw ConfigError(
        "serving: DHT and super-peer regimes require ConRep connectivity");
  if (config.crypto_op_cost < 0)
    throw ConfigError("serving: crypto_op_cost must be >= 0");
  if (config.slo < 0)
    throw ConfigError("serving: slo must be >= 0");
}

ServingReport run_serving_study(const trace::Dataset& dataset,
                                std::span<const DaySchedule> schedules,
                                std::span<const graph::UserId> cohort,
                                std::uint64_t seed,
                                const ServingConfig& config,
                                util::ThreadPool* pool) {
  validate(config);
  DOSN_REQUIRE(schedules.size() == dataset.num_users(),
               "serving: schedules must span every user");

  const std::size_t served =
      config.served_users == 0
          ? cohort.size()
          : std::min(config.served_users, cohort.size());

  const auto policy =
      placement::make_policy(config.policy, config.policy_params);

  // Regime substrates, built once and shared read-only by every worker.
  std::optional<net::SocialDht> dht;
  std::optional<placement::SuperPeerDirectory> directory;
  std::optional<net::FaultInjector> churn;
  if (config.regime == placement::StorageRegime::kSocialDht)
    dht.emplace(dataset.graph, config.social_dht);
  if (config.regime == placement::StorageRegime::kSuperPeer) {
    directory.emplace(schedules, config.super_peer);
    churn.emplace(config.faults);  // global seed: shared volunteer state
  }

  RunContext run{
      .dataset = dataset,
      .schedules = schedules,
      .config = config,
      .policy = *policy,
      .seed = seed,
      .placement_stream = util::mix64(seed, kPlacementTag),
      .horizon = static_cast<SimTime>(config.workload.horizon_days) *
                 interval::kDaySeconds,
      .resilient = !config.resilience.zero(),
      .flash = std::any_of(config.faults.scenario.flash_crowds.begin(),
                           config.faults.scenario.flash_crowds.end(),
                           [](const net::FlashCrowd& c) { return c.active(); }),
      .relay_outages = {},
      .regime = config.regime,
      .dht = dht ? &*dht : nullptr,
      .directory = directory ? &*directory : nullptr,
      .churn = churn ? &*churn : nullptr,
  };

  if (run.relay_exists()) {
    IntervalSet outages;
    for (const auto& w : config.faults.relay_outages) {
      const SimTime start = std::min<SimTime>(w.start, run.horizon);
      const SimTime end = std::min<SimTime>(w.end, run.horizon);
      if (start < end) outages.add(start, end);
    }
    run.relay_outages.assign(outages.pieces().begin(),
                             outages.pieces().end());
  }

  // Fan out into per-index slots; stealing reorders execution only.
  GroupCache cache(run);
  std::vector<UserLoad> loads(served);
  util::parallel_for_each(pool, served, [&](std::size_t i) {
    serve_user(run, cache, cohort[i], loads[i]);
  });

  // Serial reduction in cohort order: the one floating-point-free fold
  // that makes every aggregate (and the checksum) thread-count invariant.
  ServingReport report;
  report.served_users = served;
  report.horizon = run.horizon;
  report.request_log_checksum = kFnvOffset;
  for (std::size_t i = 0; i < served; ++i) {
    merge_kind(report.read, loads[i].read);
    merge_kind(report.feed, loads[i].feed);
    merge_kind(report.write, loads[i].write);
    merge_res(report.resilience, loads[i].res);
    merge_regime(report.regime, loads[i].regime);
    fnv_mix(report.request_log_checksum,
            static_cast<std::uint64_t>(cohort[i]));
    fnv_mix(report.request_log_checksum, loads[i].digest);
  }
  report.latency.merge(report.read.latency);
  report.latency.merge(report.feed.latency);
  report.latency.merge(report.write.latency);
  report.requests =
      report.read.requests + report.feed.requests + report.write.requests;
  report.unserved =
      report.read.unserved + report.feed.unserved + report.write.unserved;
  report.slo_misses = report.read.slo_misses + report.feed.slo_misses +
                      report.write.slo_misses;
  report.served = report.requests - report.unserved;
  return report;
}

}  // namespace dosn::serve
