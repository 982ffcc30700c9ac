// serve_read and serve_write_faults: request serving over MaxAv/ConRep
// replica groups on one 100k-user input, with two traffic mixes.
#include <algorithm>
#include <cmath>
#include <optional>

#include "interval/interval_set.hpp"
#include "net/fault.hpp"
#include "net/replica_sim.hpp"
#include "net/scenario.hpp"
#include "perfbench.hpp"
#include "placement/policy.hpp"
#include "serve/serving.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using dosn::graph::UserId;
using dosn::interval::Interval;

constexpr std::size_t kServeUsers = 100'000;
/// The request total may be off users x rate x horizon by this share.
constexpr double kTotalTolerance = 0.01;
/// Each request's kind is an independent draw from the mix, so a kind's
/// share may be off its configured value by this many binomial standard
/// deviations, sqrt(p (1 - p) / n).
constexpr double kShareSigmas = 5.0;

/// Background churn plus a regional outage (regions=3 puts the owner and
/// the third replica of every group in region 0) and a churn burst.
constexpr const char* kFaultScenario =
    "regional_outage regions=3 region=0 start=259200 end=432000 "
    "participation=1\n"
    "churn_burst start=518400 end=691200 no_show=0.8 participation=0.9\n";

dosn::serve::ServingConfig read_config() {
  dosn::serve::ServingConfig config;  // 60/25/15 mix, 4 req/user/day, 14 d
  config.policy = dosn::placement::PolicyKind::kMaxAv;
  config.connectivity = dosn::placement::Connectivity::kConRep;
  config.replicas = 5;
  return config;
}

dosn::serve::ServingConfig write_faults_config(std::uint64_t seed) {
  auto config = read_config();
  config.workload.requests_per_user_per_day = 12.0;
  config.workload.read_fraction = 0.15;
  config.workload.feed_fraction = 0.05;
  config.faults.seed = dosn::util::mix64(seed, 0x5ce9a410ULL);
  config.faults.session_no_show = 0.15;
  config.faults.session_truncate = 0.15;
  config.faults.truncate_max_fraction = 0.5;
  config.faults.scenario = dosn::net::parse_scenario(kFaultScenario);
  config.resilience.hedged_reads = true;
  config.resilience.stale_failover = true;
  config.resilience.degrade_feeds = true;
  config.resilience.deadline = 3600;
  return config;
}

/// Length of the union of `pieces`, by sort and merge.
std::uint64_t union_length(std::vector<Interval> pieces) {
  std::sort(pieces.begin(), pieces.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  std::uint64_t total = 0;
  std::optional<Interval> open;
  for (const Interval& p : pieces) {
    if (open && p.start <= open->end) {
      open->end = std::max(open->end, p.end);
      continue;
    }
    if (open) total += static_cast<std::uint64_t>(open->end - open->start);
    open = p;
  }
  if (open) total += static_cast<std::uint64_t>(open->end - open->start);
  return total;
}

class Serve final : public Workload {
 public:
  Serve(std::string name, std::uint64_t seed,
        dosn::serve::ServingConfig config, bool zero_faults)
      : name_(std::move(name)),
        seed_(seed),
        config_(std::move(config)),
        zero_faults_(zero_faults) {
    dosn::synth::ScaleOptions opts;
    opts.users = kServeUsers;
    input_config_.preset = dosn::synth::scale_preset(opts);
  }

  void setup() override { input_ = build_scale_input(input_config_, seed_); }
  void release() override {
    input_.reset();
    bounds_.reset();
  }
  bool serving() const override { return true; }
  std::vector<std::pair<std::string, std::uint64_t>> input_summary()
      const override {
    return {{"users", input_->dataset.num_users()},
            {"activities", input_->total_activities},
            {"cohort_degree", input_->cohort_degree},
            {"served_users", input_->cohort.size()}};
  }

  std::size_t op_count() const override { return 1; }
  std::string op_name(std::size_t) const override {
    return "run_serving_study";
  }

  OpResult run_op(std::size_t, std::size_t threads) override {
    const Stopwatch watch;
    dosn::util::ThreadPool pool(
        dosn::util::RuntimeOptions{.threads = threads});
    const auto report =
        dosn::serve::run_serving_study(input_->dataset, input_->schedules,
                                       input_->cohort, seed_, config_, &pool);
    const Timing timing = watch.elapsed();
    check(report);
    hedge_win_ratio_ = ratio(static_cast<double>(report.resilience.hedge_wins),
                             static_cast<double>(report.resilience.hedges));
    return {timing, report.request_log_checksum};
  }

  void probe_layers(LayerMetrics& out) override;

 private:
  struct GroupBounds {
    std::uint64_t owners = 0;  ///< sum of owner daily online seconds
    std::uint64_t all_contacts = 0;  ///< sum of owner+contacts daily unions
  };

  const GroupBounds& bounds() {
    if (bounds_) return *bounds_;
    GroupBounds b;
    for (const UserId u : input_->cohort) {
      std::vector<Interval> pieces;
      const auto add = [&](UserId v) {
        const auto p = input_->schedules[v].set().pieces();
        pieces.insert(pieces.end(), p.begin(), p.end());
      };
      add(u);
      for (const UserId c : input_->dataset.graph.contacts(u)) add(c);
      b.owners += static_cast<std::uint64_t>(
          input_->schedules[u].online_seconds());
      b.all_contacts += union_length(std::move(pieces));
    }
    bounds_ = b;
    return *bounds_;
  }

  void check(const dosn::serve::ServingReport& r) {
    const std::string at = name_ + ": ";
    require(r.served_users == input_->cohort.size(),
            at + "every cohort user served");
    require(r.served + r.unserved == r.requests,
            at + "served + unserved != requests");
    require(r.read.requests + r.feed.requests + r.write.requests ==
                r.requests,
            at + "per-kind requests do not add up");
    require(r.read.unserved + r.feed.unserved + r.write.unserved ==
                r.unserved,
            at + "per-kind unserved do not add up");

    const auto& w = config_.workload;
    const double expected = static_cast<double>(r.served_users) *
                            w.requests_per_user_per_day *
                            static_cast<double>(w.horizon_days);
    const double requests = static_cast<double>(r.requests);
    require(std::abs(requests - expected) <= kTotalTolerance * expected,
            at + "request total off users x rate x horizon by more than 1%");
    const auto share_ok = [&](std::uint64_t n, double configured) {
      const double sigma =
          std::sqrt(configured * (1.0 - configured) / requests);
      return std::abs(static_cast<double>(n) / requests - configured) <=
             kShareSigmas * sigma;
    };
    require(share_ok(r.read.requests, w.read_fraction) &&
                share_ok(r.feed.requests, w.feed_fraction) &&
                share_ok(r.write.requests,
                         1.0 - w.read_fraction - w.feed_fraction),
            at + "request kind share off the configured mix by more than 5 "
                 "binomial standard deviations");

    const auto p50 = r.latency.quantile(0.50);
    const auto p99 = r.latency.quantile(0.99);
    const auto p999 = r.latency.quantile(0.999);
    require(p50 <= p99 && p99 <= p999 && p999 <= r.horizon,
            at + "p50 <= p99 <= p999 <= horizon violated");
    require(r.resilience.hedge_wins <= r.resilience.hedges,
            at + "hedge_wins > hedges");

    const auto days = static_cast<std::uint64_t>(w.horizon_days);
    const GroupBounds& b = bounds();
    require(r.regime.online_seconds <= b.all_contacts * days,
            at + "realized group online time exceeds the owner-plus-contacts "
                 "union");
    if (zero_faults_)
      require(r.regime.online_seconds >= b.owners * days,
              at + "realized group online time below the owners' own");
  }

  std::string name_;
  std::uint64_t seed_;
  dosn::serve::ServingConfig config_;
  bool zero_faults_;
  dosn::synth::ScaleInputConfig input_config_;
  std::optional<dosn::synth::ScaleStudyInput> input_;
  std::optional<GroupBounds> bounds_;
  double hedge_win_ratio_ = 0.0;
};

void Serve::probe_layers(LayerMetrics& out) {
  probe_synthesis(input_config_.preset, seed_, input_config_.chunk_users, out);
  const auto& graph = input_->dataset.graph;
  const auto& schedules = input_->schedules;
  const int days = config_.workload.horizon_days;

  // Every profile a serving call places: the served users and every
  // contact their reads and feeds fan into.
  std::vector<UserId> profiles(input_->cohort.begin(), input_->cohort.end());
  for (const UserId u : input_->cohort) {
    const auto c = graph.contacts(u);
    profiles.insert(profiles.end(), c.begin(), c.end());
  }
  std::sort(profiles.begin(), profiles.end());
  profiles.erase(std::unique(profiles.begin(), profiles.end()),
                 profiles.end());

  const auto plan_for = [&](UserId user) {
    dosn::net::FaultPlan plan = config_.faults;
    plan.seed = dosn::util::mix64(plan.seed, user);
    return plan;
  };

  const auto policy =
      dosn::placement::make_policy(config_.policy, config_.policy_params);
  std::vector<std::vector<UserId>> selection(profiles.size());
  const Counters before = counter_snapshot();
  const Stopwatch select_watch;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    dosn::placement::PlacementContext ctx;
    ctx.user = profiles[i];
    ctx.candidates = graph.contacts(profiles[i]);
    ctx.schedules = schedules;
    ctx.trace = &input_->dataset.trace;
    ctx.connectivity = config_.connectivity;
    ctx.max_replicas = config_.replicas;
    dosn::util::Rng rng(dosn::util::mix64(seed_, profiles[i]));
    selection[i] = policy->select(ctx, rng);
  }
  record_placement(select_watch.elapsed().wall_s, profiles.size(),
                   counter_delta(before, counter_snapshot()), out);

  // Each group's realized member sessions, then their union, timed apart
  // per group so no group's sessions outlive it.
  double sessions_s = 0.0, union_s = 0.0;
  std::size_t pieces = 0;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    auto t = Clock::now();
    dosn::net::FaultInjector injector(plan_for(profiles[i]));
    std::vector<std::vector<Interval>> member;
    member.push_back(injector.sessions(0, schedules[profiles[i]], days));
    for (std::size_t m = 0; m < selection[i].size(); ++m)
      member.push_back(
          injector.sessions(m + 1, schedules[selection[i][m]], days));
    sessions_s += seconds_since(t);
    t = Clock::now();
    dosn::interval::IntervalSet online;
    for (const auto& s : member)
      for (const auto& iv : s) online.add(iv);
    union_s += seconds_since(t);
    pieces += online.piece_count();
  }
  out["net.fault_sessions_s"] = sessions_s;
  out["interval.union_s"] = union_s;
  out["interval.union_pieces"] = static_cast<double>(pieces);

  // Each served user's request stream, then its writes through the
  // replica simulator of its own group.
  double workload_s = 0.0, replica_s = 0.0;
  std::uint64_t events = 0, runs = 0;
  for (const UserId u : input_->cohort) {
    const std::size_t degree = graph.contacts(u).size();
    auto t = Clock::now();
    auto requests = dosn::serve::user_requests(config_.workload, seed_, u,
                                               degree);
    requests = dosn::serve::merge_requests(
        std::move(requests),
        dosn::serve::flash_requests(config_.workload, config_.faults.scenario,
                                    config_.faults.seed, u, degree));
    workload_s += seconds_since(t);

    const auto& sel = selection[static_cast<std::size_t>(
        std::lower_bound(profiles.begin(), profiles.end(), u) -
        profiles.begin())];
    std::vector<dosn::net::UpdateSpec> writes;
    for (const auto& r : requests)
      if (r.kind == dosn::serve::RequestKind::kPostWrite)
        writes.push_back({r.time, 0});
    if (writes.empty() || sel.empty()) continue;
    std::vector<dosn::interval::DaySchedule> nodes{schedules[u]};
    for (const UserId h : sel) nodes.push_back(schedules[h]);
    dosn::net::ReplicaSimConfig sim;
    sim.connectivity = config_.connectivity;
    sim.horizon_days = days;
    sim.faults = plan_for(u);
    t = Clock::now();
    const auto report = dosn::net::simulate_replica_group(nodes, writes, sim);
    replica_s += seconds_since(t);
    events += report.events;
    ++runs;
  }
  out["serve.workload_s"] = workload_s;
  out["net.replica_sim_s"] = replica_s;
  out["net.sim_events"] = static_cast<double>(events);
  out["net.replica_sim_runs"] = static_cast<double>(runs);
  out["serve.hedge_win_ratio"] = hedge_win_ratio_;
}

}  // namespace

std::unique_ptr<Workload> make_serve_read(std::uint64_t seed) {
  return std::make_unique<Serve>("serve_read", seed, read_config(), true);
}

std::unique_ptr<Workload> make_serve_write_faults(std::uint64_t seed) {
  return std::make_unique<Serve>("serve_write_faults", seed,
                                 write_faults_config(seed), false);
}

}  // namespace perfbench
