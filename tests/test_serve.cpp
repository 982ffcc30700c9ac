// Tests for the request-level serving layer: histogram quantile contract
// against a sorted-vector oracle, workload determinism, serving semantics
// against hand-computed waits, bit-identity across thread counts and
// observability settings, and exact SLO-miss monotonicity under nested
// fault intensities.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "obs/obs.hpp"
#include "serve/serving.hpp"
#include "synth/scale.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace dosn::serve {
namespace {

using interval::DaySchedule;
using interval::Interval;
using interval::IntervalSet;
using interval::kDaySeconds;

constexpr Seconds kH = 3600;

DaySchedule window(Seconds start_h, Seconds end_h) {
  return DaySchedule(IntervalSet::single(start_h * kH, end_h * kH));
}

/// Absolute (non-periodic) online set of a daily schedule over `days`.
IntervalSet absolute(const DaySchedule& s, int days) {
  IntervalSet out;
  for (int d = 0; d < days; ++d)
    for (const auto& iv : s.set().pieces())
      out.add(d * kDaySeconds + iv.start, d * kDaySeconds + iv.end);
  return out;
}

// ------------------------------------------------------ LatencyHistogram

TEST(LatencyHistogramTest, DefaultBoundsAreStrictlyIncreasing) {
  const auto& b = LatencyHistogram::default_bounds();
  ASSERT_FALSE(b.empty());
  EXPECT_EQ(b.front(), 0);
  for (std::size_t i = 1; i < b.size(); ++i) EXPECT_LT(b[i - 1], b[i]);
  EXPECT_GE(b.back(), 14 * kDaySeconds);
}

TEST(LatencyHistogramTest, QuantileMatchesSortedVectorOracle) {
  util::Rng rng(0xfeedULL);
  LatencyHistogram h;
  std::vector<Seconds> values;
  for (int i = 0; i < 5000; ++i) {
    // Mixed magnitudes: 0 s .. ~2M s, heavy at the low end.
    const auto magnitude = rng.below(22);
    const auto v = static_cast<Seconds>(rng.below(1ULL << magnitude));
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  ASSERT_EQ(h.count(), values.size());
  EXPECT_EQ(h.max(), values.back());

  const auto bounds = h.bounds();
  for (const double q :
       {0.0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const auto rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(q * static_cast<double>(values.size()))));
    const Seconds exact = values[rank - 1];
    // The documented contract: smallest bound >= the exact order
    // statistic, or the exact maximum from the overflow bucket.
    const auto it = std::lower_bound(bounds.begin(), bounds.end(), exact);
    const Seconds expected = it == bounds.end() ? values.back() : *it;
    EXPECT_EQ(h.quantile(q), expected) << "q=" << q;
  }
}

TEST(LatencyHistogramTest, MergeEqualsRecordingEverythingInOne) {
  util::Rng rng(7);
  LatencyHistogram all, a, b, c;
  for (int i = 0; i < 1000; ++i) {
    const auto v = static_cast<Seconds>(rng.below(100'000));
    all.record(v);
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).record(v);
  }
  a.merge(b);
  a.merge(c);
  EXPECT_EQ(a, all);
  EXPECT_EQ(a.sum(), all.sum());
}

TEST(LatencyHistogramTest, EmptyAndContracts) {
  LatencyHistogram h;
  EXPECT_EQ(h.quantile(0.99), 0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_THROW(h.record(-1), util::ContractError);
  EXPECT_THROW(h.quantile(1.5), util::ContractError);
  // Bounds are caller-supplied configuration, not an internal invariant.
  EXPECT_THROW(LatencyHistogram(std::vector<Seconds>{}), ConfigError);
  EXPECT_THROW(LatencyHistogram(std::vector<Seconds>{3, 3}), ConfigError);
}

// ------------------------------------------------------------- workload

TEST(WorkloadTest, StreamIsAPureFunctionOfSeedAndUser) {
  WorkloadConfig config;
  const auto a = user_requests(config, 42, 7, 20);
  const auto b = user_requests(config, 42, 7, 20);
  EXPECT_EQ(a, b);
  // Different user or seed: a different stream.
  EXPECT_NE(a, user_requests(config, 42, 8, 20));
  EXPECT_NE(a, user_requests(config, 43, 7, 20));
}

TEST(WorkloadTest, RequestsSortedInHorizonWithValidTargets) {
  WorkloadConfig config;
  config.requests_per_user_per_day = 8.0;
  const std::size_t degree = 5;
  const auto requests = user_requests(config, 1, 3, degree);
  const Seconds horizon = config.horizon_days * kDaySeconds;
  // ~112 expected; a generous deterministic band.
  EXPECT_GT(requests.size(), 40u);
  EXPECT_LT(requests.size(), 250u);
  Seconds prev = 0;
  bool saw[3] = {false, false, false};
  for (const auto& r : requests) {
    EXPECT_GE(r.time, prev);
    prev = r.time;
    EXPECT_LT(r.time, horizon);
    EXPECT_LT(r.target_index, degree);
    saw[static_cast<int>(r.kind)] = true;
  }
  EXPECT_TRUE(saw[0] && saw[1] && saw[2]);
}

TEST(WorkloadTest, ValidateRejectsBadKnobs) {
  WorkloadConfig config;
  config.requests_per_user_per_day = 0.0;
  EXPECT_THROW(user_requests(config, 1, 1, 1), ConfigError);
  config = {};
  config.read_fraction = 0.8;
  config.feed_fraction = 0.3;
  EXPECT_THROW(validate(config), ConfigError);
  config = {};
  config.horizon_days = 0;
  EXPECT_THROW(validate(config), ConfigError);
}

// ------------------------------------------------------ serving semantics

trace::Dataset pair_dataset() {
  graph::SocialGraphBuilder b(graph::GraphKind::kUndirected, 2);
  b.add_edge(0, 1);
  trace::Dataset d;
  d.name = "pair";
  d.graph = std::move(b).build();
  d.trace = trace::ActivityTrace(2, {});
  return d;
}

/// Hand-computed report for the two-user, zero-replica, zero-fault case.
struct PairOracle {
  std::uint64_t requests = 0;
  std::uint64_t unserved = 0;
  std::uint64_t slo_misses = 0;
  Seconds latency_sum = 0;
};

PairOracle pair_conrep_oracle(const ServingConfig& config, std::uint64_t seed,
                              std::span<const DaySchedule> schedules) {
  PairOracle o;
  for (graph::UserId u : {0u, 1u}) {
    const auto friend_online =
        absolute(schedules[u == 0 ? 1 : 0], config.workload.horizon_days);
    for (const auto& r : user_requests(config.workload, seed, u, 1)) {
      ++o.requests;
      std::optional<Seconds> latency;
      if (r.kind == RequestKind::kPostWrite) {
        latency = 0;  // zero replicas: local durability
      } else {
        // Read and (single-contact) feed both wait for the one friend.
        if (const auto next = friend_online.next_at_or_after(r.time))
          latency = *next - r.time;
      }
      if (!latency) {
        ++o.unserved;
        ++o.slo_misses;
      } else {
        o.latency_sum += *latency;
        if (*latency > config.slo) ++o.slo_misses;
      }
    }
  }
  return o;
}

TEST(ServingTest, ConRepPairMatchesHandComputedWaits) {
  const auto d = pair_dataset();
  const std::vector<DaySchedule> schedules{window(8, 10), window(12, 16)};
  const std::vector<graph::UserId> cohort{0, 1};
  ServingConfig config;
  config.replicas = 0;
  config.workload.horizon_days = 3;

  std::uint64_t total_unserved = 0;
  for (const std::uint64_t seed : {99u, 5u, 17u, 23u, 42u}) {
    const auto report = run_serving_study(d, schedules, cohort, seed, config);
    const auto oracle = pair_conrep_oracle(config, seed, schedules);

    EXPECT_EQ(report.requests, oracle.requests) << "seed " << seed;
    EXPECT_GT(report.requests, 0u);
    EXPECT_EQ(report.unserved, oracle.unserved) << "seed " << seed;
    EXPECT_EQ(report.slo_misses, oracle.slo_misses) << "seed " << seed;
    EXPECT_EQ(report.latency.sum(), oracle.latency_sum) << "seed " << seed;
    EXPECT_EQ(report.served, report.requests - report.unserved);
    EXPECT_EQ(report.served_users, 2u);
    EXPECT_DOUBLE_EQ(report.slo_miss_fraction(),
                     static_cast<double>(oracle.slo_misses) /
                         static_cast<double>(oracle.requests));
    total_unserved += report.unserved;
  }
  // Some read of user 0's profile after its final session must have been
  // unserveable across these seeds.
  EXPECT_GT(total_unserved, 0u);
}

TEST(ServingTest, CryptoTaxShiftsEveryServedRequest) {
  const auto d = pair_dataset();
  const std::vector<DaySchedule> schedules{window(8, 10), window(12, 16)};
  const std::vector<graph::UserId> cohort{0, 1};
  ServingConfig config;
  config.replicas = 0;
  config.workload.horizon_days = 3;

  const auto base = run_serving_study(d, schedules, cohort, 5, config);
  config.crypto_op_cost = 7;
  const auto taxed = run_serving_study(d, schedules, cohort, 5, config);

  // Degree 1, zero replicas: read +7, feed +7, write +7 — every served
  // request shifts by exactly one op.
  EXPECT_EQ(taxed.requests, base.requests);
  EXPECT_EQ(taxed.unserved, base.unserved);
  EXPECT_EQ(taxed.latency.sum(),
            base.latency.sum() + 7 * static_cast<Seconds>(base.served));
  EXPECT_GE(taxed.slo_misses, base.slo_misses);
  EXPECT_NE(taxed.request_log_checksum, base.request_log_checksum);
}

TEST(ServingTest, UnconRepReadsHitTheRelayInstantly) {
  const auto d = pair_dataset();
  const std::vector<DaySchedule> schedules{window(8, 10), window(12, 16)};
  const std::vector<graph::UserId> cohort{0, 1};
  ServingConfig config;
  config.replicas = 0;
  config.connectivity = placement::Connectivity::kUnconRep;
  config.workload.horizon_days = 3;
  const std::uint64_t seed = 17;

  const auto report = run_serving_study(d, schedules, cohort, seed, config);

  // No relay outage: every read/feed is served from the store at once.
  EXPECT_EQ(report.read.latency.sum(), 0);
  EXPECT_EQ(report.feed.latency.sum(), 0);
  EXPECT_EQ(report.read.unserved + report.feed.unserved, 0u);

  // Writes wait for the owner's next session (upload to the store).
  Seconds expected_write_sum = 0;
  std::uint64_t expected_write_unserved = 0;
  for (graph::UserId u : {0u, 1u}) {
    const auto own = absolute(schedules[u], config.workload.horizon_days);
    for (const auto& r : user_requests(config.workload, seed, u, 1)) {
      if (r.kind != RequestKind::kPostWrite) continue;
      if (const auto next = own.next_at_or_after(r.time))
        expected_write_sum += *next - r.time;
      else
        ++expected_write_unserved;
    }
  }
  EXPECT_EQ(report.write.latency.sum(), expected_write_sum);
  EXPECT_EQ(report.write.unserved, expected_write_unserved);
}

TEST(ServingTest, RelayOutageDelaysUnconRepReads) {
  const auto d = pair_dataset();
  const std::vector<DaySchedule> schedules{window(8, 10), window(12, 16)};
  const std::vector<graph::UserId> cohort{0, 1};
  ServingConfig config;
  config.replicas = 0;
  config.connectivity = placement::Connectivity::kUnconRep;
  config.workload.horizon_days = 3;
  config.faults.relay_outages.push_back({0, 2 * kDaySeconds});

  const auto report = run_serving_study(d, schedules, cohort, 23, config);
  // During the outage a read still falls back to the friend's group wait;
  // some reads must now realize a positive latency.
  EXPECT_GT(report.read.latency.sum() + report.feed.latency.sum(), 0);
}

TEST(ServingTest, ValidateRejectsBadConfig) {
  const auto d = pair_dataset();
  const std::vector<DaySchedule> schedules{window(8, 10), window(12, 16)};
  const std::vector<graph::UserId> cohort{0};
  ServingConfig config;
  config.crypto_op_cost = -1;
  EXPECT_THROW(run_serving_study(d, schedules, cohort, 1, config), ConfigError);
  config = {};
  config.slo = -5;
  EXPECT_THROW(run_serving_study(d, schedules, cohort, 1, config), ConfigError);
  config = {};
  const std::vector<DaySchedule> wrong(1);
  EXPECT_THROW(run_serving_study(d, wrong, cohort, 1, config), ConfigError);
}

// --------------------------------------------- determinism at small scale

synth::ScaleStudyInput small_input() {
  synth::ScaleOptions options;
  options.users = 400;
  synth::ScaleInputConfig config;
  config.preset = synth::scale_preset(options);
  config.chunk_users = 128;
  return synth::build_scale_study_input(config, 20120618);
}

ServingConfig small_config() {
  ServingConfig config;
  config.replicas = 3;
  config.served_users = 24;
  config.workload.horizon_days = 7;
  config.faults.seed = 5;
  config.faults.session_no_show = 0.3;
  config.faults.session_truncate = 0.3;
  config.faults.truncate_max_fraction = 0.8;
  config.faults.relay_outages.push_back({kDaySeconds, 3 * kDaySeconds});
  return config;
}

TEST(ServingTest, BitIdenticalAcrossThreadCountsAndObservability) {
  const auto input = small_input();
  ASSERT_GE(input.cohort.size(), 24u);
  const auto config = small_config();

  const auto serial = run_serving_study(input.dataset, input.schedules,
                                        input.cohort, 11, config);
  EXPECT_GT(serial.requests, 0u);
  EXPECT_GT(serial.request_log_checksum, 0u);

  for (const std::size_t threads : {2u, 4u, 8u}) {
    util::ThreadPool pool(threads);
    const auto parallel = run_serving_study(input.dataset, input.schedules,
                                            input.cohort, 11, config, &pool);
    EXPECT_EQ(parallel, serial) << threads << " threads";
  }

  const bool was_enabled = obs::enabled();
  obs::set_enabled(false);
  const auto dark = run_serving_study(input.dataset, input.schedules,
                                      input.cohort, 11, config);
  obs::set_enabled(was_enabled);
  EXPECT_EQ(dark, serial);
}

TEST(ServingTest, SloMissesMonotoneUnderScaledFaults) {
  const auto input = small_input();
  auto config = small_config();
  const net::FaultPlan base = config.faults;

  std::uint64_t prev_misses = 0;
  std::uint64_t prev_unserved = 0;
  bool first = true;
  std::uint64_t requests = 0;
  for (const double f : {0.0, 0.3, 0.7, 1.0}) {
    config.faults = net::scaled(base, f);
    const auto report = run_serving_study(input.dataset, input.schedules,
                                          input.cohort, 11, config);
    if (first) {
      requests = report.requests;
      first = false;
    }
    // The workload is independent of the fault plan...
    EXPECT_EQ(report.requests, requests);
    // ...and nested realizations degrade exactly monotonically.
    EXPECT_GE(report.slo_misses, prev_misses) << "intensity " << f;
    EXPECT_GE(report.unserved, prev_unserved) << "intensity " << f;
    prev_misses = report.slo_misses;
    prev_unserved = report.unserved;
  }
  EXPECT_GT(prev_misses, 0u);
}

// ------------------------------------------------------------ resilience

ResiliencePolicy full_resilience() {
  ResiliencePolicy p;
  p.hedged_reads = true;
  p.stale_failover = true;
  p.degrade_feeds = true;
  return p;
}

/// The per-request outcomes two reports share when the resilience policy
/// never fires: the request log plus every latency/SLO aggregate (the
/// effort counters legitimately differ — hedges are launched and retries
/// scheduled even when they never win).
void expect_same_outcomes(const ServingReport& a, const ServingReport& b) {
  EXPECT_EQ(a.request_log_checksum, b.request_log_checksum);
  EXPECT_EQ(a.read, b.read);
  EXPECT_EQ(a.feed, b.feed);
  EXPECT_EQ(a.write, b.write);
  EXPECT_EQ(a.latency, b.latency);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.unserved, b.unserved);
  EXPECT_EQ(a.slo_misses, b.slo_misses);
}

TEST(ResilienceTest, ZeroPlanBitIdentityAcrossThreadCounts) {
  const auto input = small_input();
  // Zero fault plan under ConRep, and a relay outage under UnconRep: in
  // both regimes every resilience mechanism must be a no-op on the
  // request log (each alternative arrival is provably no earlier than
  // the primary when sessions are unfaulted).
  for (const bool unconrep : {false, true}) {
    ServingConfig config;
    config.replicas = 3;
    config.served_users = 24;
    config.workload.horizon_days = 7;
    if (unconrep) {
      config.connectivity = placement::Connectivity::kUnconRep;
      config.faults.relay_outages.push_back({kDaySeconds, 3 * kDaySeconds});
    }
    const auto naive = run_serving_study(input.dataset, input.schedules,
                                         input.cohort, 11, config);

    config.resilience = full_resilience();
    const auto resilient = run_serving_study(input.dataset, input.schedules,
                                             input.cohort, 11, config);
    expect_same_outcomes(resilient, naive);
    EXPECT_EQ(resilient.resilience.hedge_wins, 0u);
    EXPECT_EQ(resilient.resilience.stale_served, 0u);
    EXPECT_EQ(resilient.resilience.degraded_feeds, 0u);
    EXPECT_DOUBLE_EQ(resilient.resilience.feed_coverage_mean(), 1.0);

    for (const std::size_t threads : {2u, 4u, 8u}) {
      util::ThreadPool pool(threads);
      const auto parallel = run_serving_study(
          input.dataset, input.schedules, input.cohort, 11, config, &pool);
      EXPECT_EQ(parallel, resilient) << threads << " threads";
    }
  }
}

/// The composite scenario the metamorphic tests sweep: all three macro
/// event classes layered on the small_config churn base.
ServingConfig composite_config() {
  auto config = small_config();
  config.faults.scenario = net::parse_scenario(
      "regional_outage regions=2 region=0 start=86400 end=259200 "
      "participation=1\n"
      "flash_crowd start=172800 end=345600 load_multiplier=3\n"
      "churn_burst start=259200 end=432000 no_show=0.8 participation=0.9\n");
  return config;
}

TEST(ResilienceTest, SloMissesMonotoneInCompositeIntensity) {
  const auto input = small_input();
  const auto base = composite_config();

  for (const std::uint64_t seed : {5u, 11u, 23u}) {
    for (const bool resilient : {false, true}) {
      auto config = base;
      if (resilient) config.resilience = full_resilience();
      std::uint64_t prev_misses = 0, prev_requests = 0;
      bool first = true;
      for (const double f : {0.0, 0.4, 0.7, 1.0}) {
        config.faults = net::scaled(base.faults, f);
        if (resilient) config.resilience = full_resilience();
        const auto report = run_serving_study(input.dataset, input.schedules,
                                              input.cohort, seed, config);
        if (!first) {
          // Flash extras nest (prefix subsets), so the request count is
          // monotone; nested realizations make the misses monotone.
          EXPECT_GE(report.requests, prev_requests)
              << "seed " << seed << " f " << f;
          EXPECT_GE(report.slo_misses, prev_misses)
              << "seed " << seed << " f " << f << " resilient " << resilient;
        }
        prev_misses = report.slo_misses;
        prev_requests = report.requests;
        first = false;
      }
      EXPECT_GT(prev_misses, 0u);
    }
  }
}

TEST(ResilienceTest, ResilientNeverWorseThanNaiveAtAnyIntensity) {
  const auto input = small_input();
  const auto base = composite_config();

  for (const std::uint64_t seed : {5u, 11u, 23u}) {
    bool helped = false;
    for (const double f : {0.0, 0.5, 1.0}) {
      auto config = base;
      config.faults = net::scaled(base.faults, f);
      const auto naive = run_serving_study(input.dataset, input.schedules,
                                           input.cohort, seed, config);
      config.resilience = full_resilience();
      const auto resilient = run_serving_study(input.dataset, input.schedules,
                                               input.cohort, seed, config);
      // Same workload (the flash extras depend on the plan, not the
      // policy)...
      EXPECT_EQ(resilient.requests, naive.requests) << "seed " << seed;
      // ...and every mechanism only ever races *earlier* alternatives.
      EXPECT_LE(resilient.slo_misses, naive.slo_misses)
          << "seed " << seed << " f " << f;
      EXPECT_LE(resilient.unserved, naive.unserved)
          << "seed " << seed << " f " << f;
      if (f == 0.0) expect_same_outcomes(resilient, naive);
      if (resilient.slo_misses < naive.slo_misses) helped = true;
    }
    EXPECT_TRUE(helped) << "seed " << seed;
  }
}

TEST(ResilienceTest, DegradedFeedsReportPartialCoverage) {
  const auto input = small_input();
  auto config = composite_config();
  config.faults = net::scaled(config.faults, 1.0);
  config.resilience = full_resilience();
  const auto report = run_serving_study(input.dataset, input.schedules,
                                        input.cohort, 11, config);
  // Under the full composite scenario the policy actually fires.
  EXPECT_GT(report.resilience.hedges, 0u);
  EXPECT_GT(report.resilience.retries, 0u);
  EXPECT_GT(report.resilience.feed_coverage_count, 0u);
  EXPECT_LE(report.resilience.feed_coverage_mean(), 1.0);
  EXPECT_GT(report.resilience.feed_coverage_mean(), 0.0);
}

// Every serving path's request-log digest, pinned. The identity tests
// above compare the serving path only with itself (across threads,
// observability and zero-plan resilience), so a change that moves every
// configuration's requests the same way passes them; these digests move
// whenever a single latency does.
TEST(ServingTest, RequestLogDigestsPinned) {
  const auto input = small_input();
  struct Pinned {
    placement::Connectivity connectivity;
    placement::StorageRegime regime;
    bool composite;  ///< churn + scenario plan (else the zero plan)
    bool resilient;  ///< full ResiliencePolicy (else naive)
    std::uint64_t checksum;
  };
  constexpr auto kCon = placement::Connectivity::kConRep;
  constexpr auto kUncon = placement::Connectivity::kUnconRep;
  constexpr auto kGroup = placement::StorageRegime::kReplicaGroup;
  constexpr auto kDht = placement::StorageRegime::kSocialDht;
  constexpr auto kPeer = placement::StorageRegime::kSuperPeer;
  const Pinned pinned[] = {
      {kCon, kGroup, false, false, 16833885649032020156ULL},
      {kCon, kGroup, false, true, 16833885649032020156ULL},
      {kCon, kGroup, true, false, 15122330433636683981ULL},
      {kCon, kGroup, true, true, 2278808565848835688ULL},
      {kUncon, kGroup, false, false, 2412375256616140082ULL},
      {kUncon, kGroup, false, true, 2412375256616140082ULL},
      {kUncon, kGroup, true, false, 10995805285133075957ULL},
      {kUncon, kGroup, true, true, 11611341317540662164ULL},
      {kCon, kDht, false, false, 7750672892755861965ULL},
      {kCon, kDht, false, true, 7750672892755861965ULL},
      {kCon, kDht, true, false, 3713542669574469146ULL},
      {kCon, kDht, true, true, 1256231188737719045ULL},
      {kCon, kPeer, false, false, 15635853211066610118ULL},
      {kCon, kPeer, false, true, 15635853211066610118ULL},
      {kCon, kPeer, true, false, 3460807373404184351ULL},
      {kCon, kPeer, true, true, 15497244030539592428ULL},
  };
  for (const Pinned& p : pinned) {
    ServingConfig config = composite_config();
    if (!p.composite) config.faults = {};
    config.connectivity = p.connectivity;
    config.regime = p.regime;
    config.social_dht.replication = 3;
    config.social_dht.hop_cost = 5;
    config.super_peer.volunteer_threshold = 0.05;
    config.super_peer.target_availability = 0.7;
    if (p.resilient) config.resilience = full_resilience();
    const auto report = run_serving_study(input.dataset, input.schedules,
                                          input.cohort, 11, config);
    EXPECT_EQ(report.request_log_checksum, p.checksum)
        << "connectivity " << static_cast<int>(p.connectivity) << " regime "
        << static_cast<int>(p.regime) << " composite " << p.composite
        << " resilient " << p.resilient;
  }
}

TEST(ServingTest, ServedUsersTruncatesTheCohort) {
  const auto input = small_input();
  ServingConfig config;
  config.replicas = 2;
  config.served_users = 5;
  config.workload.horizon_days = 3;
  const auto report = run_serving_study(input.dataset, input.schedules,
                                        input.cohort, 3, config);
  EXPECT_EQ(report.served_users, 5u);
  EXPECT_EQ(report.horizon, 3 * kDaySeconds);
  EXPECT_GT(report.goodput_rps(), 0.0);
}

}  // namespace
}  // namespace dosn::serve
