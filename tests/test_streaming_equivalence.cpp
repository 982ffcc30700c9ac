// Differential tests of the study engine and the million-user input path.
//
// Study runs every sweep through one parallel cohort evaluator. Its
// replication sweep must equal a serial reference kept here — per user,
// select and then evaluate_user on each replication prefix separately,
// reduced in cohort order — not approximately, but double for double, for
// every thread count. Likewise the chunked million-user input builder
// (synth::build_scale_study_input) must reproduce the materialized
// generate_raw + SporadicModel pipeline exactly (schedules equal, trace
// equal restricted to cohort receivers, sweeps equal). These tests pin
// both contracts at small N where the reference paths are cheap.
#include <gtest/gtest.h>

#include "graph/degree_stats.hpp"
#include "onlinetime/sporadic.hpp"
#include "sim/cohort_accum.hpp"
#include "sim/study.hpp"
#include "synth/presets.hpp"
#include "synth/scale.hpp"

namespace dosn {
namespace {

using onlinetime::ModelKind;
using placement::Connectivity;
using sim::CohortMetrics;
using sim::Study;
using sim::SweepResult;

constexpr std::uint64_t kSeed = 20120618;

void expect_sweeps_identical(const SweepResult& a, const SweepResult& b) {
  EXPECT_EQ(a.dataset_name, b.dataset_name);
  EXPECT_EQ(a.model_name, b.model_name);
  EXPECT_EQ(a.connectivity_name, b.connectivity_name);
  EXPECT_EQ(a.xs, b.xs);
  ASSERT_EQ(a.policies.size(), b.policies.size());
  for (std::size_t p = 0; p < a.policies.size(); ++p) {
    EXPECT_EQ(a.policies[p].policy_name, b.policies[p].policy_name);
    ASSERT_EQ(a.policies[p].points.size(), b.policies[p].points.size());
    for (std::size_t k = 0; k < a.policies[p].points.size(); ++k) {
      const auto& x = a.policies[p].points[k];
      const auto& y = b.policies[p].points[k];
      // Field-wise EXPECT_EQ (not the aggregate operator==) so a mismatch
      // reports which metric and which bit pattern diverged.
      EXPECT_EQ(x.availability, y.availability) << "p=" << p << " k=" << k;
      EXPECT_EQ(x.max_availability, y.max_availability)
          << "p=" << p << " k=" << k;
      EXPECT_EQ(x.aod_time, y.aod_time) << "p=" << p << " k=" << k;
      EXPECT_EQ(x.aod_activity, y.aod_activity) << "p=" << p << " k=" << k;
      EXPECT_EQ(x.aod_activity_expected, y.aod_activity_expected)
          << "p=" << p << " k=" << k;
      EXPECT_EQ(x.aod_activity_unexpected, y.aod_activity_unexpected)
          << "p=" << p << " k=" << k;
      EXPECT_EQ(x.delay_actual_h, y.delay_actual_h)
          << "p=" << p << " k=" << k;
      EXPECT_EQ(x.delay_observed_h, y.delay_observed_h)
          << "p=" << p << " k=" << k;
      EXPECT_EQ(x.replicas_used, y.replicas_used) << "p=" << p << " k=" << k;
      EXPECT_EQ(x.cohort_size, y.cohort_size) << "p=" << p << " k=" << k;
    }
  }
  // Checksum consistency rides along: identical sweeps must digest
  // identically (the scale bench relies on the checksum as the comparator).
  EXPECT_EQ(sim::sweep_checksum(a), sim::sweep_checksum(b));
}

trace::Dataset make_dataset(std::size_t users) {
  synth::ScaleOptions opts;
  opts.users = users;
  util::Rng rng(kSeed);
  return synth::generate_raw(synth::scale_preset(opts), rng);
}

sim::StudyOptions base_options() {
  sim::StudyOptions o;
  o.cohort_degree = 0;  // set per dataset below
  o.k_max = 5;
  o.repetitions = 2;
  return o;
}

// The serial reference of Study::replication_sweep: one user at a time, one
// replication prefix at a time through evaluate_user (no prefix-incremental
// evaluation, no worker arenas, no thread pool), on the engine's RNG
// streams, reduced in cohort order with the engine's reduction helpers.
SweepResult reference_replication_sweep(const trace::Dataset& dataset,
                                        std::uint64_t seed, ModelKind kind,
                                        Connectivity connectivity,
                                        const sim::StudyOptions& options) {
  const auto model = onlinetime::make_model(kind, {});
  std::vector<std::vector<sim::DaySchedule>> schedules;
  for (std::size_t r = 0; r < (model->randomized() ? options.repetitions : 1);
       ++r) {
    util::Rng rng(util::mix64(seed, sim::detail::kScheduleStreamBase + r));
    schedules.push_back(model->schedules(dataset, rng));
  }
  const auto cohort =
      graph::users_with_degree(dataset.graph, options.cohort_degree);

  SweepResult result;
  result.dataset_name = dataset.name;
  result.model_name = model->name();
  result.connectivity_name = placement::to_string(connectivity);
  for (std::size_t k = 0; k <= options.k_max; ++k)
    result.xs.push_back(static_cast<double>(k));
  for (std::size_t p = 0; p < options.policies.size(); ++p) {
    const auto policy =
        placement::make_policy(options.policies[p], options.policy_params);
    const std::size_t reps = (model->randomized() || policy->randomized())
                                 ? options.repetitions
                                 : 1;
    std::vector<std::vector<CohortMetrics>> runs;
    for (std::size_t r = 0; r < reps; ++r) {
      const auto& sched = schedules[model->randomized() ? r : 0];
      const std::uint64_t stream =
          sim::sweep_stream(seed, sim::detail::kReplicationTag, 0, p, r);
      std::vector<sim::detail::CohortAccum> accum(options.k_max + 1);
      for (const graph::UserId u : cohort) {
        placement::PlacementContext context;
        context.user = u;
        context.candidates = dataset.graph.contacts(u);
        context.schedules = sched;
        context.trace = &dataset.trace;
        context.connectivity = connectivity;
        context.max_replicas = options.k_max;
        util::Rng rng(util::mix64(stream, u));
        const auto selected = policy->select(context, rng);
        for (std::size_t k = 0; k <= options.k_max; ++k) {
          const std::size_t take = std::min(k, selected.size());
          accum[k].add(sim::evaluate_user(dataset, sched, u,
                                          {selected.data(), take},
                                          connectivity));
        }
      }
      std::vector<CohortMetrics> run;
      for (const auto& a : accum) run.push_back(a.mean());
      runs.push_back(std::move(run));
    }
    sim::PolicyCurve curve;
    curve.policy_name = policy->name();
    curve.policy = options.policies[p];
    for (std::size_t k = 0; k <= options.k_max; ++k) {
      std::vector<CohortMetrics> at_k;
      for (const auto& run : runs) at_k.push_back(run[k]);
      curve.points.push_back(sim::detail::average_runs(at_k));
    }
    result.policies.push_back(std::move(curve));
  }
  return result;
}

class StudyOracle : public ::testing::TestWithParam<std::size_t> {};

// Study == its serial reference for every thread count, across all
// policies, under ConRep (deterministic Sporadic model) and UnconRep
// (randomized RandomLength model, one realization per repetition), at
// N = 1k and 10k.
TEST_P(StudyOracle, MatchesSerialReferenceAcrossThreadCounts) {
  const auto dataset = make_dataset(GetParam());
  const std::size_t degree =
      graph::most_populated_degree(dataset.graph, 5, 15);
  Study study(dataset, kSeed);

  auto options = base_options();
  options.cohort_degree = degree;
  options.k_max = std::min<std::size_t>(options.k_max, degree);
  for (const auto& [kind, connectivity] :
       {std::pair{ModelKind::kSporadic, Connectivity::kConRep},
        std::pair{ModelKind::kRandomLength, Connectivity::kUnconRep}}) {
    const auto reference = reference_replication_sweep(
        dataset, kSeed, kind, connectivity, options);
    for (const std::size_t threads : {1, 4}) {
      options.threads = threads;
      SCOPED_TRACE(reference.model_name + " " + reference.connectivity_name +
                   " threads=" + std::to_string(threads));
      expect_sweeps_identical(
          reference,
          study.replication_sweep(kind, {}, connectivity, options));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Populations, StudyOracle,
                         ::testing::Values(1000, 10000));

// The chunked scale-input builder reproduces the materialized pipeline:
// same schedules, the same trace restricted to cohort receivers, and a
// bit-identical sweep through the precomputed-schedules overload.
TEST(ScaleInput, MatchesMaterializedPipeline) {
  constexpr std::size_t kUsers = 1000;

  synth::ScaleInputConfig config;
  synth::ScaleOptions opts;
  opts.users = kUsers;
  config.preset = synth::scale_preset(opts);
  config.chunk_users = 97;  // force many chunks
  const auto input = synth::build_scale_study_input(config, kSeed);

  // Materialized reference: same generation stream, full trace.
  util::Rng gen_rng(kSeed);
  const auto full = synth::generate_raw(config.preset, gen_rng);
  ASSERT_EQ(full.num_users(), kUsers);
  ASSERT_EQ(input.dataset.num_users(), kUsers);

  // Schedules: SporadicModel over the full dataset under Study's rep-0
  // schedule stream.
  util::Rng sched_rng(util::mix64(kSeed, sim::detail::kScheduleStreamBase));
  const onlinetime::SporadicModel model(config.session_length);
  const auto expected_schedules = model.schedules(full, sched_rng);
  ASSERT_EQ(input.schedules.size(), expected_schedules.size());
  for (std::size_t u = 0; u < expected_schedules.size(); ++u)
    EXPECT_EQ(input.schedules[u], expected_schedules[u]) << "user " << u;

  // Cohort: same degree, same members.
  EXPECT_EQ(input.cohort_degree,
            graph::most_populated_degree(full.graph, 5, 15));
  EXPECT_EQ(input.cohort,
            graph::users_with_degree(full.graph, input.cohort_degree));

  // Trace: everything a cohort member receives is retained, byte for byte.
  EXPECT_EQ(input.total_activities,
            static_cast<std::uint64_t>(full.trace.size()));
  EXPECT_LT(input.dataset.trace.size(), full.trace.size());
  for (const graph::UserId u : input.cohort) {
    const auto got = input.dataset.trace.received_by(u);
    const auto want = full.trace.received_by(u);
    ASSERT_EQ(got.size(), want.size()) << "user " << u;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].creator, want[i].creator);
      EXPECT_EQ(got[i].receiver, want[i].receiver);
      EXPECT_EQ(got[i].timestamp, want[i].timestamp);
    }
  }

  // End to end: the precomputed-schedules sweep over the restricted input
  // equals the model-driven sweep over the materialized dataset.
  auto options = base_options();
  options.cohort_degree = input.cohort_degree;
  options.k_max = std::min<std::size_t>(options.k_max, input.cohort_degree);
  Study study(full, kSeed);
  const auto baseline = study.replication_sweep(
      ModelKind::kSporadic,
      {.session_length = config.session_length}, Connectivity::kConRep,
      options);

  Study restricted(input.dataset, kSeed);
  options.threads = 4;
  expect_sweeps_identical(
      baseline,
      restricted.replication_sweep(input.schedules, input.model_name,
                                   Connectivity::kConRep, options));
}

// The pipelined scale-input builder (producer thread + SPSC chunk queue +
// parallel fold stages on the work-stealing runtime) reproduces the
// serial builder bit for bit: same schedules, same restricted trace, same
// cohort — for several queue capacities and chunk sizes, repeated so
// different producer/consumer interleavings are actually exercised.
TEST(ScalePipeline, PipelinedInputMatchesSerialBuilder) {
  constexpr std::size_t kUsers = 1000;
  synth::ScaleOptions opts;
  opts.users = kUsers;

  synth::ScaleInputConfig config;
  config.preset = synth::scale_preset(opts);
  config.chunk_users = 97;  // force many chunks
  const auto serial = synth::build_scale_study_input(config, kSeed);

  for (const std::size_t queue_capacity : {1, 2, 4}) {
    for (const std::size_t chunk_users : {31, 97, 2048}) {
      auto pipelined_config = config;
      pipelined_config.chunk_users = chunk_users;
      pipelined_config.pipeline_queue_capacity = queue_capacity;
      util::PipelineRuntime runtime({.threads = 4});
      const auto pipelined =
          synth::build_scale_study_input(pipelined_config, kSeed, &runtime);
      SCOPED_TRACE("queue_capacity=" + std::to_string(queue_capacity) +
                   " chunk_users=" + std::to_string(chunk_users));

      EXPECT_EQ(pipelined.total_activities, serial.total_activities);
      EXPECT_EQ(pipelined.cohort_degree, serial.cohort_degree);
      EXPECT_EQ(pipelined.cohort, serial.cohort);
      ASSERT_EQ(pipelined.schedules.size(), serial.schedules.size());
      for (std::size_t u = 0; u < serial.schedules.size(); ++u)
        ASSERT_EQ(pipelined.schedules[u], serial.schedules[u])
            << "user " << u;
      const auto got = pipelined.dataset.trace.all();
      const auto want = serial.dataset.trace.all();
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], want[i]) << "activity " << i;
    }
  }
}

// sweep_checksum is bit-identical across thread counts {1, 2, 4, 8} on a
// shared work-stealing pool, with steal granularity forced to 1 so steal
// traffic is maximal. Runs under the TSan CI job (suite name carries
// "ScalePipeline").
TEST(ScalePipeline, SweepChecksumIdenticalAcrossThreads) {
  const auto dataset = make_dataset(1000);
  const std::size_t degree =
      graph::most_populated_degree(dataset.graph, 5, 15);
  Study study(dataset, kSeed);

  auto options = base_options();
  options.cohort_degree = degree;
  options.k_max = std::min<std::size_t>(options.k_max, degree);

  std::uint64_t reference = 0;
  bool have_reference = false;
  for (const std::size_t threads : {1, 2, 4, 8}) {
    util::ThreadPool pool(
        util::RuntimeOptions{.threads = threads, .steal_grain = 1});
    options.pool = &pool;
    const auto sweep = study.replication_sweep(
        ModelKind::kSporadic, {}, Connectivity::kConRep, options);
    options.pool = nullptr;
    const std::uint64_t checksum = sim::sweep_checksum(sweep);
    if (!have_reference) {
      reference = checksum;
      have_reference = true;
    }
    EXPECT_EQ(checksum, reference) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace dosn
