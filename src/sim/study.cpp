#include "sim/study.hpp"

#include <algorithm>
#include <cstring>
#include <optional>

#include "graph/degree_stats.hpp"
#include "obs/obs.hpp"
#include "onlinetime/sporadic.hpp"
#include "sim/cohort_accum.hpp"

namespace dosn::sim {

using detail::average_runs;
using detail::kDegreeTag;
using detail::kFaultTag;
using detail::kReplicationTag;
using detail::kSamplesTag;
using detail::kSessionTag;

namespace {

/// Study-level volume counters; the sweep drivers also open obs spans
/// (study.<sweep>) so the profile tree shows where wall time goes.
struct StudyMetrics {
  obs::Counter& users_evaluated =
      obs::Registry::global().counter("sim.users_evaluated");
  /// One cell = one evaluate_cohort call (a policy at one sweep x for one
  /// repetition, or one cohort_samples call).
  obs::Counter& sweep_cells =
      obs::Registry::global().counter("sim.sweep_cells");
};

StudyMetrics& study_metrics() {
  static StudyMetrics m;
  return m;
}

/// The sweep's worker set: the caller's shared pool (kept warm across
/// generation and successive sweeps) or a sweep-local pool sized by
/// options.threads, constructed in `local`.
util::ThreadPool& sweep_pool(const StudyOptions& options,
                             std::optional<util::ThreadPool>& local) {
  return options.pool != nullptr ? *options.pool
                                 : local.emplace(options.threads);
}

/// One schedule realization drawn from `stream`, its per-user build run on
/// the sweep's pool; one study.realize_schedules span per call.
std::vector<DaySchedule> realize(const onlinetime::OnlineTimeModel& model,
                                 const trace::Dataset& dataset,
                                 std::uint64_t stream, util::ThreadPool& pool) {
  obs::ScopedTimer span("study.realize_schedules");
  util::Rng rng(stream);
  return model.schedules(dataset, rng, &pool);
}

/// One schedule realization per model repetition (a single one for a
/// deterministic model); realization r draws from mix64(seed, base + r).
std::vector<std::vector<DaySchedule>> realize_schedules(
    const onlinetime::OnlineTimeModel& model, const trace::Dataset& dataset,
    std::size_t repetitions, std::uint64_t seed, std::uint64_t base,
    util::ThreadPool& pool) {
  const std::size_t reps = model.randomized() ? repetitions : 1;
  std::vector<std::vector<DaySchedule>> out;
  out.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r)
    out.push_back(realize(model, dataset, util::mix64(seed, base + r), pool));
  return out;
}

std::vector<std::span<const DaySchedule>> spans_of(
    const std::vector<std::vector<DaySchedule>>& sets) {
  return {sets.begin(), sets.end()};
}

/// Cohort means of every prefix k = 0..stride-1 over user-major `rows`.
/// Rows are accumulated in cohort index order: floating-point accumulation
/// is order-dependent, so this fixed order is what makes the result
/// bit-identical for every thread count.
std::vector<CohortMetrics> cohort_means(std::span<const UserMetrics> rows,
                                        std::size_t stride) {
  std::vector<detail::CohortAccum> accum(stride);
  for (std::size_t off = 0; off < rows.size(); off += stride)
    for (std::size_t k = 0; k < stride; ++k) accum[k].add(rows[off + k]);
  std::vector<CohortMetrics> out;
  out.reserve(stride);
  for (const auto& a : accum) out.push_back(a.mean());
  return out;
}

/// A sweep's header and one empty curve per configured policy.
SweepResult sweep_header(const trace::Dataset& dataset,
                         std::string_view model_name,
                         placement::Connectivity connectivity,
                         std::string x_label, const StudyOptions& options) {
  SweepResult result;
  result.dataset_name = dataset.name;
  result.model_name = std::string(model_name);
  result.connectivity_name = placement::to_string(connectivity);
  result.x_label = std::move(x_label);
  for (const placement::PolicyKind kind : options.policies) {
    PolicyCurve curve;
    curve.policy_name =
        placement::make_policy(kind, options.policy_params)->name();
    curve.policy = kind;
    result.policies.push_back(std::move(curve));
  }
  return result;
}

}  // namespace

std::string to_string(Metric metric) {
  switch (metric) {
    case Metric::kAvailability: return "availability";
    case Metric::kAodTime: return "availability-on-demand-time";
    case Metric::kAodActivity: return "availability-on-demand-activity";
    case Metric::kAodActivityExpected: return "aod-activity-expected";
    case Metric::kAodActivityUnexpected: return "aod-activity-unexpected";
    case Metric::kDelayActualH: return "delay (hours)";
    case Metric::kDelayObservedH: return "observed delay (hours)";
    case Metric::kReplicasUsed: return "replicas used";
  }
  return "?";
}

double metric_value(const CohortMetrics& m, Metric metric) {
  switch (metric) {
    case Metric::kAvailability: return m.availability;
    case Metric::kAodTime: return m.aod_time;
    case Metric::kAodActivity: return m.aod_activity;
    case Metric::kAodActivityExpected: return m.aod_activity_expected;
    case Metric::kAodActivityUnexpected: return m.aod_activity_unexpected;
    case Metric::kDelayActualH: return m.delay_actual_h;
    case Metric::kDelayObservedH: return m.delay_observed_h;
    case Metric::kReplicasUsed: return m.replicas_used;
  }
  return 0.0;
}

std::vector<util::Series> SweepResult::series(Metric metric) const {
  std::vector<util::Series> out;
  for (const auto& curve : policies) {
    util::Series s;
    s.name = curve.policy_name;
    s.x = xs;
    for (const auto& point : curve.points)
      s.y.push_back(metric_value(point, metric));
    out.push_back(std::move(s));
  }
  return out;
}

Study::Study(const trace::Dataset& dataset, std::uint64_t seed)
    : dataset_(dataset), seed_(seed) {}

std::vector<graph::UserId> Study::cohort(std::size_t degree,
                                         std::size_t limit) const {
  auto users = graph::users_with_degree(dataset_.graph, degree);
  if (limit > 0 && users.size() > limit) users.resize(limit);
  return users;
}

std::vector<UserMetrics> Study::evaluate_cohort(
    std::span<const DaySchedule> placement_schedules,
    std::span<const DaySchedule> evaluation_schedules,
    std::span<const graph::UserId> cohort_users,
    const placement::ReplicaPolicy& policy,
    placement::Connectivity connectivity, std::size_t k_max,
    std::uint64_t stream_seed, util::ThreadPool& pool) const {
  obs::ScopedTimer span("study.evaluate_policy");
  study_metrics().sweep_cells.add(1);
  study_metrics().users_evaluated.add(cohort_users.size());

  // Each user evaluates independently into its own rows, drawing from its
  // own RNG stream — no shared mutable state. Each worker thread reuses one
  // arena (EvalScratch plus a row buffer) across every user it evaluates,
  // so steady-state evaluation does not allocate; the arena carries no
  // state from one user to the next, since every call overwrites it.
  const std::size_t stride = k_max + 1;
  std::vector<UserMetrics> rows(cohort_users.size() * stride);
  util::parallel_for_each(&pool, cohort_users.size(), [&](std::size_t i) {
    thread_local EvalScratch scratch;
    thread_local std::vector<UserMetrics> user_rows;
    const graph::UserId u = cohort_users[i];
    placement::PlacementContext context;
    context.user = u;
    context.candidates = dataset_.graph.contacts(u);
    context.schedules = placement_schedules;
    context.trace = &dataset_.trace;
    context.connectivity = connectivity;
    context.max_replicas = k_max;
    util::Rng rng(util::mix64(stream_seed, u));
    const auto selected = policy.select(context, rng);
    evaluate_user_prefixes(dataset_, evaluation_schedules, u, selected,
                           connectivity, k_max, scratch, user_rows);
    DOSN_ASSERT(user_rows.size() == stride);
    std::copy(user_rows.begin(), user_rows.end(), rows.begin() + i * stride);
  });
  return rows;
}

std::vector<std::vector<CohortMetrics>> Study::sweep_policies(
    const Realizations& placement_sets, const Realizations& evaluation_sets,
    std::span<const graph::UserId> cohort_users,
    placement::Connectivity connectivity, std::size_t k_max,
    std::uint64_t tag, std::uint64_t x, const Options& options,
    util::ThreadPool& pool) const {
  const auto pick = [](const Realizations& set, std::size_t r) {
    return set[set.size() == 1 ? 0 : r];
  };
  std::vector<std::vector<CohortMetrics>> curves;
  for (std::size_t p = 0; p < options.policies.size(); ++p) {
    const auto policy =
        placement::make_policy(options.policies[p], options.policy_params);
    const bool randomized =
        placement_sets.size() > 1 || policy->randomized();
    const std::size_t reps = randomized ? options.repetitions : 1;
    std::vector<std::vector<CohortMetrics>> runs;
    for (std::size_t r = 0; r < reps; ++r) {
      const auto rows = evaluate_cohort(
          pick(placement_sets, r), pick(evaluation_sets, r), cohort_users,
          *policy, connectivity, k_max, sweep_stream(seed_, tag, x, p, r),
          pool);
      runs.push_back(cohort_means(rows, k_max + 1));
    }
    std::vector<CohortMetrics> points;
    for (std::size_t k = 0; k <= k_max; ++k) {
      std::vector<CohortMetrics> at_k;
      at_k.reserve(runs.size());
      for (const auto& run : runs) at_k.push_back(run[k]);
      points.push_back(average_runs(at_k));
    }
    curves.push_back(std::move(points));
  }
  return curves;
}

SweepResult Study::replication_sweep(onlinetime::ModelKind model_kind,
                                     const onlinetime::ModelParams& params,
                                     placement::Connectivity connectivity,
                                     const Options& options) const {
  return replication_sweep(*onlinetime::make_model(model_kind, params),
                           connectivity, options);
}

SweepResult Study::replication_sweep(const onlinetime::OnlineTimeModel& model,
                                     placement::Connectivity connectivity,
                                     const Options& options) const {
  obs::ScopedTimer span("study.replication_sweep");
  std::optional<util::ThreadPool> local_pool;
  util::ThreadPool& pool = sweep_pool(options, local_pool);
  const auto schedules =
      realize_schedules(model, dataset_, options.repetitions, seed_,
                        detail::kScheduleStreamBase, pool);
  return replication_sweep_over(spans_of(schedules), model.name(),
                                connectivity, options, pool);
}

SweepResult Study::replication_sweep(std::span<const DaySchedule> schedules,
                                     std::string_view model_name,
                                     placement::Connectivity connectivity,
                                     const Options& options) const {
  obs::ScopedTimer span("study.replication_sweep");
  DOSN_REQUIRE(schedules.size() == dataset_.num_users(),
               "replication_sweep: schedule count mismatch");
  std::optional<util::ThreadPool> local_pool;
  return replication_sweep_over({schedules}, model_name, connectivity,
                                options, sweep_pool(options, local_pool));
}

SweepResult Study::replication_sweep_over(
    const Realizations& schedules, std::string_view model_name,
    placement::Connectivity connectivity, const Options& options,
    util::ThreadPool& pool) const {
  const auto cohort_users =
      cohort(options.cohort_degree, options.cohort_limit);
  DOSN_REQUIRE(!cohort_users.empty(),
               "replication_sweep: no user has the cohort degree");

  SweepResult result = sweep_header(dataset_, model_name, connectivity,
                                    "replication degree", options);
  for (std::size_t k = 0; k <= options.k_max; ++k)
    result.xs.push_back(static_cast<double>(k));
  auto curves = sweep_policies(schedules, schedules, cohort_users,
                               connectivity, options.k_max, kReplicationTag,
                               0, options, pool);
  for (std::size_t p = 0; p < curves.size(); ++p)
    result.policies[p].points = std::move(curves[p]);
  return result;
}

SweepResult Study::session_length_sweep(
    std::span<const interval::Seconds> session_lengths, std::size_t k,
    placement::Connectivity connectivity, const Options& options) const {
  obs::ScopedTimer span("study.session_length_sweep");
  const auto cohort_users =
      cohort(options.cohort_degree, options.cohort_limit);
  DOSN_REQUIRE(!cohort_users.empty(),
               "session_length_sweep: no user has the cohort degree");

  SweepResult result = sweep_header(dataset_, "Sporadic", connectivity,
                                    "session length (sec)", options);
  std::optional<util::ThreadPool> local_pool;
  util::ThreadPool& pool = sweep_pool(options, local_pool);
  for (std::size_t xi = 0; xi < session_lengths.size(); ++xi) {
    result.xs.push_back(static_cast<double>(session_lengths[xi]));
    const onlinetime::SporadicModel model(session_lengths[xi]);
    const auto sched =
        realize(model, dataset_, util::mix64(seed_, 0x3e550000 + xi), pool);
    const Realizations realization{sched};
    const auto curves =
        sweep_policies(realization, realization, cohort_users, connectivity,
                       k, kSessionTag, xi, options, pool);
    for (std::size_t p = 0; p < curves.size(); ++p)
      result.policies[p].points.push_back(curves[p].back());  // fixed k
  }
  return result;
}

SweepResult Study::resilience_sweep(onlinetime::ModelKind model_kind,
                                    const onlinetime::ModelParams& params,
                                    placement::Connectivity connectivity,
                                    const net::FaultPlan& base_plan,
                                    std::span<const double> intensities,
                                    std::size_t k,
                                    const Options& options) const {
  obs::ScopedTimer span("study.resilience_sweep");
  net::validate(base_plan);
  DOSN_REQUIRE(!intensities.empty(), "resilience_sweep: no intensities");
  for (const double f : intensities)
    DOSN_REQUIRE(f >= 0.0 && f <= 1.0,
                 "resilience_sweep: intensity outside [0, 1]");
  const auto model = onlinetime::make_model(model_kind, params);
  const auto cohort_users =
      cohort(options.cohort_degree, options.cohort_limit);
  DOSN_REQUIRE(!cohort_users.empty(),
               "resilience_sweep: no user has the cohort degree");

  std::optional<util::ThreadPool> local_pool;
  util::ThreadPool& pool = sweep_pool(options, local_pool);
  // Ideal schedules come from the replication_sweep stream seeds, so the
  // intensity-0 column equals the replication_sweep point at k (with
  // k_max = k) for deterministic policies — an identity the tests assert.
  const auto ideal =
      realize_schedules(*model, dataset_, options.repetitions, seed_,
                        detail::kScheduleStreamBase, pool);
  bool any_randomized = model->randomized();
  for (const placement::PolicyKind kind : options.policies)
    any_randomized |=
        placement::make_policy(kind, options.policy_params)->randomized();
  const std::size_t reps = any_randomized ? options.repetitions : 1;

  SweepResult result = sweep_header(dataset_, model->name(), connectivity,
                                    "fault intensity", options);
  result.xs.assign(intensities.begin(), intensities.end());
  for (const double f : intensities) {
    // Degraded schedules per repetition at this intensity, shared across
    // policies. The fault realization seed varies with the repetition but
    // *not* the intensity: within a repetition the realizations are nested
    // (scaled() preserves the seed), so every fault present at f1 is
    // present at f2 >= f1 and the per-user online sets — hence
    // availability — degrade exactly monotonically.
    std::vector<std::vector<DaySchedule>> degraded(reps);
    for (std::size_t r = 0; r < reps; ++r) {
      net::FaultPlan realization = base_plan;
      realization.seed = util::mix64(seed_, base_plan.seed, r);
      net::FaultInjector injector(net::scaled(realization, f));
      const auto& from = ideal[model->randomized() ? r : 0];
      degraded[r].reserve(from.size());
      for (std::size_t u = 0; u < from.size(); ++u)
        degraded[r].push_back(injector.degrade_day(u, from[u]));
      injector.flush_stats();
    }
    // Placement sees the ideal schedules; only the evaluation runs on the
    // degraded ones. x = 0 in the stream id keeps randomized placements
    // identical across intensities, preserving nesting.
    const auto curves = sweep_policies(spans_of(ideal), spans_of(degraded),
                                       cohort_users, connectivity, k,
                                       kFaultTag, 0, options, pool);
    for (std::size_t p = 0; p < curves.size(); ++p)
      result.policies[p].points.push_back(curves[p].back());  // fixed k
  }
  return result;
}

std::vector<UserMetrics> Study::cohort_samples(
    onlinetime::ModelKind model_kind, const onlinetime::ModelParams& params,
    placement::Connectivity connectivity, placement::PolicyKind policy_kind,
    std::size_t k, const Options& options) const {
  obs::ScopedTimer span("study.cohort_samples");
  const auto model = onlinetime::make_model(model_kind, params);
  const auto cohort_users =
      cohort(options.cohort_degree, options.cohort_limit);
  DOSN_REQUIRE(!cohort_users.empty(),
               "cohort_samples: no user has the cohort degree");

  std::optional<util::ThreadPool> local_pool;
  util::ThreadPool& pool = sweep_pool(options, local_pool);
  const auto schedules =
      realize(*model, dataset_, util::mix64(seed_, 0xd157), pool);
  const auto policy = placement::make_policy(policy_kind,
                                             options.policy_params);
  const std::uint64_t stream_seed = sweep_stream(
      seed_, kSamplesTag, 0, static_cast<std::uint64_t>(policy_kind), 0);
  const auto rows = evaluate_cohort(schedules, schedules, cohort_users,
                                    *policy, connectivity, k, stream_seed,
                                    pool);
  // Row k of each user: its whole selection (at most k replicas).
  std::vector<UserMetrics> samples;
  samples.reserve(cohort_users.size());
  for (std::size_t i = 0; i < cohort_users.size(); ++i)
    samples.push_back(rows[i * (k + 1) + k]);
  return samples;
}

SweepResult Study::user_degree_sweep(std::size_t max_degree,
                                     onlinetime::ModelKind model_kind,
                                     const onlinetime::ModelParams& params,
                                     placement::Connectivity connectivity,
                                     const Options& options) const {
  return user_degree_sweep(max_degree,
                           *onlinetime::make_model(model_kind, params),
                           connectivity, options);
}

SweepResult Study::user_degree_sweep(std::size_t max_degree,
                                     const onlinetime::OnlineTimeModel& model,
                                     placement::Connectivity connectivity,
                                     const Options& options) const {
  obs::ScopedTimer span("study.user_degree_sweep");
  std::optional<util::ThreadPool> local_pool;
  util::ThreadPool& pool = sweep_pool(options, local_pool);
  const auto realized = realize_schedules(model, dataset_, options.repetitions,
                                          seed_, 0xde60000, pool);
  const auto schedules = spans_of(realized);
  SweepResult result = sweep_header(dataset_, model.name(), connectivity,
                                    "user degree", options);
  for (std::size_t d = 1; d <= max_degree; ++d) {
    result.xs.push_back(static_cast<double>(d));
    const auto cohort_users = cohort(d, options.cohort_limit);
    if (cohort_users.empty()) {
      for (auto& curve : result.policies)
        curve.points.emplace_back();  // empty cohort: zeros
      continue;
    }
    const auto curves =
        sweep_policies(schedules, schedules, cohort_users, connectivity,
                       /*k_max=*/d, kDegreeTag, d, options, pool);
    for (std::size_t p = 0; p < curves.size(); ++p)
      result.policies[p].points.push_back(curves[p].back());  // k = degree
  }
  return result;
}

std::uint64_t sweep_checksum(const SweepResult& result) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  const auto mix_double = [&mix](double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  const auto mix_str = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
  };
  mix_str(result.dataset_name);
  mix_str(result.model_name);
  mix_str(result.connectivity_name);
  mix(result.xs.size());
  for (const double x : result.xs) mix_double(x);
  mix(result.policies.size());
  for (const auto& curve : result.policies) {
    mix_str(curve.policy_name);
    mix(curve.points.size());
    for (const auto& m : curve.points) {
      mix_double(m.availability);
      mix_double(m.max_availability);
      mix_double(m.aod_time);
      mix_double(m.aod_activity);
      mix_double(m.aod_activity_expected);
      mix_double(m.aod_activity_unexpected);
      mix_double(m.delay_actual_h);
      mix_double(m.delay_observed_h);
      mix_double(m.replicas_used);
      mix(m.cohort_size);
    }
  }
  return h;
}

}  // namespace dosn::sim
