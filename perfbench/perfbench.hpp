// Shared declarations of the end-to-end benchmark (README.md in this
// directory). A Workload owns one input built from the run's seed and the
// top-level library calls ("operations") a run repeats on it; main.cpp
// times set-up and whole rounds of operations, and a traced pass adds the
// per-layer split.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "synth/scale.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);

/// User plus system CPU seconds of the whole process so far.
double process_cpu_s();

/// Peak resident set size of the process so far, in MiB.
double peak_rss_mb();

/// Wall and process-CPU seconds of one timed section.
struct Timing {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

class Stopwatch {
 public:
  Stopwatch() : wall_(Clock::now()), cpu_(process_cpu_s()) {}
  Timing elapsed() const {
    return {seconds_since(wall_), process_cpu_s() - cpu_};
  }

 private:
  Clock::time_point wall_;
  double cpu_;
};

/// An operation's output broke a property the method must have.
class CheckFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Throws CheckFailure("<what>") unless `ok`.
void require(bool ok, const std::string& what);

/// Median of a non-empty sample (mean of the middle pair when even).
double median(std::vector<double> values);

/// Per-layer figures by metric name.
using LayerMetrics = std::map<std::string, double>;

/// Counter values of the global obs registry, by name.
using Counters = std::map<std::string, std::uint64_t>;
Counters counter_snapshot();
/// after - before for every counter that moved.
Counters counter_delta(const Counters& before, const Counters& after);
/// Delta of one counter (0 when it did not move).
std::uint64_t count_of(const Counters& delta, std::string_view name);

/// Ratio that reads 0 when the denominator is 0.
double ratio(double num, double den);

/// One top-level call: its time (the library call alone, not the checks
/// that follow it) and its result digest (sweep_checksum or
/// request_log_checksum).
struct OpResult {
  Timing timing;
  std::uint64_t digest = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the workload's input from the seed, replacing the previous
  /// one (which release() dropped first, so inputs never coexist).
  virtual void setup() = 0;
  virtual void release() = 0;

  /// Size figures of the current input (users, cohort, ...), for the
  /// report.
  virtual std::vector<std::pair<std::string, std::uint64_t>> input_summary()
      const = 0;

  /// True for the serving workloads, false for the study sweeps.
  virtual bool serving() const = 0;

  virtual std::size_t op_count() const = 0;
  virtual std::string op_name(std::size_t op) const = 0;

  /// Runs top-level call `op` on `threads` threads and checks its output.
  /// Throws CheckFailure when a check fails.
  virtual OpResult run_op(std::size_t op, std::size_t threads) = 0;

  /// The traced per-layer probes: calls each layer's public functions on
  /// this workload's own input, from outside, and records their times and
  /// counts into `out`.
  virtual void probe_layers(LayerMetrics& out) = 0;
};

std::unique_ptr<Workload> make_paper_fb(std::uint64_t seed);
std::unique_ptr<Workload> make_scale_1m(std::uint64_t seed);
std::unique_ptr<Workload> make_serve_read(std::uint64_t seed);
std::unique_ptr<Workload> make_serve_write_faults(std::uint64_t seed);

/// Worker threads of every parallel call: the reference box's 4 cores,
/// capped by what this machine has.
std::size_t bench_threads();

/// build_scale_study_input as a pipeline on bench_threads() busy threads:
/// the producer thread plus a runtime of one worker fewer.
dosn::synth::ScaleStudyInput build_scale_input(
    const dosn::synth::ScaleInputConfig& config, std::uint64_t seed);

/// Graph and chunked-activity generation of `preset` from `rng_seed`,
/// timed apart: synth.graph_s, synth.activities_s, synth.activities and
/// synth.activities_per_s.
void probe_synthesis(const dosn::synth::DatasetPreset& preset,
                     std::uint64_t rng_seed, std::size_t chunk_users,
                     LayerMetrics& out);

/// Records placement.select_s / selections / gain_evals / celf_hit_ratio
/// from a probe's time, selection count and counter delta.
void record_placement(double select_s, std::size_t selections,
                      const Counters& delta, LayerMetrics& out);

}  // namespace perfbench
