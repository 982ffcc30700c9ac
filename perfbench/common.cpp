#include <sys/resource.h>

#include <algorithm>
#include <thread>

#include "obs/obs.hpp"
#include "perfbench.hpp"
#include "synth/generators.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_s() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void require(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::logic_error("median of an empty sample");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

Counters counter_snapshot() {
  Counters out;
  for (const auto& c : dosn::obs::Registry::global().snapshot().counters)
    out[c.name] = c.value;
  return out;
}

Counters counter_delta(const Counters& before, const Counters& after) {
  Counters out;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    const std::uint64_t base = it == before.end() ? 0 : it->second;
    if (value != base) out[name] = value - base;
  }
  return out;
}

std::uint64_t count_of(const Counters& delta, std::string_view name) {
  const auto it = delta.find(std::string(name));
  return it == delta.end() ? 0 : it->second;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::size_t bench_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, 4);
}

dosn::synth::ScaleStudyInput build_scale_input(
    const dosn::synth::ScaleInputConfig& config, std::uint64_t seed) {
  const std::size_t workers = std::max<std::size_t>(1, bench_threads() - 1);
  dosn::util::ThreadPool pool(dosn::util::RuntimeOptions{.threads = workers});
  return dosn::synth::build_scale_study_input(config, seed, &pool.runtime());
}

void record_placement(double select_s, std::size_t selections,
                      const Counters& delta, LayerMetrics& out) {
  out["placement.select_s"] = select_s;
  out["placement.selections"] = static_cast<double>(selections);
  out["placement.gain_evals"] =
      static_cast<double>(count_of(delta, "placement.maxav.gain_evals"));
  const double hits =
      static_cast<double>(count_of(delta, "placement.maxav.lazy_hits"));
  const double misses =
      static_cast<double>(count_of(delta, "placement.maxav.lazy_misses"));
  out["placement.celf_hit_ratio"] = ratio(hits, hits + misses);
}

void probe_synthesis(const dosn::synth::DatasetPreset& preset,
                     std::uint64_t rng_seed, std::size_t chunk_users,
                     LayerMetrics& out) {
  dosn::util::Rng rng(rng_seed);
  Stopwatch watch;
  const auto graph =
      dosn::synth::generate_power_law_graph(preset.graph, preset.kind, rng);
  out["synth.graph_s"] = watch.elapsed().wall_s;
  std::uint64_t activities = 0;
  watch = Stopwatch();
  dosn::synth::generate_activities_chunked(
      graph, preset.activity, rng, chunk_users,
      [&](dosn::graph::UserId, dosn::graph::UserId,
          std::span<const dosn::trace::Activity> chunk) {
        activities += chunk.size();
      });
  const double secs = watch.elapsed().wall_s;
  out["synth.activities_s"] = secs;
  out["synth.activities"] = static_cast<double>(activities);
  out["synth.activities_per_s"] = ratio(static_cast<double>(activities), secs);
}

}  // namespace perfbench
