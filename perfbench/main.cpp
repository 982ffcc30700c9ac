// The end-to-end benchmark binary (README.md in this directory).
//
//   dosn_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--source <id>]
//
// A run builds the workload's input several times (setup_s is the
// median), then repeats whole rounds of the workload's top-level calls
// until --seconds have passed and at least kMinRounds rounds ran (run_s is
// the median round). Every call's output is checked; a call that throws
// or fails a check counts as failed. With --trace 1 the run then makes one
// traced pass: the set-up and one round again with obs-registry deltas
// around every top-level call, the same round on one thread, and the
// per-layer probes of the workload. The last stdout line is the result
// object; the line before it is the full report (provenance, digests,
// per-call counter deltas, every sample).
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "perfbench.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace perfbench {
namespace {

// Set-up repeats at least kMinSetups times and for at least
// kMinSetupSeconds, so the cheap inputs get more samples; rounds repeat
// likewise.
constexpr std::size_t kMinSetups = 3;
constexpr double kMinSetupSeconds = 3.0;
constexpr std::size_t kMinRounds = 5;

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kPerLayer[] = {
    {"synth.input_s", "s"},
    {"synth.input_cpu_s", "s"},
    {"synth.graph_s", "s"},
    {"synth.activities_s", "s"},
    {"synth.activities", "count"},
    {"synth.activities_per_s", "1/s"},
    {"sim.sweep_s", "s"},
    {"sim.sweep_cpu_s", "s"},
    {"sim.sweep_1t_s", "s"},
    {"sim.users_evaluated", "count"},
    {"sim.user_evals_per_s", "1/s"},
    {"onlinetime.schedules_s", "s"},
    {"placement.select_s", "s"},
    {"placement.selections", "count"},
    {"placement.gain_evals", "count"},
    {"placement.celf_hit_ratio", "ratio"},
    {"interval.union_s", "s"},
    {"interval.union_pieces", "count"},
    {"metrics.availability_s", "s"},
    {"metrics.delay_s", "s"},
    {"net.fault_sessions_s", "s"},
    {"net.replica_sim_s", "s"},
    {"net.sim_events", "count"},
    {"net.replica_sim_runs", "count"},
    {"serve.run_s", "s"},
    {"serve.run_cpu_s", "s"},
    {"serve.run_1t_s", "s"},
    {"serve.requests", "count"},
    {"serve.requests_per_s", "1/s"},
    {"serve.workload_s", "s"},
    {"serve.hedge_win_ratio", "ratio"},
    {"util.blocks", "count"},
    {"util.steals", "count"},
    {"util.steal_ratio", "ratio"},
    {"util.speedup", "ratio"},
    {"trace.overhead_s", "s"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string source = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\nusage: dosn_perfbench --workload "
               "<paper_fb|scale_1m|serve_read|serve_write_faults> --seed <n> "
               "--seconds <s> --trace <0|1> [--source <id>]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) usage(std::string("missing value for ") + argv[i]);
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        a.workload = value;
        have[0] = true;
      } else if (flag == "--seed") {
        a.seed = static_cast<std::uint64_t>(dosn::util::parse_i64(value));
        have[1] = true;
      } else if (flag == "--seconds") {
        a.seconds = dosn::util::parse_f64(value);
        have[2] = a.seconds > 0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
        have[3] = true;
      } else if (flag == "--source") {
        a.source = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception& e) {
      usage("bad value for " + flag + ": " + e.what());
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3]))
    usage("--workload, --seed, --seconds (> 0) and --trace are required");
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "paper_fb") return make_paper_fb(a.seed);
  if (a.workload == "scale_1m") return make_scale_1m(a.seed);
  if (a.workload == "serve_read") return make_serve_read(a.seed);
  if (a.workload == "serve_write_faults")
    return make_serve_write_faults(a.seed);
  usage("unknown workload " + a.workload);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  return "unknown";
}

/// CPU time the hypervisor took from this machine's CPUs so far, summed
/// over CPUs (the steal column of /proc/stat; 0 where there is none).
double machine_steal_s() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double field = 0.0, steal = 0.0;
  in >> cpu;
  for (int i = 0; i < 8 && in >> field; ++i) steal = field;
  const long ticks = sysconf(_SC_CLK_TCK);
  return cpu == "cpu" && ticks > 0 ? steal / static_cast<double>(ticks) : 0.0;
}

/// The measured samples of one run.
struct Samples {
  std::vector<Timing> setups;
  std::vector<Timing> rounds;
  /// Per op: the digest of its first successful call.
  std::vector<std::optional<std::uint64_t>> digests;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
};

/// Runs op `op` and checks its digest against the first run's; returns
/// its timing, or nullopt (recording the failure) when it failed.
std::optional<Timing> attempt(Workload& w, std::size_t op,
                              std::size_t threads, Samples& s) {
  ++s.attempted;
  try {
    const OpResult r = w.run_op(op, threads);
    auto& first = s.digests[op];
    if (!first) first = r.digest;
    require(r.digest == *first,
            w.op_name(op) + ": result digest differs from the first run's");
    return r.timing;
  } catch (const std::exception& e) {
    ++s.failed;
    if (s.failures.size() < 8) s.failures.push_back(e.what());
    std::printf("FAILED %s: %s\n", w.op_name(op).c_str(), e.what());
    return std::nullopt;
  }
}

double median_of(const std::vector<Timing>& v, double Timing::*field) {
  std::vector<double> xs;
  for (const auto& t : v) xs.push_back(t.*field);
  return median(xs);
}

void write_counters(dosn::util::JsonWriter& w, const Counters& c) {
  w.begin_object();
  for (const auto& [name, value] : c) w.field(name, value);
  w.end_object();
}

/// One-line rendering of a JsonWriter document (its strings never hold a
/// newline, so dropping every newline and the indentation after it is
/// exact).
std::string one_line(const std::string& pretty) {
  std::string out;
  for (std::size_t i = 0; i < pretty.size(); ++i) {
    if (pretty[i] != '\n') {
      out += pretty[i];
      continue;
    }
    while (i + 1 < pretty.size() && pretty[i + 1] == ' ') ++i;
  }
  return out;
}

int run(const Args& args) {
  // The library's counters are on by default; pin that, so the
  // environment cannot change what an end-to-end run executes.
  dosn::obs::set_enabled(true);
  const std::size_t threads = bench_threads();
  auto workload = make_workload(args);
  Workload& w = *workload;
  Samples s;
  s.digests.resize(w.op_count());

  const double steal_start = machine_steal_s();
  const auto setup_start = Clock::now();
  while (s.setups.size() < kMinSetups ||
         seconds_since(setup_start) < kMinSetupSeconds) {
    w.release();
    const Stopwatch watch;
    w.setup();
    s.setups.push_back(watch.elapsed());
  }

  const auto measure_start = Clock::now();
  while (s.rounds.size() < kMinRounds ||
         seconds_since(measure_start) < args.seconds) {
    Timing round;
    for (std::size_t op = 0; op < w.op_count(); ++op)
      if (const auto t = attempt(w, op, threads, s)) {
        round.wall_s += t->wall_s;
        round.cpu_s += t->cpu_s;
      }
    s.rounds.push_back(round);
  }

  const double steal_s = machine_steal_s() - steal_start;
  const double setup_s = median_of(s.setups, &Timing::wall_s);
  const double run_s = median_of(s.rounds, &Timing::wall_s);
  const double cpu_s = median_of(s.setups, &Timing::cpu_s) +
                       median_of(s.rounds, &Timing::cpu_s);
  const std::vector<std::tuple<const char*, const char*, double>> end_to_end{
      {"setup_s", "s", setup_s},
      {"run_s", "s", run_s},
      {"total_s", "s", setup_s + run_s},
      {"cpu_s", "s", cpu_s},
      {"peak_rss_mb", "MiB", peak_rss_mb()}};

  // Traced pass: counter deltas per top-level call, one-thread rerun and
  // the per-layer probes.
  LayerMetrics layers;
  Counters setup_delta;
  std::vector<Counters> op_deltas;
  if (args.trace) {
    Counters before = counter_snapshot();
    w.release();
    const Stopwatch watch;
    w.setup();
    const Timing traced_setup = watch.elapsed();
    Counters after = counter_snapshot();
    setup_delta = counter_delta(before, after);

    Timing round;
    Counters round_delta;
    for (std::size_t op = 0; op < w.op_count(); ++op) {
      before = counter_snapshot();
      const auto t = attempt(w, op, threads, s);
      after = counter_snapshot();
      op_deltas.push_back(counter_delta(before, after));
      for (const auto& [name, value] : op_deltas.back())
        round_delta[name] += value;
      if (t) {
        round.wall_s += t->wall_s;
        round.cpu_s += t->cpu_s;
      }
    }
    double one_thread_s = 0.0;
    for (std::size_t op = 0; op < w.op_count(); ++op)
      if (const auto t = attempt(w, op, 1, s)) one_thread_s += t->wall_s;

    layers["synth.input_s"] = traced_setup.wall_s;
    layers["synth.input_cpu_s"] = traced_setup.cpu_s;
    const std::string layer = w.serving() ? "serve.run" : "sim.sweep";
    layers[layer + "_s"] = round.wall_s;
    layers[layer + "_cpu_s"] = round.cpu_s;
    layers[layer + "_1t_s"] = one_thread_s;
    if (w.serving()) {
      const double requests =
          static_cast<double>(count_of(round_delta, "serve.requests"));
      layers["serve.requests"] = requests;
      layers["serve.requests_per_s"] = ratio(requests, round.wall_s);
    } else {
      const double users =
          static_cast<double>(count_of(round_delta, "sim.users_evaluated"));
      layers["sim.users_evaluated"] = users;
      layers["sim.user_evals_per_s"] = ratio(users, round.wall_s);
    }
    const double blocks =
        static_cast<double>(count_of(round_delta, "util.runtime.blocks"));
    const double steals =
        static_cast<double>(count_of(round_delta, "util.runtime.steals"));
    layers["util.blocks"] = blocks;
    layers["util.steals"] = steals;
    layers["util.steal_ratio"] = ratio(steals, blocks);
    layers["util.speedup"] = ratio(one_thread_s, round.wall_s);
    layers["trace.overhead_s"] =
        traced_setup.wall_s + round.wall_s - (setup_s + run_s);

    w.probe_layers(layers);
    for (const auto& spec : kPerLayer) layers.try_emplace(spec.name, 0.0);
  }

  // The full report, one line.
  dosn::util::JsonWriter r;
  r.begin_object();
  r.key("report");
  r.begin_object();
  r.field("workload", args.workload);
  r.field("seed", args.seed);
  r.field("seconds", args.seconds);
  r.field("trace", args.trace);
  r.key("provenance");
  r.begin_object();
  r.field("nproc",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  r.field("threads", static_cast<std::uint64_t>(threads));
  r.field("cpu_model", cpu_model());
  r.field("compiler", PERFBENCH_CXX_COMPILER);
  r.field("build_type", PERFBENCH_BUILD_TYPE);
  r.field("source", args.source);
  r.end_object();
  r.field("machine_steal_s", steal_s);
  r.key("input");
  r.begin_object();
  for (const auto& [name, value] : w.input_summary()) r.field(name, value);
  r.end_object();
  r.key("digests");
  r.begin_object();
  for (std::size_t op = 0; op < s.digests.size(); ++op)
    if (s.digests[op]) r.field(w.op_name(op), std::to_string(*s.digests[op]));
  r.end_object();
  r.key("setup_wall_s");
  r.begin_array();
  for (const auto& t : s.setups) r.value(t.wall_s);
  r.end_array();
  r.key("round_wall_s");
  r.begin_array();
  for (const auto& t : s.rounds) r.value(t.wall_s);
  r.end_array();
  r.key("failures");
  r.begin_array();
  for (const auto& f : s.failures) r.value(f);
  r.end_array();
  if (args.trace) {
    r.key("counters");
    r.begin_object();
    r.key("setup");
    write_counters(r, setup_delta);
    for (std::size_t op = 0; op < op_deltas.size(); ++op) {
      r.key(w.op_name(op));
      write_counters(r, op_deltas[op]);
    }
    r.end_object();
  }
  r.end_object();
  r.end_object();
  std::printf("%s\n", one_line(r.str()).c_str());

  std::string line = "{\"correct\": ";
  line += s.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(s.attempted);
  line += ", \"failed\": " + std::to_string(s.failed);
  line += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const char* name, const char* unit, double value) {
    line += first ? "" : ", ";
    first = false;
    line.append("\"").append(name).append("\": {\"value\": ");
    line.append(dosn::util::format_double(value));
    line.append(", \"unit\": \"").append(unit).append("\"}");
  };
  if (args.trace) {
    for (const auto& spec : kPerLayer)
      emit(spec.name, spec.unit, layers.at(spec.name));
  } else {
    for (const auto& [name, unit, value] : end_to_end) emit(name, unit, value);
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
