// Tests for the observability layer (DESIGN.md §9): registry determinism,
// histogram bucket edges, span-tree nesting, JSON/table export, contract
// firing on bad registrations — and the subsystem's central guarantee that
// toggling observability cannot perturb a single study output bit.
//
// Suite names contain "Obs" so the TSan CI job (-R filter) exercises the
// sharded-counter and span paths under the race detector.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/degree_stats.hpp"
#include "net/replica_sim.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "sim/study.hpp"
#include "synth/presets.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace dosn::obs {
namespace {

using util::ContractError;

/// Every test runs with obs enabled unless it flips the switch itself;
/// restore on exit so test order cannot leak state.
class ObsEnabledGuard {
 public:
  ObsEnabledGuard() : was_(enabled()) { set_enabled(true); }
  ~ObsEnabledGuard() { set_enabled(was_); }

 private:
  bool was_;
};

// ------------------------------------------------------- mini JSON parser
// Just enough of RFC 8259 to round-trip the exporter's output; any
// deviation from valid JSON is a test failure via std::runtime_error.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> items;                            // kArray
  std::vector<std::pair<std::string, JsonValue>> members;  // kObject

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : members)
      if (k == key) return &v;
    return nullptr;
  }
};

class MiniJsonParser {
 public:
  explicit MiniJsonParser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("mini-json: " + what + " at offset " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\t' || text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_word(std::string_view w) {
    if (text_.substr(pos_, w.size()) != w) return false;
    pos_ += w.size();
    return true;
  }

  JsonValue value() {
    skip_ws();
    JsonValue v;
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"':
        v.kind = JsonValue::Kind::kString;
        v.string = string();
        return v;
      case 't':
        if (!consume_word("true")) fail("bad literal");
        v.kind = JsonValue::Kind::kBool;
        v.boolean = true;
        return v;
      case 'f':
        if (!consume_word("false")) fail("bad literal");
        v.kind = JsonValue::Kind::kBool;
        v.boolean = false;
        return v;
      case 'n':
        if (!consume_word("null")) fail("bad literal");
        return v;
      default: return number();
    }
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.members.emplace_back(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.items.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("bad escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("bad \\u escape");
          const int code =
              std::stoi(std::string(text_.substr(pos_, 4)), nullptr, 16);
          pos_ += 4;
          if (code > 0x7f) fail("non-ASCII \\u escape unsupported");
          out += static_cast<char>(code);
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) fail("expected a value");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = util::parse_f64(std::string(text_.substr(start, pos_ - start)));
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// --------------------------------------------------------------- counters

TEST(ObsCounter, AddsAndSumsAcrossShards) {
  ObsEnabledGuard guard;
  Counter& c = Registry::global().counter("test.counter.basic");
  c.reset();
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsCounter, DisabledAddIsNoOp) {
  ObsEnabledGuard guard;
  Counter& c = Registry::global().counter("test.counter.disabled");
  c.reset();
  set_enabled(false);
  c.add(1000);
  EXPECT_EQ(c.value(), 0u);
  set_enabled(true);
  c.add(7);
  EXPECT_EQ(c.value(), 7u);
}

TEST(ObsCounter, RegistrationReturnsStableReference) {
  ObsEnabledGuard guard;
  Counter& a = Registry::global().counter("test.counter.stable");
  Counter& b = Registry::global().counter("test.counter.stable");
  EXPECT_EQ(&a, &b);
  a.reset();
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(ObsGauge, SetAddRecordMax) {
  ObsEnabledGuard guard;
  Gauge& g = Registry::global().gauge("test.gauge.basic");
  g.reset();
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  g.record_max(100);
  EXPECT_EQ(g.value(), 100);
  g.record_max(50);  // below the mark: no change
  EXPECT_EQ(g.value(), 100);
}

// --------------------------------------------------------------- registry

TEST(ObsRegistry, SnapshotWalksNamesInSortedOrder) {
  ObsEnabledGuard guard;
  // Registered deliberately out of order.
  Registry::global().counter("test.order.b");
  Registry::global().counter("test.order.a");
  Registry::global().counter("test.order.c");
  const Snapshot snap = Registry::global().snapshot();
  std::vector<std::string> names;
  for (const auto& c : snap.counters) names.push_back(c.name);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_NE(std::find(names.begin(), names.end(), "test.order.a"),
            names.end());
}

TEST(ObsRegistry, DuplicateRegistrationAsOtherKindFiresContract) {
  ObsEnabledGuard guard;
  Registry::global().counter("test.kind.clash");
  EXPECT_THROW(Registry::global().gauge("test.kind.clash"), ContractError);
  constexpr std::int64_t kBounds[] = {1, 2};
  EXPECT_THROW(Registry::global().histogram("test.kind.clash", kBounds),
               ContractError);
}

TEST(ObsRegistry, HistogramReboundsFiresContract) {
  ObsEnabledGuard guard;
  constexpr std::int64_t kBounds[] = {1, 10, 100};
  Histogram& h = Registry::global().histogram("test.kind.rebounds", kBounds);
  // Same bounds: same histogram.
  EXPECT_EQ(&Registry::global().histogram("test.kind.rebounds", kBounds),
            &h);
  constexpr std::int64_t kOther[] = {1, 10, 1000};
  EXPECT_THROW(Registry::global().histogram("test.kind.rebounds", kOther),
               ContractError);
}

TEST(ObsRegistry, BadHistogramBoundsFireContract) {
  ObsEnabledGuard guard;
  constexpr std::int64_t kUnsorted[] = {10, 1};
  EXPECT_THROW(Registry::global().histogram("test.bounds.unsorted", kUnsorted),
               ContractError);
  constexpr std::int64_t kDuplicate[] = {1, 1, 2};
  EXPECT_THROW(
      Registry::global().histogram("test.bounds.duplicate", kDuplicate),
      ContractError);
  EXPECT_THROW(Registry::global().histogram("test.bounds.empty", {}),
               ContractError);
}

TEST(ObsRegistry, ResetZeroesButKeepsReferencesValid) {
  ObsEnabledGuard guard;
  Counter& c = Registry::global().counter("test.reset.counter");
  c.add(5);
  Registry::global().reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(2);  // the reference stays usable after reset
  EXPECT_EQ(c.value(), 2u);
}

// -------------------------------------------------------------- histogram

TEST(ObsHistogram, UpperInclusiveBucketEdges) {
  ObsEnabledGuard guard;
  constexpr std::int64_t kBounds[] = {0, 10, 20};
  Histogram& h = Registry::global().histogram("test.histo.edges", kBounds);
  h.reset();

  // value -> expected bucket (upper-inclusive; 3 = overflow).
  const std::vector<std::pair<std::int64_t, std::size_t>> cases = {
      {-5, 0}, {0, 0}, {1, 1}, {10, 1}, {11, 2}, {20, 2}, {21, 3},
  };
  for (const auto& [v, bucket] : cases) {
    h.reset();
    h.record(v);
    for (std::size_t i = 0; i <= std::size(kBounds); ++i)
      EXPECT_EQ(h.bucket_count(i), i == bucket ? 1u : 0u)
          << "value " << v << " bucket " << i;
  }

  h.reset();
  for (const auto& [v, bucket] : cases) h.record(v);
  EXPECT_EQ(h.count(), cases.size());
  EXPECT_EQ(h.sum(), -5 + 0 + 1 + 10 + 11 + 20 + 21);
}

// ------------------------------------------------------------------ spans

TEST(ObsSpans, NestingBuildsTreeWithSortedChildren) {
  ObsEnabledGuard guard;
  {
    ScopedTimer outer("test-span-outer");
    {
      ScopedTimer z("test-span-z");
    }
    {
      ScopedTimer a("test-span-a");
    }
    {
      ScopedTimer a_again("test-span-a");
    }
  }

  const Snapshot snap = Registry::global().snapshot();
  const auto outer = std::find_if(
      snap.spans.begin(), snap.spans.end(),
      [](const SpanSample& s) { return s.name == "test-span-outer"; });
  ASSERT_NE(outer, snap.spans.end());
  EXPECT_EQ(outer->calls, 1u);
  ASSERT_EQ(outer->children.size(), 2u);
  // Children are sorted by name, not by first-open order.
  EXPECT_EQ(outer->children[0].name, "test-span-a");
  EXPECT_EQ(outer->children[0].calls, 2u);
  EXPECT_EQ(outer->children[1].name, "test-span-z");
  EXPECT_EQ(outer->children[1].calls, 1u);
}

TEST(ObsSpans, DisabledTimerLeavesNoTrace) {
  ObsEnabledGuard guard;
  set_enabled(false);
  {
    ScopedTimer t("test-span-disabled");
  }
  set_enabled(true);
  const Snapshot snap = Registry::global().snapshot();
  for (const auto& s : snap.spans) EXPECT_NE(s.name, "test-span-disabled");
}

// ----------------------------------------------- sharded counters (TSan)

TEST(ObsSharded, CounterSumExactUnderThreadPool) {
  ObsEnabledGuard guard;
  Counter& c = Registry::global().counter("test.sharded.pool");
  c.reset();
  constexpr std::size_t kIterations = 20000;
  util::ThreadPool pool(4);
  pool.for_each_index(kIterations, [&](std::size_t) { c.add(1); });
  // Shard merging is a commutative sum, so the total is exact no matter
  // which thread landed on which shard.
  EXPECT_EQ(c.value(), kIterations);
}

TEST(ObsSharded, MixedMetricsUnderThreadPool) {
  ObsEnabledGuard guard;
  Counter& c = Registry::global().counter("test.sharded.mixed.counter");
  Gauge& g = Registry::global().gauge("test.sharded.mixed.gauge");
  constexpr std::int64_t kBounds[] = {8, 64, 512};
  Histogram& h =
      Registry::global().histogram("test.sharded.mixed.histo", kBounds);
  c.reset();
  g.reset();
  h.reset();

  constexpr std::size_t kIterations = 4096;
  util::ThreadPool pool(4);
  pool.for_each_index(kIterations, [&](std::size_t i) {
    c.add(2);
    g.record_max(static_cast<std::int64_t>(i));
    h.record(static_cast<std::int64_t>(i % 1000));
  });
  EXPECT_EQ(c.value(), 2 * kIterations);
  EXPECT_EQ(g.value(), static_cast<std::int64_t>(kIterations - 1));
  EXPECT_EQ(h.count(), kIterations);
}

// -------------------------------------------------------------- exporters

TEST(ObsJson, SnapshotRoundTripsThroughParser) {
  ObsEnabledGuard guard;
  Counter& c = Registry::global().counter("test.json.counter");
  c.reset();
  c.add(123);
  Gauge& g = Registry::global().gauge("test.json.gauge");
  g.reset();
  g.set(-7);
  constexpr std::int64_t kBounds[] = {1, 2};
  Histogram& h = Registry::global().histogram("test.json.histo", kBounds);
  h.reset();
  h.record(1);
  h.record(2);
  h.record(3);

  const std::string json = to_json(Registry::global().snapshot());
  const JsonValue root = MiniJsonParser(json).parse();
  ASSERT_EQ(root.kind, JsonValue::Kind::kObject);

  const JsonValue* counters = root.find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* counter = counters->find("test.json.counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->number, 123.0);

  const JsonValue* gauges = root.find("gauges");
  ASSERT_NE(gauges, nullptr);
  const JsonValue* gauge = gauges->find("test.json.gauge");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->number, -7.0);

  const JsonValue* histograms = root.find("histograms");
  ASSERT_NE(histograms, nullptr);
  const JsonValue* histo = histograms->find("test.json.histo");
  ASSERT_NE(histo, nullptr);
  EXPECT_EQ(histo->find("count")->number, 3.0);
  EXPECT_EQ(histo->find("sum")->number, 6.0);
  const JsonValue* buckets = histo->find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_EQ(buckets->items.size(), 3u);  // two bounds + overflow
  EXPECT_EQ(buckets->items[0].find("le")->number, 1.0);
  EXPECT_EQ(buckets->items[0].find("count")->number, 1.0);
  EXPECT_EQ(buckets->items[2].find("le")->string, "+inf");
  EXPECT_EQ(buckets->items[2].find("count")->number, 1.0);

  ASSERT_NE(root.find("spans"), nullptr);
  EXPECT_EQ(root.find("spans")->kind, JsonValue::Kind::kArray);
}

TEST(ObsJson, WriterEnforcesNestingContracts) {
  util::JsonWriter ok;
  ok.begin_object();
  ok.field("k", 1);
  ok.end_object();
  EXPECT_EQ(MiniJsonParser(ok.str()).parse().find("k")->number, 1.0);

  util::JsonWriter keyless;
  keyless.begin_object();
  EXPECT_THROW(keyless.value(1.0), ContractError);  // value without a key

  util::JsonWriter unbalanced;
  unbalanced.begin_object();
  EXPECT_THROW(unbalanced.end_array(), ContractError);
}

TEST(ObsJson, FormatDoubleIsShortestRoundTrip) {
  EXPECT_EQ(util::format_double(0.1), "0.1");
  EXPECT_EQ(util::format_double(1.0), "1");
  EXPECT_EQ(util::format_double(-2.5), "-2.5");
  const std::vector<double> values = {0.1,    1.0 / 3.0, 1e-9, 6.02e23,
                                      -123.456, 20120618.0};
  for (const double v : values) {
    const std::string s = util::format_double(v);
    EXPECT_EQ(util::parse_f64(s), v) << s;  // exact round trip
  }
}

TEST(ObsTable, RendersMetricNamesAndSpans) {
  ObsEnabledGuard guard;
  Counter& c = Registry::global().counter("test.table.counter");
  c.reset();
  c.add(9);
  {
    ScopedTimer t("test-table-span");
  }
  const std::string table = to_table(Registry::global().snapshot());
  EXPECT_NE(table.find("test.table.counter"), std::string::npos);
  EXPECT_NE(table.find("test-table-span"), std::string::npos);
}

// ------------------------------------------------- instrumented hot paths

TEST(ObsNet, ReplicaSimCountersGrow) {
  ObsEnabledGuard guard;
  constexpr net::Seconds kH = 3600;
  const net::DaySchedule day(interval::IntervalSet::single(8 * kH, 12 * kH));
  std::vector<net::DaySchedule> nodes{day, day, day};
  std::vector<net::UpdateSpec> updates{{9 * kH, 0}, {10 * kH, 1}};
  net::ReplicaSimConfig cfg;

  Counter& runs = Registry::global().counter("net.replica_sim.runs");
  Counter& events = Registry::global().counter("net.event_queue.events");
  const std::uint64_t runs_before = runs.value();
  const std::uint64_t events_before = events.value();

  const auto report = net::simulate_replica_group(nodes, updates, cfg);
  EXPECT_GT(report.events, 0u);
  EXPECT_EQ(runs.value(), runs_before + 1);
  EXPECT_GE(events.value(), events_before + report.events);
}

// ------------------------------------- the central guarantee: no feedback

class ObsStudy : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto preset = synth::scaled(synth::facebook_preset(), 0.02);
    util::Rng rng(42);
    dataset_ = new trace::Dataset(synth::generate_study_dataset(preset, rng));
    cohort_degree_ = graph::most_populated_degree(dataset_->graph, 4, 12);
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  static trace::Dataset* dataset_;
  static std::size_t cohort_degree_;
};

trace::Dataset* ObsStudy::dataset_ = nullptr;
std::size_t ObsStudy::cohort_degree_ = 0;

TEST_F(ObsStudy, ReplicationSweepBitIdenticalObsOnAndOff) {
  ObsEnabledGuard guard;
  sim::Study study(*dataset_, 2012);
  sim::Study::Options opts;
  opts.cohort_degree = cohort_degree_;
  opts.k_max = std::min<std::size_t>(cohort_degree_, 4);
  opts.repetitions = 1;
  opts.threads = 2;

  set_enabled(true);
  const auto with_obs = study.replication_sweep(
      onlinetime::ModelKind::kSporadic, {},
      placement::Connectivity::kConRep, opts);
  set_enabled(false);
  const auto without_obs = study.replication_sweep(
      onlinetime::ModelKind::kSporadic, {},
      placement::Connectivity::kConRep, opts);
  set_enabled(true);

  ASSERT_EQ(with_obs.xs, without_obs.xs);
  ASSERT_EQ(with_obs.policies.size(), without_obs.policies.size());
  for (std::size_t p = 0; p < with_obs.policies.size(); ++p) {
    const auto& a = with_obs.policies[p];
    const auto& b = without_obs.policies[p];
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t k = 0; k < a.points.size(); ++k) {
      // Exact equality on every double: metrics are write-only sinks, so
      // the obs switch must not perturb one output bit (hard rule #1 of
      // src/obs/obs.hpp).
      EXPECT_EQ(a.points[k].availability, b.points[k].availability)
          << "p=" << p << " k=" << k;
      EXPECT_EQ(a.points[k].max_availability, b.points[k].max_availability);
      EXPECT_EQ(a.points[k].aod_time, b.points[k].aod_time);
      EXPECT_EQ(a.points[k].aod_activity, b.points[k].aod_activity);
      EXPECT_EQ(a.points[k].aod_activity_expected,
                b.points[k].aod_activity_expected);
      EXPECT_EQ(a.points[k].aod_activity_unexpected,
                b.points[k].aod_activity_unexpected);
      EXPECT_EQ(a.points[k].delay_actual_h, b.points[k].delay_actual_h);
      EXPECT_EQ(a.points[k].delay_observed_h, b.points[k].delay_observed_h);
      EXPECT_EQ(a.points[k].replicas_used, b.points[k].replicas_used);
    }
  }
}

TEST_F(ObsStudy, SweepPopulatesExpectedMetrics) {
  ObsEnabledGuard guard;
  Registry::global().reset();
  sim::Study study(*dataset_, 77);
  sim::Study::Options opts;
  opts.cohort_degree = cohort_degree_;
  opts.k_max = std::min<std::size_t>(cohort_degree_, 4);
  opts.repetitions = 1;
  opts.policies = {placement::PolicyKind::kMaxAv};
  (void)study.replication_sweep(onlinetime::ModelKind::kSporadic, {},
                                placement::Connectivity::kConRep, opts);

  EXPECT_GT(Registry::global().counter("sim.users_evaluated").value(), 0u);
  EXPECT_GT(Registry::global().counter("sim.prefix_sweeps").value(), 0u);
  EXPECT_GT(Registry::global().counter("placement.maxav.gain_evals").value(),
            0u);
  EXPECT_GT(Registry::global().counter("placement.maxav.selections").value(),
            0u);

  const Snapshot snap = Registry::global().snapshot();
  const auto span = std::find_if(
      snap.spans.begin(), snap.spans.end(), [](const SpanSample& s) {
        return s.name == "study.replication_sweep";
      });
  ASSERT_NE(span, snap.spans.end());
  EXPECT_EQ(span->calls, 1u);
  const auto child = std::find_if(
      span->children.begin(), span->children.end(), [](const SpanSample& s) {
        return s.name == "study.evaluate_policy";
      });
  ASSERT_NE(child, span->children.end());
  EXPECT_GE(child->calls, 1u);
  // Sporadic is deterministic: one realization, one realize span.
  const auto realize = std::find_if(
      span->children.begin(), span->children.end(), [](const SpanSample& s) {
        return s.name == "study.realize_schedules";
      });
  ASSERT_NE(realize, span->children.end());
  EXPECT_EQ(realize->calls, 1u);
}

TEST_F(ObsStudy, RealizeSpanCountsEveryRealization) {
  // RandomLength is realized once per repetition, each under its own
  // study.realize_schedules span inside the sweep's span.
  ObsEnabledGuard guard;
  Registry::global().reset();
  sim::Study study(*dataset_, 78);
  sim::Study::Options opts;
  opts.cohort_degree = cohort_degree_;
  opts.k_max = 2;
  opts.repetitions = 3;
  opts.threads = 2;
  opts.policies = {placement::PolicyKind::kMaxAv};
  (void)study.replication_sweep(onlinetime::ModelKind::kRandomLength, {},
                                placement::Connectivity::kConRep, opts);

  const Snapshot snap = Registry::global().snapshot();
  const auto span = std::find_if(
      snap.spans.begin(), snap.spans.end(), [](const SpanSample& s) {
        return s.name == "study.replication_sweep";
      });
  ASSERT_NE(span, snap.spans.end());
  const auto realize = std::find_if(
      span->children.begin(), span->children.end(), [](const SpanSample& s) {
        return s.name == "study.realize_schedules";
      });
  ASSERT_NE(realize, span->children.end());
  EXPECT_EQ(realize->calls, 3u);
  const auto evaluate = std::find_if(
      span->children.begin(), span->children.end(), [](const SpanSample& s) {
        return s.name == "study.evaluate_policy";
      });
  ASSERT_NE(evaluate, span->children.end());
  EXPECT_EQ(evaluate->calls, 3u);  // MaxAv repeats with the model
}

}  // namespace
}  // namespace dosn::obs
