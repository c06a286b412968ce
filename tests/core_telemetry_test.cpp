// core/telemetry: metric registry semantics and expositions, tracer spans,
// event log ring; thread-safety under the worker pool; the tentpole
// invariant — telemetry is write-only from the monitored path, so a run's
// results, CSV series and archive bytes are byte-identical with the sinks
// enabled or disabled; and seeded fuzzing of the two text encoders that
// operator-controlled names reach (logfmt and the Prometheus exposition,
// single-monitor and fleet-federated).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/fleet.hpp"
#include "core/mantra.hpp"
#include "core/parallel.hpp"
#include "core/telemetry.hpp"
#include "fuzz_mutate.hpp"
#include "workload/scenario.hpp"

namespace mantra::core {
namespace {

// --- MetricsRegistry ---------------------------------------------------------

TEST(MetricsRegistry, CountersGaugesAndLabelsAreIndependent) {
  MetricsRegistry registry(/*enabled=*/true);
  registry.counter("requests", {{"target", "fixw"}}).inc();
  registry.counter("requests", {{"target", "fixw"}}).inc(2);
  registry.counter("requests", {{"target", "ucsb-gw"}}).inc();
  registry.counter("other").inc(5);
  registry.gauge("depth").set(3.5);
  registry.gauge("depth").add(-1.5);

  EXPECT_EQ(registry.counter_value("requests", {{"target", "fixw"}}), 3u);
  EXPECT_EQ(registry.counter_value("requests", {{"target", "ucsb-gw"}}), 1u);
  EXPECT_EQ(registry.counter_total("requests"), 4u);
  EXPECT_EQ(registry.counter_total("other"), 5u);
  EXPECT_EQ(registry.counter_total("absent"), 0u);
  EXPECT_DOUBLE_EQ(registry.gauge("depth").value(), 2.0);
  // Label order at the call site is irrelevant.
  registry.counter("multi", {{"a", "1"}, {"b", "2"}}).inc();
  EXPECT_EQ(registry.counter_value("multi", {{"b", "2"}, {"a", "1"}}), 1u);
}

TEST(MetricsRegistry, HistogramBucketsCountAndQuantiles) {
  MetricsRegistry registry(/*enabled=*/true);
  Histogram& latency =
      registry.histogram("lat", {}, std::vector<double>{1.0, 2.0, 4.0});
  for (const double v : {0.5, 0.5, 1.5, 3.0, 100.0}) latency.observe(v);

  EXPECT_EQ(latency.count(), 5u);
  EXPECT_DOUBLE_EQ(latency.sum(), 105.5);
  // Per-bucket counts: <= 1.0, <= 2.0, <= 4.0, and +Inf (holds the 100).
  const MetricsSnapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].buckets,
            (std::vector<std::uint64_t>{2, 1, 1, 1}));
  // Quantiles interpolate within the containing bucket.
  EXPECT_GT(latency.quantile(0.5), 0.0);
  EXPECT_LE(latency.quantile(0.5), 2.0);
  // A rank landing in the +Inf bucket degrades to the largest finite bound.
  EXPECT_DOUBLE_EQ(latency.quantile(1.0), 4.0);
  EXPECT_EQ(registry.find_histogram("lat", {}), &latency);
  EXPECT_EQ(registry.find_histogram("absent", {}), nullptr);
}

// snapshot_into refills one snapshot in place. Across registry growth
// (series before, between and after existing ones, histograms whose bounds
// differ from the slot's previous occupant, help upserts) and across a
// switch to a smaller registry, the refill holds exactly what a fresh
// snapshot() holds.
TEST(MetricsRegistry, SnapshotIntoRefillEqualsAFreshSnapshot) {
  std::mt19937_64 rng(0x5ea1);
  MetricsRegistry registry(/*enabled=*/true);
  const std::vector<std::string> names = {"a_total", "m_total", "z_total"};
  const std::vector<MetricLabels> label_sets = {
      {}, {{"target", "a"}}, {{"target", "c"}}, {{"mode", "x"}, {"target", "b"}}};
  MetricsSnapshot refilled;
  for (int step = 0; step < 80; ++step) {
    const std::string& name = names[rng() % names.size()];
    const MetricLabels& labels = label_sets[rng() % label_sets.size()];
    switch (rng() % 4) {
      case 0:
        registry.counter(name, labels).inc(rng() % 100);
        break;
      case 1:
        registry.gauge(name, labels).set(static_cast<double>(rng() % 1000) / 8.0 - 60.0);
        break;
      case 2: {
        const bool wide = rng() % 2 == 0;
        registry
            .histogram(wide ? "w_seconds" : "h_seconds", labels,
                       wide ? std::vector<double>{1e-3, 1e-2, 0.1, 1.0}
                            : std::vector<double>{0.5})
            .observe(static_cast<double>(rng() % 2000) / 1000.0);
        break;
      }
      default:
        registry.set_help(name, "help " + std::to_string(step));
        break;
    }
    registry.snapshot_into(refilled);
    ASSERT_EQ(refilled, registry.snapshot()) << "step " << step;
  }
  ASSERT_GT(refilled.histograms.size(), 2u);

  MetricsRegistry smaller(/*enabled=*/true);
  smaller.counter("b_total").inc(3);
  smaller.histogram("h_seconds", {}, std::vector<double>{0.1, 0.2, 0.4}).observe(0.3);
  smaller.set_help("b_total", "only help");
  smaller.snapshot_into(refilled);
  EXPECT_EQ(refilled, smaller.snapshot());
  MetricsRegistry disabled;
  disabled.snapshot_into(refilled);
  EXPECT_EQ(refilled, MetricsSnapshot{});
}

TEST(MetricsRegistry, PrometheusTextExposition) {
  MetricsRegistry registry(/*enabled=*/true);
  registry.counter("mantra_cycles_total").inc(7);
  registry.counter("mantra_capture_status_total",
                   {{"target", "fixw"}, {"status", "ok"}})
      .inc(5);
  registry.gauge("mantra_pool_queue_depth").set(2);
  registry.histogram("mantra_lat", {}, std::vector<double>{0.5, 1.0}).observe(0.7);

  const std::string text = registry.prometheus_text();
  EXPECT_NE(text.find("# TYPE mantra_cycles_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("mantra_cycles_total 7\n"), std::string::npos);
  // Labels are serialized sorted by key.
  EXPECT_NE(text.find("mantra_capture_status_total{status=\"ok\","
                      "target=\"fixw\"} 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE mantra_pool_queue_depth gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("mantra_pool_queue_depth 2\n"), std::string::npos);
  // Histogram exposition: cumulative buckets, +Inf, _sum and _count.
  EXPECT_NE(text.find("mantra_lat_bucket{le=\"0.5\"} 0\n"), std::string::npos);
  EXPECT_NE(text.find("mantra_lat_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("mantra_lat_bucket{le=\"+Inf\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("mantra_lat_sum 0.7\n"), std::string::npos);
  EXPECT_NE(text.find("mantra_lat_count 1\n"), std::string::npos);
}

// Exposition-format spec compliance: label *values* must escape backslash,
// double quote and line feed. A scraper reading the hostile exposition must
// see one well-formed sample per line with the escapes in place.
TEST(MetricsRegistry, PrometheusLabelValuesEscapeHostileNames) {
  MetricsRegistry registry(/*enabled=*/true);
  registry.counter("mantra_cycles_total",
                   {{"target", "evil\"quote"}})
      .inc();
  registry.counter("mantra_cycles_total",
                   {{"target", "back\\slash"}})
      .inc(2);
  registry.counter("mantra_cycles_total",
                   {{"target", "new\nline"}})
      .inc(3);

  const std::string text = registry.prometheus_text();
  EXPECT_NE(text.find("mantra_cycles_total{target=\"evil\\\"quote\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("mantra_cycles_total{target=\"back\\\\slash\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("mantra_cycles_total{target=\"new\\nline\"} 3\n"),
            std::string::npos);
  // No raw newline may survive inside a label value: every line of the
  // exposition is a comment or a complete `name{labels} value` sample.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    EXPECT_NE(line.find(' '), std::string::npos) << "torn sample: " << line;
  }
  // Escaped instances stay distinct, and lookup with the raw labels still
  // resolves (the escape is applied consistently on both paths).
  EXPECT_EQ(registry.counter_value("mantra_cycles_total",
                                   {{"target", "evil\"quote"}}),
            1u);
  EXPECT_EQ(registry.counter_value("mantra_cycles_total",
                                   {{"target", "back\\slash"}}),
            2u);
}

// Satellite: golden-file conformance for the exposition. One registry,
// every metric kind, help texts, sorted labels — the rendered text must
// match byte-for-byte AND pass the lint checker. Guards the format against
// accidental drift (scrapers parse these bytes).
TEST(MetricsRegistry, PrometheusExpositionMatchesGolden) {
  MetricsRegistry registry(/*enabled=*/true);
  registry.set_help("mantra_cycles_total", "Monitoring cycles executed.");
  registry.counter("mantra_cycles_total").inc(96);
  registry.counter("mantra_capture_status_total",
                   {{"target", "fixw"}, {"status", "ok"}})
      .inc(90);
  registry.counter("mantra_capture_status_total",
                   {{"target", "fixw"}, {"status", "failed"}})
      .inc(6);
  registry.set_help("mantra_targets", "Targets registered with the monitor.");
  registry.gauge("mantra_targets").set(2);
  Histogram& duration = registry.histogram("mantra_cycle_duration_seconds", {},
                                           std::vector<double>{0.5, 1.0});
  duration.observe(0.25);
  duration.observe(0.75);

  const std::string golden =
      "# TYPE mantra_capture_status_total counter\n"
      "mantra_capture_status_total{status=\"failed\",target=\"fixw\"} 6\n"
      "mantra_capture_status_total{status=\"ok\",target=\"fixw\"} 90\n"
      "# HELP mantra_cycles_total Monitoring cycles executed.\n"
      "# TYPE mantra_cycles_total counter\n"
      "mantra_cycles_total 96\n"
      "# HELP mantra_targets Targets registered with the monitor.\n"
      "# TYPE mantra_targets gauge\n"
      "mantra_targets 2\n"
      "# TYPE mantra_cycle_duration_seconds histogram\n"
      "mantra_cycle_duration_seconds_bucket{le=\"0.5\"} 1\n"
      "mantra_cycle_duration_seconds_bucket{le=\"1\"} 2\n"
      "mantra_cycle_duration_seconds_bucket{le=\"+Inf\"} 2\n"
      "mantra_cycle_duration_seconds_sum 1\n"
      "mantra_cycle_duration_seconds_count 2\n";
  EXPECT_EQ(registry.prometheus_text(), golden);
  // The snapshot path funnels through the same renderer — same bytes.
  EXPECT_EQ(prometheus_text_from(registry.snapshot()), golden);
  // And the golden itself is lint-clean.
  EXPECT_TRUE(prometheus_lint(golden).empty());
}

TEST(MetricsRegistry, PrometheusLintFlagsMalformedExpositions) {
  // The real exposition (with hostile label values) passes.
  MetricsRegistry registry(/*enabled=*/true);
  registry.counter("ok_total", {{"target", "evil\"quote\\and\nnewline"}}).inc();
  registry.histogram("lat", {}, std::vector<double>{1.0}).observe(0.5);
  EXPECT_TRUE(prometheus_lint(registry.prometheus_text()).empty());

  // A sample with no preceding # TYPE.
  EXPECT_FALSE(prometheus_lint("orphan_metric 1\n").empty());
  // Type mismatch: counter sample under a gauge family is fine, but a
  // histogram _bucket under a counter family is not.
  EXPECT_FALSE(prometheus_lint("# TYPE x counter\n"
                               "x_bucket{le=\"+Inf\"} 1\n")
                   .empty());
  // Malformed metric name.
  EXPECT_FALSE(prometheus_lint("# TYPE 9bad counter\n9bad 1\n").empty());
  // Repeated family.
  EXPECT_FALSE(prometheus_lint("# TYPE x counter\nx 1\n"
                               "# TYPE x counter\nx 2\n")
                   .empty());
  // Non-cumulative histogram buckets.
  EXPECT_FALSE(prometheus_lint("# TYPE h histogram\n"
                               "h_bucket{le=\"1\"} 5\n"
                               "h_bucket{le=\"+Inf\"} 3\n"
                               "h_sum 1\n"
                               "h_count 3\n")
                   .empty());
  // _count disagreeing with the +Inf bucket.
  EXPECT_FALSE(prometheus_lint("# TYPE h histogram\n"
                               "h_bucket{le=\"1\"} 1\n"
                               "h_bucket{le=\"+Inf\"} 2\n"
                               "h_sum 1\n"
                               "h_count 7\n")
                   .empty());
  // Unterminated label value.
  EXPECT_FALSE(prometheus_lint("# TYPE x counter\n"
                               "x{target=\"oops} 1\n")
                   .empty());
}

TEST(MetricsRegistry, DisabledRegistryRecordsNothing) {
  MetricsRegistry registry(/*enabled=*/false);
  registry.counter("c").inc(10);
  registry.gauge("g").set(1.0);
  registry.histogram("h").observe(2.0);
  EXPECT_EQ(registry.counter_total("c"), 0u);
  EXPECT_EQ(registry.find_histogram("h", {}), nullptr);
  EXPECT_EQ(registry.prometheus_text(), "");
}

// --- Tracer ------------------------------------------------------------------

TEST(Tracer, ScopesRecordSpansWithSimAndWallIntervals) {
  Tracer tracer(/*enabled=*/true);
  {
    Tracer::Scope scope =
        tracer.span("capture", "collect", sim::TimePoint::from_ms(900'000));
    scope.arg("target", "fixw");
    scope.set_sim_interval(sim::TimePoint::from_ms(900'000),
                           sim::Duration::seconds(12));
  }
  ASSERT_EQ(tracer.span_count(), 1u);
  const TraceSpan span = tracer.snapshot()[0];
  EXPECT_EQ(span.name, "capture");
  EXPECT_EQ(span.category, "collect");
  EXPECT_EQ(span.sim_ts_ms, 900'000);
  EXPECT_EQ(span.sim_dur_ms, 12'000);
  EXPECT_GE(span.wall_dur_us, 0);
  EXPECT_GT(span.tid, 0u);
  ASSERT_EQ(span.args.size(), 1u);
  EXPECT_EQ(span.args[0].first, "target");

  const std::string json = tracer.chrome_trace_json();
  // Loadable trace_event JSON: complete events plus process metadata.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"capture\""), std::string::npos);
  EXPECT_NE(json.find("\"sim_dur_ms\": 12000"), std::string::npos);
}

// Satellite: the export is Perfetto-legible — process_name metadata first,
// thread_name metadata per named tid (in tid order, before any span
// references the lane), ts/dur in *simulated* microseconds, and span args
// carried through. The golden covers the exact record shapes Perfetto's
// trace_event importer keys on.
TEST(Tracer, ChromeTraceJsonIsPerfettoLegible) {
  Tracer tracer(/*enabled=*/true);
  tracer.set_thread_name(1, "driver");
  tracer.set_thread_name(2, "target:fixw");
  TraceSpan span;
  span.name = "capture";
  span.category = "collect";
  span.sim_ts_ms = 900'000;
  span.sim_dur_ms = 12'000;
  span.wall_dur_us = 77;  // wall time must NOT leak into the export
  span.tid = 2;
  span.args = {{"corr", "c1/fixw/show_ip_dvmrp_route/a1"}, {"status", "ok"}};
  tracer.record(std::move(span));

  const std::string json = tracer.chrome_trace_json();
  // Metadata: one process_name record, then thread_name per named tid.
  EXPECT_NE(json.find("{\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", "
                      "\"args\": {\"name\": \"mantra\"}}"),
            std::string::npos);
  const std::size_t driver_lane =
      json.find("{\"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
                "\"name\": \"thread_name\", \"args\": {\"name\": \"driver\"}}");
  const std::size_t target_lane =
      json.find("{\"ph\": \"M\", \"pid\": 1, \"tid\": 2, "
                "\"name\": \"thread_name\", "
                "\"args\": {\"name\": \"target:fixw\"}}");
  ASSERT_NE(driver_lane, std::string::npos);
  ASSERT_NE(target_lane, std::string::npos);
  EXPECT_LT(driver_lane, target_lane);  // tid order
  // The complete event: sim µs timestamps, the lane's tid, args in order.
  const std::size_t event = json.find(
      "{\"name\": \"capture\", \"cat\": \"collect\", \"ph\": \"X\", "
      "\"pid\": 1, \"tid\": 2, \"ts\": 900000000, \"dur\": 12000000, "
      "\"args\": {\"sim_ts_ms\": 900000, \"sim_dur_ms\": 12000, "
      "\"corr\": \"c1/fixw/show_ip_dvmrp_route/a1\", \"status\": \"ok\"}}");
  ASSERT_NE(event, std::string::npos);
  EXPECT_LT(target_lane, event);  // lanes are labeled before use
  // Wall-clock numbers are absent: the export is a pure function of the run.
  EXPECT_EQ(json.find("77"), std::string::npos);
}

TEST(Tracer, BoundedSpanStorageCountsDrops) {
  Tracer tracer(/*enabled=*/true, /*max_spans=*/4);
  for (int i = 0; i < 10; ++i) {
    Tracer::Scope scope = tracer.span("s", "c", sim::TimePoint::start());
  }
  EXPECT_EQ(tracer.span_count(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
}

TEST(Tracer, DisabledTracerHandsOutInertScopes) {
  Tracer tracer(/*enabled=*/false);
  {
    Tracer::Scope scope = tracer.span("s", "c", sim::TimePoint::start());
    scope.arg("k", "v");
    scope.set_sim_interval(sim::TimePoint::start(), sim::Duration::seconds(1));
  }
  EXPECT_EQ(tracer.span_count(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

// --- EventLog ----------------------------------------------------------------

TEST(EventLog, RingKeepsNewestAndRendersLogfmt) {
  EventLog log(/*enabled=*/true, /*capacity=*/3);
  for (int i = 0; i < 5; ++i) {
    log.log(EventLevel::info, "tick", sim::TimePoint::from_ms(i * 1000),
            {{"n", std::to_string(i)}});
  }
  log.log(EventLevel::warn, "target_unreachable",
          sim::TimePoint::from_ms(9000),
          {{"target", "bdr2"}, {"detail", "gone dark"}});

  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.total_logged(), 6u);
  EXPECT_EQ(log.dropped(), 3u);
  const std::vector<TelemetryEvent> events = log.snapshot();
  EXPECT_EQ(events.front().fields[0].second, "3");  // oldest survivor
  EXPECT_EQ(events.back().name, "target_unreachable");
  // Sequence numbers preserve global arrival order across the drop.
  EXPECT_LT(events.front().seq, events.back().seq);

  const std::string text = log.logfmt();
  EXPECT_NE(text.find("sim_ts=9000 level=warn event=target_unreachable "
                      "target=bdr2 detail=\"gone dark\""),
            std::string::npos);
  // last_n trims from the front.
  const std::string tail = log.logfmt(1);
  EXPECT_EQ(tail.find("event=tick"), std::string::npos);
  EXPECT_NE(tail.find("event=target_unreachable"), std::string::npos);
}

// Minimal logfmt scanner used to prove the rendering round-trips: values
// are either a bare token (no spaces/quotes/equals/controls) or a quoted
// string with \" \\ \n \r \t escapes.
std::vector<std::pair<std::string, std::string>> parse_logfmt_line(
    const std::string& line) {
  std::vector<std::pair<std::string, std::string>> pairs;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    if (i >= line.size()) break;
    const std::size_t eq = line.find('=', i);
    if (eq == std::string::npos) { ADD_FAILURE() << "no '=' in: " << line; break; }
    std::string key = line.substr(i, eq - i);
    std::string value;
    i = eq + 1;
    if (i < line.size() && line[i] == '"') {
      ++i;
      while (i < line.size() && line[i] != '"') {
        if (line[i] == '\\' && i + 1 < line.size()) {
          const char next = line[i + 1];
          value.push_back(next == 'n' ? '\n'
                          : next == 'r' ? '\r'
                          : next == 't' ? '\t'
                                        : next);
          i += 2;
        } else {
          value.push_back(line[i++]);
        }
      }
      EXPECT_LT(i, line.size()) << "unterminated quote in: " << line;
      ++i;  // closing quote
    } else {
      const std::size_t end = line.find(' ', i);
      value = line.substr(i, end == std::string::npos ? end : end - i);
      i = end == std::string::npos ? line.size() : end;
    }
    pairs.emplace_back(std::move(key), std::move(value));
  }
  return pairs;
}

// Satellite: hostile field values — spaces, '=', quotes, lone backslashes,
// CR/LF/tab — must render to a line the scanner above maps back to exactly
// the original (key, value) sequence.
TEST(EventLog, LogfmtValuesRoundTripUnambiguously) {
  const std::vector<std::pair<std::string, std::string>> hostile = {
      {"plain", "bare-token"},
      {"spaced", "gone dark"},
      {"equals", "a=b=c"},
      {"quoted", "say \"hi\""},
      {"backslash", "C:\\mantra\\logs"},  // must trigger quoting by itself
      {"newline", "line1\nline2"},
      {"carriage", "line1\r\nline2"},
      {"tab", "col1\tcol2"},
      {"empty", ""},
      {"mixed", "a \"b\" = \\ \n end"},
  };
  EventLog log(/*enabled=*/true, /*capacity=*/8);
  log.log(EventLevel::info, "hostile", sim::TimePoint::from_ms(1000), hostile);

  const std::string text = log.logfmt();
  ASSERT_FALSE(text.empty());
  // One event, one line: every embedded newline must be escaped.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1);

  const auto pairs = parse_logfmt_line(text.substr(0, text.size() - 1));
  // sim_ts, level, event, then the fields in order.
  ASSERT_EQ(pairs.size(), 3 + hostile.size());
  EXPECT_EQ(pairs[0], (std::pair<std::string, std::string>{"sim_ts", "1000"}));
  EXPECT_EQ(pairs[2], (std::pair<std::string, std::string>{"event", "hostile"}));
  for (std::size_t i = 0; i < hostile.size(); ++i) {
    EXPECT_EQ(pairs[3 + i], hostile[i]) << "field #" << i;
  }
}

TEST(EventLog, DisabledLogRecordsNothing) {
  EventLog log(/*enabled=*/false);
  log.log(EventLevel::error, "boom", sim::TimePoint::start());
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.total_logged(), 0u);
}

// --- Telemetry bundle --------------------------------------------------------

TEST(Telemetry, NoopBundleIsSharedAndDisabled) {
  Telemetry& noop = Telemetry::noop();
  EXPECT_FALSE(noop.enabled());
  EXPECT_EQ(&noop, &Telemetry::noop());
  noop.metrics().counter("c").inc();
  EXPECT_EQ(noop.metrics().counter_total("c"), 0u);
}

TEST(Telemetry, WritesMetricsAndTraceFiles) {
  TelemetryConfig config;
  config.enabled = true;
  Telemetry telemetry(config);
  telemetry.metrics().counter("mantra_cycles_total").inc(3);
  { Tracer::Scope scope = telemetry.tracer().span("cycle", "cycle", sim::TimePoint::start()); }

  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "mantra_telemetry_files";
  std::filesystem::create_directories(dir);
  const std::string prom = (dir / "metrics.prom").string();
  const std::string trace = (dir / "trace.json").string();
  ASSERT_TRUE(telemetry.write_metrics_prom(prom));
  ASSERT_TRUE(telemetry.write_trace_json(trace));

  std::ifstream prom_in(prom);
  std::stringstream prom_text;
  prom_text << prom_in.rdbuf();
  EXPECT_NE(prom_text.str().find("mantra_cycles_total 3"), std::string::npos);
  EXPECT_FALSE(telemetry.write_metrics_prom((dir / "no/such/dir/x").string()));
  std::filesystem::remove_all(dir);
}

// --- Thread safety (run under the tsan preset) -------------------------------

TEST(TelemetryConcurrency, PoolHammerOnSharedSinks) {
  TelemetryConfig config;
  config.enabled = true;
  config.max_spans = 1024;  // force drops under contention too
  config.max_events = 256;
  Telemetry telemetry(config);

  parallel::ThreadPool pool(8);
  pool.set_telemetry(&telemetry);
  constexpr int kTasks = 64;
  constexpr int kIterations = 200;
  std::vector<std::function<void()>> tasks;
  tasks.reserve(kTasks);
  for (int t = 0; t < kTasks; ++t) {
    tasks.emplace_back([&telemetry, t] {
      const std::string target = "target-" + std::to_string(t % 4);
      Counter& cached =
          telemetry.metrics().counter("hammer_cached_total", {{"target", target}});
      for (int i = 0; i < kIterations; ++i) {
        cached.inc();
        telemetry.metrics().counter("hammer_total").inc();
        telemetry.metrics().gauge("hammer_gauge").add(1.0);
        telemetry.metrics()
            .histogram("hammer_lat", {{"target", target}})
            .observe(static_cast<double>(i % 7));
        Tracer::Scope scope =
            telemetry.tracer().span("hammer", "test", sim::TimePoint::start());
        scope.arg("target", target);
        if (i % 10 == 0) {
          telemetry.events().log(EventLevel::debug, "hammer_tick",
                                 sim::TimePoint::from_ms(i),
                                 {{"target", target}});
        }
      }
    });
  }
  parallel::run_all(&pool, std::move(tasks));

  const std::uint64_t expected = static_cast<std::uint64_t>(kTasks) * kIterations;
  EXPECT_EQ(telemetry.metrics().counter_total("hammer_total"), expected);
  EXPECT_EQ(telemetry.metrics().counter_total("hammer_cached_total"), expected);
  EXPECT_DOUBLE_EQ(telemetry.metrics().gauge("hammer_gauge").value(),
                   static_cast<double>(expected));
  const Histogram* lat =
      telemetry.metrics().find_histogram("hammer_lat", {{"target", "target-0"}});
  ASSERT_NE(lat, nullptr);
  EXPECT_GT(lat->count(), 0u);
  // Every span was either stored or counted as dropped — none lost.
  EXPECT_EQ(telemetry.tracer().span_count() + telemetry.tracer().dropped(),
            expected);
  EXPECT_GT(telemetry.events().total_logged(), 0u);
  // The expositions render without tearing while values are stable.
  EXPECT_FALSE(telemetry.metrics().prometheus_text().empty());
  EXPECT_FALSE(telemetry.tracer().chrome_trace_json().empty());
}

// --- Determinism: telemetry never feeds back into results --------------------

std::string read_file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TransportFactory faulty_factory() {
  return [](const std::string& name) -> std::unique_ptr<Transport> {
    FaultProfile profile;
    if (name == "ucsb-gw") profile = FaultProfile::command_failure_rate(0.3);
    return std::make_unique<FaultInjectingTransport>(
        per_target_seed(0x7e1e3e7 , name), profile);
  };
}

TEST(TelemetryDeterminism, ResultsSeriesAndArchivesIdenticalOnOrOff) {
  workload::ScenarioConfig scenario_config;
  scenario_config.seed = 21;
  scenario_config.domains = 4;
  scenario_config.hosts_per_domain = 6;
  scenario_config.dvmrp_prefixes_per_domain = 6;
  scenario_config.report_loss = 0.02;
  scenario_config.timer_scale = 1;
  scenario_config.full_timers = true;
  scenario_config.generator.session_arrivals_per_hour = 40.0;
  scenario_config.generator.bursts_per_day = 0.0;
  workload::FixwScenario scenario(scenario_config);
  scenario.start();

  const std::filesystem::path base =
      std::filesystem::path(::testing::TempDir()) / "mantra_telemetry_equiv";
  std::filesystem::remove_all(base);
  const std::string off_dir = (base / "off").string();
  const std::string on_dir = (base / "on").string();

  const auto make_monitor = [&](bool telemetry_on, const std::string& dir) {
    MantraConfig config;
    config.cycle = sim::Duration::minutes(15);
    config.retry.max_attempts = 2;
    config.worker_threads = 4;
    config.archive_dir = dir;
    config.telemetry.enabled = telemetry_on;
    auto monitor = std::make_unique<Mantra>(scenario.engine(), config,
                                            faulty_factory());
    monitor->add_target(scenario.network().router(scenario.fixw_node()));
    monitor->add_target(scenario.network().router(scenario.ucsb_node()));
    monitor->start();
    return monitor;
  };
  auto off = make_monitor(false, off_dir);
  auto on = make_monitor(true, on_dir);
  scenario.engine().run_until(scenario.engine().now() + sim::Duration::hours(4));

  // The telemetry-on run actually observed the cycle: counters, spans and
  // capture-latency samples all populated.
  EXPECT_FALSE(off->telemetry().enabled());
  ASSERT_TRUE(on->telemetry().enabled());
  const MetricsRegistry& metrics = on->telemetry().metrics();
  EXPECT_EQ(metrics.counter_total("mantra_cycles_total"), 16u);
  EXPECT_GT(metrics.counter_total("mantra_cycles_recorded_total"), 0u);
  EXPECT_GT(metrics.counter_total("mantra_transport_commands_total"), 0u);
  EXPECT_GT(metrics.counter_total("mantra_capture_status_total"), 0u);
  EXPECT_GT(metrics.counter_total("mantra_archive_records_total"), 0u);
  EXPECT_GT(metrics.counter_total("mantra_pool_tasks_total"), 0u);
  const Histogram* latency = metrics.find_histogram(
      "mantra_capture_latency_seconds", {{"target", "fixw"}});
  ASSERT_NE(latency, nullptr);
  EXPECT_GT(latency->count(), 0u);
  EXPECT_GT(on->telemetry().tracer().span_count(), 0u);

  // The invariant: every monitored-path output is byte-identical.
  for (const std::string& name : off->target_names()) {
    EXPECT_EQ(off->target_view(name).results(), on->target_view(name).results())
        << "target " << name;
    const auto sessions = [](const CycleResult& r) {
      return static_cast<double>(r.usage.sessions);
    };
    EXPECT_EQ(off->series(name, "sessions", sessions).to_csv(),
              on->series(name, "sessions", sessions).to_csv())
        << "target " << name;
  }
  EXPECT_EQ(off->overview().to_csv(), on->overview().to_csv());
  EXPECT_EQ(off->status().to_table().to_csv(), on->status().to_table().to_csv());

  const std::vector<std::string> names = off->target_names();
  off.reset();
  on.reset();
  for (const std::string& name : names) {
    const std::string off_bytes =
        read_file_bytes(std::filesystem::path(off_dir) / (name + ".marc"));
    const std::string on_bytes =
        read_file_bytes(std::filesystem::path(on_dir) / (name + ".marc"));
    EXPECT_FALSE(off_bytes.empty()) << "target " << name;
    EXPECT_EQ(off_bytes, on_bytes) << "target " << name;
  }
  std::filesystem::remove_all(base);
}

// --- TelemetryStage ----------------------------------------------------------

// The correlation layer: flush stamps the deterministic tid and a
// c<cycle>/<target>[/<command>/a<attempt>] id onto every staged span and
// event — the id leads the span args / event fields — and forwards in
// staged order. Nothing reaches the shared sinks before the flush.
TEST(TelemetryStage, FlushStampsTidAndCorrelationIds) {
  TelemetryConfig config;
  config.enabled = true;
  Telemetry telemetry(config);
  TelemetryStage stage(&telemetry);

  {
    TelemetryStage::Span span =
        stage.span("capture", "collect", sim::TimePoint::from_ms(60'000));
    span.set_context("show ip dvmrp route", /*attempt=*/2);
    span.arg("status", "ok");
  }
  { TelemetryStage::Span span = stage.span("parse", "process",
                                           sim::TimePoint::from_ms(60'000)); }
  stage.log(EventLevel::warn, "capture_failed", sim::TimePoint::from_ms(60'000),
            {{"target", "fixw"}}, "show ip mroute", /*attempt=*/1);
  stage.log(EventLevel::info, "target_recovered",
            sim::TimePoint::from_ms(60'000), {{"target", "fixw"}});
  EXPECT_EQ(stage.staged_spans(), 2u);
  EXPECT_EQ(stage.staged_events(), 2u);
  EXPECT_EQ(telemetry.tracer().span_count(), 0u);  // nothing leaked pre-join
  EXPECT_EQ(telemetry.events().size(), 0u);

  stage.flush(/*cycle_seq=*/7, "fixw", /*tid=*/3);
  EXPECT_EQ(stage.staged_spans(), 0u);
  EXPECT_EQ(stage.staged_events(), 0u);

  const std::vector<TraceSpan> spans = telemetry.tracer().snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].tid, 3u);
  ASSERT_FALSE(spans[0].args.empty());
  // The id leads the args; command context scopes it to the attempt.
  EXPECT_EQ(spans[0].args[0],
            (std::pair<std::string, std::string>{
                "corr", correlation_id(7, "fixw", "show ip dvmrp route", 2)}));
  EXPECT_EQ(spans[0].args[1].first, "status");
  // A span without command context gets the cycle-level id.
  EXPECT_EQ(spans[1].args[0],
            (std::pair<std::string, std::string>{"corr",
                                                 correlation_id(7, "fixw")}));

  const std::vector<TelemetryEvent> events = telemetry.events().snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].fields[0],
            (std::pair<std::string, std::string>{
                "corr", correlation_id(7, "fixw", "show ip mroute", 1)}));
  EXPECT_EQ(events[1].fields[0],
            (std::pair<std::string, std::string>{"corr", "c7/fixw"}));
  EXPECT_EQ(events[0].fields[1].first, "target");
}

// Tracer::Scope and TelemetryStage::Span are one span implementation: built
// alike they record the same span, except for what the stage's flush stamps
// (the lane tid and the leading `corr` arg) and the wall clock.
TEST(TelemetryStage, StageSpanRecordsWhatATracerSpanRecords) {
  TelemetryConfig config;
  config.enabled = true;
  Telemetry telemetry(config);
  TelemetryStage stage(&telemetry);
  const auto build = [](auto scope) {
    scope.arg("target", "fixw");
    scope.arg("status", "ok");
    scope.set_sim_interval(sim::TimePoint::from_ms(900'000), sim::Duration::seconds(12));
  };
  build(telemetry.tracer().span("capture", "collect", sim::TimePoint::from_ms(60'000)));
  build(stage.span("capture", "collect", sim::TimePoint::from_ms(60'000)));
  ASSERT_EQ(telemetry.tracer().span_count(), 1u);  // the stage holds its span
  stage.flush(/*cycle_seq=*/7, "fixw", /*tid=*/3);

  std::vector<TraceSpan> spans = telemetry.tracer().snapshot();
  ASSERT_EQ(spans.size(), 2u);
  TraceSpan& direct = spans[0];
  TraceSpan& staged = spans[1];
  EXPECT_EQ(direct.tid, telemetry.tracer().thread_id());
  EXPECT_EQ(staged.tid, 3u);
  ASSERT_FALSE(staged.args.empty());
  EXPECT_EQ(staged.args.front(),
            (std::pair<std::string, std::string>{"corr", correlation_id(7, "fixw")}));
  staged.args.erase(staged.args.begin());
  for (TraceSpan* span : {&direct, &staged}) {
    EXPECT_GE(span->wall_ts_us, 0);
    EXPECT_GE(span->wall_dur_us, 0);
    span->tid = 0;
    span->wall_ts_us = 0;
    span->wall_dur_us = 0;
  }
  EXPECT_EQ(direct.name, staged.name);
  EXPECT_EQ(direct.category, staged.category);
  EXPECT_EQ(direct.sim_ts_ms, staged.sim_ts_ms);
  EXPECT_EQ(direct.sim_dur_ms, staged.sim_dur_ms);
  EXPECT_EQ(direct.args, staged.args);
  EXPECT_EQ(direct.sim_ts_ms, 900'000);
  EXPECT_EQ(direct.sim_dur_ms, 12'000);

  // Inert scopes of both kinds record nothing, even after a flush.
  Telemetry off;
  TelemetryStage inert_stage(&off);
  build(off.tracer().span("capture", "collect", sim::TimePoint::start()));
  {
    TelemetryStage::Span span = inert_stage.span("capture", "collect", sim::TimePoint::start());
    span.set_context("show ip mroute", 1);
    build(std::move(span));
  }
  EXPECT_EQ(inert_stage.staged_spans(), 0u);
  inert_stage.flush(0, "fixw", 1);
  EXPECT_EQ(off.tracer().span_count(), 0u);
  EXPECT_EQ(off.tracer().dropped(), 0u);
}

// --- Determinism: ordering is worker_threads-invariant -----------------------

// Tentpole invariant: spans and events are staged per target during the
// cycle and flushed post-join in target-name order with deterministic tids
// and correlation ids, so the logfmt event log and the Chrome trace export
// are byte-identical whether the cycle ran sequentially or on a pool.
// (Metrics are deliberately out of scope: pool gauges like queue depth
// legitimately differ with worker count.)
TEST(TelemetryOrdering, SequentialAndPooledRunsEmitIdenticalBytes) {
  workload::ScenarioConfig scenario_config;
  scenario_config.seed = 21;
  scenario_config.domains = 4;
  scenario_config.hosts_per_domain = 6;
  scenario_config.dvmrp_prefixes_per_domain = 6;
  scenario_config.report_loss = 0.02;
  scenario_config.timer_scale = 1;
  scenario_config.full_timers = true;
  scenario_config.generator.session_arrivals_per_hour = 40.0;
  scenario_config.generator.bursts_per_day = 0.0;
  workload::FixwScenario scenario(scenario_config);
  scenario.start();

  const auto make_monitor = [&](std::size_t workers) {
    MantraConfig config;
    config.cycle = sim::Duration::minutes(15);
    config.retry.max_attempts = 2;
    config.worker_threads = workers;
    config.telemetry.enabled = true;
    auto monitor = std::make_unique<Mantra>(scenario.engine(), config,
                                            faulty_factory());
    monitor->add_target(scenario.network().router(scenario.fixw_node()));
    monitor->add_target(scenario.network().router(scenario.ucsb_node()));
    monitor->start();
    return monitor;
  };
  const auto sequential = make_monitor(0);
  const auto pooled = make_monitor(4);
  scenario.engine().run_until(scenario.engine().now() + sim::Duration::hours(4));

  const std::string sequential_trace =
      sequential->telemetry().tracer().chrome_trace_json();
  const std::string pooled_trace =
      pooled->telemetry().tracer().chrome_trace_json();
  ASSERT_GT(sequential->telemetry().tracer().span_count(), 0u);
  EXPECT_EQ(sequential_trace, pooled_trace);
  EXPECT_EQ(sequential->telemetry().events().logfmt(),
            pooled->telemetry().events().logfmt());

  // The shared export carries the correlation layer: every capture span's
  // first arg is a c<cycle>/<target>/<command>/a<attempt> id, and the
  // flush assigned stable per-target lanes (tid 1 = driver, 2+ = targets).
  EXPECT_NE(sequential_trace.find("\"corr\": \"c1/fixw/"), std::string::npos);
  EXPECT_NE(sequential_trace.find("{\"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
                                  "\"name\": \"thread_name\", "
                                  "\"args\": {\"name\": \"driver\"}}"),
            std::string::npos);
  EXPECT_NE(sequential_trace.find("{\"ph\": \"M\", \"pid\": 1, \"tid\": 2, "
                                  "\"name\": \"thread_name\", "
                                  "\"args\": {\"name\": \"fixw\"}}"),
            std::string::npos);
}

// --- Fuzzed text encoders ----------------------------------------------------
//
// Target, shard and rule names are operator-controlled. They reach logfmt
// (the event log and the fleet's merged event stream) and the Prometheus
// exposition (label values, including the `shard` label the fleet
// federation splices into serialized label strings). Seeded edits of hostile
// names must lint clean and come back unchanged from both encoders. Metric
// names and event names are code constants and are not fuzzed.

/// Hostile names, then seeded edits of them (tests/fuzz_mutate.hpp).
std::vector<std::string> hostile_names(std::uint32_t seed, std::size_t count) {
  const std::vector<std::string> base = {
      "fixw",         "gone dark",   "a=b=c",         "say \"hi\"",
      "C:\\mantra\\", "l1\nl2",      "l1\r\nl2",      "c1\tc2",
      "",             "\\",          "\"",            "}",
      "{a=\"b\"}",    "x\",y=\"z",   "shard=\"s\"",   "a|b=c",
      std::string("nul\0byte", 8), "\x01\x7f",     "\xc3\xa9t\xe9", "trail\\"};
  std::mt19937 rng(seed);
  std::vector<std::string> out = base;
  while (out.size() < count) {
    out.push_back(mantra::fuzz::mutate(base[rng() % base.size()], rng).first);
  }
  return out;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

using Pairs = std::vector<std::pair<std::string, std::string>>;

TEST(EncoderFuzz, LogfmtLinesParseBackToTheLoggedFields) {
  const std::vector<std::string> names = hostile_names(0x10f3u, 600);
  EventLog log(/*enabled=*/true, /*capacity=*/names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    log.log(EventLevel::warn, "capture_failed",
            sim::TimePoint::from_ms(static_cast<std::int64_t>(i)),
            {{"target", names[i]}, {"detail", names[(i * 7 + 3) % names.size()]}});
  }
  const std::vector<std::string> lines = lines_of(log.logfmt());
  ASSERT_EQ(lines.size(), names.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const Pairs want = {{"sim_ts", std::to_string(i)},
                        {"level", "warn"},
                        {"event", "capture_failed"},
                        {"target", names[i]},
                        {"detail", names[(i * 7 + 3) % names.size()]}};
    EXPECT_EQ(parse_logfmt_line(lines[i]), want) << "event " << i;
  }
}

/// Two telemetry-only monitors registered as shards under hostile names.
struct FuzzFleet {
  explicit FuzzFleet(const std::vector<std::string>& shard_names) {
    MantraConfig config;
    config.telemetry.enabled = true;
    config.telemetry.max_spans = 16;
    for (const std::string& name : shard_names) {
      monitors.push_back(std::make_unique<Mantra>(engine, config));
      fleet.add_shard(name, *monitors.back());
    }
  }

  sim::Engine engine;
  std::vector<std::unique_ptr<Mantra>> monitors;
  FleetAggregator fleet;
};

/// Two distinct, non-empty shard names for round `round`.
std::vector<std::string> shard_pair(const std::vector<std::string>& names,
                                    std::size_t round) {
  std::string a = "s" + names[round % names.size()];
  std::string b = "t" + names[(round * 5 + 1) % names.size()];
  return {a, b};
}

TEST(EncoderFuzz, FederatedLogfmtLinesParseBackWithTheirShard) {
  const std::vector<std::string> names = hostile_names(0x5e7du, 200);
  for (std::size_t round = 0; round < 40; ++round) {
    const std::vector<std::string> shards = shard_pair(names, round);
    FuzzFleet fuzz(shards);
    std::vector<Pairs> want;
    for (std::size_t s = 0; s < shards.size(); ++s) {
      const std::string& value = names[(round * 3 + s) % names.size()];
      fuzz.monitors[s]->telemetry().events().log(
          EventLevel::info, "target_recovered", sim::TimePoint::from_ms(1000),
          {{"target", value}, {"health", "healthy"}});
      want.push_back({{"sim_ts", "1000"},
                      {"shard", shards[s]},
                      {"level", "info"},
                      {"event", "target_recovered"},
                      {"target", value},
                      {"health", "healthy"}});
    }
    // The merge orders same-instant events by shard name.
    if (shards[1] < shards[0]) std::swap(want[0], want[1]);
    const std::vector<std::string> lines = lines_of(federated_events_logfmt(fuzz.fleet));
    ASSERT_EQ(lines.size(), 2u) << "round " << round;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      EXPECT_EQ(parse_logfmt_line(lines[i]), want[i]) << "round " << round;
    }
  }
}

/// Every sample line's labels, values unescaped (\\, \" and \n), `le`
/// left out.
std::multiset<std::pair<std::string, std::string>> exposition_labels(
    const std::string& text) {
  std::multiset<std::pair<std::string, std::string>> labels;
  for (const std::string& line : lines_of(text)) {
    if (line.empty() || line[0] == '#') continue;
    std::size_t i = line.find_first_of("{ ");
    if (i == std::string::npos || line[i] != '{') continue;
    ++i;
    while (i < line.size() && line[i] != '}') {
      const std::size_t eq = line.find('=', i);
      const std::string key = line.substr(i, eq - i);
      std::string value;
      for (i = eq + 2; i < line.size() && line[i] != '"'; ++i) {
        if (line[i] == '\\') {
          ++i;
          value.push_back(line[i] == 'n' ? '\n' : line[i]);
        } else {
          value.push_back(line[i]);
        }
      }
      ++i;  // closing quote
      if (i < line.size() && line[i] == ',') ++i;
      if (key != "le") labels.emplace(key, value);
    }
  }
  return labels;
}

/// Registers one counter, gauge and histogram instance labeled with the
/// round's names; `bounds` lets shards disagree on histogram buckets.
void record_hostile(MetricsRegistry& registry, const std::string& target,
                    const std::string& rule, const std::vector<double>& bounds) {
  registry.counter("mantra_fuzz_total", {{"target", target}}).inc();
  registry.counter("mantra_fuzz_total", {{"rule", rule}, {"target", target}}).inc(2);
  registry.gauge("mantra_fuzz_state", {{"rule", rule}, {"target", target}}).set(1.5);
  registry.histogram("mantra_fuzz_seconds", {{"rule", rule}, {"target", target}}, bounds)
      .observe(0.3);
}

TEST(EncoderFuzz, PrometheusLabelValuesLintCleanAndRoundTrip) {
  const std::vector<std::string> names = hostile_names(0x9e01u, 400);
  for (std::size_t round = 0; round < names.size(); ++round) {
    const std::string& target = names[round];
    const std::string& rule = names[(round * 11 + 5) % names.size()];
    MetricsRegistry registry(/*enabled=*/true);
    record_hostile(registry, target, rule, {0.1, 1.0});
    const std::string text = registry.prometheus_text();
    EXPECT_EQ(prometheus_lint(text), std::vector<std::string>{}) << "round " << round;
    const auto labels = exposition_labels(text);
    // Two counters, the gauge, and the histogram's 3 buckets, _sum and _count.
    EXPECT_EQ(labels.count({"target", target}), 2u + 1u + 5u) << "round " << round;
    EXPECT_EQ(labels.count({"rule", rule}), 1u + 1u + 5u) << "round " << round;
  }
}

// Regression: the linter grouped histogram samples by `key=value|` over the
// unescaped values, so two instances whose values carry '|' and '=' shared
// one key and read as a single bucket run with buckets after le="+Inf".
TEST(EncoderFuzz, LintKeepsHistogramInstancesWithSeparatorValuesApart) {
  MetricsRegistry registry(/*enabled=*/true);
  registry.histogram("mantra_fuzz_seconds", {{"rule", "x|target=y"}, {"target", "z"}}, {1.0})
      .observe(0.5);
  registry.histogram("mantra_fuzz_seconds", {{"rule", "x"}, {"target", "y|target=z"}}, {1.0})
      .observe(0.5);
  EXPECT_EQ(prometheus_lint(registry.prometheus_text()), std::vector<std::string>{});
}

TEST(EncoderFuzz, FederatedPrometheusLabelValuesLintCleanAndRoundTrip) {
  const std::vector<std::string> names = hostile_names(0xfed5u, 200);
  for (std::size_t round = 0; round < 40; ++round) {
    const std::vector<std::string> shards = shard_pair(names, round);
    FuzzFleet fuzz(shards);
    const std::string& target = names[(round * 3) % names.size()];
    const std::string& rule = names[(round * 7 + 2) % names.size()];
    // Disagreeing bounds keep each shard's histogram behind its shard label.
    record_hostile(fuzz.monitors[0]->telemetry().metrics(), target, rule, {0.1, 1.0});
    record_hostile(fuzz.monitors[1]->telemetry().metrics(), target, rule, {0.5});
    const std::string text = federated_prometheus_text(fuzz.fleet);
    EXPECT_EQ(prometheus_lint(text), std::vector<std::string>{}) << "round " << round;
    const auto labels = exposition_labels(text);
    // Each shard: its gauge and its histogram run (3 or 2 buckets, _sum and
    // _count).
    EXPECT_EQ(labels.count({"shard", shards[0]}), 1u + 5u) << "round " << round;
    EXPECT_EQ(labels.count({"shard", shards[1]}), 1u + 4u) << "round " << round;
    // Two summed counters, two gauges, two histogram runs.
    EXPECT_EQ(labels.count({"target", target}), 2u + 2u + 5u + 4u) << "round " << round;
    EXPECT_EQ(labels.count({"rule", rule}), 1u + 2u + 5u + 4u) << "round " << round;
  }
}

}  // namespace
}  // namespace mantra::core
