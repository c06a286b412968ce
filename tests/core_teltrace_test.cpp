// core/teltrace: the `.mtel` self-telemetry archive round-trips losslessly
// and truncates (never propagates) torn tails; a self-monitor's `.mtel`
// decodes to what its registry held at each sample; the self-monitoring
// rule pack fires on a seeded capture-fault burst; each sample's event tail
// holds exactly the events logged since the previous one; and the report's
// "Monitor health" section renders byte-identically live and from an
// `.mtel` replay. Sampling is result-neutral: every
// monitored-path output is byte-identical with the self-monitor on or off.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/mantra.hpp"
#include "core/query.hpp"
#include "core/report.hpp"
#include "core/teltrace.hpp"
#include "core/telemetry.hpp"
#include "core/transport.hpp"
#include "oracle/mtel_writer_oracle.hpp"
#include "sim/time.hpp"
#include "workload/scenario.hpp"

namespace mantra::core {
namespace {

std::filesystem::path temp_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string read_file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Deterministic synthetic sample stream: a growing dictionary (one counter
/// family gains a labeled instance mid-stream), negative/fractional gauge
/// values, a histogram, help upserts, and an event tail — every codec path.
TelemetrySample make_sample(int i) {
  TelemetrySample sample;
  sample.t_ms = static_cast<std::int64_t>(i) * 600'000;  // every 10 minutes

  MetricsSnapshot& m = sample.metrics;
  m.counters.push_back({"c_total", "", static_cast<std::uint64_t>(i) * 3 + 1});
  if (i >= 5) {
    // New dictionary entry appears mid-file; labels sort after "".
    m.counters.push_back(
        {"c_total", "target=\"a b\"", static_cast<std::uint64_t>(i - 5) * 7});
  }
  m.gauges.push_back({"g", "", 0.5 * i - 7.25});
  MetricsSnapshot::HistogramSample h;
  h.name = "h";
  h.bounds = {1.0, 2.0};
  h.buckets = {static_cast<std::uint64_t>(i), static_cast<std::uint64_t>(i / 2),
               static_cast<std::uint64_t>(i / 3)};
  h.count = h.buckets[0] + h.buckets[1] + h.buckets[2];
  h.sum = 1.375 * i;
  m.histograms.push_back(std::move(h));
  m.help["c_total"] = i < 8 ? "first help text" : "upserted help text";
  if (i < 4) m.help["g"] = "transient help";  // exercises help removal

  if (i % 3 == 0) {
    TelemetryEvent event;
    event.level = EventLevel::warn;
    event.name = "tick";
    event.sim_ts_ms = sample.t_ms;
    event.seq = static_cast<std::uint64_t>(i);
    event.fields = {{"i", std::to_string(i)}, {"note", "quote \" here"}};
    sample.events.push_back(std::move(event));
  }
  return sample;
}

// --- `.mtel` archive ---------------------------------------------------------

TEST(TelemetryArchive, RoundTripIsLossless) {
  const std::filesystem::path dir = temp_dir("mantra_mtel_roundtrip");
  const std::string path = (dir / "self.mtel").string();

  std::vector<TelemetrySample> written;
  {
    TelemetryArchiveOptions options;
    options.keyframe_interval = 3;  // keyframes and deltas both exercised
    TelemetryArchiveWriter writer(path, options);
    for (int i = 0; i < 20; ++i) {
      written.push_back(make_sample(i));
      writer.append(written.back());
    }
    EXPECT_EQ(writer.samples_written(), 20u);
    writer.close();
    EXPECT_EQ(writer.bytes_written(), std::filesystem::file_size(path));
  }

  TelemetryArchiveReader reader(path);
  EXPECT_TRUE(reader.recovery().clean);
  EXPECT_EQ(reader.recovery().bytes_dropped, 0u);
  EXPECT_EQ(reader.indexed_bytes(), std::filesystem::file_size(path));
  ASSERT_EQ(reader.size(), written.size());
  for (std::size_t i = 0; i < written.size(); ++i) {
    EXPECT_EQ(reader.samples()[i], written[i]) << "sample #" << i;
  }
  std::filesystem::remove_all(dir);
}

TEST(TelemetryArchive, TornTailIsTruncatedNotFatal) {
  const std::filesystem::path dir = temp_dir("mantra_mtel_torn");

  std::vector<TelemetrySample> written;
  std::vector<std::uint64_t> boundaries;  // file size after each append
  const auto write_archive = [&](const std::string& path) {
    written.clear();
    boundaries.clear();
    TelemetryArchiveWriter writer(path);
    for (int i = 0; i < 6; ++i) {
      written.push_back(make_sample(i));
      writer.append(written.back());
      boundaries.push_back(writer.bytes_written());
    }
    writer.close();
  };

  // Truncation mid-payload: the final record is dropped, all before survive.
  const std::string mid_payload = (dir / "mid_payload.mtel").string();
  write_archive(mid_payload);
  std::filesystem::resize_file(mid_payload, boundaries[5] - 1);
  {
    TelemetryArchiveReader reader(mid_payload);
    EXPECT_FALSE(reader.recovery().clean);
    EXPECT_FALSE(reader.recovery().reason.empty());
    EXPECT_GT(reader.recovery().bytes_dropped, 0u);
    ASSERT_EQ(reader.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(reader.samples()[i], written[i]);
    EXPECT_EQ(reader.indexed_bytes(), boundaries[4]);
  }

  // Truncation inside a record's length/crc frame.
  const std::string mid_frame = (dir / "mid_frame.mtel").string();
  write_archive(mid_frame);
  std::filesystem::resize_file(mid_frame, boundaries[3] + 4);
  {
    TelemetryArchiveReader reader(mid_frame);
    EXPECT_FALSE(reader.recovery().clean);
    ASSERT_EQ(reader.size(), 4u);
  }

  // A flipped payload byte fails the CRC: that record and everything after
  // it are dropped, the clean prefix survives.
  const std::string corrupt = (dir / "corrupt.mtel").string();
  write_archive(corrupt);
  {
    std::FILE* file = std::fopen(corrupt.c_str(), "r+b");
    ASSERT_NE(file, nullptr);
    std::fseek(file, static_cast<long>(boundaries[1]) + 8, SEEK_SET);
    const int byte = std::fgetc(file);
    std::fseek(file, static_cast<long>(boundaries[1]) + 8, SEEK_SET);
    std::fputc(byte ^ 0xFF, file);
    std::fclose(file);
  }
  {
    TelemetryArchiveReader reader(corrupt);
    EXPECT_FALSE(reader.recovery().clean);
    EXPECT_GT(reader.recovery().bytes_dropped, 0u);
    ASSERT_EQ(reader.size(), 2u);
    EXPECT_EQ(reader.samples()[0], written[0]);
    EXPECT_EQ(reader.samples()[1], written[1]);
  }
  std::filesystem::remove_all(dir);
}

TEST(TelemetryArchive, MissingFileAndBadHeaderThrow) {
  const std::filesystem::path dir = temp_dir("mantra_mtel_badopen");
  EXPECT_THROW(TelemetryArchiveReader((dir / "absent.mtel").string()),
               std::runtime_error);
  const std::string junk = (dir / "junk.mtel").string();
  {
    std::ofstream out(junk, std::ios::binary);
    out << "this is not an mtel file";
  }
  EXPECT_THROW((void)TelemetryArchiveReader{junk}, std::runtime_error);
  std::filesystem::remove_all(dir);
}

/// One seeded sample sequence for the writer oracle: a universe of series
/// (names shared across label sets and across kinds) of which a random
/// subset is present per sample, so series appear before, between and
/// after existing ones, disappear and return; histograms come and go with
/// fixed bounds, help texts are upserted and removed, and events ride along.
/// Most steps change nothing, the registry's common case.
std::vector<TelemetrySample> seeded_sequence(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto chance = [&rng](int percent) {
    return static_cast<int>(rng() % 100) < percent;
  };
  const std::vector<std::string> labels = {"", "mode=\"x\",target=\"a\"",
                                           "target=\"a\"", "target=\"b\"",
                                           "target=\"c\""};
  struct Series {
    std::uint8_t kind;  // 0 counter, 1 gauge, 2 histogram
    std::string name;
    std::string labels;
    bool present = false;
  };
  std::vector<Series> universe;
  for (const char* name : {"a_total", "b_total", "z_total"}) {
    for (const std::string& l : labels) universe.push_back({0, name, l});
  }
  for (const char* name : {"a_total", "depth", "m"}) {
    for (const std::string& l : labels) universe.push_back({1, name, l});
  }
  for (const char* name : {"h_seconds", "w_seconds"}) {
    for (const std::string& l : labels) universe.push_back({2, name, l});
  }
  // The universe is in (kind, name, labels) order, the order a snapshot
  // lists its instances in.
  for (Series& series : universe) series.present = chance(40);

  const std::size_t length = 2 + rng() % 24;
  std::vector<TelemetrySample> samples;
  std::map<std::string, std::string> help;
  std::uint64_t next_seq = 0;
  for (std::size_t i = 0; i < length; ++i) {
    if (i > 0 && chance(55)) {
      const std::size_t flips = 1 + rng() % 4;
      for (std::size_t f = 0; f < flips; ++f) {
        Series& series = universe[rng() % universe.size()];
        series.present = !series.present;
      }
    }
    TelemetrySample sample;
    sample.t_ms = static_cast<std::int64_t>(i) * 60'000;
    for (const Series& series : universe) {
      if (!series.present) continue;
      if (series.kind == 0) {
        sample.metrics.counters.push_back(
            {series.name, series.labels, rng() % 1000});
      } else if (series.kind == 1) {
        sample.metrics.gauges.push_back(
            {series.name, series.labels,
             static_cast<double>(static_cast<std::int64_t>(rng() % 2001) - 1000) / 8.0});
      } else {
        MetricsSnapshot::HistogramSample histogram;
        histogram.name = series.name;
        histogram.labels = series.labels;
        histogram.bounds = series.name == "h_seconds" ? std::vector<double>{0.1, 1.0}
                                                      : std::vector<double>{1e-3, 1e-2, 0.1};
        for (std::size_t b = 0; b <= histogram.bounds.size(); ++b) {
          histogram.buckets.push_back(rng() % 50);
          histogram.count += histogram.buckets.back();
        }
        histogram.sum = static_cast<double>(rng() % 10'000) / 16.0;
        sample.metrics.histograms.push_back(std::move(histogram));
      }
    }
    if (chance(30)) help[universe[rng() % universe.size()].name] = "help " + std::to_string(i);
    if (!help.empty() && chance(20)) help.erase(help.begin());
    sample.metrics.help = help;
    for (std::size_t e = rng() % 3; e > 0; --e) {
      TelemetryEvent event;
      event.level = EventLevel::info;
      event.name = "tick";
      event.sim_ts_ms = sample.t_ms;
      event.seq = next_seq++;
      event.fields = {{"target", "a"}, {"n", std::to_string(i)}};
      sample.events.push_back(std::move(event));
    }
    samples.push_back(std::move(sample));
  }
  return samples;
}

/// What the reader hands back for `appended`: every instance appended so
/// far, the ones absent from a sample carrying the last value they had.
std::vector<TelemetrySample> decoded_view(const std::vector<TelemetrySample>& appended) {
  std::vector<TelemetrySample> out;
  std::map<std::pair<std::string, std::string>, MetricsSnapshot::CounterSample> counters;
  std::map<std::pair<std::string, std::string>, MetricsSnapshot::GaugeSample> gauges;
  std::map<std::pair<std::string, std::string>, MetricsSnapshot::HistogramSample> histograms;
  for (const TelemetrySample& sample : appended) {
    for (const auto& c : sample.metrics.counters) counters[{c.name, c.labels}] = c;
    for (const auto& g : sample.metrics.gauges) gauges[{g.name, g.labels}] = g;
    for (const auto& h : sample.metrics.histograms) histograms[{h.name, h.labels}] = h;
    TelemetrySample view;
    view.t_ms = sample.t_ms;
    for (const auto& [key, c] : counters) view.metrics.counters.push_back(c);
    for (const auto& [key, g] : gauges) view.metrics.gauges.push_back(g);
    for (const auto& [key, h] : histograms) view.metrics.histograms.push_back(h);
    view.metrics.help = sample.metrics.help;
    view.events = sample.events;
    out.push_back(std::move(view));
  }
  return out;
}

TEST(TelemetryArchive, WriterMatchesTheKeyMapOracleOnSeededSequences) {
  const std::filesystem::path dir = temp_dir("mantra_mtel_oracle");
  const std::string path = (dir / "writer.mtel").string();
  const std::string oracle_path = (dir / "oracle.mtel").string();
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const std::vector<TelemetrySample> samples = seeded_sequence(seed);
    const int keyframe_interval = std::array{1, 2, 3, 5, 96}[seed % 5];
    {
      TelemetryArchiveOptions options;
      options.keyframe_interval = keyframe_interval;
      TelemetryArchiveWriter writer(path, options);
      oracle::MtelWriterOracle oracle(oracle_path, keyframe_interval);
      for (const TelemetrySample& sample : samples) {
        writer.append(sample);
        oracle.append(sample);
      }
      writer.close();
      oracle.close();
    }
    const std::string bytes = read_file_bytes(path);
    const std::string want = read_file_bytes(oracle_path);
    ASSERT_TRUE(bytes == want)
        << "seed " << seed << ": " << bytes.size() << " bytes vs the oracle's "
        << want.size() << ", first difference at byte "
        << std::mismatch(bytes.begin(), bytes.end(), want.begin(), want.end()).first -
               bytes.begin();
    const TelemetryArchiveReader reader(path);
    ASSERT_TRUE(reader.recovery().clean) << "seed " << seed;
    ASSERT_EQ(reader.samples(), decoded_view(samples)) << "seed " << seed;
  }
  std::filesystem::remove_all(dir);
}

// --- Self-monitoring over a live Mantra -------------------------------------

workload::ScenarioConfig small_scenario(std::uint64_t seed) {
  workload::ScenarioConfig config;
  config.seed = seed;
  config.domains = 4;
  config.hosts_per_domain = 6;
  config.dvmrp_prefixes_per_domain = 6;
  config.report_loss = 0.02;
  config.timer_scale = 1;
  config.full_timers = true;
  config.generator.session_arrivals_per_hour = 40.0;
  config.generator.bursts_per_day = 0.0;
  return config;
}

TEST(SelfMonitor, SeededFaultBurstFiresCaptureFailureRate) {
  workload::FixwScenario scenario(small_scenario(23));
  scenario.start();
  const std::filesystem::path dir = temp_dir("mantra_self_burst");

  MantraConfig config;
  config.cycle = sim::Duration::minutes(15);
  config.retry.max_attempts = 2;
  config.telemetry.enabled = true;
  config.self.enabled = true;
  config.self.name = "monitor";
  config.self.path = (dir / "monitor.mtel").string();
  Mantra monitor(scenario.engine(), config,
                 [](const std::string& name) -> std::unique_ptr<Transport> {
                   return std::make_unique<FaultInjectingTransport>(
                       per_target_seed(0xb00f, name),
                       FaultProfile::command_failure_rate(0.9));
                 });
  monitor.add_target(scenario.network().router(scenario.fixw_node()));
  monitor.add_target(scenario.network().router(scenario.ucsb_node()));
  monitor.start();
  scenario.engine().run_until(scenario.engine().now() + sim::Duration::hours(4));

  SelfMonitor* self = monitor.self_monitor();
  ASSERT_NE(self, nullptr);
  EXPECT_EQ(self->samples().size(), monitor.status().cycles_run);

  bool fired = false;
  for (const AlertRecord& record : self->alerts().history()) {
    if (record.rule != "capture_failure_rate") continue;
    fired = true;
    EXPECT_EQ(record.target, "monitor");
    EXPECT_EQ(record.severity, AlertSeverity::critical);
    EXPECT_GE(record.peak_value, 0.5);
  }
  EXPECT_TRUE(fired) << "capture_failure_rate never fired under a 90% "
                        "command-failure transport";
  // The closed loop: the self-alert transition was mirrored back into the
  // telemetry the next samples archived.
  self->close();
  const TelemetryArchiveReader reader(config.self.path);
  ASSERT_EQ(reader.size(), self->samples().size());
  const TelemetrySample& last = reader.samples().back();
  EXPECT_NE(find_gauge(last.metrics, "mantra_alert_state",
                       "rule=\"capture_failure_rate\",target=\"monitor\""),
            nullptr);
  std::filesystem::remove_all(dir);
}

TEST(SelfMonitor, LiveAndMtelReplayReportsAreByteIdentical) {
  workload::FixwScenario scenario(small_scenario(29));
  scenario.start();
  const std::filesystem::path dir = temp_dir("mantra_mtel_replay");
  const std::string mtel = (dir / "monitor.mtel").string();

  MantraConfig config;
  config.cycle = sim::Duration::minutes(15);
  config.retry.max_attempts = 2;
  config.archive_dir = dir.string();
  config.alerts.enabled = true;
  config.telemetry.enabled = true;
  config.self.enabled = true;
  config.self.path = mtel;
  auto monitor = std::make_unique<Mantra>(
      scenario.engine(), config,
      [](const std::string& name) -> std::unique_ptr<Transport> {
        FaultProfile profile;
        if (name == "ucsb-gw") profile = FaultProfile::command_failure_rate(0.3);
        return std::make_unique<FaultInjectingTransport>(
            per_target_seed(0x51ab, name), profile);
      });
  monitor->add_target(scenario.network().router(scenario.fixw_node()));
  monitor->add_target(scenario.network().router(scenario.ucsb_node()));
  monitor->start();
  scenario.engine().run_until(scenario.engine().now() + sim::Duration::hours(6));

  const std::string live = render_html_report(report_data_from(*monitor));
  EXPECT_NE(live.find("Monitor health"), std::string::npos);
  const std::vector<HealthSample> live_health = monitor->self_monitor()->samples();
  const std::vector<TelemetryEvent> live_events = monitor->self_monitor()->events();
  const std::vector<std::string> targets = monitor->target_names();
  monitor.reset();  // flushes the .marc archives and the .mtel

  // Offline rebuild: target streams from the .marc files, the "Monitor
  // health" section from the decoded .mtel — no live state involved.
  QueryEngine marc;
  std::vector<ReportTargetData> replayed;
  for (const std::string& target : targets) {
    marc.add_archive(target, (dir / (target + ".marc")).string());
    replayed.push_back({target, marc.replay(target).results});
  }
  TelemetryArchiveReader reader(mtel);
  EXPECT_TRUE(reader.recovery().clean);
  ReportData offline = report_data_from_replay(
      std::move(replayed), default_alert_rules(), &reader.samples());
  offline.health = monitor_health_from_samples("monitor", reader.samples());
  // What the live monitor kept in memory is what the `.mtel` holds: the
  // same health figures per sample and the same events.
  EXPECT_EQ(offline.health->samples, live_health);
  std::vector<TelemetryEvent> mtel_events;
  for (const TelemetrySample& sample : reader.samples()) {
    mtel_events.insert(mtel_events.end(), sample.events.begin(), sample.events.end());
  }
  EXPECT_EQ(mtel_events, live_events);

  EXPECT_EQ(live, render_html_report(offline));
  std::filesystem::remove_all(dir);
}

// A self-monitor's `.mtel` decodes to exactly what its registry and event
// log held at each sample. The registry is driven by hand and grows between
// samples (series appear before, between and after existing ones,
// histograms included; help texts are upserted), so the refilled sample
// buffers and the writer's positional ids meet the growth a live registry
// goes through. No default self-rule reads these series, so sample() writes
// nothing back and each expected sample is the registry as it stood.
TEST(SelfMonitor, MtelDecodesToTheRegistryAtEverySample) {
  const std::filesystem::path dir = temp_dir("mantra_self_refill");
  const std::vector<std::string> names = {"a_total", "m_total", "z_total"};
  const std::vector<MetricLabels> label_sets = {
      {}, {{"target", "a"}}, {{"target", "c"}}, {{"mode", "x"}, {"target", "b"}}};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    std::mt19937_64 rng(seed);
    TelemetryConfig telemetry_config;
    telemetry_config.enabled = true;
    Telemetry telemetry(telemetry_config);
    MetricsRegistry& metrics = telemetry.metrics();
    SelfMonitorConfig config;
    config.enabled = true;
    config.path = (dir / ("seed" + std::to_string(seed) + ".mtel")).string();
    config.archive.keyframe_interval = std::array{1, 3, 96}[seed % 3];
    SelfMonitor self(config, &telemetry);

    std::vector<TelemetrySample> expected;
    std::uint64_t next_seq = 0;
    for (int i = 0; i < 24; ++i) {
      const sim::TimePoint now = sim::TimePoint::from_ms(std::int64_t{i} * 60'000);
      for (std::size_t n = rng() % 6; n > 0; --n) {
        const std::string& name = names[rng() % names.size()];
        const MetricLabels& labels = label_sets[rng() % label_sets.size()];
        switch (rng() % 4) {
          case 0:
            metrics.counter(name, labels).inc(rng() % 100);
            break;
          case 1:
            metrics.gauge(name, labels).set(static_cast<double>(rng() % 1000) / 8.0);
            break;
          case 2: {
            const bool wide = rng() % 2 == 0;
            metrics
                .histogram(wide ? "w_seconds" : "h_seconds", labels,
                           wide ? std::vector<double>{1e-3, 1e-2, 0.1}
                                : std::vector<double>{0.1, 1.0})
                .observe(static_cast<double>(rng() % 2000) / 1000.0);
            break;
          }
          default:
            metrics.set_help(name, "help " + std::to_string(i));
            break;
        }
      }
      for (std::size_t e = rng() % 3; e > 0; --e) {
        telemetry.events().log(EventLevel::info, "tick", now,
                               {{"i", std::to_string(i)}});
      }
      TelemetrySample want;
      want.t_ms = now.total_ms();
      want.metrics = metrics.snapshot();
      want.events = telemetry.events().snapshot(next_seq);
      if (!want.events.empty()) next_seq = want.events.back().seq + 1;
      self.sample(now);
      ASSERT_EQ(metrics.snapshot(), want.metrics)
          << "seed " << seed << ": sample() wrote into the registry";
      expected.push_back(std::move(want));
    }
    self.close();

    const TelemetryArchiveReader reader(config.path);
    ASSERT_TRUE(reader.recovery().clean) << "seed " << seed;
    ASSERT_EQ(reader.samples(), expected) << "seed " << seed;
    EXPECT_EQ(self.samples(), monitor_health_from_samples(config.name, expected).samples)
        << "seed " << seed;
  }
  std::filesystem::remove_all(dir);
}

TEST(SelfMonitor, SamplingIsResultNeutral) {
  workload::FixwScenario scenario(small_scenario(31));
  scenario.start();
  const std::filesystem::path base = temp_dir("mantra_self_neutral");
  const std::string off_dir = (base / "off").string();
  const std::string on_dir = (base / "on").string();

  const auto make_monitor = [&](bool self_on, const std::string& dir) {
    MantraConfig config;
    config.cycle = sim::Duration::minutes(15);
    config.retry.max_attempts = 2;
    config.worker_threads = 4;
    config.archive_dir = dir;
    config.alerts.enabled = true;
    config.telemetry.enabled = true;
    config.self.enabled = self_on;
    if (self_on) config.self.path = dir + "/monitor.mtel";
    auto monitor = std::make_unique<Mantra>(
        scenario.engine(), config,
        [](const std::string& name) -> std::unique_ptr<Transport> {
          FaultProfile profile;
          if (name == "ucsb-gw") profile = FaultProfile::command_failure_rate(0.3);
          return std::make_unique<FaultInjectingTransport>(
              per_target_seed(0x7e1e, name), profile);
        });
    monitor->add_target(scenario.network().router(scenario.fixw_node()));
    monitor->add_target(scenario.network().router(scenario.ucsb_node()));
    monitor->start();
    return monitor;
  };
  auto off = make_monitor(false, off_dir);
  auto on = make_monitor(true, on_dir);
  scenario.engine().run_until(scenario.engine().now() + sim::Duration::hours(4));

  ASSERT_NE(on->self_monitor(), nullptr);
  EXPECT_EQ(off->self_monitor(), nullptr);
  EXPECT_GT(on->self_monitor()->samples().size(), 0u);

  // The invariant: sampling reads collection state, never feeds back into it.
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

TEST(SelfMonitor, EventTailMatchesCopyThenFilterWhenTheRingOverflows) {
  TelemetryConfig telemetry_config;
  telemetry_config.enabled = true;
  telemetry_config.max_events = 4;  // smaller than most cycles' events
  Telemetry telemetry(telemetry_config);
  const std::filesystem::path dir = temp_dir("mantra_self_event_tail");
  SelfMonitorConfig config;
  config.enabled = true;
  config.path = (dir / "monitor.mtel").string();
  SelfMonitor self(config, &telemetry);

  // The tail as sampling took it before EventLog::snapshot had a from_seq:
  // copy the whole ring, keep what the previous sample had not seen.
  std::uint64_t copy_next_seq = 0;
  const auto copy_then_filter = [&] {
    std::vector<TelemetryEvent> tail;
    for (TelemetryEvent& event : telemetry.events().snapshot()) {
      if (event.seq < copy_next_seq) continue;
      copy_next_seq = event.seq + 1;
      tail.push_back(std::move(event));
    }
    return tail;
  };

  std::uint64_t logged = 0;
  std::vector<std::vector<TelemetryEvent>> expected_tails;
  std::vector<TelemetryEvent> expected_events;
  for (const int events_this_cycle : {0, 3, 4, 7, 1, 0, 10, 2, 5}) {
    for (int e = 0; e < events_this_cycle; ++e) {
      telemetry.events().log(EventLevel::info, "tick",
                             sim::TimePoint::from_ms(static_cast<std::int64_t>(logged)),
                             {{"n", std::to_string(logged)}});
      ++logged;
    }
    expected_tails.push_back(copy_then_filter());
    expected_events.insert(expected_events.end(), expected_tails.back().begin(),
                           expected_tails.back().end());
    self.sample(sim::TimePoint::from_ms(
        static_cast<std::int64_t>(self.samples().size()) * 1000));
  }
  // The monitor keeps the tails joined; the `.mtel` keeps them per sample.
  EXPECT_EQ(self.events(), expected_events);
  self.close();
  const TelemetryArchiveReader reader(config.path);
  ASSERT_EQ(reader.size(), expected_tails.size());
  std::uint64_t next_seq = 0;
  for (std::size_t i = 0; i < reader.size(); ++i) {
    const std::vector<TelemetryEvent>& tail = reader.samples()[i].events;
    EXPECT_EQ(tail, expected_tails[i]) << "sample at " << reader.samples()[i].t_ms;
    EXPECT_LE(tail.size(), telemetry_config.max_events);
    for (const TelemetryEvent& event : tail) {
      EXPECT_GE(event.seq, next_seq) << "event sampled twice or out of order";
      next_seq = event.seq + 1;
    }
  }
  EXPECT_EQ(telemetry.events().total_logged(), logged);
  EXPECT_EQ(telemetry.events().dropped(), logged - telemetry.events().size());

  // The offset arithmetic at the ring's edges.
  const std::vector<TelemetryEvent> ring = telemetry.events().snapshot();
  ASSERT_EQ(ring.size(), 4u);
  EXPECT_EQ(telemetry.events().snapshot(ring.front().seq), ring);
  EXPECT_EQ(telemetry.events().snapshot(ring.back().seq),
            std::vector<TelemetryEvent>{ring.back()});
  EXPECT_TRUE(telemetry.events().snapshot(ring.back().seq + 1).empty());
  std::filesystem::remove_all(dir);
}

TEST(SelfMonitorConfig, ValidateNamesTheOffendingRule) {
  SelfMonitorConfig config;
  config.rules = default_self_rules();
  EXPECT_NO_THROW(config.validate());  // no rule carries its own extract

  config.rules.back().value = nullptr;
  try {
    config.validate();
    ADD_FAILURE() << "a rule without a value extractor validated";
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(std::string(error.what()),
              "SelfRule '" + config.rules.back().rule.name + "' has no value extractor");
  }

  config.rules = default_self_rules();
  config.rules.front().rule.window = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

// --- Thread safety (run under the tsan preset) -------------------------------

TEST(TeltraceConcurrency, SamplerRacesInstrumentation) {
  TelemetryConfig telemetry_config;
  telemetry_config.enabled = true;
  telemetry_config.max_events = 512;
  Telemetry telemetry(telemetry_config);

  const std::filesystem::path dir = temp_dir("mantra_self_race");
  SelfMonitorConfig config;
  config.enabled = true;
  config.name = "race";
  config.path = (dir / "race.mtel").string();
  SelfMonitor self(config, &telemetry);

  std::atomic<bool> stop{false};
  std::vector<std::thread> hammers;
  for (int t = 0; t < 4; ++t) {
    hammers.emplace_back([&telemetry, &stop, t] {
      const std::string target = "target-" + std::to_string(t);
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        telemetry.metrics().counter("race_total").inc();
        telemetry.metrics()
            .counter("race_labeled_total", {{"target", target}})
            .inc();
        telemetry.metrics().gauge("race_gauge").set(static_cast<double>(i));
        telemetry.metrics().histogram("race_lat").observe(
            static_cast<double>(i % 5));
        if (i % 16 == 0) {
          telemetry.events().log(EventLevel::info, "race_tick",
                                 sim::TimePoint::from_ms(i), {{"t", target}});
        }
        ++i;
      }
    });
  }
  // Don't race past the hammers before they even start: sample only once
  // instrumentation is observably flowing, and keep it flowing mid-loop.
  while (telemetry.metrics().counter_total("race_total") == 0) {
    std::this_thread::yield();
  }
  constexpr int kSamples = 64;
  for (int i = 0; i < kSamples; ++i) {
    self.sample(sim::TimePoint::from_ms(static_cast<std::int64_t>(i) * 1000));
    if (i % 16 == 0) std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& thread : hammers) thread.join();

  ASSERT_EQ(self.samples().size(), static_cast<std::size_t>(kSamples));
  self.close();
  const TelemetryArchiveReader reader(config.path);
  ASSERT_EQ(reader.size(), static_cast<std::size_t>(kSamples));
  // Each sample is a consistent snapshot: the shared counter is monotone
  // across samples and event seqs never repeat between tails.
  std::uint64_t prev_total = 0;
  std::uint64_t next_seq = 0;
  for (const TelemetrySample& sample : reader.samples()) {
    const MetricsSnapshot::CounterSample* total =
        find_counter(sample.metrics, "race_total");
    if (total != nullptr) {
      EXPECT_GE(total->value, prev_total);
      prev_total = total->value;
    }
    for (const TelemetryEvent& event : sample.events) {
      EXPECT_GE(event.seq, next_seq);
      next_seq = event.seq + 1;
    }
  }
  EXPECT_GT(prev_total, 0u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mantra::core
