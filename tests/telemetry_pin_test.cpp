// Pins the monitor's own telemetry on a seeded, faulty, observed run. Six
// FIXW-scenario targets are polled over FaultInjectingTransport at a 30 %
// command failure rate on four workers, with alerts, provenance, a
// self-monitor writing a `.mtel` and `.marc` archives that fsync on every
// key-frame. After each of 24 cycles the registry's (kind, name, labels)
// set and its deterministic values must match the length and FNV-1a digests
// recorded below; at the end so must the event log's logfmt text and the
// Chrome trace export.
//
// Values that read the wall clock or depend on thread scheduling are left
// out: every histogram's sum and buckets, the pool's queue-depth and
// busy-worker gauges, and the pool's run-time count. The other counters,
// histogram counts and gauges are functions of the seeded run.
//
// A change to how metrics are recorded (cached handles, sampling, staging)
// must leave the constants alone: a series that appears earlier, later or
// with other labels changes the set digest of the cycle it moved in. Only a
// change that means to alter the metric set may regenerate them (the
// failure message prints the current table).
#include <gtest/gtest.h>

#include <array>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/mantra.hpp"
#include "core/teltrace.hpp"
#include "core/transport.hpp"
#include "workload/scenario.hpp"

namespace mantra::core {
namespace {

constexpr int kCycles = 24;
constexpr int kTargets = 6;

struct CyclePin {
  std::size_t series;
  std::uint64_t set_digest;
  std::uint64_t value_digest;
};

struct TextPin {
  std::size_t bytes;
  std::uint64_t digest;
};

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Values that depend on thread scheduling: the pool's queue-depth gauges.
/// The busy-worker gauge and the run-time histogram's count did too while a
/// worker observed them after its task had released the cycle's join; the
/// join now waits for that accounting, but they stay excluded so the
/// constants stay as generated.
bool scheduling_dependent(std::string_view name) {
  return name == "mantra_pool_queue_depth" ||
         name == "mantra_pool_queue_depth_peak" ||
         name == "mantra_pool_busy_workers" ||
         name == "mantra_pool_task_run_seconds";
}

CyclePin pin_of(const MetricsSnapshot& snapshot) {
  std::string set;
  std::string values;
  char number[64];
  for (const MetricsSnapshot::CounterSample& c : snapshot.counters) {
    set += "counter " + c.name + "{" + c.labels + "}\n";
    std::snprintf(number, sizeof number, "=%" PRIu64 "\n", c.value);
    values += c.name + "{" + c.labels + "}" + number;
  }
  for (const MetricsSnapshot::GaugeSample& g : snapshot.gauges) {
    set += "gauge " + g.name + "{" + g.labels + "}\n";
    if (scheduling_dependent(g.name)) continue;
    std::snprintf(number, sizeof number, "=%.17g\n", g.value);
    values += g.name + "{" + g.labels + "}" + number;
  }
  for (const MetricsSnapshot::HistogramSample& h : snapshot.histograms) {
    set += "histogram " + h.name + "{" + h.labels + "}\n";
    if (scheduling_dependent(h.name)) continue;
    std::snprintf(number, sizeof number, ":count=%" PRIu64 "\n", h.count);
    values += h.name + "{" + h.labels + "}" + number;
  }
  return {snapshot.counters.size() + snapshot.gauges.size() +
              snapshot.histograms.size(),
          fnv1a(set), fnv1a(values)};
}

TextPin text_pin(std::string_view text) { return {text.size(), fnv1a(text)}; }

workload::ScenarioConfig pin_scenario() {
  workload::ScenarioConfig config;
  config.seed = 12;
  config.domains = kTargets - 1;
  config.hosts_per_domain = 2;
  config.dvmrp_prefixes_per_domain = 8;
  config.report_loss = 0.02;
  config.timer_scale = 40;
  config.generator.session_arrivals_per_hour = 20.0;
  config.generator.bursts_per_day = 0.0;
  return config;
}

/// The self-rules whose inputs are functions of the seeded run. The
/// cycle-duration and fsync-latency rules read the wall clock, and a slow
/// host could make them fire and add a `mantra_alert_state` series.
std::vector<SelfRule> deterministic_self_rules() {
  std::vector<SelfRule> rules;
  for (SelfRule& rule : default_self_rules()) {
    if (rule.rule.name == "capture_failure_rate" ||
        rule.rule.name == "pool_queue_depth") {
      rules.push_back(std::move(rule));
    }
  }
  return rules;
}

const std::array<CyclePin, kCycles>& pinned_cycles() {
  static const std::array<CyclePin, kCycles> pins = {{
      {110, 0x8c2293e25227d87eULL, 0x3c9d950849a3d860ULL},
      {131, 0x6d4c752d056e2a96ULL, 0x8617ac47713d3e24ULL},
      {143, 0x7f32e86871702a1aULL, 0x06f1c67ca19d45b5ULL},
      {147, 0xee3358f7b434bd29ULL, 0xf8c911ca5d14aff0ULL},
      {147, 0xee3358f7b434bd29ULL, 0xe663737426682f86ULL},
      {147, 0xee3358f7b434bd29ULL, 0xd085e39dd1612e05ULL},
      {149, 0x0350690ecf90115aULL, 0x13def00a7718df3fULL},
      {149, 0x0350690ecf90115aULL, 0x9b248193427e3892ULL},
      {153, 0x650424a555e5b067ULL, 0xdabdc9d6812d1e10ULL},
      {153, 0x650424a555e5b067ULL, 0x494211407439c8d7ULL},
      {155, 0x86d4b0cd5f1f44c7ULL, 0x3b2580b0f1246933ULL},
      {155, 0x86d4b0cd5f1f44c7ULL, 0xeea69fea9ae970dfULL},
      {158, 0x68989c506675995aULL, 0x86ef0ffb630ae987ULL},
      {158, 0x68989c506675995aULL, 0x30987e976db715eaULL},
      {158, 0x68989c506675995aULL, 0xaa1a9dfaa4a2bd3eULL},
      {161, 0x4b64c02eb9c88d90ULL, 0x17d656725230ebfcULL},
      {161, 0x4b64c02eb9c88d90ULL, 0x5a0d7424947f47afULL},
      {163, 0xca5f0d68356cc44cULL, 0xb70f5b63131b0eccULL},
      {163, 0xca5f0d68356cc44cULL, 0x1f0c28307d98bf25ULL},
      {166, 0x3d6a249a76c1d49bULL, 0xd7f676219c72c92fULL},
      {166, 0x3d6a249a76c1d49bULL, 0xe0d56baa71d263d6ULL},
      {166, 0x3d6a249a76c1d49bULL, 0xbf1a5544864f14deULL},
      {167, 0xee6d2a0f75795e4cULL, 0x32dba6b45c407bd2ULL},
      {167, 0xee6d2a0f75795e4cULL, 0x6d29cac4199c1bb2ULL},
  }};
  return pins;
}

constexpr TextPin kLogfmt = {16749, 0x2dbc22c9fe50c14dULL};
constexpr TextPin kTraceJson = {565657, 0x09b3ff27c69b97baULL};

std::string table_of(const std::vector<CyclePin>& cycles, const TextPin& logfmt,
                     const TextPin& trace) {
  std::string out = "current table:\n";
  char line[128];
  for (const CyclePin& pin : cycles) {
    std::snprintf(line, sizeof line, "      {%zu, 0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL},\n",
                  pin.series, pin.set_digest, pin.value_digest);
    out += line;
  }
  std::snprintf(line, sizeof line, "logfmt {%zu, 0x%016" PRIx64 "ULL}\n", logfmt.bytes,
                logfmt.digest);
  out += line;
  std::snprintf(line, sizeof line, "trace  {%zu, 0x%016" PRIx64 "ULL}\n", trace.bytes,
                trace.digest);
  out += line;
  return out;
}

TEST(TelemetryPin, SeriesValuesAndExportsOfAFaultyObservedRunArePinned) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "telemetry_pin";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  workload::FixwScenario scenario(pin_scenario());
  scenario.start();
  sim::Engine& engine = scenario.engine();
  engine.run_until(engine.now() + sim::Duration::hours(1));

  MantraConfig config;
  config.cycle = sim::Duration::minutes(15);
  config.worker_threads = 4;
  config.retry.jitter_seed = 0x7e1e;
  config.archive_dir = (dir / "marc").string();
  config.archive.keyframe_interval = 8;
  config.archive.fsync_on_keyframe = true;
  config.telemetry.enabled = true;
  config.alerts.enabled = true;
  config.alerts.provenance = true;
  config.self.enabled = true;
  config.self.path = (dir / "self.mtel").string();
  config.self.rules = deterministic_self_rules();
  Mantra monitor(engine, config, [](const std::string& name) -> std::unique_ptr<Transport> {
    return std::make_unique<FaultInjectingTransport>(
        per_target_seed(0x9e1e, name), FaultProfile::command_failure_rate(0.3));
  });
  monitor.add_target(scenario.network().router(scenario.fixw_node()));
  for (const net::NodeId node : scenario.border_nodes()) {
    monitor.add_target(scenario.network().router(node));
  }
  ASSERT_EQ(monitor.target_count(), static_cast<std::size_t>(kTargets));

  std::vector<CyclePin> cycles;
  for (int c = 0; c < kCycles; ++c) {
    engine.run_until(engine.now() + config.cycle);
    monitor.run_cycle_now();
    cycles.push_back(pin_of(monitor.telemetry().metrics().snapshot()));
  }
  const TextPin logfmt = text_pin(monitor.telemetry().events().logfmt());
  const TextPin trace = text_pin(monitor.telemetry().tracer().chrome_trace_json());

  // The run exercises what the pin is for: faults, retries, alerts and
  // fsyncs all reached the registry.
  const MetricsRegistry& metrics = monitor.telemetry().metrics();
  EXPECT_GT(metrics.counter_total("mantra_transport_faults_total"), 0u);
  EXPECT_GT(metrics.counter_total("mantra_capture_retries_total"), 0u);
  EXPECT_GT(metrics.counter_total("mantra_archive_fsync_total"), 0u);
  EXPECT_FALSE(monitor.alerts().history().empty());

  const std::string table = table_of(cycles, logfmt, trace);
  for (int c = 0; c < kCycles; ++c) {
    const CyclePin& want = pinned_cycles()[static_cast<std::size_t>(c)];
    const CyclePin& got = cycles[static_cast<std::size_t>(c)];
    EXPECT_EQ(got.series, want.series) << "cycle " << c + 1;
    EXPECT_EQ(got.set_digest, want.set_digest) << "cycle " << c + 1;
    EXPECT_EQ(got.value_digest, want.value_digest) << "cycle " << c + 1;
  }
  EXPECT_EQ(logfmt.bytes, kLogfmt.bytes);
  EXPECT_EQ(logfmt.digest, kLogfmt.digest);
  EXPECT_EQ(trace.bytes, kTraceJson.bytes);
  EXPECT_EQ(trace.digest, kTraceJson.digest);
  if (::testing::Test::HasFailure()) std::fputs(table.c_str(), stderr);
  monitor.self_monitor()->close();
}

}  // namespace
}  // namespace mantra::core
