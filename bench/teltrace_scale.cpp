// Macro-benchmark for the `.mtel` self-telemetry pipeline at registry scale:
// a ~1000-instance metric registry sampled once per 30-minute cycle over a
// simulated 30-day run, measuring
//
//   1. storage: bytes per archived cycle with the delta codec vs a naive
//      keyframe-every-cycle encoding of the same samples;
//   2. sampling cost: the mean wall cost of one SelfMonitor::sample()
//      (snapshot + encode + append + rule evaluation) against the wall cost
//      of one real monitoring cycle — the budget is <3% of cycle time, the
//      exit gate deliberately looser so a noisy CI box does not flake.
//
// Emits BENCH_teltrace_scale.json at the repo root (MANTRA_REPO_ROOT baked
// in at configure time), with the host facts (cores, build type, compiler)
// the numbers were measured on. Knobs:
//   MANTRA_TELTRACE_SCALE_DAYS      simulated span in days (default 30)
//   MANTRA_TELTRACE_SCALE_TARGETS   synthetic targets (default 48; ~21
//                                   instances each)
//   MANTRA_TELTRACE_SCALE_MAX_PCT   sampling-cost exit gate in percent of
//                                   cycle time (default 10)
//   MANTRA_BENCH_OUTPUT_DIR         overrides the JSON output directory
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/mantra.hpp"
#include "core/parallel.hpp"
#include "core/teltrace.hpp"
#include "core/telemetry.hpp"
#include "macro_run.hpp"
#include "workload/scenario.hpp"

namespace mantra::bench {
namespace {

int env_int(const char* name, int fallback) {
  if (const char* env = std::getenv(name)) {
    const int value = std::atoi(env);
    if (value > 0) return value;
  }
  return fallback;
}

std::string output_dir() {
  if (const char* dir = std::getenv("MANTRA_BENCH_OUTPUT_DIR")) return dir;
  return "/tmp";
}

std::string json_path() {
  if (const char* dir = std::getenv("MANTRA_BENCH_OUTPUT_DIR")) {
    return std::string(dir) + "/BENCH_teltrace_scale.json";
  }
#ifdef MANTRA_REPO_ROOT
  return std::string(MANTRA_REPO_ROOT) + "/BENCH_teltrace_scale.json";
#else
  return "BENCH_teltrace_scale.json";
#endif
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Registers the synthetic per-target instrument set (the shape a real fleet
/// shard carries: capture counters, per-status outcomes, queue gauges,
/// latency histograms) and returns the handles so per-cycle mutation never
/// pays the registry lookup.
struct TargetInstruments {
  std::vector<core::Counter*> counters;
  std::vector<core::Gauge*> gauges;
  std::vector<core::Histogram*> histograms;
};

TargetInstruments make_instruments(core::MetricsRegistry& metrics,
                                   int target_index) {
  char target[32];
  std::snprintf(target, sizeof target, "router-%03d", target_index);
  TargetInstruments out;
  const char* counter_families[] = {
      "bench_capture_total",      "bench_capture_status_total",
      "bench_parse_rows_total",   "bench_parse_warnings_total",
      "bench_retries_total",      "bench_archive_records_total",
      "bench_stale_tables_total", "bench_route_spikes_total"};
  for (const char* family : counter_families) {
    out.counters.push_back(&metrics.counter(family, {{"target", target}}));
  }
  const char* gauge_families[] = {"bench_routes",        "bench_sessions",
                                  "bench_participants",  "bench_senders",
                                  "bench_queue_depth",   "bench_cache_bytes"};
  for (const char* family : gauge_families) {
    out.gauges.push_back(&metrics.gauge(family, {{"target", target}}));
  }
  const char* histogram_families[] = {
      "bench_capture_latency_seconds", "bench_parse_seconds",
      "bench_archive_fsync_seconds", "bench_query_seconds"};
  for (const char* family : histogram_families) {
    out.histograms.push_back(&metrics.histogram(family, {{"target", target}}));
  }
  return out;
}

/// Mean wall milliseconds of one real monitoring cycle over a fleet the
/// size the registry models (one border domain per synthetic target) — the
/// budget the sampler cost is measured against.
double measure_cycle_budget_ms(int targets) {
  workload::ScenarioConfig config;
  config.seed = 2026;
  config.domains = std::max(targets - 1, 1);  // fixw + one border per target
  config.hosts_per_domain = 2;
  config.dvmrp_prefixes_per_domain = 12;
  config.report_loss = 0.02;
  config.timer_scale = 40;
  config.full_timers = false;
  config.generator.session_arrivals_per_hour = 60.0;
  config.generator.bursts_per_day = 0.0;
  workload::FixwScenario scenario(config);
  scenario.start();
  scenario.engine().run_until(scenario.engine().now() + sim::Duration::hours(2));

  core::MantraConfig monitor_config;
  monitor_config.cycle = sim::Duration::minutes(30);
  monitor_config.worker_threads = core::parallel::hardware_threads();
  core::Mantra monitor(scenario.engine(), monitor_config);
  monitor.add_target(scenario.network().router(scenario.fixw_node()));
  for (const net::NodeId border : scenario.border_nodes()) {
    monitor.add_target(scenario.network().router(border));
  }
  constexpr int kCycles = 12;
  const auto start = std::chrono::steady_clock::now();
  for (int cycle = 0; cycle < kCycles; ++cycle) monitor.run_cycle_now();
  return seconds_since(start) * 1e3 / kCycles;
}

}  // namespace
}  // namespace mantra::bench

int main() {
  using namespace mantra;
  using namespace mantra::bench;

  const int days = env_int("MANTRA_TELTRACE_SCALE_DAYS", 30);
  const int targets = env_int("MANTRA_TELTRACE_SCALE_TARGETS", 48);
  const int max_pct = env_int("MANTRA_TELTRACE_SCALE_MAX_PCT", 10);
  const int cycles = days * 48;  // one sample per 30-minute cycle

  core::TelemetryConfig telemetry_config;
  telemetry_config.enabled = true;
  core::Telemetry telemetry(telemetry_config);
  std::vector<TargetInstruments> instruments;
  instruments.reserve(static_cast<std::size_t>(targets));
  for (int t = 0; t < targets; ++t) {
    instruments.push_back(make_instruments(telemetry.metrics(), t));
  }
  telemetry.metrics().counter("bench_cycles_total");
  telemetry.metrics().gauge("bench_targets").set(targets);
  const std::size_t instance_count =
      telemetry.metrics().snapshot().counters.size() +
      telemetry.metrics().snapshot().gauges.size() +
      telemetry.metrics().snapshot().histograms.size();
  std::fprintf(stderr, "registry: %zu metric instances across %d targets\n",
               instance_count, targets);

  const std::string mtel_path = output_dir() + "/teltrace_scale.mtel";
  core::SelfMonitorConfig self_config;
  self_config.enabled = true;
  self_config.name = "bench";
  self_config.path = mtel_path;
  core::SelfMonitor self(self_config, &telemetry);

  // --- the simulated 30-day run ---------------------------------------------
  // Realistic churn, not white noise: every cycle roughly a quarter of the
  // targets see activity (counters tick, integer-valued gauges random-walk,
  // one latency observation each) while the rest sit idle — the shape the
  // delta codec is built for.
  std::mt19937 rng(20260808);
  std::vector<double> walk(static_cast<std::size_t>(targets) * 6, 100.0);
  double sample_seconds = 0.0;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    telemetry.metrics().counter("bench_cycles_total").inc();
    for (int t = 0; t < targets; ++t) {
      if ((t + cycle) % 4 != 0) continue;  // idle this cycle
      TargetInstruments& target = instruments[static_cast<std::size_t>(t)];
      for (core::Counter* counter : target.counters) counter->inc(rng() % 4);
      for (std::size_t g = 0; g < target.gauges.size(); ++g) {
        double& value = walk[static_cast<std::size_t>(t) * 6 + g];
        value += static_cast<double>(static_cast<int>(rng() % 21) - 10);
        if (value < 0.0) value = 0.0;
        target.gauges[g]->set(value);
      }
      for (core::Histogram* histogram : target.histograms) {
        histogram->observe(static_cast<double>(rng() % 1000) / 250.0);
      }
    }
    if (cycle % 7 == 0) {
      telemetry.events().log(core::EventLevel::warn, "bench_tick",
                             sim::TimePoint::from_ms(cycle * 1'800'000LL),
                             {{"cycle", std::to_string(cycle)}});
    }
    const auto start = std::chrono::steady_clock::now();
    self.sample(sim::TimePoint::from_ms(cycle * 1'800'000LL));
    sample_seconds += seconds_since(start);
  }
  self.close();
  const double sample_ms = sample_seconds * 1e3 / cycles;

  // --- storage: delta codec vs keyframe-every-cycle -------------------------
  const std::uint64_t delta_bytes =
      static_cast<std::uint64_t>(std::ifstream(mtel_path, std::ios::ate | std::ios::binary)
                                     .tellg());
  const std::string naive_path = output_dir() + "/teltrace_scale_naive.mtel";
  std::uint64_t naive_bytes = 0;
  {
    // The self-monitor keeps no full samples: re-encode the ones the `.mtel`
    // holds.
    const core::TelemetryArchiveReader recorded(mtel_path);
    core::TelemetryArchiveOptions naive_options;
    naive_options.keyframe_interval = 1;
    core::TelemetryArchiveWriter naive(naive_path, naive_options);
    for (const core::TelemetrySample& sample : recorded.samples()) {
      naive.append(sample);
    }
    naive.close();
    naive_bytes = naive.bytes_written();
  }
  std::remove(naive_path.c_str());
  std::remove(mtel_path.c_str());
  const double leverage =
      delta_bytes > 0 ? static_cast<double>(naive_bytes) / delta_bytes : 0.0;
  std::fprintf(stderr,
               "storage: %d cycles  delta=%.1f KB (%.0f B/cycle)  "
               "naive=%.1f KB (%.0f B/cycle)  leverage=%.1fx\n",
               cycles, delta_bytes / 1024.0,
               static_cast<double>(delta_bytes) / cycles, naive_bytes / 1024.0,
               static_cast<double>(naive_bytes) / cycles, leverage);

  // --- sampling cost vs the cycle budget ------------------------------------
  std::fprintf(stderr, "measuring the cycle budget...\n");
  const double cycle_ms = measure_cycle_budget_ms(targets);
  const double sample_pct = cycle_ms > 0.0 ? sample_ms / cycle_ms * 100.0 : 0.0;
  std::fprintf(stderr,
               "sampling: %.3f ms/sample vs %.1f ms/cycle budget = %.2f%% "
               "(target <3%%, gate <%d%%)\n",
               sample_ms, cycle_ms, sample_pct, max_pct);

  // --- JSON artifact --------------------------------------------------------
  const std::string out_path = json_path();
  std::ofstream json(out_path);
  char line[768];
  std::snprintf(
      line, sizeof line,
      "{\n  \"bench\": \"teltrace_scale\",\n"
      "  \"host\": {\"nproc\": %u, \"build_type\": \"%s\", \"compiler\": \"%s\"},\n"
      "  \"days\": %d,\n"
      "  \"cycles\": %d,\n  \"metric_instances\": %zu,\n"
      "  \"storage\": {\"delta_bytes\": %llu, \"bytes_per_cycle\": %.1f, "
      "\"naive_bytes\": %llu, \"naive_bytes_per_cycle\": %.1f, "
      "\"leverage\": %.2f},\n"
      "  \"sampling\": {\"sample_ms\": %.4f, \"cycle_budget_ms\": %.3f, "
      "\"pct_of_cycle\": %.3f, \"target_pct\": 3.0, \"gate_pct\": %d}\n"
      "}\n",
      std::max(1u, std::thread::hardware_concurrency()), MANTRA_BENCH_BUILD_TYPE,
      MANTRA_BENCH_COMPILER, days, cycles, instance_count,
      static_cast<unsigned long long>(delta_bytes),
      static_cast<double>(delta_bytes) / cycles,
      static_cast<unsigned long long>(naive_bytes),
      static_cast<double>(naive_bytes) / cycles, leverage, sample_ms, cycle_ms,
      sample_pct, max_pct);
  json << line;
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());

  char detail[160];
  std::snprintf(detail, sizeof detail, "%.2f%% of cycle time (target <3%%, gate <%d%%)",
                sample_pct, max_pct);
  const bool cost_ok = sample_pct < static_cast<double>(max_pct);
  print_check("sampling cost within cycle budget gate", cost_ok, detail);
  return cost_ok ? 0 : 1;
}
