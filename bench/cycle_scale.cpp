// Macro-benchmark for the parallel per-target collection pipeline: one
// scenario, 10-200 monitored targets, the same cycles run sequentially
// (worker_threads = 0) and on a worker pool (worker_threads = hardware),
// with an equivalence check that both paths produced identical results.
//
// Emits BENCH_cycle_scale.json (one record per target count) at the repo
// root (MANTRA_REPO_ROOT baked in at configure time) so the artifact path
// does not depend on the working directory, with the host facts (cores,
// build type, compiler) the numbers were measured on. Scale knobs:
//   MANTRA_CYCLE_SCALE_MAX            largest target count (default 200;
//                                     the sweep extends to 250 and 1000)
//   MANTRA_CYCLE_SCALE_CYCLES         monitoring cycles per measurement (default 4)
//   MANTRA_CYCLE_SCALE_WARMUP         untimed warm-up cycles per measurement
//                                     (default 1: the zero-copy pipeline is
//                                     steady-state by design — cycle 1 pays
//                                     the one-time buffer/table allocations
//                                     that later cycles reuse)
//   MANTRA_BENCH_OUTPUT_DIR           overrides the JSON output directory
//   MANTRA_CYCLE_SCALE_ASSERT_SPEEDUP when set, fail unless the parallel
//                                     path beats sequential at 50 targets
//                                     (skipped on single-core hosts)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/mantra.hpp"
#include "core/parallel.hpp"
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

std::string output_path() {
  if (const char* dir = std::getenv("MANTRA_BENCH_OUTPUT_DIR")) {
    return std::string(dir) + "/BENCH_cycle_scale.json";
  }
#ifdef MANTRA_REPO_ROOT
  return std::string(MANTRA_REPO_ROOT) + "/BENCH_cycle_scale.json";
#else
  return "BENCH_cycle_scale.json";
#endif
}

struct Measurement {
  int targets = 0;
  double sequential_ms = 0.0;
  double parallel_ms = 0.0;
  bool identical = false;
};

/// Wall-clock for `cycles` full monitoring cycles over the first `targets`
/// routers, at the scenario's current instant (the engine clock is not
/// advanced, so every variant sees identical router state).
double time_cycles(workload::FixwScenario& scenario, std::size_t worker_threads,
                   int targets, int cycles, int warmup_cycles,
                   std::vector<std::vector<core::CycleResult>>* results_out) {
  core::MantraConfig config;
  config.cycle = sim::Duration::minutes(30);
  config.worker_threads = worker_threads;
  core::Mantra monitor(scenario.engine(), config);
  monitor.add_target(scenario.network().router(scenario.fixw_node()));
  const auto& borders = scenario.border_nodes();
  for (int i = 0; i + 1 < targets && i < static_cast<int>(borders.size()); ++i) {
    monitor.add_target(scenario.network().router(borders[static_cast<std::size_t>(i)]));
  }

  // Warm-up cycles populate the reused capture buffers and table storage
  // (first-touch allocations); they run on both variants, so the identity
  // check below still compares complete, equal-length result histories.
  for (int cycle = 0; cycle < warmup_cycles; ++cycle) monitor.run_cycle_now();

  const auto start = std::chrono::steady_clock::now();
  for (int cycle = 0; cycle < cycles; ++cycle) monitor.run_cycle_now();
  const auto stop = std::chrono::steady_clock::now();

  if (results_out != nullptr) {
    results_out->clear();
    for (const std::string& name : monitor.target_names()) {
      results_out->push_back(monitor.target_view(name).results());
    }
  }
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

}  // namespace
}  // namespace mantra::bench

int main() {
  using namespace mantra;
  using namespace mantra::bench;

  const int max_targets = env_int("MANTRA_CYCLE_SCALE_MAX", 200);
  const int cycles = env_int("MANTRA_CYCLE_SCALE_CYCLES", 4);
  const int warmup = env_int("MANTRA_CYCLE_SCALE_WARMUP", 1);
  const std::size_t threads = core::parallel::hardware_threads();

  // One shared scenario sized for the largest target count: small domains
  // (the bench measures the monitor, not the workload), enough DVMRP stub
  // prefixes for realistic table sizes.
  workload::ScenarioConfig scenario_config;
  scenario_config.seed = 2024;
  scenario_config.domains = max_targets;  // fixw + (domains) borders
  scenario_config.hosts_per_domain = 2;
  scenario_config.dvmrp_prefixes_per_domain = 12;
  scenario_config.report_loss = 0.02;
  scenario_config.timer_scale = 40;
  scenario_config.full_timers = false;
  scenario_config.generator.session_arrivals_per_hour = 60.0;
  scenario_config.generator.bursts_per_day = 0.0;
  std::fprintf(stderr, "building scenario with %d domains...\n", max_targets);
  workload::FixwScenario scenario(scenario_config);
  scenario.start();
  // Let routes propagate and sessions accumulate so captures carry real
  // table volume.
  scenario.engine().run_until(scenario.engine().now() + sim::Duration::hours(2));

  std::vector<Measurement> measurements;
  for (const int targets : {10, 25, 50, 100, 200, 250, 1000}) {
    if (targets > max_targets) break;
    Measurement m;
    m.targets = targets;
    std::vector<std::vector<core::CycleResult>> seq_results;
    std::vector<std::vector<core::CycleResult>> par_results;
    m.sequential_ms =
        time_cycles(scenario, 0, targets, cycles, warmup, &seq_results);
    m.parallel_ms =
        time_cycles(scenario, threads, targets, cycles, warmup, &par_results);
    m.identical = seq_results == par_results;
    std::fprintf(stderr,
                 "targets=%3d  sequential=%9.2f ms  parallel=%9.2f ms  "
                 "speedup=%.2fx  identical=%s\n",
                 m.targets, m.sequential_ms, m.parallel_ms,
                 m.parallel_ms > 0.0 ? m.sequential_ms / m.parallel_ms : 0.0,
                 m.identical ? "yes" : "NO");
    measurements.push_back(m);
  }

  const std::string json_path = output_path();
  std::ofstream json(json_path);
  json << "{\n  \"bench\": \"cycle_scale\",\n  \"host\": {\"nproc\": "
       << std::max(1u, std::thread::hardware_concurrency())
       << ", \"build_type\": \"" << MANTRA_BENCH_BUILD_TYPE
       << "\", \"compiler\": \"" << MANTRA_BENCH_COMPILER
       << "\"},\n  \"threads\": " << threads
       << ",\n  \"cycles_per_measurement\": " << cycles
       << ",\n  \"warmup_cycles\": " << warmup
       << ",\n  \"results\": [\n";
  bool all_identical = true;
  for (std::size_t i = 0; i < measurements.size(); ++i) {
    const Measurement& m = measurements[i];
    all_identical = all_identical && m.identical;
    char line[256];
    std::snprintf(line, sizeof line,
                  "    {\"targets\": %d, \"sequential_ms\": %.3f, "
                  "\"parallel_ms\": %.3f, \"speedup\": %.3f, "
                  "\"identical\": %s}%s\n",
                  m.targets, m.sequential_ms, m.parallel_ms,
                  m.parallel_ms > 0.0 ? m.sequential_ms / m.parallel_ms : 0.0,
                  m.identical ? "true" : "false",
                  i + 1 < measurements.size() ? "," : "");
    json << line;
  }
  json << "  ]\n}\n";
  std::fprintf(stderr, "wrote %s\n", json_path.c_str());

  print_check("parallel results identical to sequential", all_identical,
              all_identical ? "all target counts byte-identical"
                            : "MISMATCH between parallel and sequential results");

  bool speedup_ok = true;
  if (std::getenv("MANTRA_CYCLE_SCALE_ASSERT_SPEEDUP") != nullptr) {
    if (threads < 2) {
      std::fprintf(stderr,
                   "speedup assertion skipped: single hardware thread\n");
    } else {
      bool have_point = false;
      for (const Measurement& m : measurements) {
        if (m.targets != 50) continue;
        have_point = true;
        speedup_ok = m.parallel_ms > 0.0 && m.sequential_ms > m.parallel_ms;
        print_check("parallel speedup > 1.0 at 50 targets", speedup_ok,
                    speedup_ok ? "parallel collection pays off"
                               : "parallel path slower than sequential");
      }
      if (!have_point) {
        speedup_ok = false;
        std::fprintf(stderr,
                     "speedup assertion failed: no 50-target measurement "
                     "(raise MANTRA_CYCLE_SCALE_MAX)\n");
      }
    }
  }
  return (all_identical && speedup_ok) ? 0 : 1;
}
