// Macro-benchmark for the fleet tier (ROADMAP north-star: 1000+ targets
// behind one view): N sharded Mantra monitors, each over its own simulated
// exchange-point topology, merged by FleetAggregator — measuring the
// fleet-wide serving path (merged status tables + the fleet HTML report)
// at 1000 total targets.
//
// The timed section is aggregation and rendering only: the shards' cycles
// run untimed beforehand (collection scaling is cycle_scale's business).
// The budget models an operator dashboard refresh — the whole fleet view
// must render in under a second.
//
// Emits BENCH_fleet_scale.json at the repo root (MANTRA_REPO_ROOT baked in
// at configure time), with the host facts (cores, build type, compiler) the
// numbers were measured on. Scale knobs:
//   MANTRA_FLEET_SCALE_SHARDS         shard count (default 8)
//   MANTRA_FLEET_SCALE_TARGETS        total fleet targets (default 1000,
//                                     split evenly across shards)
//   MANTRA_FLEET_SCALE_CYCLES         recorded cycles per shard (default 4)
//   MANTRA_FLEET_SCALE_BUDGET_MS      status+report budget (default 1000)
//   MANTRA_BENCH_OUTPUT_DIR           overrides the JSON output directory
//   MANTRA_FLEET_SCALE_ASSERT_BUDGET  when set, exit nonzero unless the
//                                     fleet view rendered under budget
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/fleet.hpp"
#include "core/mantra.hpp"
#include "core/parallel.hpp"
#include "core/report.hpp"
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
    return std::string(dir) + "/BENCH_fleet_scale.json";
  }
#ifdef MANTRA_REPO_ROOT
  return std::string(MANTRA_REPO_ROOT) + "/BENCH_fleet_scale.json";
#else
  return "BENCH_fleet_scale.json";
#endif
}

/// One autonomous shard: its own scenario (engine + seed) and monitor.
struct Shard {
  std::string name;
  std::unique_ptr<workload::FixwScenario> scenario;
  std::unique_ptr<core::Mantra> monitor;
};

}  // namespace
}  // namespace mantra::bench

int main() {
  using namespace mantra;
  using namespace mantra::bench;

  const int shard_count = env_int("MANTRA_FLEET_SCALE_SHARDS", 8);
  const int total_targets = env_int("MANTRA_FLEET_SCALE_TARGETS", 1000);
  const int cycles = env_int("MANTRA_FLEET_SCALE_CYCLES", 4);
  const double budget_ms =
      static_cast<double>(env_int("MANTRA_FLEET_SCALE_BUDGET_MS", 1000));
  const int targets_per_shard = std::max(1, total_targets / shard_count);
  const std::size_t threads = core::parallel::hardware_threads();

  // --- build the shards (untimed): small domains, realistic table volume ---
  std::fprintf(stderr, "building %d shards x %d targets...\n", shard_count,
               targets_per_shard);
  std::vector<Shard> shards;
  for (int s = 0; s < shard_count; ++s) {
    workload::ScenarioConfig config;
    config.seed = 2026 + static_cast<std::uint64_t>(s);
    config.domains = std::max(1, targets_per_shard - 1);
    config.hosts_per_domain = 2;
    config.dvmrp_prefixes_per_domain = 12;
    config.report_loss = 0.02;
    config.timer_scale = 40;
    config.full_timers = false;
    config.generator.session_arrivals_per_hour = 60.0;
    config.generator.bursts_per_day = 0.0;

    Shard shard;
    char name[16];
    std::snprintf(name, sizeof name, "shard-%02d", s);
    shard.name = name;
    shard.scenario = std::make_unique<workload::FixwScenario>(config);
    shard.scenario->start();
    // Let routes propagate and sessions accumulate before monitoring.
    shard.scenario->engine().run_until(shard.scenario->engine().now() +
                                       sim::Duration::hours(2));

    core::MantraConfig monitor_config;
    monitor_config.cycle = sim::Duration::minutes(30);
    monitor_config.worker_threads = threads;
    monitor_config.alerts.enabled = true;
    shard.monitor =
        std::make_unique<core::Mantra>(shard.scenario->engine(), monitor_config);
    shard.monitor->add_target(
        shard.scenario->network().router(shard.scenario->fixw_node()));
    const auto& borders = shard.scenario->border_nodes();
    for (int t = 0; t + 1 < targets_per_shard &&
                    t < static_cast<int>(borders.size());
         ++t) {
      shard.monitor->add_target(shard.scenario->network().router(
          borders[static_cast<std::size_t>(t)]));
    }
    shard.monitor->start();
    // Record `cycles` real cycles at the 30-minute cadence (untimed: the
    // fleet bench measures the serving path, not collection).
    shard.scenario->engine().run_until(
        shard.scenario->engine().now() +
        monitor_config.cycle * static_cast<std::int64_t>(cycles));
    shards.push_back(std::move(shard));
  }

  core::FleetAggregator fleet;
  for (const Shard& shard : shards) {
    fleet.add_shard(shard.name, *shard.monitor);
  }
  std::fprintf(stderr, "fleet ready: %zu shards, %zu targets\n",
               fleet.shard_count(), fleet.target_count());

  // --- timed: the fleet-wide serving path ---
  const auto t0 = std::chrono::steady_clock::now();
  const core::FleetStatus status = fleet.status();
  const std::string shard_table = status.shard_table().render();
  const std::string target_table = status.to_table().render();
  const auto t1 = std::chrono::steady_clock::now();
  const std::string report =
      core::render_fleet_html_report(core::fleet_report_data_from(fleet));
  const auto t2 = std::chrono::steady_clock::now();

  const double status_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  const double report_ms =
      std::chrono::duration<double, std::milli>(t2 - t1).count();
  const double total_ms = status_ms + report_ms;
  const bool under_budget = total_ms < budget_ms;
  std::fprintf(stderr,
               "fleet status: %.2f ms (tables: %zu + %zu rows)\n"
               "fleet report: %.2f ms (%zu bytes)\n"
               "total: %.2f ms (budget %.0f ms)\n",
               status_ms, status.shards.size(), status.targets.size(),
               report_ms, report.size(), total_ms, budget_ms);
  (void)shard_table;
  (void)target_table;

  const std::string json_path = output_path();
  std::ofstream json(json_path);
  char line[768];
  std::snprintf(line, sizeof line,
                "{\n  \"bench\": \"fleet_scale\",\n"
                "  \"host\": {\"nproc\": %u, \"build_type\": \"%s\", "
                "\"compiler\": \"%s\"},\n"
                "  \"shards\": %zu,\n  \"targets\": %zu,\n"
                "  \"cycles_per_shard\": %d,\n  \"threads\": %zu,\n"
                "  \"status_ms\": %.3f,\n  \"report_ms\": %.3f,\n"
                "  \"total_ms\": %.3f,\n  \"budget_ms\": %.0f,\n"
                "  \"report_bytes\": %zu,\n  \"under_budget\": %s\n}\n",
                std::max(1u, std::thread::hardware_concurrency()),
                MANTRA_BENCH_BUILD_TYPE, MANTRA_BENCH_COMPILER,
                fleet.shard_count(), fleet.target_count(), cycles, threads,
                status_ms, report_ms, total_ms, budget_ms, report.size(),
                under_budget ? "true" : "false");
  json << line;
  std::fprintf(stderr, "wrote %s\n", json_path.c_str());

  char detail[128];
  std::snprintf(detail, sizeof detail, "%.2f ms for %zu targets (budget %.0f ms)",
                total_ms, fleet.target_count(), budget_ms);
  print_check("fleet status+report under budget", under_budget, detail);

  if (std::getenv("MANTRA_FLEET_SCALE_ASSERT_BUDGET") != nullptr) {
    return under_budget ? 0 : 1;
  }
  return 0;
}
