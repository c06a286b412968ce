// mantra_perf: runs one benchmark workload and prints what it measured. The
// last line of standard output is the result object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// holding every metric the run measured; perfbench/run.py keeps those of
// the run's mode (end-to-end with --trace 0, per-layer with --trace 1) as
// BENCHMARK.json names them. Earlier lines are host facts, workload facts
// and the checks.
//
//   mantra_perf --workload live_clean|live_observed|archive_serve
//               --seed N --seconds S --trace 0|1 [--smoke] [--work-dir DIR]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

int usage() {
  std::fprintf(stderr,
               "usage: mantra_perf --workload live_clean|live_observed|archive_serve "
               "--seed N --seconds S --trace 0|1 [--smoke] [--work-dir DIR]\n");
  return 2;
}

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  config.work_dir = ".bench_build/run";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--workload") {
      config.workload = value();
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atoi(value().c_str());
    } else if (arg == "--trace") {
      config.trace = value() == "1";
    } else if (arg == "--smoke") {
      config.smoke = true;
    } else if (arg == "--work-dir") {
      config.work_dir = value();
    } else {
      return usage();
    }
  }
  if (config.seconds < 1) return usage();
  // Worker threads and query clients: one per core, at most 8.
  config.threads = std::min<std::size_t>(std::max(1u, std::thread::hardware_concurrency()), 8);
  std::filesystem::create_directories(config.work_dir);
  warm_up_cpus(config.threads, config.smoke ? 200.0 : 2000.0);

  Outcome outcome;
  try {
    if (config.workload == "live_clean") {
      outcome = run_live(config, false);
    } else if (config.workload == "live_observed") {
      outcome = run_live(config, true);
    } else if (config.workload == "archive_serve") {
      outcome = run_archive_serve(config);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mantra_perf: %s failed: %s\n", config.workload.c_str(), e.what());
    return 1;
  }

  std::printf("workload %s seed %llu seconds %d trace %d%s\n", config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0, config.smoke ? " (smoke)" : "");
  for (const auto& [key, value] : host_facts(config)) {
    std::printf("host %s: %s\n", key.c_str(), value.c_str());
  }
  for (const auto& [key, value] : outcome.facts) {
    std::printf("fact %s: %s\n", key.c_str(), value.c_str());
  }
  std::string metrics;
  for (const auto& [name, metric] : outcome.metrics) {
    double value = metric.value;
    if (!std::isfinite(value)) {
      outcome.failures.push_back("non-finite value for " + name);
      value = 0.0;
    }
    std::printf("metric %-40s %16.6f %s\n", name.c_str(), value, metric.unit.c_str());
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + number(value) + ", \"unit\": \"" +
               metric.unit + "\"}";
  }
  for (const std::string& failure : outcome.failures) {
    std::printf("check FAILED: %s\n", failure.c_str());
  }
  const bool correct = outcome.failures.empty();
  if (correct) std::printf("check: every correctness check passed\n");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
