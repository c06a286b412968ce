// The three benchmark workloads. Each takes the run configuration and
// returns its metrics, operation counts and correctness verdict.
#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "workload/scenario.hpp"

namespace perfbench {

/// live_clean (observed = false) and live_observed (observed = true).
[[nodiscard]] Outcome run_live(const RunConfig& config, bool observed);

/// archive_serve.
[[nodiscard]] Outcome run_archive_serve(const RunConfig& config);

/// The FIXW scenario at benchmark scale with `domains` border domains.
[[nodiscard]] mantra::workload::ScenarioConfig scenario_config(std::uint64_t seed, int domains);

/// The monitored routers of a scenario: FIXW, then the first (count - 1)
/// borders.
[[nodiscard]] std::vector<const mantra::router::MulticastRouter*> scenario_targets(
    mantra::workload::FixwScenario& scenario, int count);

}  // namespace perfbench
