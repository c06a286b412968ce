// Test oracle: the per-bucket fold of the `.mtel` rollup sidecar builder the
// query engine used to serve hour-resolution questions from (see
// telemetry_rollup_oracle.cpp). TelemetryQueryEngine answers every query
// from the raw samples; these are the answers it must reproduce.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/query.hpp"
#include "core/teltrace.hpp"

namespace mantra::oracle {

struct TelemetryRollupBucket {
  std::int64_t start_ms = 0;
  std::uint32_t samples = 0;
  core::MetricRollup value;
};

/// series -> buckets in ascending start_ms, gaps allowed.
using TelemetryRollups = std::map<std::string, std::vector<TelemetryRollupBucket>>;

/// Every series of every sample folded into `width`-wide buckets, in sample
/// order.
[[nodiscard]] TelemetryRollups build_telemetry_rollups(
    const std::vector<core::TelemetrySample>& samples, std::int64_t width);

/// The sidecar's answer to `query`: one point per bucket of `query.series`
/// whose start lies in the query's snapped window. `rollups` must have been
/// built at the query's bucket width.
[[nodiscard]] std::vector<core::QueryPoint> rollup_points(
    const TelemetryRollups& rollups, const core::TelemetryQuery& query);

}  // namespace mantra::oracle
