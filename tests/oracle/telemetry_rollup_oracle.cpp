// The fold of the retired `.mtrl` rollup builder and the sidecar branch of
// TelemetryQueryEngine::run that served from it. Test-only; the query test
// holds the raw path to exactly these points.
//
// The fold and the per-bucket answer are the retired code's. Only the
// packaging changed: the bucket width is a parameter (the builder folded
// hours only, so day resolution always went to the raw scan), and series are
// kept in a map rather than the sidecar's sorted vector.
#include "oracle/telemetry_rollup_oracle.hpp"

#include <algorithm>
#include <utility>

namespace mantra::oracle {

using namespace core;

namespace {

/// Series key of one metric instance: `name` or `name{labels}`.
std::string series_key(const std::string& name, const std::string& labels) {
  if (labels.empty()) return name;
  return name + "{" + labels + "}";
}

/// Every (series, value) pair of a snapshot in deterministic order, with
/// the exact doubles telemetry_series_value returns.
template <typename Fn>
void enumerate_series_values(const MetricsSnapshot& snapshot, Fn&& fn) {
  for (const MetricsSnapshot::CounterSample& counter : snapshot.counters) {
    fn(series_key(counter.name, counter.labels),
       static_cast<double>(counter.value));
  }
  for (const MetricsSnapshot::GaugeSample& gauge : snapshot.gauges) {
    fn(series_key(gauge.name, gauge.labels), gauge.value);
  }
  for (const MetricsSnapshot::HistogramSample& histogram : snapshot.histograms) {
    const std::string base = series_key(histogram.name, histogram.labels);
    fn(base + ":count", static_cast<double>(histogram.count));
    fn(base + ":sum", histogram.sum);
    fn(base + ":p50", histogram.quantile(0.5));
    fn(base + ":p95", histogram.quantile(0.95));
  }
}

}  // namespace

TelemetryRollups build_telemetry_rollups(const std::vector<TelemetrySample>& samples,
                                         std::int64_t width) {
  // series -> bucket start -> bucket, accumulated in sample order.
  std::map<std::string, std::map<std::int64_t, TelemetryRollupBucket>> acc;
  for (const TelemetrySample& sample : samples) {
    const std::int64_t start = bucket_floor(sample.t_ms, width);
    enumerate_series_values(sample.metrics, [&](std::string series, double value) {
      TelemetryRollupBucket& bucket = acc[std::move(series)][start];
      bucket.start_ms = start;
      bucket.value.add(value, bucket.samples == 0);
      ++bucket.samples;
    });
  }

  TelemetryRollups rollups;
  for (auto& [series, buckets] : acc) {
    std::vector<TelemetryRollupBucket>& out = rollups[series];
    out.reserve(buckets.size());
    for (auto& [start, bucket] : buckets) out.push_back(bucket);
  }
  return rollups;
}

std::vector<QueryPoint> rollup_points(const TelemetryRollups& rollups,
                                      const TelemetryQuery& query) {
  std::vector<QueryPoint> points;
  const QueryWindow window = query_window(query.from, query.to, query.resolution);
  if (window.from_ms > window.to_ms) return points;
  const auto it = rollups.find(query.series);
  if (it == rollups.end()) return points;
  const std::vector<TelemetryRollupBucket>& buckets = it->second;
  const auto first = std::lower_bound(
      buckets.begin(), buckets.end(), window.from_ms,
      [](const TelemetryRollupBucket& bucket, std::int64_t t) {
        return bucket.start_ms < t;
      });
  for (auto bucket = first; bucket != buckets.end() && bucket->start_ms <= window.to_ms;
       ++bucket) {
    points.push_back({sim::TimePoint::from_ms(bucket->start_ms),
                      bucket->value.value(query.aggregate, bucket->samples),
                      bucket->samples});
  }
  return points;
}

}  // namespace mantra::oracle
