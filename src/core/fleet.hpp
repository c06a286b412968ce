// Fleet tier (ROADMAP north-star: 1000+ targets behind one view): N sharded
// Mantra instances — each owning a disjoint target subset with its own
// worker pool, archives, telemetry sink and alert engine — feed one
// FleetAggregator that merges their MonitorStatus rows, alert state and
// report data into a fleet-wide view. The two MANET-monitoring papers'
// "distributed hybrid architecture" (autonomous local monitors + a global
// aggregation node) maps directly onto this split: shards stay fully
// autonomous (a shard neither knows nor blocks on its siblings), and the
// aggregation tier is a pure read-side merge.
//
// Determinism contract (mirrors DESIGN.md §7's shard-ownership argument,
// one level up): the aggregator holds shards in a name-ordered map and
// every merged surface iterates (shard, name) — or, for time-stamped rows,
// (t, shard, name) — with no wall-clock reads and no hash-map iteration
// anywhere. A fleet therefore renders the same bytes regardless of shard
// registration order or per-shard worker_threads settings, and a fleet
// report rebuilt offline from the shards' .marc archives (QueryEngine
// replay per target, per-shard rule re-evaluation, same merge) is
// byte-identical to the live one. core_fleet_test proves both properties.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/mantra.hpp"
#include "core/output.hpp"
#include "core/report.hpp"

namespace mantra::core {

/// The fleet-wide monitor-of-the-monitor view: per-shard health rollups
/// plus every target's MonitorStatus row tagged with its owning shard.
/// Built by FleetAggregator::status() as a pure (shard, name)-ordered
/// merge of the shards' own MonitorStatus snapshots — the per-target rows
/// are reused verbatim, so the pinned single-monitor semantics (e.g. a
/// never-succeeded target's staleness spanning the whole run) hold
/// unchanged fleet-wide.
struct FleetStatus {
  struct ShardRow {
    std::string shard;
    std::size_t targets = 0;
    std::size_t healthy = 0;
    std::size_t degraded = 0;
    std::size_t unreachable = 0;
    std::size_t cycles_run = 0;        ///< monitoring cycles the shard executed
    std::size_t cycles_recorded = 0;   ///< sum of per-target recorded cycles
    std::size_t stale_cycles = 0;
    std::size_t route_spikes = 0;
    std::size_t alerts_firing = 0;     ///< (rule, target) pairs firing now
  };

  struct TargetRow {
    std::string shard;
    MonitorStatus::Target target;
  };

  sim::TimePoint now;                ///< max of the shards' status clocks
  std::vector<ShardRow> shards;      ///< shard-name order
  std::vector<TargetRow> targets;    ///< (shard, name) order

  /// One row per shard (health counts, cycle/staleness rollup).
  [[nodiscard]] SummaryTable shard_table() const;
  /// One row per target: MonitorStatus::to_table() columns prefixed with
  /// the owning shard.
  [[nodiscard]] SummaryTable to_table() const;
};

/// The aggregation tier. Registered monitors are borrowed, never owned —
/// each shard keeps running (or being driven) independently; the
/// aggregator only reads. Shards live in a name-ordered map, so every
/// merged surface is independent of registration order.
class FleetAggregator {
 public:
  /// Registers a shard under a unique name. The monitor must outlive the
  /// aggregator. Throws std::invalid_argument on a duplicate name.
  void add_shard(std::string name, const Mantra& monitor);

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// Total targets across all shards.
  [[nodiscard]] std::size_t target_count() const;
  [[nodiscard]] std::vector<std::string> shard_names() const;
  /// Throws std::out_of_range for an unknown shard.
  [[nodiscard]] const Mantra& shard(std::string_view name) const;

  /// The merged fleet status (see FleetStatus).
  [[nodiscard]] FleetStatus status() const;

 private:
  std::map<std::string, const Mantra*, std::less<>> shards_;
};

/// Snapshots every shard's replay-derivable report data (report_data_from
/// per shard), shard-name ordered — the live input to
/// render_fleet_html_report.
[[nodiscard]] FleetReportData fleet_report_data_from(
    const FleetAggregator& fleet);

/// Fleet-wide metric federation: merges every shard's registry snapshot
/// into one MetricsSnapshot. Counters are summed across shards per
/// (name, labels) instance; gauges keep one sample per shard, tagged with a
/// `shard` label; histograms merge bucket-wise when every shard agrees on
/// the bucket bounds and fall back to per-shard `shard`-labelled samples
/// otherwise. # HELP texts merge first-shard-wins. Deterministic: shards
/// are visited in name order and every output vector ends up
/// (name, labels)-sorted, so the federated exposition is byte-stable across
/// shard registration order and worker_threads settings. Shard registries
/// must not define a `shard` label of their own.
[[nodiscard]] MetricsSnapshot federated_metrics(const FleetAggregator& fleet);

/// prometheus_text_from(federated_metrics(fleet)): one lint-clean exposition
/// for the whole fleet.
[[nodiscard]] std::string federated_prometheus_text(const FleetAggregator& fleet);

/// Merges every shard's event-ring snapshot into one logfmt stream, each
/// line tagged with a `shard=` field, ordered by (sim_ts, shard, seq) — the
/// same deterministic merge the status tables use, applied to events.
[[nodiscard]] std::string federated_events_logfmt(const FleetAggregator& fleet);

}  // namespace mantra::core
