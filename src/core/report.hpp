// Self-contained HTML monitoring report (§III "Output Interface", taken
// from Java applets to a single file an operator can open anywhere): one
// HTML document with inline CSS and inline SVG — no JavaScript, no external
// assets — holding per-target time-series plots (sessions/participants,
// bandwidth, DVMRP routes, with firing-alert spans shaded and spike cycles
// marked), overview and collection-status tables, the alert history, and a
// tail of notable events.
//
// The report is a pure function of (recorded results, alert history): it
// embeds no wall-clock timestamps and iterates every surface in a fixed
// order, so the same run renders to the same bytes — live from a running
// Mantra (report_data_from) or offline from .marc archives
// (report_data_from_replay). core_report_test proves the two are
// byte-identical for the same run, and that sequential and pooled
// collection render identically. Facts that exist only live (telemetry
// counters, transport events, health of a still-dark target) are
// deliberately excluded; the replay-derivable subset is the contract.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/alert.hpp"
#include "core/process.hpp"
#include "core/teltrace.hpp"

namespace mantra::core {

class Mantra;

struct ReportOptions {
  std::string title = "Mantra monitoring report";
  /// Rows kept in the "notable events" tail.
  std::size_t event_tail = 48;
  /// Rows kept in the alert-history table (newest kept).
  std::size_t max_alert_rows = 64;
  /// Drill-down sections rendered in "Alert drill-down" (newest kept).
  std::size_t max_explained = 8;
  /// Plot viewport in px (inline SVG; the page never loads assets).
  int plot_width = 720;
  int plot_height = 150;
};

/// One target's replay-derivable report input.
struct ReportTargetData {
  std::string name;
  std::vector<CycleResult> results;
};

/// Everything the renderer consumes. Targets are sorted by name; alert
/// history is in the engine's transition order.
struct ReportData {
  std::vector<ReportTargetData> targets;
  std::vector<AlertRecord> alerts;
  std::vector<AlertStatus> alert_states;
  /// One ProvenanceRecord per firing episode, capture order (parallel to
  /// the engine's history). Event tails are attached when a self-telemetry
  /// stream is available (the live SelfMonitor's events or a decoded
  /// `.mtel`); both paths feed the same recorded events, so the drill-down
  /// renders byte-identically live and from replay.
  std::vector<ProvenanceRecord> provenance;
  /// The "Monitor health" section input (core/teltrace): present when the
  /// monitor ran with self-telemetry, absent otherwise (the section is then
  /// omitted, so reports without self-telemetry render exactly as before).
  /// monitor_health_from_samples over a decoded `.mtel` rebuilds the same
  /// data offline, keeping live and replay reports byte-identical.
  std::optional<MonitorHealthData> health;
};

/// Snapshots a live monitor's recorded results and alert engine state —
/// including the self-monitor's health samples and events when one is
/// attached.
[[nodiscard]] ReportData report_data_from(const Mantra& monitor);

/// Builds the same data from replayed result streams: sorts targets by
/// name, re-evaluates `rules` over the merged streams in live order
/// (evaluate_history), and snapshots the resulting engine — provenance
/// included. With the streams a .marc replay produced and the live rule
/// set, the output is identical to report_data_from on the originating
/// monitor. `samples` (optional) is the run's decoded `.mtel` stream; when
/// given, provenance event tails are attached from it, mirroring what the
/// live path attaches from the SelfMonitor.
[[nodiscard]] ReportData report_data_from_replay(
    std::vector<ReportTargetData> targets, const std::vector<AlertRule>& rules,
    const std::vector<TelemetrySample>* samples = nullptr);

/// Renders the document. Deterministic: same data + options, same bytes.
[[nodiscard]] std::string render_html_report(const ReportData& data,
                                             const ReportOptions& options = {});

/// Renders and writes atomically-ish (truncate + write); false on I/O
/// failure, never throws.
bool write_html_report(const std::string& path, const ReportData& data,
                       const ReportOptions& options = {});

// --- Fleet report (core/fleet aggregation tier) -----------------------------
//
// One document over N shards: the single report's alert tables, drill-down
// list, collection-status table and monitor-health section, each with a
// shard column (history and drill-downs merged across shards in (fired_at,
// shard, rule, target) order), plus per-shard health tiles and the top-K
// busiest targets across the fleet. Same determinism contract as the
// single-monitor report: pure function of replay-derivable facts, fixed
// iteration order everywhere, so the live fleet report and one rebuilt from
// the shards' .marc archives are byte-identical.

/// One shard's replay-derivable report input, tagged with the shard name.
struct FleetShardData {
  std::string shard;
  ReportData data;
};

/// Renderer input. Shards must be sorted by shard name (both builders
/// guarantee it); each shard's targets are name-sorted per ReportData.
struct FleetReportData {
  std::vector<FleetShardData> shards;
};

struct FleetReportOptions {
  std::string title = "Mantra fleet report";
  /// Rows in the "busiest targets" table (by last-cycle bandwidth).
  std::size_t top_k = 20;
  /// Rows kept in the merged alert-history table (newest kept).
  std::size_t max_alert_rows = 64;
  /// Drill-down sections in the fleet "Alert drill-down" (newest kept,
  /// merged (fired_at, shard, rule, target) order).
  std::size_t max_explained = 8;
};

/// One shard's replayed result streams plus the rule set its live alert
/// engine ran — the offline input mirroring fleet_report_data_from.
struct FleetShardReplay {
  std::string shard;
  std::vector<ReportTargetData> targets;
  std::vector<AlertRule> rules;
  /// Monitor-health input rebuilt from the shard's `.mtel`
  /// (monitor_health_from_samples over the decoded samples); nullopt when
  /// the shard ran without self-telemetry.
  std::optional<MonitorHealthData> health;
  /// The shard's decoded `.mtel` samples, used to attach provenance event
  /// tails (empty when the shard ran without self-telemetry — the tails
  /// are then empty on both sides).
  std::vector<TelemetrySample> samples;
};

/// Rebuilds FleetReportData from per-shard replayed streams: each shard's
/// alert history is re-derived with report_data_from_replay (per-shard
/// engines, exactly as live), then shards are sorted by name. With streams
/// from the shards' .marc archives and the live rule sets, the output
/// renders byte-identically to the live fleet report.
[[nodiscard]] FleetReportData fleet_report_data_from_replay(
    std::vector<FleetShardReplay> shards);

/// The fleet-wide explain input: every shard's provenance records with a
/// parallel shard tag per record — feed both vectors to
/// render_explanations(records, filter, &shards).
struct FleetProvenance {
  std::vector<ProvenanceRecord> records;
  std::vector<std::string> shards;  ///< parallel to records
};

/// Merges every shard's provenance in (fired_at, shard, rule, target)
/// order — the same total order as the fleet alert-history merge, made
/// unconditionally total by a pending_at tiebreak. Works on live data
/// (fleet_report_data_from) and replayed data alike; both merge to the
/// same sequence.
[[nodiscard]] FleetProvenance fleet_provenance_from(const FleetReportData& data);

/// Renders the fleet document. Deterministic: same data + options, same
/// bytes.
[[nodiscard]] std::string render_fleet_html_report(
    const FleetReportData& data, const FleetReportOptions& options = {});

}  // namespace mantra::core
