// Alert provenance (the "explain" half of the alerting loop): when a rule
// transitions pending -> firing, the AlertEngine captures a ProvenanceRecord
// — the rule's evaluation window with per-cycle aggregate inputs, the
// contributing cycles' collection facts (capture statuses, stale tables,
// retry/backoff latency), and the triggering threshold math — so every alert
// carries its own causal explanation instead of being an opaque red row.
//
// Determinism contract (the house rule): a ProvenanceRecord is a pure
// function of the recorded CycleResult stream plus the rule set, both of
// which replay byte-identically from `.marc` archives; the correlated event
// tail is a pure function of the `.mtel` sample stream, which is lossless by
// construction (core/teltrace). Live capture and offline reconstruction
// therefore produce byte-identical records — proven by core_alert_test and
// core_fleet_test, cmp-gated in CI via `archive_replay --explain`.
//
// This header is deliberately self-contained (no core/alert include): the
// AlertEngine owns capture, core/report and core/fleet render, and the
// examples' --explain flags parse filters — all through these types.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/telemetry.hpp"
#include "sim/time.hpp"

namespace mantra::core {

struct TelemetrySample;  // core/teltrace.hpp; see attach_provenance_events

/// One cycle's collection facts, as archived (ArchiveCycleMeta mirrors
/// these onto the replayed CycleResult) — the "what was collection doing"
/// column of an explanation.
struct ProvenanceFacts {
  std::size_t cycle_seq = 0;
  bool stale = false;
  std::size_t stale_tables = 0;
  std::size_t collection_failures = 0;
  std::size_t consecutive_failures = 0;
  std::size_t capture_attempts = 0;
  sim::Duration collection_latency;  ///< simulated, incl. retry/backoff waits

  friend bool operator==(const ProvenanceFacts&,
                         const ProvenanceFacts&) = default;
};

/// One evaluation step inside the window that drove an alert over
/// threshold: the raw per-cycle input, the aggregated value the rule read
/// at that step, and whether the fire condition held.
struct ProvenanceWindowPoint {
  std::size_t cycle_seq = 0;
  sim::TimePoint t;
  double raw = 0.0;    ///< extract(result) for this cycle
  double value = 0.0;  ///< windowed/aggregated value at this evaluation
  bool over = false;   ///< fire condition held at this evaluation
  ProvenanceFacts facts;

  friend bool operator==(const ProvenanceWindowPoint&,
                         const ProvenanceWindowPoint&) = default;
};

/// Everything needed to explain one firing episode. Captured at the
/// pending->firing transition; the event tail is attached separately (it
/// comes from the self-telemetry stream, not the result stream) via
/// attach_provenance_events.
struct ProvenanceRecord {
  /// correlation_id(fire_cycle_seq, target); empty when the observation
  /// carried no collection facts (self-monitoring rules over `.mtel`
  /// values, which have no monitor cycle of their own).
  std::string corr;
  std::string rule;
  std::string target;
  std::string severity;   ///< rendered (to_string), keeps this header
                          ///< decoupled from core/alert
  std::string kind;       ///< "threshold" | "rate_of_change" | "spike"
  std::string aggregate;  ///< "last"|"mean"|"max"|"quantile"; "" unless
                          ///< kind == "threshold"
  std::size_t window = 1;
  std::size_t for_cycles = 1;
  std::size_t clear_for_cycles = 1;
  bool fire_above = true;
  double fire_threshold = 0.0;
  double clear_threshold = 0.0;
  double value_at_fire = 0.0;
  std::size_t fire_cycle_seq = 0;
  sim::TimePoint pending_at;
  sim::TimePoint fired_at;
  /// The triggering threshold math, rendered: aggregate, window, value,
  /// comparison, hold count — one deterministic line.
  std::string math;
  /// The evaluation window plus the pending hold, oldest first.
  std::vector<ProvenanceWindowPoint> points;
  /// Correlated telemetry events (capture_failed, target_unreachable, ...)
  /// for this target inside the window. Empty until
  /// attach_provenance_events; capped at kMaxProvenanceEvents (newest kept).
  std::vector<TelemetryEvent> events;

  friend bool operator==(const ProvenanceRecord&,
                         const ProvenanceRecord&) = default;
};

/// Event-tail cap per record: enough to show the failure pattern without
/// turning an explanation into a log dump.
inline constexpr std::size_t kMaxProvenanceEvents = 12;

/// Attaches to each record the events whose `target` field names the
/// record's target and whose timestamp falls inside [first window point,
/// fired_at], ordered by (sim_ts, seq), newest kMaxProvenanceEvents kept.
/// Pure function of its inputs: feeding the same events live
/// (SelfMonitor::events) and offline (`.mtel` replay) yields byte-identical
/// tails.
void attach_provenance_events(std::vector<ProvenanceRecord>& records,
                              const std::vector<TelemetryEvent>& events);

/// Convenience overload over self-telemetry samples (a `.mtel`
/// TelemetryArchiveReader's samples): concatenates the per-sample event
/// tails (each event appears in exactly one sample) and attaches as above.
void attach_provenance_events(std::vector<ProvenanceRecord>& records,
                              const std::vector<TelemetrySample>& samples);

/// `--explain[=<rule>[:<target>]]` filter; empty fields match everything.
struct ExplainFilter {
  std::string rule;
  std::string target;

  [[nodiscard]] bool matches(const ProvenanceRecord& record) const {
    return (rule.empty() || rule == record.rule) &&
           (target.empty() || target == record.target);
  }
};

/// Parses "rule", "rule:target", ":" or "" into a filter.
[[nodiscard]] ExplainFilter parse_explain_spec(std::string_view spec);

/// The `--explain` text surface: one block per matching record, in the
/// given order (callers pass capture order, or the fleet's merged
/// (fired_at, shard, rule, target) order). Deterministic: sim timestamps
/// only, floats via %.6g, events in logfmt. `shards` (parallel to
/// `records`, optional) prefixes each block with its shard name.
[[nodiscard]] std::string render_explanations(
    const std::vector<ProvenanceRecord>& records, const ExplainFilter& filter,
    const std::vector<std::string>* shards = nullptr);

}  // namespace mantra::core
