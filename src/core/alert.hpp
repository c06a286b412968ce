// Alerting engine (the operator-facing half of §III's monitoring loop): a
// deterministic rule evaluator over the recorded per-target CycleResult
// stream. The paper's deliverable was not raw tables but callouts — the
// Fig 9 DVMRP route-injection spikes, collection outages — surfaced on the
// monitoring web page; this module decides "this target is in trouble" so
// core/report can render it.
//
// Design constraints, in order:
//   * Deterministic and replayable. A rule is a pure function of the
//     recorded result stream, so replaying a .marc archive re-derives the
//     exact alert history the live monitor produced (core/report exploits
//     this for byte-identical live/offline reports). Dark cycles record no
//     result; the dark spell surfaces through the next recorded cycle's
//     consecutive_failures field, which is archived.
//   * Result-neutral. The engine only reads results; nothing it computes
//     feeds back into collection, processing or archived bytes.
//   * Flap-resistant. Every rule carries a `for`-duration (the condition
//     must hold N consecutive cycles before firing) and hysteresis (a
//     separate clear threshold, held for clear_for_cycles) so a target
//     oscillating around a threshold fires once and clears once instead of
//     storming the event log.
//
// Lifecycle per (rule, target): inactive -> pending (condition holds, for-
// duration not yet met) -> firing -> resolved (clear condition held long
// enough) -> inactive. Transitions are stamped with sim time, appended to
// the engine's history, mirrored into the telemetry EventLog
// (alert_firing / alert_resolved) and exported as mantra_alert_state
// gauges (0 inactive, 1 pending, 2 firing) in the Prometheus exposition.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/output.hpp"
#include "core/process.hpp"
#include "core/provenance.hpp"
#include "core/telemetry.hpp"
#include "sim/time.hpp"

namespace mantra::core {

enum class AlertSeverity { info, warning, critical };
enum class AlertState { inactive, pending, firing };

[[nodiscard]] const char* to_string(AlertSeverity severity);
[[nodiscard]] const char* to_string(AlertState state);

/// One alerting rule, instantiated per target. The raw per-cycle value is
/// `extract(result)` (for spike rules: the detector's score on spike
/// cycles, 0 otherwise), optionally aggregated over a rolling window of
/// recorded cycles before thresholding.
struct AlertRule {
  enum class Kind {
    threshold,       ///< windowed aggregate of extract() vs threshold
    rate_of_change,  ///< newest - oldest extract() over `window` cycles
    spike,           ///< escalates SpikeDetector verdicts (score as value)
  };
  /// Rolling aggregation applied to the extracted values (threshold kind).
  enum class Aggregate { last, mean, max, quantile };

  std::string name;
  AlertSeverity severity = AlertSeverity::warning;
  Kind kind = Kind::threshold;
  /// Per-cycle value source; required for threshold/rate_of_change,
  /// ignored for spike (which reads route_spike/route_spike_score).
  std::function<double(const CycleResult&)> extract;
  Aggregate aggregate = Aggregate::last;
  /// Cycles in the aggregation window (threshold) or the lookback distance
  /// (rate_of_change: value = x[n] - x[n-window], 0 until n >= window).
  std::size_t window = 1;
  double quantile_q = 0.95;  ///< for Aggregate::quantile

  /// Fire when value >= fire_threshold (fire_above) or <= (otherwise).
  bool fire_above = true;
  double fire_threshold = 0.0;
  /// Hysteresis: a firing alert clears only once the value is strictly on
  /// the clear side of clear_threshold for clear_for_cycles consecutive
  /// recorded cycles. Values between the thresholds keep the alert firing.
  double clear_threshold = 0.0;
  std::size_t for_cycles = 1;        ///< consecutive cycles before firing
  std::size_t clear_for_cycles = 1;  ///< consecutive cycles before clearing

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

/// The built-in rule set: stale-table fraction, failure streak, collection
/// latency p95, DVMRP route rate-of-change, and route-spike escalation —
/// the anomalies the paper's deployment surfaced (Fig 9, outages).
[[nodiscard]] std::vector<AlertRule> default_alert_rules();

/// Current evaluation state of one (rule, target) pair.
struct AlertStatus {
  std::string rule;
  std::string target;
  AlertSeverity severity = AlertSeverity::warning;
  AlertState state = AlertState::inactive;
  double value = 0.0;  ///< last evaluated (aggregated) value
  std::optional<sim::TimePoint> pending_since;
  std::optional<sim::TimePoint> firing_since;
};

/// One firing episode, open (resolved_at empty) or closed.
struct AlertRecord {
  std::string rule;
  std::string target;
  AlertSeverity severity = AlertSeverity::warning;
  /// correlation_id(cycle_seq at fire, target), joining this episode to the
  /// cycle's spans/events/results and its ProvenanceRecord. Empty when the
  /// observation carried no collection facts (self-monitoring rules).
  std::string corr;
  sim::TimePoint pending_at;  ///< when the condition first held
  sim::TimePoint fired_at;
  std::optional<sim::TimePoint> resolved_at;
  double peak_value = 0.0;        ///< most extreme value while firing
  std::size_t cycles_firing = 0;  ///< recorded cycles spent firing

  friend bool operator==(const AlertRecord&, const AlertRecord&) = default;
};

/// The rule evaluator. Feed it every recorded cycle in deterministic order
/// — the live monitor calls observe() per target (name order) after each
/// cycle joins; evaluate_history() reproduces that exact order from replayed
/// result streams.
class AlertEngine {
 public:
  explicit AlertEngine(std::vector<AlertRule> rules);

  /// Evaluates every rule against one recorded cycle of `target`.
  /// Observations for one target must arrive in time order.
  void observe(std::string_view target, const CycleResult& result);

  /// Evaluates every rule against pre-extracted raw values — one per rule,
  /// in rule order — stamped at `t`. This is the entry point for series
  /// that are not CycleResults (the self-monitoring rules evaluate values
  /// derived from `.mtel` telemetry samples); the windowing, for-duration
  /// and hysteresis machinery is identical to observe(). Throws
  /// std::invalid_argument when the value count does not match the rules.
  /// `facts` (optional) are the cycle's collection facts recorded into any
  /// ProvenanceRecord this observation fires; observe() derives them from
  /// the CycleResult, value-only callers leave them null.
  void observe_values(std::string_view target, sim::TimePoint t,
                      const std::vector<double>& raw_values,
                      const ProvenanceFacts* facts = nullptr);

  [[nodiscard]] const std::vector<AlertRule>& rules() const { return rules_; }
  /// Every (rule, target) state, targets in name order, rules in rule
  /// order — deterministic for a given observation sequence.
  [[nodiscard]] std::vector<AlertStatus> status() const;
  /// Every firing episode in transition order (open episodes last ones).
  [[nodiscard]] const std::vector<AlertRecord>& history() const {
    return history_;
  }
  /// One ProvenanceRecord per firing episode, in the same order as
  /// history() (captured at each pending->firing transition). Empty when
  /// provenance capture is disabled. Event tails are not attached here —
  /// callers with a self-telemetry stream use attach_provenance_events.
  [[nodiscard]] const std::vector<ProvenanceRecord>& provenance() const {
    return provenance_;
  }
  /// Toggles provenance capture (default on). Capture is strictly
  /// evaluation-neutral — states, history and gauges are identical either
  /// way; the toggle exists for the overhead bench's A/B.
  void set_provenance(bool enabled) { provenance_enabled_ = enabled; }
  [[nodiscard]] std::size_t firing_count() const;

  /// Current states as a SummaryTable (rule, target, state, value, since).
  [[nodiscard]] SummaryTable status_table() const;
  /// Firing history as a SummaryTable (rule, target, severity, pending_at,
  /// fired_at, resolved_at, peak, cycles).
  [[nodiscard]] SummaryTable history_table() const;

  /// Mirrors transitions into `telemetry`: alert_firing / alert_resolved
  /// events and mantra_alert_state{rule=,target=} gauges. Never pass null —
  /// use Telemetry::noop() to detach.
  void set_telemetry(Telemetry* telemetry);

 private:
  struct RuleState {
    AlertState state = AlertState::inactive;
    std::size_t hold = 0;        ///< consecutive fire-condition cycles
    std::size_t clear_hold = 0;  ///< consecutive clear-condition cycles
    std::optional<sim::TimePoint> pending_since;
    std::optional<sim::TimePoint> firing_since;
    double value = 0.0;
    std::deque<double> recent;         ///< rolling raw values
    /// Rolling evaluation trail for provenance capture: one point per
    /// observation, trimmed to window + for_cycles (enough to explain a
    /// fire: the full aggregation window plus the pending hold). Unused
    /// (empty) when provenance capture is off.
    std::deque<ProvenanceWindowPoint> trail;
    std::size_t open_record = SIZE_MAX;  ///< index into history_ while firing
  };

  void transition_gauge(const AlertRule& rule, std::string_view target,
                        AlertState state);

  std::vector<AlertRule> rules_;
  std::map<std::string, std::vector<RuleState>, std::less<>> targets_;
  std::vector<AlertRecord> history_;
  std::vector<ProvenanceRecord> provenance_;
  bool provenance_enabled_ = true;
  Telemetry* telemetry_ = &Telemetry::noop();
};

/// The alert-history table over `records` in the given order: rule, target,
/// severity, pending_at, fired_at, resolved_at ("still firing" while open),
/// peak (%.6g) and cycles. A non-empty `shards`, parallel to `records`, adds
/// a leading shard column. AlertEngine::history_table and both HTML reports
/// render their histories through it.
[[nodiscard]] SummaryTable alert_history_table(
    std::span<const AlertRecord* const> records,
    std::span<const std::string* const> shards = {});

/// Replays recorded result streams through `engine` in exactly the order
/// the live monitor evaluated them: ascending timestamp, ties broken by
/// target name (the live cycle observes same-instant targets in name
/// order). Each stream must already be time-ordered.
void evaluate_history(
    AlertEngine& engine,
    const std::vector<std::pair<std::string, const std::vector<CycleResult>*>>&
        targets);

}  // namespace mantra::core
