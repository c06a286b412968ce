#include "core/alert.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "sim/random.hpp"

namespace mantra::core {

const char* to_string(AlertSeverity severity) {
  switch (severity) {
    case AlertSeverity::info: return "info";
    case AlertSeverity::warning: return "warning";
    case AlertSeverity::critical: return "critical";
  }
  return "unknown";
}

const char* to_string(AlertState state) {
  switch (state) {
    case AlertState::inactive: return "inactive";
    case AlertState::pending: return "pending";
    case AlertState::firing: return "firing";
  }
  return "unknown";
}

void AlertRule::validate() const {
  if (name.empty()) {
    throw std::invalid_argument("AlertRule.name must be non-empty");
  }
  if (kind != Kind::spike && !extract) {
    throw std::invalid_argument("AlertRule.extract required for rule '" + name +
                                "' (non-spike kinds)");
  }
  if (window < 1) {
    throw std::invalid_argument("AlertRule.window must be >= 1 ('" + name + "')");
  }
  if (quantile_q < 0.0 || quantile_q > 1.0) {
    throw std::invalid_argument("AlertRule.quantile_q must be in [0, 1] ('" +
                                name + "')");
  }
  if (for_cycles < 1) {
    throw std::invalid_argument("AlertRule.for_cycles must be >= 1 ('" + name +
                                "')");
  }
  if (clear_for_cycles < 1) {
    throw std::invalid_argument("AlertRule.clear_for_cycles must be >= 1 ('" +
                                name + "')");
  }
  // Hysteresis must not invert: the clear threshold has to sit on or below
  // the fire threshold (above, for fire-below rules), otherwise an alert
  // could clear and re-arm on the same value and storm anyway.
  if (fire_above ? clear_threshold > fire_threshold
                 : clear_threshold < fire_threshold) {
    throw std::invalid_argument(
        "AlertRule.clear_threshold must be on the clear side of "
        "fire_threshold ('" + name + "')");
  }
}

std::vector<AlertRule> default_alert_rules() {
  std::vector<AlertRule> rules;

  // Collection quality: most of the recent cycles served stale tables.
  AlertRule stale;
  stale.name = "stale_fraction";
  stale.severity = AlertSeverity::warning;
  stale.kind = AlertRule::Kind::threshold;
  stale.extract = [](const CycleResult& r) { return r.stale ? 1.0 : 0.0; };
  stale.aggregate = AlertRule::Aggregate::mean;
  stale.window = 8;
  stale.fire_threshold = 0.5;
  stale.clear_threshold = 0.25;
  stale.for_cycles = 3;
  stale.clear_for_cycles = 3;
  rules.push_back(std::move(stale));

  // Outage recovery: the target just came back from a dark spell (the
  // archived consecutive_failures of a recorded cycle counts the fully
  // dark cycles skipped immediately before it).
  AlertRule streak;
  streak.name = "failure_streak";
  streak.severity = AlertSeverity::critical;
  streak.kind = AlertRule::Kind::threshold;
  streak.extract = [](const CycleResult& r) {
    return static_cast<double>(r.consecutive_failures);
  };
  streak.aggregate = AlertRule::Aggregate::last;
  streak.fire_threshold = 3.0;
  streak.clear_threshold = 1.0;
  streak.for_cycles = 1;
  streak.clear_for_cycles = 2;
  rules.push_back(std::move(streak));

  // Collection latency p95 over the recent window: retry/backoff chains
  // are eating into the monitoring cadence.
  AlertRule latency;
  latency.name = "latency_p95";
  latency.severity = AlertSeverity::warning;
  latency.kind = AlertRule::Kind::threshold;
  latency.extract = [](const CycleResult& r) {
    return r.collection_latency.total_seconds();
  };
  latency.aggregate = AlertRule::Aggregate::quantile;
  latency.quantile_q = 0.95;
  latency.window = 16;
  latency.fire_threshold = 120.0;
  latency.clear_threshold = 60.0;
  latency.for_cycles = 3;
  latency.clear_for_cycles = 3;
  rules.push_back(std::move(latency));

  // Fig 9 class of anomaly: the DVMRP table grew fast in absolute terms.
  AlertRule flux;
  flux.name = "route_flux";
  flux.severity = AlertSeverity::warning;
  flux.kind = AlertRule::Kind::rate_of_change;
  flux.extract = [](const CycleResult& r) {
    return static_cast<double>(r.dvmrp_valid_routes);
  };
  flux.window = 4;
  flux.fire_threshold = 200.0;
  flux.clear_threshold = 50.0;
  flux.for_cycles = 1;
  flux.clear_for_cycles = 2;
  rules.push_back(std::move(flux));

  // Spike escalation: the robust detector flagged the route count as
  // anomalous on consecutive cycles (one-off blips stay events, not
  // alerts).
  AlertRule spike;
  spike.name = "route_spike";
  spike.severity = AlertSeverity::critical;
  spike.kind = AlertRule::Kind::spike;
  spike.fire_threshold = 1.0;
  spike.clear_threshold = 1.0;
  spike.for_cycles = 2;
  spike.clear_for_cycles = 2;
  rules.push_back(std::move(spike));

  return rules;
}

AlertEngine::AlertEngine(std::vector<AlertRule> rules)
    : rules_(std::move(rules)) {
  for (const AlertRule& rule : rules_) rule.validate();
}

void AlertEngine::set_telemetry(Telemetry* telemetry) { telemetry_ = telemetry; }

void AlertEngine::transition_gauge(const AlertRule& rule,
                                   std::string_view target, AlertState state) {
  if (!telemetry_->enabled()) return;
  telemetry_->metrics()
      .gauge("mantra_alert_state",
             {{"rule", rule.name}, {"target", std::string(target)}})
      .set(static_cast<double>(state));
}

namespace {

/// The raw per-cycle sample a rule reads from one result.
double raw_value(const AlertRule& rule, const CycleResult& result) {
  if (rule.kind == AlertRule::Kind::spike) {
    // Spike cycles carry the detector score (>= k by construction, so >= 1
    // for any sane k); quiet cycles read 0 and drive the clear side.
    return result.route_spike ? std::max(result.route_spike_score, 1.0) : 0.0;
  }
  return rule.extract(result);
}

/// The thresholded value after windowing/aggregation.
double evaluate_value(const AlertRule& rule, const std::deque<double>& recent) {
  switch (rule.kind) {
    case AlertRule::Kind::rate_of_change:
      // Change over the lookback window; 0 until the window is full so a
      // cold start never reads as a burst.
      if (recent.size() < rule.window + 1) return 0.0;
      return recent.back() - recent.front();
    case AlertRule::Kind::spike:
      return recent.back();
    case AlertRule::Kind::threshold: break;
  }
  switch (rule.aggregate) {
    case AlertRule::Aggregate::last: return recent.back();
    case AlertRule::Aggregate::mean: {
      double sum = 0.0;
      for (const double v : recent) sum += v;
      return sum / static_cast<double>(recent.size());
    }
    case AlertRule::Aggregate::max:
      return *std::max_element(recent.begin(), recent.end());
    case AlertRule::Aggregate::quantile:
      return sim::quantile({recent.begin(), recent.end()}, rule.quantile_q);
  }
  return recent.back();
}

const char* kind_name(AlertRule::Kind kind) {
  switch (kind) {
    case AlertRule::Kind::threshold: return "threshold";
    case AlertRule::Kind::rate_of_change: return "rate_of_change";
    case AlertRule::Kind::spike: return "spike";
  }
  return "unknown";
}

const char* aggregate_name(AlertRule::Aggregate aggregate) {
  switch (aggregate) {
    case AlertRule::Aggregate::last: return "last";
    case AlertRule::Aggregate::mean: return "mean";
    case AlertRule::Aggregate::max: return "max";
    case AlertRule::Aggregate::quantile: return "quantile";
  }
  return "unknown";
}

/// The triggering threshold math as one deterministic line, e.g.
/// "mean(w=8) = 0.625 >= 0.5 held 3/3 cycles; clears < 0.25 for 3".
std::string render_math(const AlertRule& rule, double value, std::size_t hold) {
  char buffer[192];
  std::string agg;
  switch (rule.kind) {
    case AlertRule::Kind::threshold:
      if (rule.aggregate == AlertRule::Aggregate::quantile) {
        std::snprintf(buffer, sizeof buffer, "q%.6g(w=%zu)", rule.quantile_q,
                      rule.window);
      } else {
        std::snprintf(buffer, sizeof buffer, "%s(w=%zu)",
                      aggregate_name(rule.aggregate), rule.window);
      }
      agg = buffer;
      break;
    case AlertRule::Kind::rate_of_change:
      std::snprintf(buffer, sizeof buffer, "delta(w=%zu)", rule.window);
      agg = buffer;
      break;
    case AlertRule::Kind::spike:
      agg = "spike score";
      break;
  }
  std::snprintf(buffer, sizeof buffer,
                " = %.6g %s %.6g held %zu/%zu cycles; clears %s %.6g for %zu",
                value, rule.fire_above ? ">=" : "<=", rule.fire_threshold, hold,
                rule.for_cycles, rule.fire_above ? "<" : ">",
                rule.clear_threshold, rule.clear_for_cycles);
  return agg + buffer;
}

}  // namespace

void AlertEngine::observe(std::string_view target, const CycleResult& result) {
  std::vector<double> raw_values(rules_.size());
  for (std::size_t r = 0; r < rules_.size(); ++r) {
    raw_values[r] = raw_value(rules_[r], result);
  }
  // Collection facts for provenance capture — every field here is archived
  // (ArchiveCycleMeta), so a replayed result carries the same facts and the
  // captured records are byte-identical live vs offline.
  ProvenanceFacts facts;
  facts.cycle_seq = result.cycle_seq;
  facts.stale = result.stale;
  facts.stale_tables = result.stale_tables;
  facts.collection_failures = result.collection_failures;
  facts.consecutive_failures = result.consecutive_failures;
  facts.capture_attempts = result.capture_attempts;
  facts.collection_latency = result.collection_latency;
  observe_values(target, result.t, raw_values, &facts);
}

void AlertEngine::observe_values(std::string_view target, sim::TimePoint t,
                                 const std::vector<double>& raw_values,
                                 const ProvenanceFacts* facts) {
  if (raw_values.size() != rules_.size()) {
    throw std::invalid_argument(
        "AlertEngine::observe_values: expected one value per rule");
  }
  auto it = targets_.find(target);
  if (it == targets_.end()) {
    it = targets_.emplace(std::string(target),
                          std::vector<RuleState>(rules_.size())).first;
  }
  std::vector<RuleState>& states = it->second;

  for (std::size_t r = 0; r < rules_.size(); ++r) {
    const AlertRule& rule = rules_[r];
    RuleState& state = states[r];

    state.recent.push_back(raw_values[r]);
    const std::size_t keep =
        rule.kind == AlertRule::Kind::rate_of_change ? rule.window + 1
                                                     : rule.window;
    while (state.recent.size() > keep) state.recent.pop_front();
    state.value = evaluate_value(rule, state.recent);

    const bool fire_cond = rule.fire_above ? state.value >= rule.fire_threshold
                                           : state.value <= rule.fire_threshold;
    const bool clear_cond = rule.fire_above
                                ? state.value < rule.clear_threshold
                                : state.value > rule.clear_threshold;

    if (provenance_enabled_) {
      // Evaluation trail: enough points to explain a fire (the aggregation
      // window plus the pending hold). Strictly evaluation-neutral — the
      // trail is only ever read at the pending->firing transition.
      ProvenanceWindowPoint point;
      point.cycle_seq = facts != nullptr ? facts->cycle_seq : 0;
      point.t = t;
      point.raw = raw_values[r];
      point.value = state.value;
      point.over = fire_cond;
      if (facts != nullptr) point.facts = *facts;
      state.trail.push_back(std::move(point));
      const std::size_t keep = rule.window + rule.for_cycles;
      while (state.trail.size() > keep) state.trail.pop_front();
    }

    const auto fire = [&] {
      state.state = AlertState::firing;
      state.firing_since = t;
      state.clear_hold = 0;
      AlertRecord record;
      record.rule = rule.name;
      record.target = std::string(target);
      record.severity = rule.severity;
      if (facts != nullptr) {
        record.corr = correlation_id(facts->cycle_seq, target);
      }
      record.pending_at = *state.pending_since;
      record.fired_at = t;
      record.peak_value = state.value;
      record.cycles_firing = 1;
      state.open_record = history_.size();
      if (provenance_enabled_) {
        ProvenanceRecord why;
        why.corr = record.corr;
        why.rule = rule.name;
        why.target = record.target;
        why.severity = to_string(rule.severity);
        why.kind = kind_name(rule.kind);
        if (rule.kind == AlertRule::Kind::threshold) {
          why.aggregate = aggregate_name(rule.aggregate);
        }
        why.window = rule.window;
        why.for_cycles = rule.for_cycles;
        why.clear_for_cycles = rule.clear_for_cycles;
        why.fire_above = rule.fire_above;
        why.fire_threshold = rule.fire_threshold;
        why.clear_threshold = rule.clear_threshold;
        why.value_at_fire = state.value;
        why.fire_cycle_seq = facts != nullptr ? facts->cycle_seq : 0;
        why.pending_at = record.pending_at;
        why.fired_at = t;
        why.math = render_math(rule, state.value, state.hold);
        why.points.assign(state.trail.begin(), state.trail.end());
        provenance_.push_back(std::move(why));
      }
      history_.push_back(std::move(record));
      transition_gauge(rule, target, AlertState::firing);
      if (telemetry_->enabled()) {
        char value[32];
        std::snprintf(value, sizeof value, "%.6g", state.value);
        std::vector<std::pair<std::string, std::string>> fields = {
            {"rule", rule.name},
            {"target", std::string(target)},
            {"value", value}};
        if (facts != nullptr) {
          fields.emplace_back("corr", correlation_id(facts->cycle_seq, target));
        }
        telemetry_->events().log(
            rule.severity == AlertSeverity::critical ? EventLevel::error
                                                     : EventLevel::warn,
            "alert_firing", t, std::move(fields));
      }
    };
    const auto deactivate = [&] {
      state.state = AlertState::inactive;
      state.hold = 0;
      state.pending_since.reset();
      transition_gauge(rule, target, AlertState::inactive);
    };

    switch (state.state) {
      case AlertState::inactive:
        if (!fire_cond) break;
        state.pending_since = t;
        state.hold = 1;
        if (state.hold >= rule.for_cycles) {
          fire();
        } else {
          state.state = AlertState::pending;
          transition_gauge(rule, target, AlertState::pending);
        }
        break;
      case AlertState::pending:
        if (!fire_cond) {
          // The condition lapsed before the for-duration was met: back to
          // inactive, the episode never existed.
          deactivate();
          break;
        }
        ++state.hold;
        if (state.hold >= rule.for_cycles) fire();
        break;
      case AlertState::firing: {
        AlertRecord& record = history_[state.open_record];
        ++record.cycles_firing;
        record.peak_value = rule.fire_above
                                ? std::max(record.peak_value, state.value)
                                : std::min(record.peak_value, state.value);
        if (clear_cond) {
          ++state.clear_hold;
          if (state.clear_hold >= rule.clear_for_cycles) {
            record.resolved_at = t;
            state.state = AlertState::inactive;
            state.hold = 0;
            state.clear_hold = 0;
            state.pending_since.reset();
            state.firing_since.reset();
            state.open_record = SIZE_MAX;
            transition_gauge(rule, target, AlertState::inactive);
            if (telemetry_->enabled()) {
              telemetry_->events().log(
                  EventLevel::info, "alert_resolved", t,
                  {{"rule", rule.name},
                   {"target", std::string(target)},
                   {"fired_at", record.fired_at.to_string()}});
            }
          }
        } else {
          state.clear_hold = 0;
        }
        break;
      }
    }
  }
}

std::vector<AlertStatus> AlertEngine::status() const {
  std::vector<AlertStatus> out;
  out.reserve(targets_.size() * rules_.size());
  for (const auto& [target, states] : targets_) {
    for (std::size_t r = 0; r < rules_.size(); ++r) {
      AlertStatus status;
      status.rule = rules_[r].name;
      status.target = target;
      status.severity = rules_[r].severity;
      status.state = states[r].state;
      status.value = states[r].value;
      status.pending_since = states[r].pending_since;
      status.firing_since = states[r].firing_since;
      out.push_back(std::move(status));
    }
  }
  return out;
}

std::size_t AlertEngine::firing_count() const {
  std::size_t count = 0;
  for (const auto& [target, states] : targets_) {
    for (const RuleState& state : states) {
      if (state.state == AlertState::firing) ++count;
    }
  }
  return count;
}

SummaryTable AlertEngine::status_table() const {
  SummaryTable table({"rule", "target", "severity", "state", "value",
                      "pending_since", "firing_since"});
  char value[32];
  for (const AlertStatus& status : this->status()) {
    std::snprintf(value, sizeof value, "%.6g", status.value);
    table.add_row(
        {status.rule, status.target, to_string(status.severity),
         to_string(status.state), value,
         status.pending_since ? status.pending_since->to_string() : "",
         status.firing_since ? status.firing_since->to_string() : ""});
  }
  return table;
}

SummaryTable AlertEngine::history_table() const {
  std::vector<const AlertRecord*> records;
  records.reserve(history_.size());
  for (const AlertRecord& record : history_) records.push_back(&record);
  return alert_history_table(records);
}

SummaryTable alert_history_table(std::span<const AlertRecord* const> records,
                                 std::span<const std::string* const> shards) {
  std::vector<std::string> columns = {"rule",     "target",      "severity", "pending_at",
                                      "fired_at", "resolved_at", "peak",     "cycles"};
  if (!shards.empty()) columns.insert(columns.begin(), "shard");
  SummaryTable table(std::move(columns));
  char peak[32];
  for (std::size_t i = 0; i < records.size(); ++i) {
    const AlertRecord& record = *records[i];
    std::snprintf(peak, sizeof peak, "%.6g", record.peak_value);
    std::vector<std::string> cells = {
        record.rule, record.target, to_string(record.severity),
        record.pending_at.to_string(), record.fired_at.to_string(),
        record.resolved_at ? record.resolved_at->to_string() : "still firing",
        peak, std::to_string(record.cycles_firing)};
    if (!shards.empty()) cells.insert(cells.begin(), *shards[i]);
    table.add_row(std::move(cells));
  }
  return table;
}

void evaluate_history(
    AlertEngine& engine,
    const std::vector<std::pair<std::string, const std::vector<CycleResult>*>>&
        targets) {
  struct Entry {
    std::int64_t t_ms;
    const std::string* name;
    const CycleResult* result;
  };
  std::vector<Entry> entries;
  for (const auto& [name, results] : targets) {
    for (const CycleResult& result : *results) {
      entries.push_back({result.t.total_ms(), &name, &result});
    }
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.t_ms != b.t_ms) return a.t_ms < b.t_ms;
    return *a.name < *b.name;
  });
  for (const Entry& entry : entries) {
    engine.observe(*entry.name, *entry.result);
  }
}

}  // namespace mantra::core
