#include "core/mantra.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <stdexcept>

namespace mantra::core {

const char* to_string(TargetHealth health) {
  switch (health) {
    case TargetHealth::Healthy: return "healthy";
    case TargetHealth::Degraded: return "degraded";
    case TargetHealth::Unreachable: return "unreachable";
  }
  return "unknown";
}

void MantraConfig::validate() const {
  if (cycle <= sim::Duration()) {
    throw std::invalid_argument("MantraConfig.cycle must be > 0");
  }
  if (sender_threshold_kbps < 0.0) {
    throw std::invalid_argument("MantraConfig.sender_threshold_kbps must be >= 0");
  }
  if (spike_window < 2) {
    throw std::invalid_argument("MantraConfig.spike_window must be >= 2");
  }
  if (spike_k <= 0.0) {
    throw std::invalid_argument("MantraConfig.spike_k must be > 0");
  }
  if (retry.max_attempts == 0) {
    throw std::invalid_argument("MantraConfig.retry.max_attempts must be >= 1");
  }
  if (retry.initial_backoff < sim::Duration()) {
    throw std::invalid_argument("MantraConfig.retry.initial_backoff must be >= 0");
  }
  if (retry.backoff_multiplier < 1.0) {
    throw std::invalid_argument("MantraConfig.retry.backoff_multiplier must be >= 1");
  }
  if (retry.jitter < 0.0 || retry.jitter >= 1.0) {
    throw std::invalid_argument("MantraConfig.retry.jitter must be in [0, 1)");
  }
  if (retry.command_deadline <= sim::Duration()) {
    throw std::invalid_argument("MantraConfig.retry.command_deadline must be > 0");
  }
  if (unreachable_after == 0) {
    throw std::invalid_argument("MantraConfig.unreachable_after must be >= 1");
  }
  if (archive.keyframe_interval < 1) {
    throw std::invalid_argument("MantraConfig.archive.keyframe_interval must be >= 1");
  }
  for (const AlertRule& rule : alerts.rules) rule.validate();
  if (self.enabled) {
    if (!telemetry.enabled) {
      throw std::invalid_argument(
          "MantraConfig.self.enabled requires telemetry.enabled");
    }
    self.validate();
  }
}

Mantra::Mantra(sim::Engine& engine, MantraConfig config)
    : Mantra(engine, std::move(config), TransportFactory{}) {}

Mantra::Mantra(sim::Engine& engine, MantraConfig config, TransportFactory factory)
    : engine_(engine),
      config_((config.validate(), std::move(config))),
      transport_factory_(std::move(factory)),
      telemetry_(std::make_unique<Telemetry>(config_.telemetry)),
      alerts_(std::make_unique<AlertEngine>(
          !config_.alerts.enabled ? std::vector<AlertRule>{}
          : config_.alerts.rules.empty()
              ? default_alert_rules()
              : std::vector<AlertRule>(config_.alerts.rules))),
      pool_(config_.worker_threads > 0
                ? std::make_unique<parallel::ThreadPool>(config_.worker_threads)
                : nullptr),
      scratch_(pool_ ? pool_->size() : 1),
      cycle_timer_(engine, config_.cycle, [this] { run_cycle_now(); }) {
  if (pool_) pool_->set_telemetry(telemetry_.get());
  alerts_->set_telemetry(telemetry_.get());
  alerts_->set_provenance(config_.alerts.provenance);
  if (config_.self.enabled) {
    self_ = std::make_unique<SelfMonitor>(config_.self, telemetry_.get());
  }
}

void Mantra::add_target(const router::MulticastRouter* target) {
  // A second state of one name would reopen the target's `.marc` with "wb"
  // and then replace the first, losing its results and its archive.
  if (targets_.contains(target->hostname())) {
    throw std::invalid_argument("Mantra: duplicate target " + target->hostname());
  }
  auto state = std::make_unique<TargetState>(config_);
  state->router = target;
  state->name = target->hostname();
  // Each target gets its own collector: its own transport session and an
  // independent jitter-RNG stream seeded from the target name, so one
  // target's retry history never perturbs another's backoff draws.
  RetryPolicy policy = config_.retry;
  policy.jitter_seed = per_target_seed(config_.retry.jitter_seed, state->name);
  state->collector = std::make_unique<Collector>(
      default_command_set(), policy,
      transport_factory_ ? transport_factory_(state->name) : nullptr);
  state->collector->set_telemetry(telemetry_.get(), state->name);
  state->stage.attach(telemetry_.get());
  state->collector->set_stage(&state->stage);
  if (!config_.archive_dir.empty()) {
    std::filesystem::create_directories(config_.archive_dir);
    state->archive = std::make_unique<ArchiveWriter>(
        config_.archive_dir + "/" + state->name + ".marc", config_.archive);
    state->archive->set_telemetry(telemetry_.get(), state->name);
    state->archive->set_stage(&state->stage);
  }
  targets_[target->hostname()] = std::move(state);
  // Reassign the trace lanes: tid 1 is the driver thread (the first — and
  // with staging the only — caller of Tracer::thread_id), tid 2+i the i-th
  // target in name order. Recomputed on every add so lanes stay stable
  // functions of the final target set, not of insertion order.
  telemetry_->tracer().set_thread_name(1, "driver");
  std::uint32_t tid = 2;
  for (auto& [name, existing] : targets_) {
    existing->tid = tid;
    telemetry_->tracer().set_thread_name(tid, name);
    ++tid;
  }
}

void Mantra::start() { cycle_timer_.start(); }
void Mantra::stop() { cycle_timer_.stop(); }

void Mantra::run_cycle_now() {
  // One clock snapshot for the whole cycle: every shard stamps the same
  // instant regardless of scheduling order, and no worker touches the
  // engine. The join below keeps the cycle synchronous with the simulator.
  const sim::TimePoint now = engine_.now();
  // The cycle sequence number joins everything this cycle produces — spans,
  // events, CycleResults, archive meta, alert transitions — via
  // correlation_id(). 1-based; dark cycles consume a number without
  // recording a result, which is why the archive persists it.
  const std::size_t cycle_seq = cycles_run_ + 1;
  Tracer::Scope cycle_scope = telemetry_->tracer().span("cycle", "cycle", now);
  if (telemetry_->enabled()) {
    cycle_scope.arg("seq", std::to_string(cycle_seq));
    cycle_scope.arg("targets", std::to_string(targets_.size()));
    MetricsRegistry& metrics = telemetry_->metrics();
    cached(cycle_handles_.cycles, [&] {
      return &metrics.counter("mantra_cycles_total");
    }).inc();
    cached(cycle_handles_.targets, [&] {
      return &metrics.gauge("mantra_targets");
    }).set(static_cast<double>(targets_.size()));
  }
  const std::int64_t cycle_start_us =
      telemetry_->enabled() ? telemetry_->tracer().wall_now_us() : 0;
  std::vector<std::function<void()>> shards;
  shards.reserve(targets_.size());
  for (auto& [name, target] : targets_) {
    TargetState* state = target.get();
    shards.emplace_back([this, state, now, cycle_seq] {
      run_target_cycle(*state, now, cycle_seq);
    });
  }
  parallel::run_all(pool_.get(), std::move(shards));
  // Post-join flush, in target-name order (the map's order): every span and
  // event staged by the workers reaches the shared tracer/event log here, on
  // the engine thread, with the target's stable tid and its correlation id.
  // Sequence numbers are therefore assigned in (cycle, target-name) order —
  // the logfmt stream and the trace JSON are byte-identical for any
  // worker_threads setting.
  if (telemetry_->enabled()) {
    for (auto& [name, target] : targets_) {
      target->stage.flush(cycle_seq, name, target->tid);
    }
  }
  if (telemetry_->enabled()) {
    // Wall-clock cost of the fan-out + join, the monitor's own hot path. The
    // value is inherently non-deterministic, so nothing result-bearing may
    // read it — it exists for the self-monitoring rule pack and `.mtel` plots.
    const double cycle_s = static_cast<double>(telemetry_->tracer().wall_now_us() -
                                               cycle_start_us) /
                           1e6;
    MetricsRegistry& metrics = telemetry_->metrics();
    cached(cycle_handles_.duration, [&] {
      return &metrics.histogram("mantra_cycle_duration_seconds");
    }).observe(cycle_s);
    cached(cycle_handles_.queue_peak, [&] {
      return &metrics.gauge("mantra_pool_queue_depth_peak");
    }).set(pool_ ? static_cast<double>(pool_->take_queue_peak()) : 0.0);
    // Mirror the tracer/event-log drop counts into the registry so the drops
    // surface in expositions and `.mtel` archives; inc() by delta keeps the
    // counters monotone across cycles.
    const std::uint64_t trace_drops = telemetry_->tracer().dropped();
    if (trace_drops > trace_drops_synced_) {
      cached(cycle_handles_.trace_drops, [&] {
        return &metrics.counter("mantra_trace_spans_dropped_total");
      }).inc(trace_drops - trace_drops_synced_);
      trace_drops_synced_ = trace_drops;
    }
    const std::uint64_t event_drops = telemetry_->events().dropped();
    if (event_drops > event_drops_synced_) {
      cached(cycle_handles_.event_drops, [&] {
        return &metrics.counter("mantra_events_dropped_total");
      }).inc(event_drops - event_drops_synced_);
      event_drops_synced_ = event_drops;
    }
  }
  // Alert evaluation runs after the join, on the engine thread, in target-
  // name order (the map's order) — deterministic across worker_threads
  // settings, and reproducible offline by evaluate_history() over replayed
  // archives. Dark cycles record no result and are skipped here; the dark
  // spell surfaces through the next recorded cycle's consecutive_failures.
  for (const auto& [name, target] : targets_) {
    if (!target->results.empty() && target->results.back().t == now) {
      alerts_->observe(name, target->results.back());
    }
  }
  // Self-telemetry sample goes last so the `.mtel` record of this cycle sees
  // the cycle's own metrics (duration, queue peak, drops) and any alert
  // events the observe loop just logged.
  if (self_) self_->sample(now);
  ++cycles_run_;
  if (cycle_hook_) cycle_hook_(cycles_run_);
}

void Mantra::run_target_cycle(TargetState& target, sim::TimePoint now,
                              std::size_t cycle_seq) {
  // Everything below stages into target.stage; run_cycle_now flushes it
  // post-join. Only commutative metric updates touch shared state here.
  TelemetryStage::Span target_scope =
      target.stage.span("target_cycle", "cycle", now);
  target_scope.arg("target", target.name);

  // The running worker's scratch, found without a lock. Tasks run_all runs
  // inline use slot 0: no pooled task of this monitor runs then.
  const std::size_t worker = pool_ ? pool_->worker_index() : 0;
  CycleScratch& scratch = scratch_[worker < scratch_.size() ? worker : 0];
  target.collector->capture(*target.router, now, scratch.report);
  const CaptureReport& report = scratch.report;

  if (!report.connected || report.ok_count() == 0) {
    // Fully dark: no usable capture at all. Skip the cycle — the previous
    // snapshot and statistics stand — and escalate the health state.
    ++target.consecutive_failures;
    const TargetHealth previous_health = target.health;
    target.health = target.consecutive_failures >= config_.unreachable_after
                        ? TargetHealth::Unreachable
                        : TargetHealth::Degraded;
    if (telemetry_->enabled()) {
      cached(target.counters.dark, [&] {
        return &telemetry_->metrics().counter("mantra_cycles_dark_total",
                                              {{"target", target.name}});
      }).inc();
      if (target.health == TargetHealth::Unreachable &&
          previous_health != TargetHealth::Unreachable) {
        target.stage.log(
            EventLevel::error, "target_unreachable", now,
            {{"target", target.name},
             {"dark_cycles", std::to_string(target.consecutive_failures)}});
      }
      target_scope.arg("outcome", "dark");
      target_scope.set_sim_interval(now, report.latency);
    }
    return;
  }
  // Build the cycle's snapshot in the worker's scratch: each table is
  // either parsed in place (reusing the row storage of the tables the last
  // publish displaced) or copy-assigned from the previous snapshot, so
  // steady-state cycles allocate little snapshot storage.
  Snapshot& snapshot = scratch.snapshot;
  snapshot.router_name = target.router->hostname();
  snapshot.captured = now;
  std::vector<std::string>& warning_lines = scratch.parse_warnings;
  warning_lines.clear();
  std::size_t stale_tables = 0;

  // Parsing/derivation is instantaneous in sim time; the span captures its
  // wall cost.
  TelemetryStage::Span process_scope =
      target.stage.span("process", "process", now);
  process_scope.arg("target", target.name);

  // Parse each table from its capture when the capture is clean; otherwise
  // carry the previous snapshot's table forward so the cycle's statistics
  // degrade to stale values instead of collapsing to zero.
  const auto ok_capture = [&report](std::string_view command) -> const RawCapture* {
    const RawCapture* capture = report.find(command);
    return capture != nullptr && capture->ok() ? capture : nullptr;
  };

  {
    TelemetryStage::Span parse_scope =
        target.stage.span("parse", "process", now);
    if (const RawCapture* capture = ok_capture("show ip mroute count")) {
      parse_mroute_count(capture->clean_text, snapshot.pairs, &warning_lines);
    } else {
      snapshot.pairs = target.latest.pairs;
      ++stale_tables;
    }
    if (const RawCapture* capture = ok_capture("show ip dvmrp route")) {
      parse_dvmrp_route(capture->clean_text, snapshot.routes, &warning_lines);
    } else {
      snapshot.routes = target.latest.routes;
      ++stale_tables;
    }
    if (const RawCapture* capture = ok_capture("show ip msdp sa-cache")) {
      parse_msdp_sa_cache(capture->clean_text, snapshot.sa_cache, &warning_lines);
    } else {
      snapshot.sa_cache = target.latest.sa_cache;
      ++stale_tables;
    }
    if (const RawCapture* capture = ok_capture("show ip mbgp")) {
      parse_mbgp(capture->clean_text, snapshot.mbgp_routes, &warning_lines);
    } else {
      snapshot.mbgp_routes = target.latest.mbgp_routes;
      ++stale_tables;
    }
  }
  // "show ip igmp groups" is captured and preprocessed but never parsed:
  // no snapshot table and no `.marc` record holds it. It counts only
  // toward the cycle's collection facts (failures, attempts, latency), its
  // health and whether the cycle is dark.
  const std::size_t warnings = warning_lines.size();

  ArchiveCycleMeta meta;
  meta.stale = stale_tables > 0;
  meta.cycle_seq = static_cast<std::uint64_t>(cycle_seq);
  meta.stale_tables = static_cast<std::uint32_t>(stale_tables);
  meta.collection_failures = static_cast<std::uint32_t>(report.failure_count());
  meta.consecutive_failures = static_cast<std::uint32_t>(target.consecutive_failures);
  meta.parse_warnings = static_cast<std::uint32_t>(warnings);
  meta.capture_attempts = report.attempts;
  meta.collection_latency = report.latency;

  CycleResult result;
  {
    TelemetryStage::Span derive_scope =
        target.stage.span("derive", "process", now);
    result = derive_cycle(snapshot, target.latest, meta, target.carry);
    // The cycle's derived tables move into its snapshot; the snapshot's old
    // ones become the storage the next derivation rebuilds in place.
    std::swap(snapshot.participants, target.carry.participants);
    std::swap(snapshot.sessions, target.carry.sessions);
  }

  // This recorded cycle is the transition that ends a dark spell (if one
  // was running): capture its length before the reset, and emit the
  // recovery event only after the new health state is known — a recovering
  // capture can itself be partially failed, landing the target in Degraded
  // rather than Healthy, and the event must say which.
  const std::size_t ended_dark_cycles = target.consecutive_failures;
  target.consecutive_failures = 0;
  target.health = report.all_ok() ? TargetHealth::Healthy : TargetHealth::Degraded;
  target.last_success = now;

  if (telemetry_->enabled() && ended_dark_cycles > 0) {
    target.stage.log(
        EventLevel::info, "target_recovered", now,
        {{"target", target.name},
         {"dark_cycles", std::to_string(ended_dark_cycles)},
         {"health", to_string(target.health)}});
  }

  if (telemetry_->enabled()) {
    MetricsRegistry& metrics = telemetry_->metrics();
    TargetState::Counters& counters = target.counters;
    cached(counters.recorded, [&] {
      return &metrics.counter("mantra_cycles_recorded_total",
                              {{"target", target.name}});
    }).inc();
    const std::size_t rows = snapshot.pairs.size() + snapshot.routes.size() +
                             snapshot.sa_cache.size() +
                             snapshot.mbgp_routes.size();
    cached(counters.parse_rows, [&] {
      return &metrics.counter("mantra_parse_rows_total", {{"target", target.name}});
    }).inc(rows);
    if (warnings > 0) {
      cached(counters.parse_warnings, [&] {
        return &metrics.counter("mantra_parse_warnings_total",
                                {{"target", target.name}});
      }).inc(warnings);
      target.stage.log(EventLevel::warn, "parse_warning", now,
                       {{"target", target.name},
                        {"warnings", std::to_string(warnings)}});
    }
    if (stale_tables > 0) {
      cached(counters.stale_tables, [&] {
        return &metrics.counter("mantra_stale_tables_total",
                                {{"target", target.name}});
      }).inc(stale_tables);
    }
    if (result.route_spike) {
      cached(counters.route_spikes, [&] {
        return &metrics.counter("mantra_route_spikes_total",
                                {{"target", target.name}});
      }).inc();
      char score[32];
      std::snprintf(score, sizeof score, "%.2f", result.route_spike_score);
      target.stage.log(
          EventLevel::warn, "spike_detected", now,
          {{"target", target.name},
           {"score", score},
           {"valid_routes", std::to_string(result.dvmrp_valid_routes)}});
    }
    target_scope.arg("outcome", "recorded");
    target_scope.set_sim_interval(now, report.latency);
  }

  // `latest` is the snapshot this writer appended last: the delta base.
  if (target.archive) target.archive->append(snapshot, target.latest, result);

  target.summary.add(result);
  target.results.push_back(result);
  // The built snapshot becomes the latest; the displaced snapshot's tables
  // become this worker's build capacity for its next target.
  std::swap(target.latest, snapshot);
}

const Mantra::TargetState& Mantra::target(std::string_view router_name) const {
  const auto it = targets_.find(router_name);
  if (it == targets_.end()) {
    throw std::out_of_range("unknown monitoring target: " + std::string(router_name));
  }
  return *it->second;
}

Mantra::TargetView Mantra::target_view(std::string_view router_name) const {
  return TargetView(target(router_name));
}

const std::string& Mantra::TargetView::name() const { return state_->name; }

const std::vector<CycleResult>& Mantra::TargetView::results() const {
  return state_->results;
}

const Snapshot& Mantra::TargetView::latest_snapshot() const {
  return state_->latest;
}

TargetHealth Mantra::TargetView::health() const { return state_->health; }

std::size_t Mantra::TargetView::consecutive_failures() const {
  return state_->consecutive_failures;
}

std::optional<sim::TimePoint> Mantra::TargetView::last_success() const {
  return state_->last_success;
}

const ArchiveWriter* Mantra::TargetView::archive() const {
  return state_->archive.get();
}

TimeSeries Mantra::series(std::string_view router_name, std::string series_name,
                          const std::function<double(const CycleResult&)>& extract) const {
  return series_from(target(router_name).results, std::move(series_name), extract);
}

UsageStats Mantra::aggregate_usage() const {
  Snapshot merged;
  merged.router_name = "aggregate";
  for (const auto& [name, target] : targets_) {
    target->latest.pairs.visit([&merged](const PairRow& row) {
      // Union semantics: a pair seen at several points is counted once; the
      // view with the higher current rate wins (closest to the source).
      const PairRow* existing = merged.pairs.find(row.key());
      if (existing == nullptr || existing->current_kbps < row.current_kbps) {
        merged.pairs.upsert(row);
      }
    });
  }
  merged.participants = derive_participants(merged.pairs, config_.sender_threshold_kbps);
  merged.sessions = derive_sessions(merged.pairs, config_.sender_threshold_kbps);
  return compute_usage(merged, config_.sender_threshold_kbps);
}

SummaryTable Mantra::busiest_sessions(std::string_view router_name,
                                      std::size_t limit) const {
  SummaryTable table({"group", "density", "senders", "kbps", "active", "age"});
  char buffer[64];
  target(router_name).latest.sessions.visit([&](const SessionRow& session) {
    std::snprintf(buffer, sizeof buffer, "%.2f", session.total_kbps);
    table.add_row({session.group.to_string(), std::to_string(session.density),
                   std::to_string(session.senders), buffer,
                   session.active ? "yes" : "no", session.age.to_string()});
  });
  const auto kbps = table.column_index("kbps");
  table.sort_by(kbps.value(), /*numeric=*/true, /*descending=*/true);
  SummaryTable trimmed(std::vector<std::string>(table.columns()));
  for (std::size_t i = 0; i < std::min(limit, table.row_count()); ++i) {
    trimmed.add_row(std::vector<std::string>(table.rows()[i]));
  }
  return trimmed;
}

SummaryTable Mantra::top_senders(std::string_view router_name,
                                 std::size_t limit) const {
  SummaryTable table({"host", "groups", "kbps", "sender", "known_for"});
  char buffer[64];
  target(router_name).latest.participants.visit([&](const ParticipantRow& row) {
    std::snprintf(buffer, sizeof buffer, "%.2f", row.total_kbps);
    table.add_row({row.host.to_string(), std::to_string(row.group_count), buffer,
                   row.sender ? "yes" : "no", row.known_for.to_string()});
  });
  table.sort_by(table.column_index("kbps").value(), true, true);
  SummaryTable trimmed(std::vector<std::string>(table.columns()));
  for (std::size_t i = 0; i < std::min(limit, table.row_count()); ++i) {
    trimmed.add_row(std::vector<std::string>(table.rows()[i]));
  }
  return trimmed;
}

SummaryTable Mantra::overview() const {
  SummaryTable table({"router", "health", "sessions", "participants", "active",
                      "senders", "kbps", "dvmrp_routes", "sa_entries",
                      "mbgp_routes", "stale", "last_success"});
  char buffer[64];
  for (const auto& [name, target] : targets_) {
    const std::string last_success =
        target->last_success ? target->last_success->to_string() : "never";
    if (target->results.empty()) {
      table.add_row({name, to_string(target->health), "", "", "", "", "", "",
                     "", "", "", last_success});
      continue;
    }
    const CycleResult& last = target->results.back();
    std::snprintf(buffer, sizeof buffer, "%.1f", last.usage.bandwidth_kbps);
    table.add_row({name, to_string(target->health),
                   std::to_string(last.usage.sessions),
                   std::to_string(last.usage.participants),
                   std::to_string(last.usage.active_sessions),
                   std::to_string(last.usage.senders), buffer,
                   std::to_string(last.dvmrp_routes),
                   std::to_string(last.sa_entries),
                   std::to_string(last.mbgp_routes),
                   last.stale ? "yes" : "no", last_success});
  }
  return table;
}

MonitorStatus Mantra::status() const {
  MonitorStatus status;
  status.now = engine_.now();
  status.cycles_run = cycles_run_;
  status.trace_spans_dropped = telemetry_->tracer().dropped();
  status.events_dropped = telemetry_->events().dropped();
  status.targets.reserve(targets_.size());
  for (const auto& [name, target] : targets_) {
    const TargetSummary& summary = target->summary;
    MonitorStatus::Target row;
    row.name = name;
    row.health = target->health;
    row.cycles_recorded = summary.cycles;
    row.stale_cycles = summary.stale_cycles;
    row.route_spikes = summary.spikes;
    row.consecutive_failures = target->consecutive_failures;
    row.last_success = target->last_success;
    row.staleness = target->last_success
                        ? status.now - *target->last_success
                        : status.now - sim::TimePoint::start();
    row.last_latency = summary.last_latency;
    row.latency_p50_s = summary.latency_quantile_s(0.5);
    row.latency_p95_s = summary.latency_quantile_s(0.95);
    row.latency_max_s = summary.latency_max_s();
    status.targets.push_back(std::move(row));
  }
  return status;
}

std::vector<std::string> MonitorStatus::Target::cells() const {
  char buffer[4][32];
  std::snprintf(buffer[0], sizeof buffer[0], "%.3f",
                last_latency.total_seconds());
  std::snprintf(buffer[1], sizeof buffer[1], "%.3f", latency_p50_s);
  std::snprintf(buffer[2], sizeof buffer[2], "%.3f", latency_p95_s);
  std::snprintf(buffer[3], sizeof buffer[3], "%.3f", latency_max_s);
  return {name, to_string(health), std::to_string(cycles_recorded),
          std::to_string(stale_cycles), std::to_string(route_spikes),
          std::to_string(consecutive_failures),
          last_success ? last_success->to_string() : "never",
          staleness.to_string(), buffer[0], buffer[1], buffer[2], buffer[3]};
}

SummaryTable MonitorStatus::to_table() const {
  std::vector<std::string> columns(std::begin(Target::kColumns),
                                   std::end(Target::kColumns));
  columns.push_back("drops");
  SummaryTable table(std::move(columns));
  // Monitor-wide telemetry back-pressure (spans + events discarded); the
  // count is not per-target, so every row repeats the same value.
  const std::string drops = std::to_string(trace_spans_dropped + events_dropped);
  for (const Target& target : targets) {
    std::vector<std::string> cells = target.cells();
    cells.push_back(drops);
    table.add_row(std::move(cells));
  }
  return table;
}

std::vector<std::string> Mantra::target_names() const {
  std::vector<std::string> out;
  out.reserve(targets_.size());
  for (const auto& [name, target] : targets_) out.push_back(name);
  return out;
}

}  // namespace mantra::core
