// live_clean and live_observed: a seeded FIXW scenario polled by Mantra with
// the simulator advanced one full cycle period between monitor cycles.
//
// The untraced run times Mantra::run_cycle_now() as a library call. The
// traced run (--trace 1) additionally drives the same per-target chain
// itself (TracedMonitor below) in lockstep with Mantra on the same routers at
// the same instants, records a span around every call into a module, and
// must reproduce Mantra's CycleResults and alert history exactly.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/alert.hpp"
#include "core/archive.hpp"
#include "core/collect.hpp"
#include "core/log.hpp"
#include "core/mantra.hpp"
#include "core/parallel.hpp"
#include "core/parse.hpp"
#include "core/process.hpp"
#include "core/provenance.hpp"
#include "core/report.hpp"
#include "core/tables.hpp"
#include "core/telemetry.hpp"
#include "core/teltrace.hpp"
#include "core/transport.hpp"
#include "router/cli.hpp"
#include "workload/scenario.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace mantra;

constexpr sim::Duration kCyclePeriod = sim::Duration::minutes(15);

struct LiveSize {
  int targets = 0;        ///< FIXW plus (targets - 1) borders
  int warmup_cycles = 0;  ///< untimed monitor cycles before the timed ones
  int cycles = 0;         ///< timed monitor cycles
  int report_every = 0;   ///< live report refresh period, in cycles (observed only)
  int setup_repeats = 0;  ///< scenario builds; setup_s takes their median
};

LiveSize live_size(const RunConfig& config, bool observed) {
  if (config.smoke) {
    return observed ? LiveSize{10, 1, 24, 4, 2} : LiveSize{20, 1, 12, 0, 2};
  }
  if (observed) return {50, 2, std::max(100, 20 * config.seconds), 10, 5};
  return {200, 2, std::max(100, 7 * config.seconds), 0, 5};
}

core::TransportFactory fault_factory(std::uint64_t seed) {
  const std::uint64_t base = core::per_target_seed(seed, "faults");
  return [base](const std::string& name) -> std::unique_ptr<core::Transport> {
    return std::make_unique<core::FaultInjectingTransport>(
        core::per_target_seed(base, name),
        core::FaultProfile::command_failure_rate(0.2));
  };
}

/// A small stable id per pool thread, for the per-worker busy accounting.
int worker_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

/// Span names of the traced run, one per layer boundary.
enum SpanName {
  kCycle, kFanout, kTarget, kCapture, kParse, kDerive, kLogRecord, kProcess,
  kAppend, kPostjoin, kObserve, kSample, kRender, kPreprocess,
};
constexpr const char* kSpanNames[] = {
    "cycle", "fanout", "target", "collect.capture", "parse", "derive",
    "log.record", "process", "archive.append", "postjoin", "alert.observe",
    "teltrace.sample", "router.render", "collect.preprocess"};

/// Mirror of Mantra's per-cycle chain, driven from the benchmark through the
/// modules' public entry points, with a span around every call.
class TracedMonitor {
 public:
  struct Target {
    const router::MulticastRouter* router = nullptr;
    std::string name;
    std::size_t lane = 0;
    std::uint32_t tid = 0;
    std::unique_ptr<core::Collector> collector;
    core::DataLogger logger;
    core::RouteMonitor route_monitor;
    core::SpikeDetector spike_detector;
    std::unique_ptr<core::ArchiveWriter> archive;
    std::vector<core::CycleResult> results;
    core::Snapshot latest;
    core::Snapshot scratch;
    std::vector<std::string> warnings;
    core::TargetHealth health = core::TargetHealth::Healthy;
    std::size_t consecutive_failures = 0;
    core::TelemetryStage stage;
    const core::CaptureReport* last_report = nullptr;
    // Counts at the layer boundaries, summed over the timed cycles.
    std::uint64_t raw_bytes = 0;
    std::uint64_t attempts = 0;
    std::uint64_t retries = 0;
    std::uint64_t failed_commands = 0;
    std::uint64_t parse_rows = 0;
    std::uint64_t parse_warnings = 0;
    /// (worker, task wall ns) per timed cycle, for busy/imbalance.
    std::vector<std::pair<int, std::int64_t>> tasks;

    Target(const core::LoggerConfig& logger_config, std::size_t window, double k)
        : logger(logger_config), spike_detector(window, k) {}
  };

  TracedMonitor(sim::Engine& engine, const core::MantraConfig& config,
                const core::TransportFactory& factory,
                const std::vector<const router::MulticastRouter*>& routers,
                const std::string& archive_dir, SpanLog& spans)
      : engine_(engine),
        config_(config),
        spans_(spans),
        telemetry_(std::make_unique<core::Telemetry>(config.telemetry)),
        alerts_(config.alerts.enabled ? core::default_alert_rules()
                                      : std::vector<core::AlertRule>{}),
        pool_(config.worker_threads > 0
                  ? std::make_unique<core::parallel::ThreadPool>(config.worker_threads)
                  : nullptr) {
    if (pool_) pool_->set_telemetry(telemetry_.get());
    alerts_.set_telemetry(telemetry_.get());
    alerts_.set_provenance(config.alerts.provenance);
    if (config.self.enabled) {
      self_ = std::make_unique<core::SelfMonitor>(config.self, telemetry_.get());
    }
    for (const router::MulticastRouter* router : routers) {
      auto target = std::make_unique<Target>(config.logger, config.spike_window,
                                             config.spike_k);
      target->router = router;
      target->name = router->hostname();
      core::RetryPolicy policy = config.retry;
      policy.jitter_seed = core::per_target_seed(config.retry.jitter_seed, target->name);
      target->collector = std::make_unique<core::Collector>(
          core::default_command_set(), policy,
          factory ? factory(target->name) : nullptr);
      target->collector->set_telemetry(telemetry_.get(), target->name);
      target->stage.attach(telemetry_.get());
      target->collector->set_stage(&target->stage);
      if (!archive_dir.empty()) {
        std::filesystem::create_directories(archive_dir);
        target->archive = std::make_unique<core::ArchiveWriter>(
            archive_dir + "/" + target->name + ".marc", config.archive);
        target->archive->set_telemetry(telemetry_.get(), target->name);
        target->archive->set_stage(&target->stage);
      }
      targets_.push_back(std::move(target));
    }
    // Mantra keeps its targets in name order; every post-join walk follows it.
    std::sort(targets_.begin(), targets_.end(),
              [](const auto& a, const auto& b) { return a->name < b->name; });
    telemetry_->tracer().set_thread_name(1, "driver");
    for (std::size_t i = 0; i < targets_.size(); ++i) {
      targets_[i]->lane = i + 1;
      targets_[i]->tid = static_cast<std::uint32_t>(i + 2);
      telemetry_->tracer().set_thread_name(targets_[i]->tid, targets_[i]->name);
    }
    for (const char* name : kSpanNames) ids_.push_back(spans_.name_id(name));
  }

  /// One monitor cycle: fan the per-target chains out on the pool, join,
  /// then flush telemetry, evaluate alerts and sample in target-name order.
  /// `timed` cycles accumulate the layer counts.
  void run_cycle(bool timed) {
    const sim::TimePoint now = engine_.now();
    const std::size_t cycle_seq = cycles_run_ + 1;
    const auto cycle = static_cast<std::uint32_t>(cycle_seq);
    core::Telemetry& tel = *telemetry_;
    SpanLog::Scope cycle_span(spans_, 0, id(kCycle), cycle);
    core::Tracer::Scope cycle_scope = tel.tracer().span("cycle", "cycle", now);
    if (tel.enabled()) {
      cycle_scope.arg("seq", std::to_string(cycle_seq));
      cycle_scope.arg("targets", std::to_string(targets_.size()));
      tel.metrics().counter("mantra_cycles_total").inc();
      tel.metrics().gauge("mantra_targets").set(static_cast<double>(targets_.size()));
    }
    const std::int64_t cycle_start_us = tel.enabled() ? tel.tracer().wall_now_us() : 0;
    {
      SpanLog::Scope fanout(spans_, 0, id(kFanout), cycle);
      std::vector<std::function<void()>> shards;
      shards.reserve(targets_.size());
      for (const auto& target : targets_) {
        Target* state = target.get();
        shards.emplace_back([this, state, now, cycle_seq, timed] {
          const std::int64_t start = now_ns();
          run_target(*state, now, cycle_seq, timed);
          if (timed) state->tasks.emplace_back(worker_index(), now_ns() - start);
        });
      }
      core::parallel::run_all(pool_.get(), std::move(shards));
    }
    SpanLog::Scope postjoin(spans_, 0, id(kPostjoin), cycle);
    if (tel.enabled()) {
      for (const auto& target : targets_) {
        target->stage.flush(cycle_seq, target->name, target->tid);
      }
      const double cycle_s =
          static_cast<double>(tel.tracer().wall_now_us() - cycle_start_us) / 1e6;
      tel.metrics().histogram("mantra_cycle_duration_seconds").observe(cycle_s);
      tel.metrics()
          .gauge("mantra_pool_queue_depth_peak")
          .set(pool_ ? static_cast<double>(pool_->take_queue_peak()) : 0.0);
      const std::uint64_t trace_drops = tel.tracer().dropped();
      if (trace_drops > trace_drops_synced_) {
        tel.metrics().counter("mantra_trace_spans_dropped_total")
            .inc(trace_drops - trace_drops_synced_);
        trace_drops_synced_ = trace_drops;
      }
      const std::uint64_t event_drops = tel.events().dropped();
      if (event_drops > event_drops_synced_) {
        tel.metrics().counter("mantra_events_dropped_total")
            .inc(event_drops - event_drops_synced_);
        event_drops_synced_ = event_drops;
      }
    }
    for (const auto& target : targets_) {
      if (!target->results.empty() && target->results.back().t == now) {
        SpanLog::Scope observe(spans_, 0, id(kObserve), cycle);
        alerts_.observe(target->name, target->results.back());
      }
    }
    if (self_) {
      SpanLog::Scope sample(spans_, 0, id(kSample), cycle);
      self_->sample(now);
    }
    ++cycles_run_;
  }

  /// Layer costs measured by separate calls after the cycle, on the same
  /// routers at the same instant: the CLI renderers alone, and the
  /// preprocessor alone over the transcripts the cycle captured.
  void measure_separate_calls() {
    const sim::TimePoint now = engine_.now();
    const auto cycle = static_cast<std::uint32_t>(cycles_run_);
    for (const auto& target : targets_) {
      {
        SpanLog::Scope render(spans_, 0, id(kRender), cycle);
        for (const std::string& command : core::default_command_set()) {
          buffer_.clear();
          router::cli::execute_show_into(*target->router, command, now, buffer_);
        }
      }
      if (target->last_report != nullptr) {
        SpanLog::Scope preprocess(spans_, 0, id(kPreprocess), cycle);
        for (const core::RawCapture& capture : target->last_report->captures) {
          core::preprocess_into(capture.raw_text, buffer_);
        }
      }
    }
  }

  [[nodiscard]] const std::vector<std::unique_ptr<Target>>& targets() const {
    return targets_;
  }
  [[nodiscard]] const core::AlertEngine& alerts() const { return alerts_; }
  [[nodiscard]] core::Telemetry& telemetry() { return *telemetry_; }
  [[nodiscard]] core::SelfMonitor* self_monitor() { return self_.get(); }
  [[nodiscard]] std::size_t pool_size() const { return pool_ ? pool_->size() : 1; }

 private:
  std::uint16_t id(SpanName name) const { return ids_[name]; }

  /// Mantra::run_target_cycle, step by step.
  void run_target(Target& target, sim::TimePoint now, std::size_t cycle_seq,
                  bool timed) {
    const auto cycle = static_cast<std::uint32_t>(cycle_seq);
    const std::size_t lane = target.lane;
    SpanLog::Scope target_span(spans_, lane, id(kTarget), cycle);
    core::TelemetryStage::Span target_scope =
        target.stage.span("target_cycle", "cycle", now);
    target_scope.arg("target", target.name);
    core::Telemetry& tel = *telemetry_;

    const core::CaptureReport* report_ptr = nullptr;
    {
      SpanLog::Scope capture(spans_, lane, id(kCapture), cycle);
      report_ptr = &target.collector->capture(*target.router, now);
    }
    const core::CaptureReport& report = *report_ptr;
    target.last_report = report_ptr;
    if (timed) {
      std::uint64_t command_attempts = 0;
      for (const core::RawCapture& capture : report.captures) {
        target.raw_bytes += capture.raw_text.size();
        command_attempts += capture.attempts;
        if (capture.attempts > 1) target.retries += capture.attempts - 1;
      }
      const std::uint64_t connects =
          report.attempts > command_attempts ? report.attempts - command_attempts : 0;
      if (connects > 1) target.retries += connects - 1;
      target.attempts += report.attempts;
      target.failed_commands += report.failure_count();
    }

    if (!report.connected || report.ok_count() == 0) {
      ++target.consecutive_failures;
      const core::TargetHealth previous = target.health;
      target.health = target.consecutive_failures >= config_.unreachable_after
                          ? core::TargetHealth::Unreachable
                          : core::TargetHealth::Degraded;
      if (tel.enabled()) {
        tel.metrics().counter("mantra_cycles_dark_total", {{"target", target.name}}).inc();
        if (target.health == core::TargetHealth::Unreachable &&
            previous != core::TargetHealth::Unreachable) {
          target.stage.log(core::EventLevel::error, "target_unreachable", now,
                           {{"target", target.name},
                            {"dark_cycles", std::to_string(target.consecutive_failures)}});
        }
        target_scope.arg("outcome", "dark");
        target_scope.set_sim_interval(now, report.latency);
      }
      return;
    }

    core::Snapshot& snapshot = target.scratch;
    snapshot.router_name = target.router->hostname();
    snapshot.captured = now;
    target.warnings.clear();
    std::size_t stale_tables = 0;
    core::TelemetryStage::Span process_scope = target.stage.span("process", "process", now);
    process_scope.arg("target", target.name);
    const auto ok_capture = [&report](std::string_view command) -> const core::RawCapture* {
      const core::RawCapture* capture = report.find(command);
      return capture != nullptr && capture->ok() ? capture : nullptr;
    };
    {
      SpanLog::Scope parse(spans_, lane, id(kParse), cycle);
      core::TelemetryStage::Span parse_scope = target.stage.span("parse", "process", now);
      if (const core::RawCapture* c = ok_capture("show ip mroute count")) {
        core::parse_mroute_count(c->clean_text, snapshot.pairs, &target.warnings);
      } else {
        snapshot.pairs = target.latest.pairs;
        ++stale_tables;
      }
      if (const core::RawCapture* c = ok_capture("show ip dvmrp route")) {
        core::parse_dvmrp_route(c->clean_text, snapshot.routes, &target.warnings);
      } else {
        snapshot.routes = target.latest.routes;
        ++stale_tables;
      }
      if (const core::RawCapture* c = ok_capture("show ip msdp sa-cache")) {
        core::parse_msdp_sa_cache(c->clean_text, snapshot.sa_cache, &target.warnings);
      } else {
        snapshot.sa_cache = target.latest.sa_cache;
        ++stale_tables;
      }
      if (const core::RawCapture* c = ok_capture("show ip mbgp")) {
        core::parse_mbgp(c->clean_text, snapshot.mbgp_routes, &target.warnings);
      } else {
        snapshot.mbgp_routes = target.latest.mbgp_routes;
        ++stale_tables;
      }
    }
    const std::size_t warnings = target.warnings.size();
    const std::size_t rows = snapshot.pairs.size() + snapshot.routes.size() +
                             snapshot.sa_cache.size() + snapshot.mbgp_routes.size();
    if (timed) {
      // Carried-forward tables were not parsed this cycle.
      std::size_t parsed = 0;
      if (ok_capture("show ip mroute count")) parsed += snapshot.pairs.size();
      if (ok_capture("show ip dvmrp route")) parsed += snapshot.routes.size();
      if (ok_capture("show ip msdp sa-cache")) parsed += snapshot.sa_cache.size();
      if (ok_capture("show ip mbgp")) parsed += snapshot.mbgp_routes.size();
      target.parse_rows += parsed;
      target.parse_warnings += warnings;
    }
    {
      SpanLog::Scope derive(spans_, lane, id(kDerive), cycle);
      core::TelemetryStage::Span derive_scope = target.stage.span("derive", "process", now);
      core::derive_participants_into(snapshot.pairs, config_.sender_threshold_kbps,
                                     snapshot.participants);
      core::derive_sessions_into(snapshot.pairs, config_.sender_threshold_kbps,
                                 snapshot.sessions);
    }
    core::CycleResult result;
    {
      core::TelemetryStage::Span record_scope = target.stage.span("record", "process", now);
      SpanLog::Scope log(spans_, lane, id(kLogRecord), cycle);
      target.logger.record(snapshot);
    }
    {
      SpanLog::Scope process(spans_, lane, id(kProcess), cycle);
      target.route_monitor.observe(now, snapshot.routes);
      result.t = now;
      result.cycle_seq = cycle_seq;
      result.usage = core::compute_usage(snapshot, config_.sender_threshold_kbps);
      result.dvmrp_routes = snapshot.routes.size();
      snapshot.routes.visit([&result](const core::RouteRow& route) {
        if (!route.holddown) ++result.dvmrp_valid_routes;
      });
      if (!target.route_monitor.history().empty()) {
        result.route_changes = target.route_monitor.history().back().changes;
      }
      result.sa_entries = snapshot.sa_cache.size();
      result.mbgp_routes = snapshot.mbgp_routes.size();
      result.parse_warnings = warnings;
      const core::SpikeDetector::Verdict verdict = target.spike_detector.observe(
          static_cast<double>(result.dvmrp_valid_routes));
      result.route_spike = verdict.spike;
      result.route_spike_score = verdict.score;
      const core::DensityDistribution density =
          core::compute_density_distribution(snapshot.sessions);
      result.density_single_fraction = density.fraction_single_member;
      result.density_at_most_two_fraction = density.fraction_at_most_two;
      result.density_top_share_80 = density.top_session_share_for_80pct;
    }
    result.stale_tables = stale_tables;
    result.stale = stale_tables > 0;
    result.collection_failures = report.failure_count();
    result.consecutive_failures = target.consecutive_failures;
    result.capture_attempts = report.attempts;
    result.collection_latency = report.latency;
    const std::size_t ended_dark_cycles = target.consecutive_failures;
    target.consecutive_failures = 0;
    target.health = report.all_ok() ? core::TargetHealth::Healthy
                                    : core::TargetHealth::Degraded;

    if (tel.enabled()) {
      core::MetricsRegistry& metrics = tel.metrics();
      if (ended_dark_cycles > 0) {
        target.stage.log(core::EventLevel::info, "target_recovered", now,
                         {{"target", target.name},
                          {"dark_cycles", std::to_string(ended_dark_cycles)},
                          {"health", core::to_string(target.health)}});
      }
      metrics.counter("mantra_cycles_recorded_total", {{"target", target.name}}).inc();
      metrics.counter("mantra_parse_rows_total", {{"target", target.name}}).inc(rows);
      if (warnings > 0) {
        metrics.counter("mantra_parse_warnings_total", {{"target", target.name}})
            .inc(warnings);
        target.stage.log(core::EventLevel::warn, "parse_warning", now,
                         {{"target", target.name}, {"warnings", std::to_string(warnings)}});
      }
      if (stale_tables > 0) {
        metrics.counter("mantra_stale_tables_total", {{"target", target.name}})
            .inc(stale_tables);
      }
      if (result.route_spike) {
        metrics.counter("mantra_route_spikes_total", {{"target", target.name}}).inc();
        char score[32];
        std::snprintf(score, sizeof score, "%.2f", result.route_spike_score);
        target.stage.log(core::EventLevel::warn, "spike_detected", now,
                         {{"target", target.name},
                          {"score", score},
                          {"valid_routes", std::to_string(result.dvmrp_valid_routes)}});
      }
      target_scope.arg("outcome", "recorded");
      target_scope.set_sim_interval(now, report.latency);
    }

    if (target.archive) {
      core::ArchiveCycleMeta meta;
      meta.cycle_seq = static_cast<std::uint64_t>(result.cycle_seq);
      meta.stale = result.stale;
      meta.stale_tables = static_cast<std::uint32_t>(result.stale_tables);
      meta.collection_failures = static_cast<std::uint32_t>(result.collection_failures);
      meta.consecutive_failures = static_cast<std::uint32_t>(result.consecutive_failures);
      meta.parse_warnings = static_cast<std::uint32_t>(result.parse_warnings);
      meta.capture_attempts = result.capture_attempts;
      meta.collection_latency = result.collection_latency;
      SpanLog::Scope append(spans_, lane, id(kAppend), cycle);
      target.archive->append(snapshot, meta);
    }
    target.results.push_back(result);
    std::swap(target.latest, target.scratch);
  }

  sim::Engine& engine_;
  core::MantraConfig config_;
  SpanLog& spans_;
  std::vector<std::uint16_t> ids_;
  // Declared before everything holding pointers into it.
  std::unique_ptr<core::Telemetry> telemetry_;
  core::AlertEngine alerts_;
  std::unique_ptr<core::SelfMonitor> self_;
  std::vector<std::unique_ptr<Target>> targets_;
  std::unique_ptr<core::parallel::ThreadPool> pool_;
  std::size_t cycles_run_ = 0;
  std::uint64_t trace_drops_synced_ = 0;
  std::uint64_t event_drops_synced_ = 0;
  std::string buffer_;
};

/// Timed pieces of one live report refresh, as `fixw_monitor --report-every`
/// does it: status(), report_data_from(), render_html_report().
struct Refresh {
  double status_ms = 0.0;
  double data_ms = 0.0;
  double render_ms = 0.0;
  std::size_t bytes = 0;
  [[nodiscard]] double total_ms() const { return status_ms + data_ms + render_ms; }
};

Refresh refresh_report(const core::Mantra& monitor) {
  Refresh out;
  auto start = Clock::now();
  const core::MonitorStatus status = monitor.status();
  (void)status;
  out.status_ms = ms_since(start);
  start = Clock::now();
  const core::ReportData data = core::report_data_from(monitor);
  out.data_ms = ms_since(start);
  start = Clock::now();
  const std::string html = core::render_html_report(data);
  out.render_ms = ms_since(start);
  out.bytes = html.size();
  return out;
}


}  // namespace

workload::ScenarioConfig scenario_config(std::uint64_t seed, int domains) {
  // Small domains, enough DVMRP stub prefixes for realistic route tables,
  // steady session arrivals.
  workload::ScenarioConfig config;
  config.seed = seed;
  config.domains = domains;
  config.hosts_per_domain = 2;
  config.dvmrp_prefixes_per_domain = 12;
  config.report_loss = 0.02;
  config.timer_scale = 40;
  config.full_timers = false;
  config.generator.session_arrivals_per_hour = 20.0;
  config.generator.bursts_per_day = 0.0;
  return config;
}

std::vector<const router::MulticastRouter*> scenario_targets(workload::FixwScenario& scenario,
                                                             int count) {
  std::vector<const router::MulticastRouter*> routers;
  routers.push_back(scenario.network().router(scenario.fixw_node()));
  const auto& borders = scenario.border_nodes();
  for (int i = 0; i + 1 < count && i < static_cast<int>(borders.size()); ++i) {
    routers.push_back(scenario.network().router(borders[static_cast<std::size_t>(i)]));
  }
  return routers;
}

Outcome run_live(const RunConfig& config, bool observed) {
  Outcome out;
  const LiveSize size = live_size(config, observed);
  const std::string work = config.work_dir + (observed ? "/live_observed" : "/live_clean");
  std::filesystem::remove_all(work);
  std::filesystem::create_directories(work);

  // --- Set-up: the scenario build is repeated (setup_s takes the median,
  // the last build is kept) and the monitor construction is added below. The
  // 2-hour protocol warm-up is substrate advance, which no end-to-end
  // metric counts.
  const workload::ScenarioConfig scenario_cfg =
      scenario_config(core::per_target_seed(config.seed, "scenario"), size.targets - 1);
  std::unique_ptr<workload::FixwScenario> scenario;
  std::vector<double> setup_ms;
  for (int r = 0; r < size.setup_repeats; ++r) {
    scenario.reset();
    const auto start = Clock::now();
    scenario = std::make_unique<workload::FixwScenario>(scenario_cfg);
    scenario->start();
    setup_ms.push_back(ms_since(start));
  }
  sim::Engine& engine = scenario->engine();
  engine.run_until(engine.now() + sim::Duration::hours(2));
  if (observed) {
    // Fig 9 incident mid-run: the UCSB border (always a target) injects
    // unicast routes into DVMRP, so spikes and alerts fire.
    scenario->schedule_route_injection(
        engine.now() + kCyclePeriod * std::int64_t{size.warmup_cycles + size.cycles / 2},
        1500, sim::Duration::hours(6));
  }
  const std::vector<const router::MulticastRouter*> routers =
      scenario_targets(*scenario, size.targets);

  core::MantraConfig mc;
  mc.cycle = kCyclePeriod;
  mc.worker_threads = config.threads;
  mc.retry.jitter_seed = core::per_target_seed(config.seed, "jitter");
  mc.archive_dir = work + "/marc";
  mc.archive.fsync_on_keyframe = false;
  const std::size_t total_cycles =
      static_cast<std::size_t>(size.warmup_cycles + size.cycles);
  if (observed) {
    mc.telemetry.enabled = true;
    // Room for every span of the run: once the cap fills, recording gets
    // cheaper and per-cycle cost would depend on run length.
    mc.telemetry.max_spans = (total_cycles + 1) * routers.size() * 96 + 4096;
    mc.alerts.enabled = true;
    mc.alerts.provenance = true;
    mc.self.enabled = true;
    mc.self.path = work + "/monitor.mtel";
  }
  const core::TransportFactory factory =
      observed ? fault_factory(config.seed) : core::TransportFactory{};

  auto start = Clock::now();
  auto monitor = std::make_unique<core::Mantra>(engine, mc, factory);
  for (const router::MulticastRouter* router : routers) monitor->add_target(router);
  const double construct_ms = ms_since(start);

  // The traced mirror runs in lockstep with its own archives and telemetry.
  SpanLog spans(routers.size() + 1);
  std::unique_ptr<TracedMonitor> traced;
  if (config.trace) {
    core::MantraConfig tc = mc;
    tc.archive_dir = work + "/traced_marc";
    tc.self.path = observed ? work + "/traced.mtel" : "";
    traced = std::make_unique<TracedMonitor>(engine, tc, factory, routers,
                                             tc.archive_dir, spans);
  }
  const std::uint16_t advance_id = spans.name_id("substrate.advance");

  // --- Warm-up cycles (untimed), then the timed cycles.
  for (int c = 0; c < size.warmup_cycles; ++c) {
    engine.run_until(engine.now() + kCyclePeriod);
    monitor->run_cycle_now();
    if (traced) traced->run_cycle(false);
  }
  std::vector<double> advance_ms;
  std::vector<double> cycle_ms;
  std::vector<Refresh> refreshes;
  for (int c = 0; c < size.cycles; ++c) {
    {
      // Labelled with the monitor cycle it precedes.
      SpanLog::Scope advance(spans, 0, advance_id,
                             static_cast<std::uint32_t>(size.warmup_cycles + c + 1));
      start = Clock::now();
      engine.run_until(engine.now() + kCyclePeriod);
      advance_ms.push_back(ms_since(start));
    }
    start = Clock::now();
    monitor->run_cycle_now();
    cycle_ms.push_back(ms_since(start));
    if (traced) {
      traced->run_cycle(true);
      traced->measure_separate_calls();
    }
    if (observed && (c + 1) % size.report_every == 0) {
      refreshes.push_back(refresh_report(*monitor));
    }
  }

  // --- End-to-end metrics.
  std::vector<double> refresh_ms;
  for (const Refresh& r : refreshes) refresh_ms.push_back(r.total_ms());
  double cycle_sum_ms = 0.0;
  for (double ms : cycle_ms) cycle_sum_ms += ms;
  const std::size_t n_targets = routers.size();
  const std::size_t n_commands = core::default_command_set().size();
  std::uint64_t recorded = 0;
  std::uint64_t failed_commands = 0;
  std::uint64_t stale_cycles = 0;
  std::uint64_t route_changes = 0;
  std::uint64_t spikes = 0;
  for (const std::string& name : monitor->target_names()) {
    for (const core::CycleResult& r : monitor->target_view(name).results()) {
      if (r.cycle_seq <= static_cast<std::size_t>(size.warmup_cycles)) continue;
      ++recorded;
      failed_commands += r.collection_failures;
      stale_cycles += r.stale ? 1 : 0;
      route_changes += r.route_changes;
      spikes += r.route_spike ? 1 : 0;
    }
  }
  const std::uint64_t target_cycles = n_targets * static_cast<std::uint64_t>(size.cycles);
  const std::uint64_t dark = target_cycles - recorded;
  const std::uint64_t commands = target_cycles * n_commands;
  failed_commands += dark * n_commands;

  out.set("op_ms_p50", median(cycle_ms), "ms");
  out.set("op_ms_p90", quantile(cycle_ms, 0.9), "ms");
  out.set("ops_per_s", static_cast<double>(target_cycles) / (cycle_sum_ms / 1e3), "1/s");
  out.set("setup_s", (median(setup_ms) + construct_ms) / 1e3, "s");
  out.attempted = target_cycles;
  out.failed = 0;  // a target-cycle fails only by throwing, which ends the run

  out.fact("targets", std::to_string(n_targets));
  out.fact("timed_cycles", std::to_string(size.cycles));
  out.fact("cycle_ms_p50", median(cycle_ms));
  out.fact("cycle_ms_p90", quantile(cycle_ms, 0.9));
  out.fact("target_cycles_per_s", static_cast<double>(target_cycles) / (cycle_sum_ms / 1e3));
  out.fact("capture_fail_frac",
           static_cast<double>(failed_commands) / static_cast<double>(commands));
  if (observed) {
    out.fact("report_refresh_ms_p50", median(refresh_ms));
    out.fact("report_refreshes", std::to_string(refreshes.size()));
  }
  out.fact("commands_attempted", std::to_string(commands));
  out.fact("commands_failed", std::to_string(failed_commands));
  out.fact("dark_target_cycles", std::to_string(dark));
  out.fact("stale_target_cycles", std::to_string(stale_cycles));
  out.fact("route_changes", std::to_string(route_changes));
  out.fact("route_spikes", std::to_string(spikes));
  out.fact("substrate_advance_ms_p50", median(advance_ms));
  // The clock moves one full period between cycles.
  bool clock_moved = true;
  for (const std::string& name : monitor->target_names()) {
    const std::vector<core::CycleResult>& results = monitor->target_view(name).results();
    for (std::size_t i = 1; i < results.size(); ++i) {
      clock_moved = clock_moved && results[i].t - results[i - 1].t >= kCyclePeriod;
    }
  }
  out.check(clock_moved, "monitor cycles did not advance one cycle period apart");

  // --- Per-layer metrics from the traced run.
  if (traced) {
    // Timed cycles only: span cycle ids are monitor cycle numbers.
    const auto first_timed = static_cast<std::uint32_t>(size.warmup_cycles + 1);
    const auto totals = spans.totals(first_timed);
    const auto per = [&](const char* name, double scale) {
      const auto it = totals.find(name);
      if (it == totals.end() || it->second.count == 0) return 0.0;
      return it->second.self_ns / static_cast<double>(it->second.count) / scale;
    };
    const double traced_target_cycles = static_cast<double>(target_cycles);
    std::uint64_t raw_bytes = 0, attempts = 0, retries = 0, t_failed = 0, rows = 0,
                  warnings = 0, stored = 0, archive_bytes = 0, archive_records = 0;
    for (const auto& t : traced->targets()) {
      raw_bytes += t->raw_bytes;
      attempts += t->attempts;
      retries += t->retries;
      t_failed += t->failed_commands;
      rows += t->parse_rows;
      warnings += t->parse_warnings;
      stored += t->logger.stored_bytes();
      if (t->archive) {
        archive_bytes += t->archive->bytes_written();
        archive_records += t->archive->cycles_written();
      }
    }
    const auto parse_it = totals.find("parse");
    const double parse_ns = parse_it == totals.end() ? 0.0 : parse_it->second.self_ns;

    // Per timed cycle: worker busy time from the per-task wall times, and
    // the post-join part of the cycle.
    const std::vector<double> fanout = spans.durations_ms("fanout", first_timed);
    const std::vector<double> traced_cycle = spans.durations_ms("cycle", first_timed);
    const std::size_t workers = traced->pool_size();
    std::vector<double> busy_frac, imbalance, postjoin;
    for (std::size_t c = 0; c < fanout.size(); ++c) {
      std::map<int, double> busy;
      for (const auto& t : traced->targets()) {
        if (c < t->tasks.size()) {
          busy[t->tasks[c].first] += static_cast<double>(t->tasks[c].second) / 1e6;
        }
      }
      double sum = 0.0, peak = 0.0;
      for (const auto& [worker, ms] : busy) {
        sum += ms;
        peak = std::max(peak, ms);
      }
      if (fanout[c] > 0.0) busy_frac.push_back(sum / (fanout[c] * static_cast<double>(workers)));
      if (sum > 0.0) imbalance.push_back(peak / (sum / static_cast<double>(workers)));
      if (c < traced_cycle.size()) postjoin.push_back(traced_cycle[c] - fanout[c]);
    }

    out.set("substrate.advance_ms_p50", median(advance_ms), "ms");
    out.set("router.render_us", per("router.render", 1e3), "us");
    out.set("collect.capture_us", per("collect.capture", 1e3), "us");
    out.set("collect.preprocess_us", per("collect.preprocess", 1e3), "us");
    out.set("collect.raw_bytes", static_cast<double>(raw_bytes) / traced_target_cycles, "bytes");
    out.set("transport.attempts", static_cast<double>(attempts), "count");
    out.set("transport.retries", static_cast<double>(retries), "count");
    out.set("transport.failed_commands", static_cast<double>(t_failed), "count");
    out.set("parse.us", per("parse", 1e3), "us");
    out.set("parse.rows", static_cast<double>(rows), "count");
    out.set("parse.ns_per_row", rows > 0 ? parse_ns / static_cast<double>(rows) : 0.0, "ns");
    out.set("parse.warnings", static_cast<double>(warnings), "count");
    out.set("derive.us", per("derive", 1e3), "us");
    out.set("process.us", per("process", 1e3), "us");
    out.set("log.record_us", per("log.record", 1e3), "us");
    out.set("log.stored_bytes", static_cast<double>(stored), "bytes");
    out.set("archive.append_us", per("archive.append", 1e3), "us");
    out.set("archive.bytes_per_record",
            archive_records > 0 ? static_cast<double>(archive_bytes) /
                                      static_cast<double>(archive_records)
                                : 0.0,
            "bytes");
    out.set("parallel.fanout_ms", median(fanout), "ms");
    out.set("parallel.busy_frac", median(busy_frac), "ratio");
    out.set("parallel.imbalance", median(imbalance), "ratio");
    out.set("alert.observe_us", per("alert.observe", 1e3), "us");
    std::size_t transitions = 0;  // every episode fired; some also resolved
    for (const core::AlertRecord& r : traced->alerts().history()) {
      transitions += r.resolved_at ? 2 : 1;
    }
    out.set("alert.transitions", static_cast<double>(transitions), "count");
    out.set("provenance.records", static_cast<double>(traced->alerts().provenance().size()),
            "count");
    out.set("teltrace.sample_us", per("teltrace.sample", 1e3), "us");
    if (core::SelfMonitor* self = traced->self_monitor()) {
      self->close();
      const double samples = static_cast<double>(self->samples().size());
      std::error_code ec;
      const auto mtel_bytes = std::filesystem::file_size(self->config().path, ec);
      out.set("teltrace.bytes_per_sample",
              samples > 0 && !ec ? static_cast<double>(mtel_bytes) / samples : 0.0, "bytes");
    }
    const core::MetricsSnapshot snap = traced->telemetry().metrics().snapshot();
    out.set("telemetry.series",
            static_cast<double>(snap.counters.size() + snap.gauges.size() +
                                snap.histograms.size()),
            "count");
    out.set("telemetry.spans_dropped",
            static_cast<double>(traced->telemetry().tracer().dropped()), "count");
    out.set("mantra.postjoin_ms", median(postjoin), "ms");
    if (observed) {
      std::vector<double> status_ms, data_ms, render_ms;
      for (const Refresh& r : refreshes) {
        status_ms.push_back(r.status_ms);
        data_ms.push_back(r.data_ms);
        render_ms.push_back(r.render_ms);
      }
      out.set("mantra.status_ms", median(status_ms), "ms");
      out.set("report.data_ms", median(data_ms), "ms");
      out.set("report.render_ms", median(render_ms), "ms");
      out.set("report.bytes",
              refreshes.empty() ? 0.0 : static_cast<double>(refreshes.back().bytes), "bytes");
    }
    out.set("trace.overhead_frac", median(traced_cycle) / median(cycle_ms) - 1.0, "ratio");
    out.set("trace.spans", static_cast<double>(spans.span_count()), "count");

    // The traced mirror must be the same program: identical results and
    // alert history for the same seed.
    bool same = traced->targets().size() == monitor->target_count();
    for (const auto& t : traced->targets()) {
      same = same && t->results == monitor->target_view(t->name).results();
    }
    out.check(same, "traced run's CycleResults differ from Mantra's");
    out.check(traced->alerts().history() == monitor->alerts().history(),
              "traced run's alert history differs from Mantra's");
    out.check(traced->alerts().provenance() == monitor->alerts().provenance(),
              "traced run's provenance records differ from Mantra's");
    out.check(traced->telemetry().tracer().dropped() == 0,
              "traced run dropped telemetry spans");
    if (!spans.write_jsonl(work + "/spans.jsonl")) {
      out.check(false, "could not write the span file");
    }
    out.fact("spans_file", work + "/spans.jsonl");
  }

  // --- Correctness against the archives the run wrote.
  const std::vector<std::string> names = monitor->target_names();
  std::vector<std::vector<core::CycleResult>> live_results;
  for (const std::string& name : names) {
    live_results.push_back(monitor->target_view(name).results());
  }
  std::string live_html;
  std::string live_explain;
  if (observed) {
    out.check(monitor->telemetry().tracer().dropped() == 0,
              "telemetry dropped spans: max_spans too small for the run");
    out.check(monitor->alerts().history().size() > 0, "no alert fired");
    const core::ReportData data = core::report_data_from(*monitor);
    live_html = core::render_html_report(data);
    live_explain = core::render_explanations(data.provenance, core::ExplainFilter{});
    monitor->self_monitor()->close();
  }
  traced.reset();
  monitor.reset();  // closes every .marc

  std::vector<core::ReportTargetData> replayed;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const core::ArchiveReader reader(mc.archive_dir + "/" + names[i] + ".marc");
    core::ReportTargetData target;
    target.name = names[i];
    target.results = core::replay_archive(reader).results;
    if (!observed) {
      out.check(target.results == live_results[i],
                "replay of " + names[i] + ".marc differs from the live results");
    }
    replayed.push_back(std::move(target));
  }
  if (observed) {
    const core::TelemetryArchiveReader mtel(mc.self.path);
    const std::vector<core::TelemetrySample>& samples = mtel.samples();
    core::ReportData data =
        core::report_data_from_replay(std::move(replayed), core::default_alert_rules(), &samples);
    data.health = core::monitor_health_from_samples("monitor", samples);
    out.check(core::render_html_report(data) == live_html,
              "report rebuilt from .marc + .mtel differs from the live report");
    out.check(core::render_explanations(data.provenance, core::ExplainFilter{}) == live_explain,
              "explanations rebuilt from .marc + .mtel differ from the live ones");
  }
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  scenario.reset();
  // Keep only the span file of a traced run.
  for (const auto& entry : std::filesystem::directory_iterator(work)) {
    if (entry.path().filename() != "spans.jsonl") std::filesystem::remove_all(entry.path());
  }
  return out;
}

}  // namespace perfbench
