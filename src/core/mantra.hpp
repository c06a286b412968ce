// The Mantra monitoring cycle (§III Fig 1): every cycle, for every target
// router — collect (telnet scrape) -> pre-process -> parse into the local
// table format -> process into statistics -> archive (key-frames + deltas,
// when archive_dir is set) -> expose results as time series and summary
// tables. Also implements the paper's §V future work: concurrent
// multi-router collection with aggregated results.
//
// Collection is allowed to fail (see core/transport.hpp). A failed command
// keeps the previous snapshot's table for that protocol and marks the cycle
// stale; a fully dark router is skipped for the cycle and its health state
// (Healthy/Degraded/Unreachable) is tracked per target.
//
// The cycle is sharded per target: each target owns what it carries from
// one cycle to the next (collector + transport + jitter RNG, latest tables,
// monitors, archive writer), and each pool worker owns the scratch one
// target's cycle needs while it runs (capture report, snapshot under
// construction, parse warnings). With `worker_threads > 0` run_cycle_now()
// fans the shards out across a core/parallel pool and joins — results are
// byte-identical to the sequential path.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/alert.hpp"
#include "core/archive.hpp"
#include "core/collect.hpp"
#include "core/log.hpp"  // LoggerConfig, until MantraConfig::logger goes
#include "core/output.hpp"
#include "core/parallel.hpp"
#include "core/parse.hpp"
#include "core/process.hpp"
#include "core/telemetry.hpp"
#include "core/teltrace.hpp"
#include "core/transport.hpp"
#include "router/router.hpp"
#include "sim/engine.hpp"

namespace mantra::core {

/// Per-target collection health, derived from recent cycle outcomes:
/// Healthy (last cycle fully clean), Degraded (partial failures, or dark
/// but not yet past the unreachable threshold), Unreachable (N consecutive
/// fully dark cycles). Any fully clean cycle returns the target to Healthy.
enum class TargetHealth { Healthy, Degraded, Unreachable };

[[nodiscard]] const char* to_string(TargetHealth health);

/// Builds the collection transport for one named target. Called once per
/// add_target(); returning null falls back to the default CliTransport.
/// Per-target transports keep fault-injection schedules independent: one
/// target's failures never advance another target's fault RNG.
using TransportFactory =
    std::function<std::unique_ptr<Transport>(const std::string& target_name)>;

/// Alert-engine wiring (core/alert). Evaluation is strictly result-neutral:
/// the engine reads recorded CycleResults after the cycle joins and feeds
/// nothing back, so results, series, CSVs and .marc bytes are identical
/// with alerting on or off.
struct AlertConfig {
  bool enabled = false;
  /// Rules to evaluate; empty + enabled selects default_alert_rules().
  std::vector<AlertRule> rules;
  /// Capture a ProvenanceRecord at every pending->firing transition
  /// (core/provenance). Evaluation-neutral; off exists for the overhead
  /// bench's A/B (bench/provenance_overhead).
  bool provenance = true;
};

struct MantraConfig {
  sim::Duration cycle = sim::Duration::minutes(15);
  double sender_threshold_kbps = kSenderThresholdKbps;
  /// Ignored: Mantra keeps no DataLogger (the `.marc` archive is its one
  /// key-frame/delta log). Only perfbench's traced mirror still reads it; it
  /// goes with that mirror in ROADMAP item 2, step 2.
  LoggerConfig logger;
  /// Route-count spike detection (Fig 9 debugging aid).
  std::size_t spike_window = 48;
  double spike_k = 10.0;
  /// Collection retry/backoff policy, applied per connect and per command.
  RetryPolicy retry;
  /// Consecutive fully dark cycles before a target is marked Unreachable.
  std::size_t unreachable_after = 3;
  /// Optional durable archive sink: when non-empty, every recorded cycle
  /// (tables + stale/failure metadata) streams to
  /// `<archive_dir>/<router>.marc`; the directory is created on demand.
  /// core/archive replays those files off-line.
  std::string archive_dir;
  /// On-disk encoding policy for the archive sink.
  ArchiveOptions archive;
  /// Worker threads for the per-target collection fan-out: 0 collects
  /// sequentially on the engine thread (the reference path), N > 0 runs
  /// each target's capture->parse->process->archive chain on a pool of N
  /// threads and joins before the cycle returns. Every target exclusively
  /// owns its collector, tables, spike detector, route monitor and archive
  /// writer, and each worker its cycle scratch, so both paths produce
  /// byte-identical results.
  std::size_t worker_threads = 0;
  /// Self-instrumentation (core/telemetry): disabled by default. Telemetry
  /// is strictly write-only from the monitoring path — results, series and
  /// archives are byte-identical with it on or off.
  TelemetryConfig telemetry;
  /// Rule-based alerting (core/alert): disabled by default, result-neutral
  /// when enabled (alerts are derived from recorded results, not fed back).
  AlertConfig alerts;
  /// Durable self-telemetry (core/teltrace): when enabled, every cycle ends
  /// by sampling the full metric registry + event-log tail into a `.mtel`
  /// archive (config.self.path) and evaluating the self-monitoring rule
  /// pack. Requires telemetry.enabled; like telemetry itself, sampling is
  /// strictly read-only — results, CSVs, status and `.marc` bytes are
  /// identical with it on or off.
  SelfMonitorConfig self;

  /// Sanity-checks every field; throws std::invalid_argument naming the
  /// offending field. Called by the Mantra constructor.
  void validate() const;
};

/// The "monitor of the monitor" report: a point-in-time summary of how well
/// collection itself is going, per target — health, success recency and
/// staleness age, failure streaks, and collection-latency percentiles over
/// the recorded cycle history, read from each target's TargetSummary
/// (deterministic sim time, so the report is identical with telemetry on or
/// off).
struct MonitorStatus {
  struct Target {
    /// The columns of cells(), shared by MonitorStatus::to_table (which adds
    /// a drops column) and FleetStatus::to_table (which leads with a shard).
    static constexpr const char* kColumns[] = {
        "router", "health", "cycles", "stale_cycles", "spikes", "fail_streak",
        "last_success", "staleness", "lat_last_s", "lat_p50_s", "lat_p95_s",
        "lat_max_s"};

    /// This target's status row, one cell per kColumns entry.
    [[nodiscard]] std::vector<std::string> cells() const;

    std::string name;
    TargetHealth health = TargetHealth::Healthy;
    std::size_t cycles_recorded = 0;       ///< cycles that produced a result
    std::size_t stale_cycles = 0;          ///< recorded cycles with stale tables
    std::size_t route_spikes = 0;
    std::size_t consecutive_failures = 0;  ///< fully dark cycles in a row
    /// When the target last produced a usable capture; nullopt = never.
    std::optional<sim::TimePoint> last_success;
    /// Age of the data being served: now - last_success (now - run start
    /// when the target never succeeded).
    sim::Duration staleness;
    sim::Duration last_latency;  ///< last recorded cycle's collection latency
    double latency_p50_s = 0.0;  ///< percentiles over all recorded cycles
    double latency_p95_s = 0.0;
    double latency_max_s = 0.0;
  };

  sim::TimePoint now;
  std::size_t cycles_run = 0;  ///< monitoring cycles executed (incl. dark)
  /// Monitor-wide telemetry back-pressure: spans/events discarded because
  /// the tracer or event ring hit capacity (0 with telemetry off). Non-zero
  /// drops mean the self-telemetry record of this run has holes.
  std::uint64_t trace_spans_dropped = 0;
  std::uint64_t events_dropped = 0;
  std::vector<Target> targets;

  /// Renders as a SummaryTable (one row per target), printable/CSV-able
  /// like every other Mantra surface.
  [[nodiscard]] SummaryTable to_table() const;
};

class Mantra {
  struct TargetState;

 public:
  /// Read-only facade over everything Mantra knows about one target:
  /// results, latest snapshot, and health. The view borrows from the Mantra
  /// instance and is invalidated by its destruction.
  class TargetView {
   public:
    [[nodiscard]] const std::string& name() const;
    [[nodiscard]] const std::vector<CycleResult>& results() const;
    [[nodiscard]] const Snapshot& latest_snapshot() const;
    [[nodiscard]] TargetHealth health() const;
    /// Fully dark cycles in a row as of now (0 while collection works).
    [[nodiscard]] std::size_t consecutive_failures() const;
    /// When the target last produced a usable capture (a recorded cycle);
    /// nullopt until the first success, frozen while the target is dark.
    [[nodiscard]] std::optional<sim::TimePoint> last_success() const;
    /// The durable archive sink, or nullptr when archiving is disabled.
    [[nodiscard]] const ArchiveWriter* archive() const;

   private:
    friend class Mantra;
    explicit TargetView(const TargetState& state) : state_(&state) {}
    const TargetState* state_;
  };

  Mantra(sim::Engine& engine, MantraConfig config);
  /// As above with a per-target transport factory (e.g. one
  /// FaultInjectingTransport per target, each with its own seed/profile).
  Mantra(sim::Engine& engine, MantraConfig config, TransportFactory factory);

  /// Registers a router to monitor. The pointer must outlive the monitor.
  /// Throws std::invalid_argument if a target of the same hostname is
  /// already monitored, before anything is built or opened: its collector
  /// and its `.marc` stay as they were.
  void add_target(const router::MulticastRouter* target);

  /// Starts the periodic monitoring cycle.
  void start();
  void stop();

  /// Runs one cycle immediately across all targets (also what the timer
  /// calls). With `worker_threads > 0` the per-target chains run
  /// concurrently on the pool; the call still returns only after every
  /// target has finished, so the engine's deterministic run-to-completion
  /// semantics are preserved.
  void run_cycle_now();

  /// The single per-target accessor; throws std::out_of_range for unknown
  /// names. (The old per-router forwarders — results(name), logger(name),
  /// route_monitor(name), latest_snapshot(name) — were removed in favour of
  /// target_view(name).<accessor>(); route statistics are in results(). See
  /// DESIGN.md for the break note.)
  [[nodiscard]] TargetView target_view(std::string_view router_name) const;

  /// Extracts a time series from the result history of one router.
  [[nodiscard]] TimeSeries series(
      std::string_view router_name, std::string series_name,
      const std::function<double(const CycleResult&)>& extract) const;

  /// Multi-point aggregation (§V): union of the latest pair tables across
  /// all targets, processed as one view.
  [[nodiscard]] UsageStats aggregate_usage() const;

  // --- Summary tables (§III "interactive tables") ---
  /// The "busiest multicast sessions" table, sorted by bandwidth.
  [[nodiscard]] SummaryTable busiest_sessions(std::string_view router_name,
                                              std::size_t limit = 20) const;
  /// Top senders by rate.
  [[nodiscard]] SummaryTable top_senders(std::string_view router_name,
                                         std::size_t limit = 20) const;
  /// Per-target one-row overview (health, routes, sessions, bandwidth).
  [[nodiscard]] SummaryTable overview() const;

  /// The monitor-of-the-monitor report: collection health, staleness and
  /// latency percentiles per target, as of the engine clock.
  [[nodiscard]] MonitorStatus status() const;

  /// The self-instrumentation sinks (a no-op bundle unless
  /// MantraConfig::telemetry.enabled). Always valid for the monitor's
  /// lifetime; safe to read concurrently with a running cycle.
  [[nodiscard]] Telemetry& telemetry() { return *telemetry_; }
  [[nodiscard]] const Telemetry& telemetry() const { return *telemetry_; }

  /// The self-monitor (core/teltrace), sampling the telemetry bundle into a
  /// `.mtel` archive once per cycle — or nullptr when
  /// MantraConfig::self.enabled is false.
  [[nodiscard]] SelfMonitor* self_monitor() { return self_.get(); }
  [[nodiscard]] const SelfMonitor* self_monitor() const { return self_.get(); }

  /// The alert engine (core/alert). Always valid; evaluates no rules unless
  /// MantraConfig::alerts.enabled. Evaluation happens on the engine thread
  /// after each cycle joins, in target-name order — deterministic across
  /// worker_threads settings and reproducible from archive replay.
  [[nodiscard]] const AlertEngine& alerts() const { return *alerts_; }

  /// Called at the end of every run_cycle_now() with the number of cycles
  /// run so far (1-based). Used by the examples to refresh the live HTML
  /// report every N cycles; pass nullptr to detach.
  void set_cycle_hook(std::function<void(std::size_t)> hook) {
    cycle_hook_ = std::move(hook);
  }

  [[nodiscard]] std::size_t target_count() const { return targets_.size(); }
  [[nodiscard]] const MantraConfig& config() const { return config_; }
  [[nodiscard]] std::vector<std::string> target_names() const;

 private:
  /// One collection shard: what a target carries from one cycle to the
  /// next. Every member — collector (with its own transport, fault and
  /// jitter RNG streams, metric handles and stage), latest tables, derive
  /// carry, archive writer, results — is exclusively owned by this target,
  /// so shards share no mutable state and run_target_cycle is safe to run
  /// concurrently for distinct targets. What a cycle needs only while it
  /// runs is the worker's CycleScratch, not the target's.
  struct TargetState {
    const router::MulticastRouter* router = nullptr;
    std::string name;
    std::unique_ptr<Collector> collector;
    CycleCarry carry;  ///< last route stats, spike detector, derive storage
    std::unique_ptr<ArchiveWriter> archive;  ///< null when archiving is off
    std::vector<CycleResult> results;
    TargetSummary summary;  ///< `results` folded, for status()
    /// The last recorded cycle's snapshot: the stale-table carry source,
    /// derive_cycle's previous snapshot and the archive writer's delta base
    /// (neither keeps a copy).
    Snapshot latest;
    TargetHealth health = TargetHealth::Healthy;
    std::size_t consecutive_failures = 0;  ///< fully dark cycles in a row
    std::optional<sim::TimePoint> last_success;  ///< last recorded cycle
    /// Per-cycle span/event staging buffer. The worker thread running this
    /// shard records into it; run_cycle_now flushes the stages post-join in
    /// target-name order with deterministic tids, so the event log and the
    /// trace are byte-identical across worker_threads settings.
    TelemetryStage stage;
    /// This target's stable trace lane: 2 + name-order index (tid 1 is the
    /// driver thread). Assigned by add_target.
    std::uint32_t tid = 0;
    /// This target's `{target=name}` counters, each looked up the first
    /// time the worker running the shard records into it.
    struct Counters {
      Counter* dark = nullptr;
      Counter* recorded = nullptr;
      Counter* parse_rows = nullptr;
      Counter* parse_warnings = nullptr;
      Counter* stale_tables = nullptr;
      Counter* route_spikes = nullptr;
    } counters;

    explicit TargetState(const MantraConfig& config)
        : carry(config.sender_threshold_kbps, config.spike_window, config.spike_k) {}
  };

  /// What one pool worker needs only while it runs one target's cycle.
  /// Capacity is kept from target to target: capture slot i is always
  /// command i, so each transcript buffer is sized by its own command, and
  /// the snapshot holds the tables the last target's `latest` displaced.
  struct CycleScratch {
    CaptureReport report;
    Snapshot snapshot;  ///< the cycle's tables, built here, then published
    std::vector<std::string> parse_warnings;
  };

  void run_target_cycle(TargetState& target, sim::TimePoint now,
                        std::size_t cycle_seq);
  [[nodiscard]] const TargetState& target(std::string_view router_name) const;

  sim::Engine& engine_;
  MantraConfig config_;
  TransportFactory transport_factory_;
  // Declared before the targets and the pool: collectors, archive writers
  // and pool workers all hold raw pointers into the telemetry bundle, so it
  // must be destroyed last.
  std::unique_ptr<Telemetry> telemetry_;
  std::unique_ptr<AlertEngine> alerts_;  ///< empty rule set when disabled
  std::unique_ptr<SelfMonitor> self_;    ///< null when self-telemetry is off
  std::map<std::string, std::unique_ptr<TargetState>, std::less<>> targets_;
  std::unique_ptr<parallel::ThreadPool> pool_;  ///< null when worker_threads == 0
  /// One per pool worker (one without a pool), indexed without a lock.
  std::vector<CycleScratch> scratch_;
  sim::PeriodicTimer cycle_timer_;
  std::function<void(std::size_t)> cycle_hook_;
  std::size_t cycles_run_ = 0;
  // Drop counts already mirrored into the mantra_*_dropped_total counters,
  // so each cycle inc()s only the delta.
  std::uint64_t trace_drops_synced_ = 0;
  std::uint64_t event_drops_synced_ = 0;
  /// The per-cycle metric handles, used on the engine thread and each
  /// looked up the first time a cycle records into it.
  struct CycleHandles {
    Counter* cycles = nullptr;
    Gauge* targets = nullptr;
    Histogram* duration = nullptr;
    Gauge* queue_peak = nullptr;
    Counter* trace_drops = nullptr;
    Counter* event_drops = nullptr;
  } cycle_handles_;
};

}  // namespace mantra::core
