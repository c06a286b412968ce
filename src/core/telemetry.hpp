// Self-instrumentation for the monitor itself ("monitor of the monitor").
// Mantra's credibility rests on its collection robustness (§III): retries,
// backoff waits, stale carry-forwards, pool utilization and archive fsync
// stalls must be observable without asserting on them in tests. This module
// provides the three sinks the collection path records into:
//
//   * MetricsRegistry — thread-safe counters, gauges and fixed-bucket
//     histograms, grouped into labeled families (target/command/...), with a
//     Prometheus text exposition. The mutation fast path is lock-free
//     (relaxed atomics); only a handle lookup takes a mutex, and the
//     monitored path looks each of its series up once and keeps the handle.
//   * Tracer — per-cycle / per-target / per-command / per-retry-attempt
//     spans carrying both the simulated interval (sim::TimePoint + duration)
//     and the measured wall-clock duration, exportable as Chrome
//     `trace_event` JSON for chrome://tracing / Perfetto.
//   * EventLog — ring-buffered structured events (level + key/value fields)
//     for discrete facts: target_unreachable, parse_warning,
//     archive_keyframe, spike_detected, command_deadline_exhausted.
//     Rendered as logfmt.
//
// A default-constructed Telemetry is a no-op sink: every record call checks
// one `enabled()` flag and returns, so instrumented code costs ~nothing when
// telemetry is off. Telemetry is strictly write-only from the monitored
// path — nothing in it ever feeds back into collection, parsing, retry
// scheduling or archived bytes, so runs are byte-identical with the sink on
// or off (proven by core_telemetry_test).
#pragma once

#include <atomic>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace mantra::core {

/// Label set attached to one metric instance, e.g. {{"target", "fixw"}}.
/// Serialized sorted by key, so label order at the call site is irrelevant.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing integer metric. Lock-free.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Settable double metric (queue depths, pool sizes). Lock-free.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double expected = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(expected, expected + d,
                                         std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram (Prometheus semantics: buckets are cumulative
/// upper bounds, +Inf implied). Observation is lock-free; the bucket bounds
/// are immutable after construction.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double value);

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const;
  [[nodiscard]] const std::vector<double>& upper_bounds() const { return bounds_; }
  /// Quantile estimate by linear interpolation within the containing
  /// bucket (the usual Prometheus histogram_quantile approximation).
  [[nodiscard]] double quantile(double q) const;

 private:
  friend class MetricsRegistry;  ///< snapshot_into reads the buckets directly

  std::vector<double> bounds_;                       ///< ascending, finite
  std::vector<std::atomic<std::uint64_t>> buckets_;  ///< per-bucket (non-cumulative)
  std::atomic<std::uint64_t> inf_bucket_{0};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Latency bucket bounds in seconds, spanning the 120 ms clean-capture case
/// through slow responses, backoff chains and hung logins.
[[nodiscard]] const std::vector<double>& default_latency_buckets_s();

/// Quantile estimate over a bucketed distribution: `buckets` holds one
/// non-cumulative count per finite bound plus a trailing +Inf count, `total`
/// is the observation count. Linear interpolation within the containing
/// bucket — the same approximation Histogram::quantile and the sampled
/// HistogramSample::quantile share, so a quantile computed live and one
/// computed from a `.mtel` sample of the same state agree bit for bit.
[[nodiscard]] double histogram_quantile(const std::vector<double>& bounds,
                                        const std::vector<std::uint64_t>& buckets,
                                        std::uint64_t total, double q);

/// Point-in-time value dump of every registered metric, in deterministic
/// (name, serialized-labels) order. This is the unit the `.mtel`
/// self-telemetry archive samples once per cycle (core/teltrace) and the
/// fleet federation merges across shards (core/fleet) — both consumers need
/// plain data, not live atomics.
struct MetricsSnapshot {
  struct CounterSample {
    std::string name;
    std::string labels;  ///< serialized sorted `k="v"` form ("" = unlabeled)
    std::uint64_t value = 0;
    friend bool operator==(const CounterSample&, const CounterSample&) = default;
  };
  struct GaugeSample {
    std::string name;
    std::string labels;
    double value = 0.0;
    friend bool operator==(const GaugeSample&, const GaugeSample&) = default;
  };
  struct HistogramSample {
    std::string name;
    std::string labels;
    std::vector<double> bounds;          ///< ascending finite upper bounds
    std::vector<std::uint64_t> buckets;  ///< per-bound counts + trailing +Inf
    std::uint64_t count = 0;
    double sum = 0.0;
    /// Same interpolation as Histogram::quantile, over the sampled counts.
    [[nodiscard]] double quantile(double q) const {
      return histogram_quantile(bounds, buckets, count, q);
    }
    friend bool operator==(const HistogramSample&, const HistogramSample&) = default;
  };

  std::vector<CounterSample> counters;      ///< (name, labels) order
  std::vector<GaugeSample> gauges;          ///< (name, labels) order
  std::vector<HistogramSample> histograms;  ///< (name, labels) order
  std::map<std::string, std::string> help;  ///< family name -> # HELP text

  friend bool operator==(const MetricsSnapshot&, const MetricsSnapshot&) = default;
};

/// Renders a snapshot in the Prometheus text exposition format (HELP/TYPE
/// lines, histogram _bucket/_sum/_count expansion). MetricsRegistry::
/// prometheus_text() and the fleet federation both funnel through this one
/// renderer, so every exposition the system emits has identical shape.
[[nodiscard]] std::string prometheus_text_from(const MetricsSnapshot& snapshot);

/// Conformance checker for a Prometheus text exposition: every sample line
/// must belong to a preceding # TYPE of the right kind, metric/label names
/// must be well formed, label values must round-trip the escaping rules,
/// histogram _bucket series must be cumulative with ascending `le` bounds
/// ending in +Inf and agree with _count, and no family may repeat. Returns
/// one human-readable string per violation (empty = conformant).
[[nodiscard]] std::vector<std::string> prometheus_lint(std::string_view exposition);

/// Prometheus label-value escaping (backslash, double quote, line feed).
/// Exposed so the fleet federation can build label strings that collate with
/// the registry's own serialized `k="v"` form.
[[nodiscard]] std::string prom_label_escape(std::string_view s);

/// Renders one logfmt value: bare when unambiguous, double-quoted with the
/// conventional \" \\ \n \r \t escapes otherwise. Shared by
/// EventLog::logfmt and the fleet-federated event export.
[[nodiscard]] std::string logfmt_value(const std::string& value);

/// Thread-safe metric registry. Handle lookup (`counter()` etc.) takes a
/// mutex, builds the label string and may allocate; the returned reference
/// is stable for the registry's lifetime. Every per-capture, per-operation,
/// per-task and per-cycle call site keeps the handle through cached(): it
/// looks the series up the first time it records into it (a lookup creates
/// the series, so an earlier one would expose a zero-valued series that
/// never saw a value) and updates the handle lock-free after that. When the
/// registry is disabled, lookups return shared scratch instances that are
/// never exposed, so instrumented code needs no null checks.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(bool enabled = false);

  [[nodiscard]] bool enabled() const { return enabled_; }

  Counter& counter(std::string_view name, MetricLabels labels = {});
  Gauge& gauge(std::string_view name, MetricLabels labels = {});
  Histogram& histogram(std::string_view name, MetricLabels labels = {},
                       const std::vector<double>& upper_bounds =
                           default_latency_buckets_s());

  /// Registers a `# HELP` text for one family, emitted before its # TYPE
  /// line in the exposition. No-op while disabled; setting again replaces.
  void set_help(std::string_view name, std::string_view text);

  /// Sum of one counter family across all label sets (0 if absent).
  [[nodiscard]] std::uint64_t counter_total(std::string_view name) const;
  /// Value of one exact counter instance (0 if absent).
  [[nodiscard]] std::uint64_t counter_value(std::string_view name,
                                            const MetricLabels& labels) const;
  [[nodiscard]] const Histogram* find_histogram(std::string_view name,
                                                const MetricLabels& labels) const;

  /// Dumps every registered metric's current value in (name, labels) order.
  /// Thread-safe against concurrent mutation (values are read with the same
  /// relaxed loads the accessors use); per-histogram snapshots are
  /// internally consistent only when no observation races the dump.
  /// Implemented as snapshot_into on a fresh snapshot.
  [[nodiscard]] MetricsSnapshot snapshot() const;
  /// Overwrites `out` with what snapshot() would return, reusing its
  /// vectors and strings: a caller that keeps one snapshot per cycle (the
  /// self-monitor) allocates only for series that are new since.
  void snapshot_into(MetricsSnapshot& out) const;

  /// Prometheus text exposition format, families sorted by name, instances
  /// sorted by serialized labels — deterministic for a given set of values.
  /// Implemented as prometheus_text_from(snapshot()).
  [[nodiscard]] std::string prometheus_text() const;

 private:
  template <typename T>
  struct Family {
    std::map<std::string, std::unique_ptr<T>> instances;  ///< by label string
  };

  bool enabled_;
  mutable std::mutex mutex_;
  std::map<std::string, Family<Counter>> counters_;
  std::map<std::string, Family<Gauge>> gauges_;
  std::map<std::string, Family<Histogram>> histograms_;
  std::map<std::string, std::string> help_;
  // Scratch sinks handed out while disabled; their values are never read.
  Counter scratch_counter_;
  Gauge scratch_gauge_;
  std::unique_ptr<Histogram> scratch_histogram_;
};

/// The metric handle cached in `slot`, filled by `lookup` (one registry
/// call returning the handle's address) the first time it is needed. The
/// one caching policy of every per-capture, per-operation, per-task and
/// per-cycle call site: a lookup creates its series, so the lookup runs
/// exactly where an uncached update would have run it, and every later
/// update skips the registry mutex and the label strings.
template <typename Metric, typename Lookup>
Metric& cached(Metric*& slot, Lookup&& lookup) {
  if (slot == nullptr) slot = std::forward<Lookup>(lookup)();
  return *slot;
}

/// One completed span. Wall times are microseconds since the tracer's
/// construction; the simulated interval rides along (a span that covers a
/// 12 s simulated backoff executes in ~0 wall time, and vice versa for
/// parsing, which is instantaneous in sim time).
struct TraceSpan {
  std::string name;
  std::string category;
  std::int64_t sim_ts_ms = 0;
  std::int64_t sim_dur_ms = 0;
  std::int64_t wall_ts_us = 0;
  std::int64_t wall_dur_us = 0;
  std::uint32_t tid = 0;  ///< small stable per-thread id
  std::vector<std::pair<std::string, std::string>> args;
};

class Tracer;
class TelemetryStage;

/// RAII span, the one implementation behind Tracer::Scope and
/// TelemetryStage::Span: the wall interval runs from construction to
/// destruction, and the simulated interval and args are attached before it
/// closes. The two differ only in where a closed span goes — a Tracer
/// stores it, a TelemetryStage stages it (with its correlation context) for
/// the post-join flush. A disabled sink hands out inert scopes: no clock
/// reads, no allocation, no storage.
template <typename Sink>
class SpanScope {
 public:
  SpanScope(SpanScope&& other) noexcept;
  SpanScope& operator=(SpanScope&&) = delete;
  SpanScope(const SpanScope&) = delete;
  ~SpanScope();

  void arg(std::string key, std::string value);
  void set_sim_interval(sim::TimePoint start, sim::Duration duration);
  /// Scopes the correlation id stamped at flush to one command attempt.
  void set_context(std::string command, std::size_t attempt = 0)
    requires std::same_as<Sink, TelemetryStage>
  {
    if (sink_ == nullptr) return;
    command_ = std::move(command);
    attempt_ = attempt;
  }

 private:
  friend Sink;
  /// Null `sink` = inert. `clock` is the tracer whose epoch wall times count
  /// from.
  SpanScope(Sink* sink, const Tracer& clock, std::string_view name,
            std::string_view category, sim::TimePoint sim_now);

  Sink* sink_;
  TraceSpan span_;
  std::string command_;
  std::size_t attempt_ = 0;
  std::chrono::steady_clock::time_point wall_start_;
};

/// Span recorder. Bounded: past `max_spans`, further spans are counted as
/// dropped rather than stored (the export stays loadable).
class Tracer {
 public:
  explicit Tracer(bool enabled = false, std::size_t max_spans = 262'144);

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// A span recorded here when it closes, stamped with the opening thread's
  /// tid.
  using Scope = SpanScope<Tracer>;

  [[nodiscard]] Scope span(std::string_view name, std::string_view category,
                           sim::TimePoint sim_now);
  /// Records a hand-built span (used for retry attempts, where the wall
  /// interval is measured around the transport call by the collector, and
  /// by TelemetryStage::flush, which stamps tids post-join).
  void record(TraceSpan span);

  [[nodiscard]] std::size_t span_count() const;
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::vector<TraceSpan> snapshot() const;

  /// Names a tid for the trace export's `thread_name` metadata records
  /// (Perfetto renders one lane per named tid). Idempotent.
  void set_thread_name(std::uint32_t tid, std::string name);

  /// Chrome trace_event JSON — loadable in chrome://tracing / Perfetto:
  /// process/thread `"M"` metadata records first, then one `"X"` complete
  /// event per span. `ts`/`dur` are *simulated* microseconds (sim_ts_ms /
  /// sim_dur_ms × 1000): the export is a pure function of the run, so the
  /// same run emits the same bytes regardless of worker_threads or host
  /// speed. Wall intervals stay on TraceSpan for in-process consumers but
  /// are deliberately absent from the export.
  [[nodiscard]] std::string chrome_trace_json() const;

  /// Microseconds of wall time since the tracer was constructed, and the
  /// calling thread's stable small id (creates one on first use).
  [[nodiscard]] std::int64_t wall_now_us() const;
  [[nodiscard]] std::uint32_t thread_id();

 private:
  template <typename>
  friend class SpanScope;  ///< reads epoch_ when a span opens

  bool enabled_;
  std::size_t max_spans_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<TraceSpan> spans_;
  std::map<std::thread::id, std::uint32_t> thread_ids_;
  std::map<std::uint32_t, std::string> thread_names_;
  std::atomic<std::uint64_t> dropped_{0};
};

enum class EventLevel { debug, info, warn, error };

[[nodiscard]] const char* to_string(EventLevel level);

/// One discrete structured fact.
struct TelemetryEvent {
  EventLevel level = EventLevel::info;
  std::string name;
  std::int64_t sim_ts_ms = 0;
  std::uint64_t seq = 0;  ///< global arrival order
  std::vector<std::pair<std::string, std::string>> fields;

  friend bool operator==(const TelemetryEvent&, const TelemetryEvent&) = default;
};

/// Ring-buffered structured event log: the newest `capacity` events are
/// kept, older ones are dropped (and counted). Every logged event takes the
/// next seq, so the ring holds one dense run of them. Renderable as logfmt.
class EventLog {
 public:
  explicit EventLog(bool enabled = false, std::size_t capacity = 8192);

  [[nodiscard]] bool enabled() const { return enabled_; }

  void log(EventLevel level, std::string_view name, sim::TimePoint t,
           std::vector<std::pair<std::string, std::string>> fields = {});

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t total_logged() const {
    return total_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// The ring's events with seq >= `from_seq`, oldest first. The ring holds
  /// one contiguous run of seqs, so the tail is found by offset, not a scan.
  [[nodiscard]] std::vector<TelemetryEvent> snapshot(std::uint64_t from_seq = 0) const;
  /// `sim_ts=<t> level=<l> event=<name> k=v ...` per line, oldest first.
  /// Values containing spaces/quotes are quoted and escaped.
  [[nodiscard]] std::string logfmt(std::size_t last_n = 0) const;

 private:
  bool enabled_;
  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::deque<TelemetryEvent> ring_;
  std::atomic<std::uint64_t> total_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

struct TelemetryConfig {
  bool enabled = false;
  std::size_t max_spans = 262'144;
  std::size_t max_events = 8192;
};

/// The bundle the monitoring path records into. Enabled/disabled is fixed
/// at construction (cached metric handles stay valid for the lifetime).
class Telemetry {
 public:
  /// No-op sink: enabled() is false, every record call returns immediately.
  Telemetry() : Telemetry(TelemetryConfig{}) {}
  explicit Telemetry(TelemetryConfig config);

  [[nodiscard]] bool enabled() const { return config_.enabled; }
  [[nodiscard]] const TelemetryConfig& config() const { return config_; }

  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
  [[nodiscard]] Tracer& tracer() { return tracer_; }
  [[nodiscard]] const Tracer& tracer() const { return tracer_; }
  [[nodiscard]] EventLog& events() { return events_; }
  [[nodiscard]] const EventLog& events() const { return events_; }

  /// Writes metrics().prometheus_text() / tracer().chrome_trace_json() to
  /// `path`; false (no throw) on I/O failure.
  bool write_metrics_prom(const std::string& path) const;
  bool write_trace_json(const std::string& path) const;

  /// A shared disabled instance, the default sink for instrumented
  /// components that were never wired to a monitor's telemetry.
  [[nodiscard]] static Telemetry& noop();

 private:
  TelemetryConfig config_;
  MetricsRegistry metrics_;
  Tracer tracer_;
  EventLog events_;
};

// --- Causal correlation (core/provenance's join key) -------------------------

/// The deterministic correlation id threading every artifact of a cycle
/// together: `c<cycle_seq>/<target>` for cycle-scope artifacts (spans,
/// events, CycleResults, AlertRecord transitions) and
/// `c<cycle_seq>/<target>/<command>/a<attempt>` for attempt-scope ones.
/// Pure functions of replay-derivable facts — the same run yields the same
/// ids live, from `.marc` replay, and across worker_threads settings.
[[nodiscard]] std::string correlation_id(std::size_t cycle_seq,
                                         std::string_view target);
[[nodiscard]] std::string correlation_id(std::size_t cycle_seq,
                                         std::string_view target,
                                         std::string_view command,
                                         std::size_t attempt);

/// Per-target staging sink for one cycle's spans and events. Worker threads
/// record into their target's stage (single-threaded by construction: one
/// worker owns a target for the whole cycle), and the monitor flushes the
/// stages post-join in (cycle, target-name) order — so event sequence
/// numbers, span order, thread ids and correlation ids are all invariant to
/// `worker_threads`. Metrics are NOT staged: counters/gauges/histograms are
/// commutative, so the shared registry absorbs them directly.
class TelemetryStage {
 public:
  /// A span staged here when it closes; tid and correlation id are stamped
  /// at flush.
  using Span = SpanScope<TelemetryStage>;

  explicit TelemetryStage(Telemetry* telemetry = &Telemetry::noop())
      : telemetry_(telemetry) {}

  /// Re-points the stage (buffers survive). Never pass null — use
  /// Telemetry::noop() to detach.
  void attach(Telemetry* telemetry) { telemetry_ = telemetry; }

  [[nodiscard]] bool enabled() const { return telemetry_->enabled(); }
  [[nodiscard]] MetricsRegistry& metrics() { return telemetry_->metrics(); }

  [[nodiscard]] Span span(std::string_view name, std::string_view category,
                          sim::TimePoint sim_now);
  /// Stages a hand-built span (retry attempts) with its correlation context.
  void record(TraceSpan span, std::string command = {}, std::size_t attempt = 0);
  /// Stages an event; `command`/`attempt` scope its correlation id.
  void log(EventLevel level, std::string_view name, sim::TimePoint t,
           std::vector<std::pair<std::string, std::string>> fields = {},
           std::string command = {}, std::size_t attempt = 0);

  [[nodiscard]] std::size_t staged_spans() const { return spans_.size(); }
  [[nodiscard]] std::size_t staged_events() const { return events_.size(); }

  /// Stamps `tid` and a correlation id built from (cycle_seq, target,
  /// command, attempt) onto every staged span and event — the id becomes
  /// the leading `corr` span arg / event field of an argument list built
  /// once at its final size — then forwards them to the owning Telemetry's
  /// tracer and event log in staged order and clears the buffers. Call
  /// post-join, in target-name order.
  void flush(std::size_t cycle_seq, std::string_view target, std::uint32_t tid);

 private:
  struct StagedSpan {
    TraceSpan span;
    std::string command;
    std::size_t attempt = 0;
  };
  struct StagedEvent {
    EventLevel level = EventLevel::info;
    std::string name;
    sim::TimePoint t;
    std::vector<std::pair<std::string, std::string>> fields;
    std::string command;
    std::size_t attempt = 0;
  };

  Telemetry* telemetry_;
  std::vector<StagedSpan> spans_;
  std::vector<StagedEvent> events_;
};

}  // namespace mantra::core
