// Durable self-telemetry: the monitor's own vital signs, archived with the
// same discipline as the router state it collects. core/telemetry gives the
// monitor in-memory counters, gauges, histograms and an event ring; this
// module makes that state *durable* so "was the monitor healthy last
// Tuesday?" has an answer after the process is gone — the "monitor of the
// monitor" loop the paper's six-month deployment needed but left implicit.
//
// Two pieces:
//
//   * `.mtel` archive — one record per monitoring cycle holding a
//     MetricsSnapshot of every registered metric plus the event-log tail
//     since the previous sample. The same core/framed log as `.marc`
//     (header, CRC frames, torn-tail recovery) with its own record codec:
//     key-frame/delta encoding (counters as varint deltas, doubles as
//     XOR-of-IEEE-754-bits varints — lossless). A metric dictionary grows
//     append-only across the file so names/labels/bounds are written once.
//     TelemetryArchiveReader is the one way back in: it decodes the whole
//     file at open.
//   * SelfMonitor — samples the live Telemetry once per cycle, appends to
//     the `.mtel`, and evaluates a self-monitoring rule pack
//     (cycle-duration p95, pool queue depth, capture failure rate, archive
//     fsync latency) through the existing AlertEngine — the monitor pages
//     about itself with the same pending/firing/hysteresis machinery it
//     uses for routers. It keeps only this cycle's and the last cycle's
//     full sample; the `.mtel` is the one full record, and in memory stay
//     one HealthSample per cycle and the sampled events.
//     monitor_health_from_samples re-derives the identical health samples
//     and alert history from decoded samples, which is what makes the
//     report's "Monitor health" section byte-identical between the live
//     run and an `.mtel` replay.
//
// Everything here is read-only with respect to collection: sampling never
// feeds back into capture, parsing, retry scheduling or `.marc` bytes, so
// runs stay byte-identical with self-telemetry on or off.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/alert.hpp"
#include "core/framed.hpp"
#include "core/telemetry.hpp"
#include "sim/time.hpp"

namespace mantra::core {

// --- Samples ---------------------------------------------------------------

/// One cycle's worth of self-telemetry: the full metric state at `t_ms`
/// plus the events that arrived since the previous sample. This is the unit
/// the `.mtel` archive stores; the codec is lossless, so a decoded sample
/// compares equal to the one that was appended.
struct TelemetrySample {
  std::int64_t t_ms = 0;
  MetricsSnapshot metrics;
  std::vector<TelemetryEvent> events;  ///< since the previous sample, seq order

  friend bool operator==(const TelemetrySample&, const TelemetrySample&) = default;
};

/// Looks up one instance in a snapshot (labels in serialized sorted form,
/// "" = unlabeled). nullptr when absent.
[[nodiscard]] const MetricsSnapshot::CounterSample* find_counter(
    const MetricsSnapshot& snapshot, std::string_view name,
    std::string_view labels = "");
[[nodiscard]] const MetricsSnapshot::GaugeSample* find_gauge(
    const MetricsSnapshot& snapshot, std::string_view name,
    std::string_view labels = "");
[[nodiscard]] const MetricsSnapshot::HistogramSample* find_histogram(
    const MetricsSnapshot& snapshot, std::string_view name,
    std::string_view labels = "");

// --- .mtel archive ---------------------------------------------------------

struct TelemetryArchiveOptions {
  int keyframe_interval = 96;  ///< absolute-value record every N samples
  /// The `.mtel` is diagnostics, not the system of record: losing a tail on
  /// power failure is acceptable, so fsync is off by default (the framing
  /// still bounds a process kill to the final record).
  bool fsync_on_keyframe = false;
};

/// Append-only `.mtel` writer: a core/framed log with magic "MTEL", version
/// 1, one frame per sample. The payload carries the sample time, the
/// new-this-record dictionary entries (metric kind/name/labels/bounds — ids
/// assigned in first-seen order, cumulative across the file), `# HELP`
/// upserts/removals, one value per dictionary id (absolute on key-frames,
/// delta otherwise; doubles delta as XOR of raw bits so every value
/// round-trips exactly), and the sample's events.
///
/// A registry's series set rarely changes between cycles, so an instance
/// takes the dictionary id its position held in the previous append when
/// that entry's name and labels match; only the instances a new or
/// departed series shifted go through the key map.
class TelemetryArchiveWriter {
 public:
  /// Creates/truncates `path`. Throws std::runtime_error if the file cannot
  /// be opened or the options are invalid.
  explicit TelemetryArchiveWriter(std::string path,
                                  TelemetryArchiveOptions options = {});
  ~TelemetryArchiveWriter();

  TelemetryArchiveWriter(const TelemetryArchiveWriter&) = delete;
  TelemetryArchiveWriter& operator=(const TelemetryArchiveWriter&) = delete;

  /// Appends one sample. Samples must arrive in non-decreasing time order.
  void append(const TelemetrySample& sample);

  void sync();
  /// Flushes and closes; further appends throw. Idempotent.
  void close();

  [[nodiscard]] std::size_t samples_written() const { return log_.frames_written(); }
  /// Total file bytes including the header.
  [[nodiscard]] std::uint64_t bytes_written() const { return log_.bytes_written(); }
  [[nodiscard]] const std::string& path() const { return log_.path(); }
  [[nodiscard]] const TelemetryArchiveOptions& options() const { return options_; }

 private:
  struct DictEntry;  ///< per-metric state the next delta record is relative to
  friend class TelemetryArchiveReader;  ///< decodes against the same DictEntry

  TelemetryArchiveOptions options_;
  FramedLogWriter log_;
  std::vector<DictEntry> dict_;
  std::map<std::string, std::size_t> dict_index_;  ///< kind+name+labels -> id
  /// Per kind (counter, gauge, histogram), the id each position of the
  /// previous append resolved to: the first guess for the same position.
  std::array<std::vector<std::size_t>, 3> position_ids_;
  /// Per id, its position in this append's section of its kind (or none).
  std::vector<std::size_t> positions_;
  std::map<std::string, std::string> prev_help_;
  std::string payload_;  ///< record buffer, reused
};

/// Decodes an entire `.mtel` file at open (self-telemetry files are small —
/// one record per cycle, delta-encoded); samples() hands back the lossless
/// reconstruction in append order. A torn or corrupt tail is truncated,
/// never fatal, and every complete sample before it survives.
class TelemetryArchiveReader {
 public:
  /// Throws std::runtime_error on a missing file or bad header; tail damage
  /// is reported through recovery() instead.
  explicit TelemetryArchiveReader(const std::string& path);

  [[nodiscard]] const std::vector<TelemetrySample>& samples() const {
    return samples_;
  }
  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  /// File bytes actually decoded (header included, dropped tail excluded).
  [[nodiscard]] std::uint64_t indexed_bytes() const { return indexed_bytes_; }
  [[nodiscard]] const RecoveryInfo& recovery() const { return recovery_; }

 private:
  std::vector<TelemetrySample> samples_;
  std::uint64_t indexed_bytes_ = 0;
  RecoveryInfo recovery_;
};

// --- Self-monitoring -------------------------------------------------------

/// One self-monitoring rule: the standard AlertRule thresholds/hysteresis
/// plus an extractor over consecutive telemetry samples (prev is null for
/// the first sample). The AlertRule::extract member is unused on this path
/// (observe_values supplies the raw value directly).
struct SelfRule {
  AlertRule rule;
  std::function<double(const TelemetrySample* prev, const TelemetrySample& cur)>
      value;
};

/// What the report's "Monitor health" section reads of one sample.
struct HealthSample {
  std::int64_t t_ms = 0;
  /// Per-cycle mean of `mantra_cycle_duration_seconds` since the previous
  /// sample (with one observation per cycle, the exact duration); 0 when
  /// the histogram is absent or saw no observation.
  double cycle_s = 0.0;
  double queue_depth_peak = 0.0;  ///< mantra_pool_queue_depth_peak, 0 when absent
  std::uint64_t drops = 0;  ///< trace-span plus event drop counters

  friend bool operator==(const HealthSample&, const HealthSample&) = default;
};

/// The built-in pack — the monitor's own failure modes:
///   cycle_duration_p95    windowed p95 of per-cycle wall duration
///   pool_queue_depth      sustained mean of the per-cycle queue-depth peak
///   capture_failure_rate  non-ok fraction of capture outcomes per cycle
///   archive_write_latency windowed p95 of archive fsync wall time
[[nodiscard]] std::vector<SelfRule> default_self_rules();

struct SelfMonitorConfig {
  bool enabled = false;
  /// The alert "target" name self-alerts carry ("monitor", or the shard
  /// name in a fleet).
  std::string name = "monitor";
  /// `.mtel` output path; empty writes no archive, and the monitor keeps
  /// only its health samples and the sampled events.
  std::string path;
  TelemetryArchiveOptions archive;
  /// Empty = default_self_rules().
  std::vector<SelfRule> rules;

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

/// Samples a live Telemetry once per monitoring cycle, appends to the
/// `.mtel`, and evaluates the self-rule pack. Self-alert transitions are
/// mirrored into the same Telemetry (alert_firing events,
/// mantra_alert_state gauges), so the monitor's own trouble shows up in the
/// next cycle's sample — the closed loop.
///
/// Full samples live in two reused buffers, this cycle's and the last
/// cycle's (the self-rules read the pair). What stays in memory per sample
/// is a HealthSample and the sample's events; the `.mtel` is the one full
/// record (TelemetryArchiveReader reads it back).
class SelfMonitor {
 public:
  /// Throws what TelemetryArchiveWriter throws when config.path is set.
  /// `telemetry` must outlive the monitor and be enabled.
  SelfMonitor(SelfMonitorConfig config, Telemetry* telemetry);

  /// Takes one sample at `now`: metric snapshot + event-log tail (events
  /// with seq beyond the previous sample's), appends it, evaluates rules.
  void sample(sim::TimePoint now);

  /// One health sample per sample taken, oldest first.
  [[nodiscard]] const std::vector<HealthSample>& samples() const {
    return health_;
  }
  /// Every sampled event, in seq order: the samples' event tails joined.
  [[nodiscard]] const std::vector<TelemetryEvent>& events() const {
    return events_;
  }
  [[nodiscard]] const std::vector<SelfRule>& rules() const { return rules_; }
  [[nodiscard]] AlertEngine& alerts() { return alerts_; }
  [[nodiscard]] const AlertEngine& alerts() const { return alerts_; }
  [[nodiscard]] const SelfMonitorConfig& config() const { return config_; }

  /// Flushes and closes the `.mtel` (idempotent; destructor also closes).
  void close();

 private:
  SelfMonitorConfig config_;
  Telemetry* telemetry_;
  std::vector<SelfRule> rules_;
  AlertEngine alerts_;
  std::unique_ptr<TelemetryArchiveWriter> writer_;
  TelemetrySample current_;   ///< this cycle's sample, storage reused
  TelemetrySample previous_;  ///< the last cycle's, the rules' `prev`
  std::vector<HealthSample> health_;
  std::vector<TelemetryEvent> events_;
  std::uint64_t next_event_seq_ = 0;  ///< first seq not yet sampled
};

/// Everything the report's "Monitor health" section renders: the health
/// samples plus the self-alert evaluation derived from them.
struct MonitorHealthData {
  std::string name;
  std::vector<HealthSample> samples;
  std::vector<AlertStatus> alert_states;  ///< (rule, target) order
  std::vector<AlertRecord> alerts;        ///< firing episodes, open last
};

/// Re-derives the health samples and the self-alert history from a sample
/// stream — a pure function of the samples, so the live monitor and an
/// `.mtel` replay produce identical MonitorHealthData (and byte-identical
/// report sections).
[[nodiscard]] MonitorHealthData monitor_health_from_samples(
    std::string name, const std::vector<TelemetrySample>& samples,
    const std::vector<SelfRule>& rules = default_self_rules());

}  // namespace mantra::core
