// Persistent snapshot archive (§III "Data Logger", taken to disk): the
// durable counterpart of core/log's in-memory delta store. Mantra's value in
// the paper came from six months of archived router state processed off-line
// into the Figs 3-9 analyses; this module provides the capture-to-disk /
// analyse-later split that makes those long-running deployments possible.
//
// On-disk format: a framed log (core/framed) with magic "MARC", version 2,
// one frame per monitoring cycle. The payload is a varint + delta encoded
// cycle: either a key-frame (all four raw tables in full) or a delta (the
// existing PairTable::Delta / RouteTable::Delta / SaTable::Delta /
// MbgpTable::Delta types against the previous cycle). Row keys are encoded
// as differences against the previous row in table order, doubles as raw
// IEEE-754 bits, so reconstruction is bit-exact for every stored field.
// Derived tables (participants, sessions) are never stored — redundancy
// avoidance, as in core/log — and are re-derived on read.
//
// Crash safety is the framed log's: a torn or corrupt tail loses at most
// the records from the damage on, and ArchiveReader reports the loss in
// RecoveryInfo.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/framed.hpp"
#include "core/output.hpp"
#include "core/process.hpp"
#include "core/tables.hpp"
#include "core/telemetry.hpp"

namespace mantra::core {

/// Collection metadata archived alongside each cycle's tables — the facts a
/// replay cannot recompute from the tables themselves (PR 1's stale/failure
/// accounting).
struct ArchiveCycleMeta {
  bool stale = false;
  /// 1-based monitor cycle number (CycleResult::cycle_seq). Persisted so the
  /// offline replay can rebuild correlation ids exactly — dark cycles leave
  /// gaps the results index cannot recover. Format version 2.
  std::uint64_t cycle_seq = 0;
  std::uint32_t stale_tables = 0;
  std::uint32_t collection_failures = 0;
  std::uint32_t consecutive_failures = 0;
  std::uint32_t parse_warnings = 0;
  std::uint64_t capture_attempts = 0;
  sim::Duration collection_latency;

  friend bool operator==(const ArchiveCycleMeta&, const ArchiveCycleMeta&) = default;
};

/// A record's four raw tables as bits, in the order their sections are
/// stored: the projection ArchiveReader::apply_cycle decodes.
using TableMask = std::uint8_t;
inline constexpr TableMask kPairsTable = 1u << 0;
inline constexpr TableMask kRoutesTable = 1u << 1;
inline constexpr TableMask kSaTable = 1u << 2;
inline constexpr TableMask kMbgpTable = 1u << 3;
inline constexpr TableMask kAllTables =
    kPairsTable | kRoutesTable | kSaTable | kMbgpTable;

struct ArchiveOptions {
  bool store_deltas = true;     ///< ablation: false = every record a key-frame
  int keyframe_interval = 96;   ///< full snapshot every N cycles (>= 1)
  bool fsync_on_keyframe = true;  ///< durability point: fsync at each key-frame
};

/// Streaming append-only writer. Records become visible to readers atomically
/// per the framing; fsync policy bounds the data loss window to one key-frame
/// interval on power failure (a plain process kill loses at most the final
/// partially written record).
class ArchiveWriter {
 public:
  /// Creates/truncates `path`. Throws std::runtime_error if the file cannot
  /// be opened.
  explicit ArchiveWriter(std::string path, ArchiveOptions options = {});
  ~ArchiveWriter();

  ArchiveWriter(const ArchiveWriter&) = delete;
  ArchiveWriter& operator=(const ArchiveWriter&) = delete;

  /// Appends one monitoring cycle. Key-frame/delta selection follows the
  /// configured interval; the first record is always a key-frame.
  void append(const Snapshot& snapshot, const ArchiveCycleMeta& meta = {});

  /// Flushes buffered data to the OS and (on POSIX) to stable storage.
  void sync();

  /// Flushes and closes the file; further appends throw. Idempotent.
  void close();

  /// Attaches a telemetry sink recording record mix, bytes, fsync count and
  /// fsync wall duration under `label` (the target name). Never pass null —
  /// use Telemetry::noop() to detach.
  void set_telemetry(Telemetry* telemetry, std::string label);

  /// Routes the writer's events (archive_keyframe) through a per-target
  /// staging buffer instead of the shared event log, so appends from worker
  /// threads stay `worker_threads`-invariant. Null restores direct logging.
  /// Metrics always go to the shared registry (commutative).
  void set_stage(TelemetryStage* stage) { stage_ = stage; }

  [[nodiscard]] std::size_t cycles_written() const { return log_.frames_written(); }
  [[nodiscard]] std::uint64_t bytes_written() const { return log_.bytes_written(); }
  [[nodiscard]] const ArchiveOptions& options() const { return options_; }
  [[nodiscard]] const std::string& path() const { return log_.path(); }

 private:
  ArchiveOptions options_;
  FramedLogWriter log_;
  Snapshot previous_;
  bool have_previous_ = false;
  Telemetry* telemetry_ = &Telemetry::noop();
  std::string telemetry_label_;
  TelemetryStage* stage_ = nullptr;
};

/// Random-access reader over an archive file with a time-range index.
/// Opening scans the framing once, validates every CRC, and truncates a torn
/// tail per the recovery semantics above; payloads decode on demand.
class ArchiveReader {
 public:
  /// Throws std::runtime_error on a missing file or bad header. A damaged
  /// tail is NOT an error — it is reported through recovery().
  explicit ArchiveReader(const std::string& path);

  [[nodiscard]] std::size_t size() const { return index_.size(); }
  [[nodiscard]] bool empty() const { return index_.empty(); }
  /// Bytes of the file actually indexed (excludes a dropped torn tail).
  [[nodiscard]] std::uint64_t indexed_bytes() const { return log_.indexed_bytes; }
  [[nodiscard]] const RecoveryInfo& recovery() const { return log_.recovery; }

  [[nodiscard]] sim::TimePoint time_at(std::size_t index) const;
  [[nodiscard]] const ArchiveCycleMeta& meta_at(std::size_t index) const;
  [[nodiscard]] bool keyframe_at(std::size_t index) const;
  [[nodiscard]] sim::TimePoint first_time() const;
  [[nodiscard]] sim::TimePoint last_time() const;

  /// Index of the last cycle captured at or before `t` (time-range lookup);
  /// nullopt when `t` precedes the first cycle.
  [[nodiscard]] std::optional<std::size_t> index_at_or_before(sim::TimePoint t) const;

  /// Index of the first cycle captured at or after `t`; nullopt when `t` is
  /// past the last cycle.
  [[nodiscard]] std::optional<std::size_t> index_at_or_after(sim::TimePoint t) const;

  /// Index of the nearest key-frame at or before `index` — O(1), from a
  /// back-pointer built while the index is scanned, so random access never
  /// walks the delta run. The first record is always a key-frame.
  [[nodiscard]] std::size_t keyframe_index_before(std::size_t index) const;

  /// Low-level single-record decode, the building block range scans
  /// (core/query) compose with a block cache. Applies record `index` to the
  /// `tables` of `state`: a key-frame replaces them outright (`state` may be
  /// empty); a delta rolls their derived fields forward and applies the
  /// changes, so for deltas those tables of `state` MUST hold cycle
  /// `index - 1`. The other raw tables' sections are skipped without
  /// building rows, and decoding stops after the last requested section, so
  /// damage in a section the projection skips may go unnoticed. Tables
  /// outside `tables` and the derived tables (participants/sessions) are
  /// never touched; the router name and capture time always are.
  void apply_cycle(std::size_t index, Snapshot& state,
                   TableMask tables = kAllTables) const;

  /// Record payloads decoded since open (diagnostics: key-frame pruning and
  /// rollup short-circuits are provable as "this query decoded N records").
  [[nodiscard]] std::uint64_t records_decoded() const {
    return records_decoded_.load(std::memory_order_relaxed);
  }

  /// Reconstructs the full snapshot of cycle `index`: decode the nearest
  /// key-frame at or before it, then replay deltas (rolling derived fields
  /// forward by the inter-cycle gap, exactly as core/log reconstructs), and
  /// re-derive the participant/session tables. A query landing exactly on a
  /// key-frame decodes that single record — never the preceding delta run.
  [[nodiscard]] Snapshot snapshot(std::size_t index) const;

  /// Snapshot as of time `t` (the last cycle at or before it). Throws
  /// std::out_of_range when `t` precedes the first archived cycle.
  [[nodiscard]] Snapshot snapshot_at(sim::TimePoint t) const;

  /// Streams every cycle in order in O(total) — the replay path. The
  /// snapshot reference is only valid during the callback.
  void for_each(const std::function<void(std::size_t index, const Snapshot&,
                                         const ArchiveCycleMeta&)>& fn) const;

 private:
  struct IndexEntry {
    std::uint64_t payload_offset = 0;  ///< into the file, past the frame header
    std::uint32_t payload_size = 0;
    std::int64_t t_ms = 0;
    bool keyframe = false;
    std::uint32_t last_keyframe = 0;  ///< nearest key-frame index at or before
    ArchiveCycleMeta meta;
  };

  void decode_into(const IndexEntry& entry, Snapshot& state, bool& seeded,
                   TableMask tables = kAllTables) const;

  FramedLog log_;  ///< entire file contents and what opening it recovered
  std::vector<IndexEntry> index_;
  /// Decode counter only — never feeds back into results; relaxed updates
  /// keep const readers shareable across query threads.
  mutable std::atomic<std::uint64_t> records_decoded_{0};
};

struct CompactionOptions {
  int keyframe_interval = 96;  ///< key-frame interval of the rewritten file
  bool store_deltas = true;
  /// Retention horizon: cycles captured strictly before this instant are
  /// dropped from the rewritten archive.
  std::optional<sim::TimePoint> drop_before;
  /// Materialize per-hour/per-day rollups alongside the output (the `.mroll`
  /// sidecar core/query consults before touching raw deltas). Built in the
  /// same pass — a bucket straddling `drop_before` is re-aggregated from the
  /// surviving cycles only, so the sidecar never claims dropped data.
  bool write_rollups = true;
  /// Sender-classification threshold baked into the rollup usage metrics.
  double sender_threshold_kbps = kSenderThresholdKbps;
};

struct CompactionStats {
  std::size_t cycles_in = 0;
  std::size_t cycles_out = 0;
  std::size_t cycles_dropped = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  bool rollups_written = false;   ///< `.mroll` sidecar emitted next to output
  std::size_t rollup_hour_buckets = 0;
  std::size_t rollup_day_buckets = 0;
};

/// Rewrites `input_path` into `output_path` with a new key-frame interval,
/// dropping pre-horizon cycles. The input's torn tail (if any) is healed by
/// construction — only complete cycles are rewritten. By default the pass
/// also materializes the `.mroll` rollup sidecar for the output archive.
CompactionStats compact_archive(const std::string& input_path,
                                const std::string& output_path,
                                CompactionOptions options = {});

/// Offline analysis configuration — mirrors the processing half of the live
/// monitoring cycle (MantraConfig's processing knobs).
struct ReplayOptions {
  double sender_threshold_kbps = kSenderThresholdKbps;
  std::size_t spike_window = 48;
  double spike_k = 10.0;
};

/// The offline run: per-cycle results identical to what the live monitor
/// produced, plus the accumulated route statistics.
struct ReplayRun {
  std::vector<CycleResult> results;
  RouteMonitor route_monitor;
  std::size_t spike_regime_resets = 0;
};

/// The per-cycle half of the offline Data Processor, factored out so every
/// snapshot-producing walk — `replay_archive`'s sequential for_each and
/// core/query's cache-assisted scans — funnels raw cycles through the exact
/// same statements. Feed cycles in archive order; the produced CycleResults
/// match the live monitor's byte for byte on every field the archive
/// preserves.
class ReplayPipeline {
 public:
  explicit ReplayPipeline(ReplayOptions options = {});

  /// Pre-sizes the result vector (pass the reader's cycle count).
  void reserve(std::size_t cycles) { run_.results.reserve(cycles); }

  /// Processes the next cycle: derives participant/session tables, updates
  /// the route monitor and spike detector, appends one CycleResult.
  void observe(const Snapshot& raw, const ArchiveCycleMeta& meta);

  /// Moves the accumulated run out; the pipeline is spent afterwards.
  [[nodiscard]] ReplayRun finish();

 private:
  ReplayOptions options_;
  ReplayRun run_;
  SpikeDetector spike_detector_;
};

/// Runs the full Data Processor pipeline (UsageStats, DensityDistribution,
/// RouteMonitor, SpikeDetector) over an archive instead of a live run. With
/// the same processing options, the returned CycleResults match the live
/// monitor's byte for byte on every field the archive preserves.
[[nodiscard]] ReplayRun replay_archive(const ArchiveReader& reader,
                                       ReplayOptions options = {});

/// Extracts a TimeSeries from replayed (or live) cycle results — the offline
/// equivalent of Mantra::series().
[[nodiscard]] TimeSeries series_from(
    const std::vector<CycleResult>& results, std::string name,
    const std::function<double(const CycleResult&)>& extract);

}  // namespace mantra::core
