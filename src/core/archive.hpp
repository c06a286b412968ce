// Persistent snapshot archive (§III "Data Logger", taken to disk): Mantra's
// one key-frame/delta log of its tables (core/log only counts the bytes the
// paper's text log would take). Mantra's value in the paper came from six
// months of archived router state processed off-line into the Figs 3-9
// analyses; this module provides the capture-to-disk / analyse-later split
// that makes those long-running deployments possible.
//
// On-disk format: a framed log (core/framed) with magic "MARC", version 3,
// one frame per monitoring cycle. Every record carries the cycle's
// collection facts and its derived scalar answers (the CycleResult that
// derive_cycle returned) in front of its tables, which are either a
// key-frame (all four raw tables in full) or a delta (the existing
// PairTable::Delta / RouteTable::Delta / SaTable::Delta / MbgpTable::Delta
// types against the previous cycle). Row keys are encoded as differences
// against the previous row in table order, doubles as raw IEEE-754 bits, so
// reconstruction is bit-exact for every stored field. Derived tables
// (participants, sessions) are never stored — redundancy avoidance — and
// are re-derived on read; the scalar answers are stored, so
// replay, rollups and raw queries read them instead of deriving them again.
//
// Crash safety is the framed log's: a torn or corrupt tail loses at most
// the records from the damage on, and ArchiveReader reports the loss in
// RecoveryInfo.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/framed.hpp"
#include "core/output.hpp"
#include "core/process.hpp"
#include "core/tables.hpp"
#include "core/telemetry.hpp"

namespace mantra::core {

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

  /// Appends one monitoring cycle with its result (derive_cycle's answer
  /// for `snapshot`, collection facts included). Key-frame/delta selection
  /// follows the configured interval; the first record is always a
  /// key-frame.
  ///
  /// `previous` is the delta base: the snapshot this writer appended last
  /// (any snapshot before the first append). The writer keeps no copy of
  /// it, only the last record's time and four row counts; a delta whose
  /// `previous` does not match them throws std::logic_error and writes
  /// nothing. Key-frames do not read `previous`.
  void append(const Snapshot& snapshot, const Snapshot& previous,
              const CycleResult& result);

  /// Appends one monitoring cycle from its tables and collection facts
  /// alone: the writer runs derive_cycle itself, with the default
  /// processing configuration and a carry that has seen every cycle this
  /// writer appended this way, and keeps one copy of the last appended
  /// tables, both the delta base and the derivation's previous snapshot.
  /// Do not mix this form with the one above on one writer.
  void append(const Snapshot& snapshot, const ArchiveCycleMeta& meta = {});

  /// Flushes buffered data to the OS and (on POSIX) to stable storage.
  void sync();

  /// Flushes and closes the file; further appends throw. Idempotent.
  void close();

  /// Attaches a telemetry sink recording record mix, bytes, fsync count and
  /// fsync wall duration under `label` (the target name), and drops the
  /// cached metric handles. Never pass null — use Telemetry::noop() to
  /// detach.
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
  /// What the delta guard knows of the last record: its time and the row
  /// counts of its four raw tables.
  struct RecordShape {
    sim::TimePoint captured;
    std::size_t pairs = 0;
    std::size_t routes = 0;
    std::size_t sa_cache = 0;
    std::size_t mbgp_routes = 0;

    [[nodiscard]] static RecordShape of(const Snapshot& snapshot);
    bool operator==(const RecordShape&) const = default;
  };
  /// The meta-only append's own state: its derivation carry and its copy
  /// of the last appended tables, both the delta base and derive_cycle's
  /// previous snapshot (the carry keeps only that cycle's route stats).
  struct SelfDerived {
    CycleCarry carry;
    Snapshot previous;
  };

  ArchiveOptions options_;
  FramedLogWriter log_;
  std::optional<RecordShape> last_;  ///< empty until the first append
  std::unique_ptr<SelfDerived> self_derived_;  ///< null unless the meta form ran
  Telemetry* telemetry_ = &Telemetry::noop();
  std::string telemetry_label_;
  TelemetryStage* stage_ = nullptr;
  /// Metric handles, each looked up the first time the writer records into
  /// it.
  struct Handles {
    std::array<Counter*, 2> records{};  ///< key-frame, delta
    Counter* bytes = nullptr;
    Counter* fsyncs = nullptr;
    Histogram* fsync_seconds = nullptr;
  } handles_;
};

/// Random-access reader over an archive file with a time-range index.
/// Opening scans the framing once, validates every CRC, decodes every
/// record's collection facts and stored result into the index, and truncates
/// a torn tail per the recovery semantics above; tables decode on demand.
class ArchiveReader {
 public:
  /// Throws std::runtime_error on a missing file or bad header (a version
  /// other than 3 included). A damaged tail is NOT an error — it is reported
  /// through recovery().
  explicit ArchiveReader(const std::string& path);

  [[nodiscard]] std::size_t size() const { return index_.size(); }
  [[nodiscard]] bool empty() const { return index_.empty(); }
  /// Bytes of the file actually indexed (excludes a dropped torn tail).
  [[nodiscard]] std::uint64_t indexed_bytes() const { return log_.indexed_bytes; }
  [[nodiscard]] const RecoveryInfo& recovery() const { return log_.recovery; }

  [[nodiscard]] sim::TimePoint time_at(std::size_t index) const;
  [[nodiscard]] ArchiveCycleMeta meta_at(std::size_t index) const;
  /// The CycleResult stored with cycle `index`: what the writer's
  /// derive_cycle returned, read from the index without decoding a table.
  [[nodiscard]] const CycleResult& result_at(std::size_t index) const;
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

  /// Single-record table decode: applies record `index` to the raw tables
  /// of `state`. A key-frame replaces them outright (`state` may be empty);
  /// a delta rolls their derived fields forward and applies the changes, so
  /// for deltas `state` MUST hold cycle `index - 1`. The derived tables
  /// (participants/sessions) are never touched.
  void apply_cycle(std::size_t index, Snapshot& state) const;

  /// Record tables decoded since open (diagnostics: a query that reads only
  /// the index is provable as "this query decoded 0 records").
  [[nodiscard]] std::uint64_t records_decoded() const {
    return records_decoded_.load(std::memory_order_relaxed);
  }

  /// Reconstructs the full snapshot of cycle `index`: decode the nearest
  /// key-frame at or before it, then replay deltas (rolling derived fields
  /// forward by the inter-cycle gap), and re-derive the participant/session
  /// tables. A query landing exactly on a
  /// key-frame decodes that single record — never the preceding delta run.
  [[nodiscard]] Snapshot snapshot(std::size_t index) const;

  /// Snapshot as of time `t` (the last cycle at or before it). Throws
  /// std::out_of_range when `t` precedes the first archived cycle.
  [[nodiscard]] Snapshot snapshot_at(sim::TimePoint t) const;

  /// Streams every cycle's raw tables in order in O(total) — compaction's
  /// path. The snapshot reference is only valid during the callback.
  void for_each(const std::function<void(std::size_t index, const Snapshot&,
                                         const ArchiveCycleMeta&)>& fn) const;

 private:
  struct IndexEntry {
    std::uint64_t payload_offset = 0;  ///< into the file, past the frame header
    std::uint32_t payload_size = 0;
    std::uint32_t tables_offset = 0;  ///< into the payload, past the result
    std::uint32_t last_keyframe = 0;  ///< nearest key-frame index at or before
    bool keyframe = false;
    CycleResult result;  ///< collection facts and stored values; t is the key
  };

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
  /// sidecar core/query consults for unfiltered coarse queries). Folded from
  /// the stored results in the same pass — a bucket straddling
  /// `drop_before` is re-aggregated from the surviving cycles only, so the
  /// sidecar never claims dropped data.
  bool write_rollups = true;
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
/// dropping pre-horizon cycles. Every kept cycle's stored result is copied
/// through unchanged, so the first kept cycle still reports the
/// route_changes and spike verdict the live monitor reported. The input's
/// torn tail (if any) is healed by construction — only complete cycles are
/// rewritten. By default the pass also materializes the `.mroll` rollup
/// sidecar for the output archive.
CompactionStats compact_archive(const std::string& input_path,
                                const std::string& output_path,
                                CompactionOptions options = {});

/// The offline run: the per-cycle results the live monitor produced.
struct ReplayRun {
  std::vector<CycleResult> results;
};

/// The offline Data Processor: every cycle's stored CycleResult, in archive
/// order, read from the index without decoding a table. Equal to what the
/// live monitor produced, field for field.
[[nodiscard]] ReplayRun replay_archive(const ArchiveReader& reader);

/// Extracts a TimeSeries from replayed (or live) cycle results — the offline
/// equivalent of Mantra::series().
[[nodiscard]] TimeSeries series_from(
    const std::vector<CycleResult>& results, std::string name,
    const std::function<double(const CycleResult&)>& extract);

}  // namespace mantra::core
