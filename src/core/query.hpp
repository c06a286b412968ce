// Read-optimized serving layer over the `.marc` archives. The `.marc`
// format (core/archive) is write-optimized: one append per cycle, deltas
// against the previous cycle, key-frames every N cycles. The paper's
// "millions of users" are *readers* of that history — dashboards and API
// queries asking "sessions for target X between t1 and t2, downsampled per
// hour" — and a reader population scales independently of the capture rate
// only if questions never touch the raw delta stream (contrail's
// opserver/database split: collection and query are separate engines over
// one store). Two layers make that true:
//
//   * QueryEngine — time-range scans with predicate pushdown. A query names
//     a target, a metric, a range and optional filters (min/max value,
//     exclude-stale, exclude-failed). Every archived record stores the
//     CycleResult the live cycle derived, and the reader holds those in its
//     index, so a raw-resolution scan is an index walk: a binary search to
//     the range, then one CycleResult field per cycle. No table is decoded
//     and nothing is derived again, for any of the 15 metrics.
//   * Materialized rollups — per-hour and per-day {count,min,max,sum,last}
//     aggregates of every metric, folded from the stored results at
//     `compact_archive` time (or explicitly via build_rollups) and persisted
//     as a `.mroll` sidecar next to the archive. An unfiltered coarse query
//     is answered from the sidecar, at a cost proportional to the bucket
//     count, not the capture rate. A sidecar is consulted only when its
//     fingerprint (cycle count, first/last timestamps, indexed bytes)
//     matches the archive — a stale sidecar (e.g. next to a re-compacted
//     file) is ignored, never trusted.
//
// BlockCache, a sharded LRU cache over decoded key-frame snapshots, is kept
// with its counters for the serving benchmark; no query path reads it.
//
// The first client is the existing report renderer: QueryEngine::replay
// returns the stored results, so `archive_replay --report-out=` through the
// query engine renders the byte-identical report the live monitor writes.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/archive.hpp"
#include "core/telemetry.hpp"

namespace mantra::core {

// --- Metrics ---------------------------------------------------------------

/// Per-cycle scalars the serving layer answers questions about: each is one
/// field of the cycle's stored CycleResult.
enum class QueryMetric : std::uint8_t {
  sessions = 0,
  participants,
  active_sessions,
  senders,
  bandwidth_kbps,
  unicast_equivalent_kbps,
  dvmrp_routes,
  dvmrp_valid_routes,
  route_changes,
  sa_entries,
  mbgp_routes,
  parse_warnings,
  stale,                    ///< 1.0 when the cycle carried stale tables
  collection_failures,
  collection_latency_ms,
};
inline constexpr std::size_t kQueryMetricCount = 15;

[[nodiscard]] const char* to_string(QueryMetric metric);

/// The value of `metric` in one cycle's result.
[[nodiscard]] double metric_value(QueryMetric metric, const CycleResult& result);

enum class QueryResolution : std::uint8_t {
  raw,   ///< one point per archived cycle
  hour,  ///< one point per hour bucket (aggregate chosen below)
  day,
};

enum class QueryAggregate : std::uint8_t { last, min, max, mean, sum, count };

inline constexpr std::int64_t kHourMs = 3'600'000;
inline constexpr std::int64_t kDayMs = 86'400'000;

/// Start of the `width`-wide bucket holding `t_ms`: floor division, so
/// negative times land in the bucket below, not the one towards zero.
[[nodiscard]] std::int64_t bucket_floor(std::int64_t t_ms, std::int64_t width);

// --- Rollup sidecar --------------------------------------------------------

/// One value's aggregate over one bucket, shared by the `.mroll` rollups and
/// by the raw scans (`.marc` and `.mtel`) that must reproduce them bit for
/// bit. The value count lives on the bucket.
struct MetricRollup {
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  double last = 0.0;

  /// Folds the bucket's next value in arrival order; `first` starts it.
  void add(double value, bool first);
  /// The bucket's answer to `aggregate` over `count` folded values.
  [[nodiscard]] double value(QueryAggregate aggregate, std::uint32_t count) const;

  friend bool operator==(const MetricRollup&, const MetricRollup&) = default;
};

struct RollupBucket {
  std::int64_t start_ms = 0;        ///< bucket-aligned (hour/day since t=0)
  std::uint32_t cycles = 0;
  std::uint32_t stale_cycles = 0;
  std::uint32_t failure_cycles = 0;
  std::array<MetricRollup, kQueryMetricCount> metrics{};

  friend bool operator==(const RollupBucket&, const RollupBucket&) = default;
};

struct RollupSidecar {
  SidecarFingerprint source;  ///< the `.marc` it summarizes (records = cycles)
  std::vector<RollupBucket> hourly;  ///< ascending start_ms, gaps allowed
  std::vector<RollupBucket> daily;
};

/// Streaming rollup accumulator: feed stored cycle results in archive
/// order, collect the sidecar at the end.
class RollupBuilder {
 public:
  void observe(const CycleResult& result);

  /// Finalizes open buckets and returns the sidecar stamped with
  /// `fingerprint`. The builder is spent afterwards.
  [[nodiscard]] RollupSidecar finish(SidecarFingerprint fingerprint);

 private:
  std::map<std::int64_t, RollupBucket> hourly_;
  std::map<std::int64_t, RollupBucket> daily_;
};

/// The fingerprint an up-to-date sidecar for `reader` must carry.
[[nodiscard]] SidecarFingerprint fingerprint_of(const ArchiveReader& reader);

/// Builds rollups for an existing archive from its stored results (the
/// compaction-time path is RollupBuilder inside compact_archive).
[[nodiscard]] RollupSidecar build_rollups(const ArchiveReader& reader);

/// `<dir>/<stem>.mroll` next to `<dir>/<stem>.marc` (any other extension is
/// replaced the same way; a bare name gains `.mroll`).
[[nodiscard]] std::string rollup_path_for(const std::string& archive_path);

/// Writes the sidecar (the core/framed envelope, magic "MRLL"). False on I/O
/// failure, never throws.
bool write_rollup_sidecar(const std::string& path, const RollupSidecar& sidecar);

/// Loads a sidecar; nullopt on a missing file, bad magic/version, CRC
/// mismatch or undecodable payload (a damaged sidecar is simply absent —
/// the raw archive remains the source of truth).
[[nodiscard]] std::optional<RollupSidecar> load_rollup_sidecar(
    const std::string& path);

// --- Block cache -----------------------------------------------------------

/// Approximate heap footprint of a decoded block (tables + strings), the
/// unit the cache's byte budget is charged in.
[[nodiscard]] std::size_t approx_block_bytes(const Snapshot& block);

/// Sharded LRU cache over decoded key-frame snapshots, keyed by
/// (source id, record index). Lookups hand out shared_ptr<const Snapshot>,
/// so an entry evicted mid-use stays alive for the reader holding it.
/// Thread safety: one mutex per shard (keys hash-distributed), counters are
/// relaxed atomics; proven clean under the tsan preset by the cache hammer
/// test. Capacity is bytes across all shards; each shard evicts its own LRU
/// tail past capacity/shards. set_telemetry is not thread-safe — wire it
/// before concurrent use.
class BlockCache {
 public:
  explicit BlockCache(std::size_t capacity_bytes = kDefaultCapacityBytes,
                      std::size_t shard_count = 8);

  static constexpr std::size_t kDefaultCapacityBytes = 64u << 20;

  [[nodiscard]] std::shared_ptr<const Snapshot> get(std::uint64_t key);

  /// Inserts (or replaces) `block` under `key` and returns the shared
  /// handle. The newest entry is never evicted by its own insertion, even
  /// when it alone exceeds the shard budget — the next insertion will push
  /// it out.
  std::shared_ptr<const Snapshot> insert(std::uint64_t key, Snapshot block);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t insertions = 0;
    std::uint64_t bytes = 0;    ///< resident bytes across shards
    std::size_t entries = 0;    ///< resident blocks across shards
    [[nodiscard]] double hit_rate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] std::size_t capacity_bytes() const { return capacity_; }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  /// Mirrors hit/miss/eviction counters into `mantra_query_cache_*_total`
  /// under `label`. Never pass null — use Telemetry::noop() to detach.
  void set_telemetry(Telemetry* telemetry, std::string label);

 private:
  struct Entry {
    std::shared_ptr<const Snapshot> block;
    std::size_t bytes = 0;
    std::list<std::uint64_t>::iterator lru_it;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::map<std::uint64_t, Entry> entries;
    std::list<std::uint64_t> lru;  ///< front = most recently used
    std::uint64_t bytes = 0;
  };

  Shard& shard_for(std::uint64_t key);

  std::size_t capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::string telemetry_label_;
  // Cached registry handles (stable for the registry's lifetime) so the hot
  // path never takes the registry's handle-lookup mutex. Null = unwired.
  Counter* hit_counter_ = nullptr;
  Counter* miss_counter_ = nullptr;
  Counter* eviction_counter_ = nullptr;
};

// --- Queries ---------------------------------------------------------------

/// One question. Range semantics: cycles with from <= t <= to participate;
/// for hour/day resolution the range snaps outward to whole buckets (every
/// bucket that intersects [from, to] is aggregated over ALL its cycles), so
/// a rollup-served answer and a raw-scanned answer are identical by
/// construction. Filters (min/max value, exclude stale/failed) apply per
/// cycle BEFORE aggregation — which is why a filtered coarse query cannot
/// be served from rollups and falls back to the raw scan.
struct Query {
  std::string target;
  QueryMetric metric = QueryMetric::sessions;
  sim::TimePoint from = sim::TimePoint::start();
  sim::TimePoint to = sim::TimePoint::from_ms(std::int64_t{1} << 62);
  QueryResolution resolution = QueryResolution::raw;
  QueryAggregate aggregate = QueryAggregate::last;  ///< ignored for raw
  std::optional<double> min_value;  ///< keep cycles with value >= min
  std::optional<double> max_value;  ///< keep cycles with value <= max
  bool include_stale = true;        ///< false: drop stale-table cycles
  bool include_failed = true;       ///< false: drop cycles with capture failures
  bool allow_rollup = true;         ///< false: force the raw-scan path (bench)
};

struct QueryPoint {
  sim::TimePoint t;           ///< cycle time (raw) or bucket start (coarse)
  double value = 0.0;
  std::uint32_t samples = 1;  ///< cycles that contributed (post-filter)
};

struct QueryResult {
  std::vector<QueryPoint> points;
  bool from_rollup = false;        ///< answered from the `.mroll` sidecar
  /// Archive records decoded by this query: 0 for every `.marc` query,
  /// which reads only the reader's index (a `.mtel` scan counts samples).
  std::uint64_t records_decoded = 0;
  std::uint64_t rollup_buckets = 0;    ///< sidecar buckets consulted
};

/// A query's time range in milliseconds. At hour/day resolution it snaps
/// outward to whole buckets: every bucket intersecting [from, to] counts
/// all of its records, so rollup-served and raw-scanned answers agree by
/// construction. Empty when from > to.
struct QueryWindow {
  std::int64_t from_ms = 0;
  std::int64_t to_ms = 0;
  std::int64_t width = 0;  ///< bucket width; 0 at raw resolution
};
[[nodiscard]] QueryWindow query_window(sim::TimePoint from, sim::TimePoint to,
                                       QueryResolution resolution);

/// The raw-scan side of a query: takes (time, value) in time order and emits
/// one point per record at raw resolution, or one aggregated point per
/// bucket, folded with the same MetricRollup arithmetic the rollup builders
/// use.
class PointFolder {
 public:
  PointFolder(const QueryWindow& window, QueryAggregate aggregate,
              std::vector<QueryPoint>& out)
      : width_(window.width), aggregate_(aggregate), out_(out) {}

  void add(std::int64_t t_ms, double value);
  /// Emits the open bucket; call once after the last add.
  void finish();

 private:
  std::int64_t width_;
  QueryAggregate aggregate_;
  std::vector<QueryPoint>& out_;
  MetricRollup bucket_;
  std::int64_t bucket_start_ = 0;
  std::uint32_t bucket_count_ = 0;
};

struct QueryEngineOptions {
  std::size_t cache_bytes = BlockCache::kDefaultCapacityBytes;
  std::size_t cache_shards = 8;
};

/// The serving engine: one or more archives (one per target) and their
/// rollup sidecars. add_archive is setup-phase; run/replay are const and
/// safe to call from many threads concurrently.
class QueryEngine {
 public:
  explicit QueryEngine(QueryEngineOptions options = {});

  /// Opens `<path>` under `target` and attaches `<path>`'s `.mroll` sidecar
  /// when present and fingerprint-matched (a stale or damaged sidecar is
  /// counted and ignored). Throws what ArchiveReader throws.
  void add_archive(std::string target, const std::string& path);

  [[nodiscard]] std::vector<std::string> targets() const;
  /// nullptr when `target` was never added.
  [[nodiscard]] const ArchiveReader* reader(const std::string& target) const;
  [[nodiscard]] bool has_rollups(const std::string& target) const;

  /// Answers one query. Throws std::invalid_argument for an unknown target.
  [[nodiscard]] QueryResult run(const Query& query) const;

  /// Full-fidelity replay of one target — the report renderer's path: the
  /// stored results, equal to replay_archive on the same file.
  [[nodiscard]] ReplayRun replay(const std::string& target) const;

  /// The engine's block cache. No query or replay reads it, so its
  /// counters stay at zero; it leaves together with the serving benchmark's
  /// cache metrics.
  [[nodiscard]] BlockCache& cache() { return cache_; }
  [[nodiscard]] const BlockCache& cache() const { return cache_; }

  /// Sidecars rejected at add_archive time (stale fingerprint or damage).
  [[nodiscard]] std::size_t rollups_rejected() const { return rollups_rejected_; }

  /// Wires query/cache counters (`mantra_query_*`) under `label`.
  void set_telemetry(Telemetry* telemetry, std::string label);

 private:
  struct Source {
    std::string name;
    std::unique_ptr<ArchiveReader> reader;
    std::optional<RollupSidecar> rollups;
  };

  [[nodiscard]] const Source* find(const std::string& target) const;
  [[nodiscard]] QueryResult run_rollup(const Source& source, const Query& query,
                                       const QueryWindow& window) const;
  [[nodiscard]] QueryResult run_raw(const Source& source, const Query& query,
                                    const QueryWindow& window) const;

  QueryEngineOptions options_;
  std::vector<std::unique_ptr<Source>> sources_;
  BlockCache cache_;
  std::size_t rollups_rejected_ = 0;
  std::string telemetry_label_;
  Counter* query_counter_ = nullptr;         ///< mantra_query_runs_total
  Counter* rollup_served_counter_ = nullptr; ///< mantra_query_rollup_served_total
};

}  // namespace mantra::core
