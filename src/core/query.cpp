#include "core/query.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

#include "core/codec.hpp"

namespace mantra::core {
namespace {

using codec::Cursor;
using codec::put_f64;
using codec::put_svarint;
using codec::put_varint;

// 'M' 'R' 'L' 'L' little-endian, the sidecar's counterpart of "MARC".
constexpr SidecarFormat kRollupFormat{0x4C4C524Du, 1, ".mroll"};

// --- Per-cycle metric values ------------------------------------------------
//
// These little extractors are THE definition of every metric, shared by the
// rollup builder (all metrics per cycle) and the raw scan (one metric with
// derivation pushdown) — rollup-served and raw-scanned answers agree because
// they literally run the same statements. The usage formulas mirror
// compute_usage (core/process) so query answers match the report's numbers.

double sum_pair_kbps(const PairTable& pairs) {
  double total = 0.0;
  pairs.visit([&](const PairRow& pair) { total += pair.current_kbps; });
  return total;
}

std::size_t count_active_sessions(const SessionTable& sessions) {
  std::size_t active = 0;
  sessions.visit([&](const SessionRow& session) {
    if (session.active) ++active;
  });
  return active;
}

double unicast_equivalent(const SessionTable& sessions) {
  double total = 0.0;
  sessions.visit([&](const SessionRow& session) {
    if (session.active) total += session.density * session.total_kbps;
  });
  return total;
}

std::size_t count_senders(const ParticipantTable& participants) {
  std::size_t senders = 0;
  participants.visit([&](const ParticipantRow& participant) {
    if (participant.sender) ++senders;
  });
  return senders;
}

std::size_t count_valid_routes(const RouteTable& routes) {
  std::size_t valid = 0;
  routes.visit([&](const RouteRow& route) {
    if (!route.holddown) ++valid;
  });
  return valid;
}

/// One metric for one cycle. `sessions`/`participants` are consulted only
/// for the metrics that need them (pass empty tables otherwise);
/// `route_changes` is the precomputed diff count against the previous cycle.
double metric_value(QueryMetric metric, const Snapshot& raw,
                    const ArchiveCycleMeta& meta, const SessionTable& sessions,
                    const ParticipantTable& participants,
                    std::size_t route_changes) {
  switch (metric) {
    case QueryMetric::sessions:
      return static_cast<double>(sessions.size());
    case QueryMetric::participants:
      return static_cast<double>(participants.size());
    case QueryMetric::active_sessions:
      return static_cast<double>(count_active_sessions(sessions));
    case QueryMetric::senders:
      return static_cast<double>(count_senders(participants));
    case QueryMetric::bandwidth_kbps:
      return sum_pair_kbps(raw.pairs);
    case QueryMetric::unicast_equivalent_kbps:
      return unicast_equivalent(sessions);
    case QueryMetric::dvmrp_routes:
      return static_cast<double>(raw.routes.size());
    case QueryMetric::dvmrp_valid_routes:
      return static_cast<double>(count_valid_routes(raw.routes));
    case QueryMetric::route_changes:
      return static_cast<double>(route_changes);
    case QueryMetric::sa_entries:
      return static_cast<double>(raw.sa_cache.size());
    case QueryMetric::mbgp_routes:
      return static_cast<double>(raw.mbgp_routes.size());
    case QueryMetric::parse_warnings:
      return static_cast<double>(meta.parse_warnings);
    case QueryMetric::stale:
      return meta.stale ? 1.0 : 0.0;
    case QueryMetric::collection_failures:
      return static_cast<double>(meta.collection_failures);
    case QueryMetric::collection_latency_ms:
      return static_cast<double>(meta.collection_latency.total_ms());
  }
  return 0.0;  // unreachable: the switch is exhaustive
}

/// What one metric reads from an archived cycle: the raw tables a raw scan
/// decodes and the derivations it runs on them. A metric that reads no
/// table is answered from the reader's index (meta_at/time_at) alone.
struct MetricNeeds {
  TableMask tables = 0;
  bool sessions = false;
  bool participants = false;
};

/// Indexed by QueryMetric; must agree with metric_value above.
constexpr std::array<MetricNeeds, kQueryMetricCount> kMetricNeeds = {{
    {kPairsTable, true, false},    // sessions
    {kPairsTable, false, true},    // participants
    {kPairsTable, true, false},    // active_sessions
    {kPairsTable, false, true},    // senders
    {kPairsTable, false, false},   // bandwidth_kbps
    {kPairsTable, true, false},    // unicast_equivalent_kbps
    {kRoutesTable, false, false},  // dvmrp_routes
    {kRoutesTable, false, false},  // dvmrp_valid_routes
    {kRoutesTable, false, false},  // route_changes
    {kSaTable, false, false},      // sa_entries
    {kMbgpTable, false, false},    // mbgp_routes
    {},                            // parse_warnings
    {},                            // stale
    {},                            // collection_failures
    {},                            // collection_latency_ms
}};

/// Copies the `tables` of a cached key-frame (and its name and time) into
/// the scan state, leaving the other tables alone.
void copy_tables(const Snapshot& block, TableMask tables, Snapshot& state) {
  state.router_name = block.router_name;
  state.captured = block.captured;
  if ((tables & kPairsTable) != 0) state.pairs = block.pairs;
  if ((tables & kRoutesTable) != 0) state.routes = block.routes;
  if ((tables & kSaTable) != 0) state.sa_cache = block.sa_cache;
  if ((tables & kMbgpTable) != 0) state.mbgp_routes = block.mbgp_routes;
}

}  // namespace

// --- Buckets ----------------------------------------------------------------

std::int64_t bucket_floor(std::int64_t t_ms, std::int64_t width) {
  std::int64_t q = t_ms / width;
  if (t_ms % width != 0 && t_ms < 0) --q;  // floor, not truncation
  return q * width;
}

void MetricRollup::add(double value, bool first) {
  if (first) {
    min = max = sum = last = value;
    return;
  }
  min = std::min(min, value);
  max = std::max(max, value);
  sum += value;
  last = value;
}

double MetricRollup::value(QueryAggregate aggregate, std::uint32_t count) const {
  switch (aggregate) {
    case QueryAggregate::last:
      return last;
    case QueryAggregate::min:
      return min;
    case QueryAggregate::max:
      return max;
    case QueryAggregate::mean:
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    case QueryAggregate::sum:
      return sum;
    case QueryAggregate::count:
      return static_cast<double>(count);
  }
  return 0.0;  // unreachable: the switch is exhaustive
}

QueryWindow query_window(sim::TimePoint from, sim::TimePoint to,
                         QueryResolution resolution) {
  QueryWindow window{from.total_ms(), to.total_ms(), 0};
  if (resolution != QueryResolution::raw) {
    window.width = resolution == QueryResolution::hour ? kHourMs : kDayMs;
    window.from_ms = bucket_floor(window.from_ms, window.width);
    window.to_ms = bucket_floor(window.to_ms, window.width) + window.width - 1;
  }
  return window;
}

void PointFolder::add(std::int64_t t_ms, double value) {
  if (width_ == 0) {
    out_.push_back({sim::TimePoint::from_ms(t_ms), value, 1});
    return;
  }
  const std::int64_t start = bucket_floor(t_ms, width_);
  if (bucket_count_ > 0 && start != bucket_start_) finish();
  bucket_start_ = start;
  bucket_.add(value, bucket_count_ == 0);
  ++bucket_count_;
}

void PointFolder::finish() {
  if (bucket_count_ == 0) return;
  out_.push_back({sim::TimePoint::from_ms(bucket_start_),
                  bucket_.value(aggregate_, bucket_count_), bucket_count_});
  bucket_count_ = 0;
}

const char* to_string(QueryMetric metric) {
  switch (metric) {
    case QueryMetric::sessions: return "sessions";
    case QueryMetric::participants: return "participants";
    case QueryMetric::active_sessions: return "active_sessions";
    case QueryMetric::senders: return "senders";
    case QueryMetric::bandwidth_kbps: return "bandwidth_kbps";
    case QueryMetric::unicast_equivalent_kbps: return "unicast_equivalent_kbps";
    case QueryMetric::dvmrp_routes: return "dvmrp_routes";
    case QueryMetric::dvmrp_valid_routes: return "dvmrp_valid_routes";
    case QueryMetric::route_changes: return "route_changes";
    case QueryMetric::sa_entries: return "sa_entries";
    case QueryMetric::mbgp_routes: return "mbgp_routes";
    case QueryMetric::parse_warnings: return "parse_warnings";
    case QueryMetric::stale: return "stale";
    case QueryMetric::collection_failures: return "collection_failures";
    case QueryMetric::collection_latency_ms: return "collection_latency_ms";
  }
  return "unknown";
}

// --- RollupBuilder ----------------------------------------------------------

struct RollupBuilder::Impl {
  double threshold;
  // Reused scratch: deriving into cleared-but-capacious tables keeps the
  // compaction pass allocation-free at steady state, like the live cycle.
  ParticipantTable participants;
  SessionTable sessions;
  RouteTable previous_routes;
  bool have_previous = false;
  std::map<std::int64_t, RollupBucket> hourly;
  std::map<std::int64_t, RollupBucket> daily;

  explicit Impl(double threshold_kbps) : threshold(threshold_kbps) {}

  void fold(std::map<std::int64_t, RollupBucket>& buckets,
            std::int64_t bucket_width, std::int64_t t_ms,
            const std::array<double, kQueryMetricCount>& values, bool stale,
            bool failed) {
    const std::int64_t start = bucket_floor(t_ms, bucket_width);
    RollupBucket& bucket = buckets[start];
    bucket.start_ms = start;
    for (std::size_t m = 0; m < kQueryMetricCount; ++m) {
      bucket.metrics[m].add(values[m], bucket.cycles == 0);
    }
    ++bucket.cycles;
    if (stale) ++bucket.stale_cycles;
    if (failed) ++bucket.failure_cycles;
  }
};

RollupBuilder::RollupBuilder(double sender_threshold_kbps)
    : impl_(std::make_unique<Impl>(sender_threshold_kbps)) {}

RollupBuilder::~RollupBuilder() = default;

void RollupBuilder::observe(const Snapshot& raw, const ArchiveCycleMeta& meta) {
  Impl& impl = *impl_;
  derive_sessions_into(raw.pairs, impl.threshold, impl.sessions);
  derive_participants_into(raw.pairs, impl.threshold, impl.participants);
  // Same convention as RouteMonitor: the first observed cycle has no
  // predecessor, so its change count is zero.
  const std::size_t route_changes =
      impl.have_previous
          ? RouteTable::diff(impl.previous_routes, raw.routes).change_count()
          : 0;
  impl.previous_routes = raw.routes;
  impl.have_previous = true;

  std::array<double, kQueryMetricCount> values{};
  for (std::size_t m = 0; m < kQueryMetricCount; ++m) {
    values[m] = metric_value(static_cast<QueryMetric>(m), raw, meta,
                             impl.sessions, impl.participants, route_changes);
  }
  const std::int64_t t_ms = raw.captured.total_ms();
  const bool failed = meta.collection_failures > 0;
  impl.fold(impl.hourly, kHourMs, t_ms, values, meta.stale, failed);
  impl.fold(impl.daily, kDayMs, t_ms, values, meta.stale, failed);
}

RollupSidecar RollupBuilder::finish(SidecarFingerprint fingerprint) {
  RollupSidecar sidecar;
  sidecar.source = fingerprint;
  sidecar.hourly.reserve(impl_->hourly.size());
  for (auto& [start, bucket] : impl_->hourly) sidecar.hourly.push_back(bucket);
  sidecar.daily.reserve(impl_->daily.size());
  for (auto& [start, bucket] : impl_->daily) sidecar.daily.push_back(bucket);
  impl_->hourly.clear();
  impl_->daily.clear();
  return sidecar;
}

SidecarFingerprint fingerprint_of(const ArchiveReader& reader) {
  SidecarFingerprint fingerprint;
  fingerprint.records = reader.size();
  if (!reader.empty()) {
    fingerprint.first_ms = reader.first_time().total_ms();
    fingerprint.last_ms = reader.last_time().total_ms();
  }
  fingerprint.indexed_bytes = reader.indexed_bytes();
  return fingerprint;
}

RollupSidecar build_rollups(const ArchiveReader& reader,
                            double sender_threshold_kbps) {
  RollupBuilder builder(sender_threshold_kbps);
  reader.for_each([&](std::size_t, const Snapshot& raw,
                      const ArchiveCycleMeta& meta) { builder.observe(raw, meta); });
  return builder.finish(fingerprint_of(reader));
}

std::string rollup_path_for(const std::string& archive_path) {
  return sidecar_path_for(archive_path, kRollupFormat);
}

namespace {

void put_bucket(std::string& out, const RollupBucket& bucket) {
  put_svarint(out, bucket.start_ms);
  put_varint(out, bucket.cycles);
  put_varint(out, bucket.stale_cycles);
  put_varint(out, bucket.failure_cycles);
  for (const MetricRollup& rollup : bucket.metrics) {
    put_f64(out, rollup.min);
    put_f64(out, rollup.max);
    put_f64(out, rollup.sum);
    put_f64(out, rollup.last);
  }
}

RollupBucket read_bucket(Cursor& cursor) {
  RollupBucket bucket;
  bucket.start_ms = cursor.svarint();
  bucket.cycles = static_cast<std::uint32_t>(cursor.varint());
  bucket.stale_cycles = static_cast<std::uint32_t>(cursor.varint());
  bucket.failure_cycles = static_cast<std::uint32_t>(cursor.varint());
  for (MetricRollup& rollup : bucket.metrics) {
    rollup.min = cursor.f64();
    rollup.max = cursor.f64();
    rollup.sum = cursor.f64();
    rollup.last = cursor.f64();
  }
  return bucket;
}

}  // namespace

bool write_rollup_sidecar(const std::string& path, const RollupSidecar& sidecar) {
  std::string body;
  // Metric count is part of the contract: a sidecar written by a build with
  // a different metric set must be rejected, not misinterpreted.
  put_varint(body, kQueryMetricCount);
  put_varint(body, sidecar.hourly.size());
  for (const RollupBucket& bucket : sidecar.hourly) put_bucket(body, bucket);
  put_varint(body, sidecar.daily.size());
  for (const RollupBucket& bucket : sidecar.daily) put_bucket(body, bucket);
  return write_sidecar(path, kRollupFormat, sidecar.source, body);
}

std::optional<RollupSidecar> load_rollup_sidecar(const std::string& path) {
  RollupSidecar sidecar;
  const bool loaded = load_sidecar(path, kRollupFormat, sidecar.source, [&](Cursor& body) {
    if (body.varint() != kQueryMetricCount) {
      throw std::runtime_error("rollup sidecar metric set differs");
    }
    for (std::vector<RollupBucket>* buckets : {&sidecar.hourly, &sidecar.daily}) {
      const std::uint64_t count = body.varint();
      buckets->reserve(count);
      for (std::uint64_t i = 0; i < count; ++i) buckets->push_back(read_bucket(body));
    }
  });
  if (!loaded) return std::nullopt;
  return sidecar;
}

// --- BlockCache -------------------------------------------------------------

std::size_t approx_block_bytes(const Snapshot& block) {
  std::size_t bytes = sizeof(Snapshot) + block.router_name.size();
  bytes += block.pairs.size() * sizeof(PairRow);
  bytes += block.routes.size() * sizeof(RouteRow);
  block.routes.visit(
      [&](const RouteRow& route) { bytes += route.interface.size(); });
  bytes += block.sa_cache.size() * sizeof(SaRow);
  bytes += block.mbgp_routes.size() * sizeof(MbgpRow);
  block.mbgp_routes.visit(
      [&](const MbgpRow& route) { bytes += route.as_path.size(); });
  bytes += block.participants.size() * sizeof(ParticipantRow);
  block.participants.visit(
      [&](const ParticipantRow& p) { bytes += p.hostname.size(); });
  bytes += block.sessions.size() * sizeof(SessionRow);
  block.sessions.visit([&](const SessionRow& s) { bytes += s.name.size(); });
  return bytes;
}

BlockCache::BlockCache(std::size_t capacity_bytes, std::size_t shard_count)
    : capacity_(capacity_bytes) {
  if (shard_count == 0) shard_count = 1;
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

BlockCache::Shard& BlockCache::shard_for(std::uint64_t key) {
  // splitmix64 finalizer: sequential record indices land on distinct shards.
  std::uint64_t x = key + 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  x ^= x >> 31;
  return *shards_[x % shards_.size()];
}

std::shared_ptr<const Snapshot> BlockCache::get(std::uint64_t key) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (miss_counter_ != nullptr) miss_counter_->inc();
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
  hits_.fetch_add(1, std::memory_order_relaxed);
  if (hit_counter_ != nullptr) hit_counter_->inc();
  return it->second.block;
}

std::shared_ptr<const Snapshot> BlockCache::insert(std::uint64_t key,
                                                   Snapshot block) {
  const std::size_t bytes = approx_block_bytes(block);
  auto shared = std::make_shared<const Snapshot>(std::move(block));
  Shard& shard = shard_for(key);
  const std::size_t shard_capacity = std::max<std::size_t>(
      capacity_ / shards_.size(), 1);

  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto existing = shard.entries.find(key);
  if (existing != shard.entries.end()) {
    // Replacement, not eviction: the key stays resident.
    shard.bytes -= existing->second.bytes;
    shard.lru.erase(existing->second.lru_it);
    shard.entries.erase(existing);
  }
  shard.lru.push_front(key);
  shard.entries.emplace(key, Entry{shared, bytes, shard.lru.begin()});
  shard.bytes += bytes;
  insertions_.fetch_add(1, std::memory_order_relaxed);

  // Evict from the cold end; the >1 guard keeps the just-inserted entry
  // resident even when it alone exceeds the shard budget.
  while (shard.bytes > shard_capacity && shard.entries.size() > 1) {
    const std::uint64_t victim = shard.lru.back();
    const auto it = shard.entries.find(victim);
    shard.bytes -= it->second.bytes;
    shard.lru.pop_back();
    shard.entries.erase(it);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    if (eviction_counter_ != nullptr) eviction_counter_->inc();
  }
  return shared;
}

BlockCache::Stats BlockCache::stats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.insertions = insertions_.load(std::memory_order_relaxed);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    stats.bytes += shard->bytes;
    stats.entries += shard->entries.size();
  }
  return stats;
}

void BlockCache::set_telemetry(Telemetry* telemetry, std::string label) {
  telemetry_label_ = std::move(label);
  if (telemetry != nullptr && telemetry->enabled()) {
    MetricsRegistry& metrics = telemetry->metrics();
    const MetricLabels labels{{"cache", telemetry_label_}};
    hit_counter_ = &metrics.counter("mantra_query_cache_hits_total", labels);
    miss_counter_ = &metrics.counter("mantra_query_cache_misses_total", labels);
    eviction_counter_ =
        &metrics.counter("mantra_query_cache_evictions_total", labels);
  } else {
    hit_counter_ = nullptr;
    miss_counter_ = nullptr;
    eviction_counter_ = nullptr;
  }
}

// --- QueryEngine ------------------------------------------------------------

QueryEngine::QueryEngine(QueryEngineOptions options)
    : options_(options), cache_(options.cache_bytes, options.cache_shards) {}

void QueryEngine::add_archive(std::string target, const std::string& path) {
  if (find(target) != nullptr) {
    throw std::invalid_argument("QueryEngine: duplicate target " + target);
  }
  auto source = std::make_unique<Source>();
  source->name = std::move(target);
  source->id = static_cast<std::uint32_t>(sources_.size());
  source->reader = std::make_unique<ArchiveReader>(path);
  source->rollups = keep_if_fresh(load_rollup_sidecar(rollup_path_for(path)),
                                  fingerprint_of(*source->reader), rollups_rejected_);
  sources_.push_back(std::move(source));
}

std::vector<std::string> QueryEngine::targets() const {
  std::vector<std::string> names;
  names.reserve(sources_.size());
  for (const std::unique_ptr<Source>& source : sources_) {
    names.push_back(source->name);
  }
  return names;
}

const ArchiveReader* QueryEngine::reader(const std::string& target) const {
  const Source* source = find(target);
  return source == nullptr ? nullptr : source->reader.get();
}

bool QueryEngine::has_rollups(const std::string& target) const {
  const Source* source = find(target);
  return source != nullptr && source->rollups.has_value();
}

const QueryEngine::Source* QueryEngine::find(const std::string& target) const {
  for (const std::unique_ptr<Source>& source : sources_) {
    if (source->name == target) return source.get();
  }
  return nullptr;
}

QueryResult QueryEngine::run(const Query& query) const {
  const Source* source = find(query.target);
  if (source == nullptr) {
    throw std::invalid_argument("QueryEngine: unknown target " + query.target);
  }
  if (query_counter_ != nullptr) query_counter_->inc();

  const QueryWindow window = query_window(query.from, query.to, query.resolution);
  if (window.from_ms > window.to_ms) return {};

  const bool unfiltered = !query.min_value && !query.max_value &&
                          query.include_stale && query.include_failed;
  if (query.resolution != QueryResolution::raw && query.allow_rollup &&
      source->rollups && unfiltered) {
    QueryResult result = run_rollup(*source, query, window);
    if (rollup_served_counter_ != nullptr) rollup_served_counter_->inc();
    return result;
  }
  return run_raw(*source, query, window);
}

QueryResult QueryEngine::run_rollup(const Source& source, const Query& query,
                                    const QueryWindow& window) const {
  const std::vector<RollupBucket>& buckets =
      query.resolution == QueryResolution::hour ? source.rollups->hourly
                                                : source.rollups->daily;
  QueryResult result;
  result.from_rollup = true;
  // Buckets are sorted by start_ms; binary-search the first in range.
  auto it = std::lower_bound(
      buckets.begin(), buckets.end(), window.from_ms,
      [](const RollupBucket& bucket, std::int64_t value) {
        return bucket.start_ms < value;
      });
  const std::size_t metric = static_cast<std::size_t>(query.metric);
  for (; it != buckets.end() && it->start_ms <= window.to_ms; ++it) {
    ++result.rollup_buckets;
    result.points.push_back({sim::TimePoint::from_ms(it->start_ms),
                             it->metrics[metric].value(query.aggregate, it->cycles),
                             it->cycles});
  }
  return result;
}

void QueryEngine::fetch_block(const Source& source, std::size_t index,
                              TableMask tables, Snapshot& state,
                              QueryResult& result) const {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(source.id) << 32) | index;
  std::shared_ptr<const Snapshot> block = cache_.get(key);
  if (block) {
    ++result.cache_hits;
  } else {
    ++result.cache_misses;
    // The cache granule is the whole key-frame, whatever this scan reads,
    // so a later query for any metric hits. Raw tables only: derived
    // tables are re-derived per metric.
    Snapshot decoded;
    source.reader->apply_cycle(index, decoded);
    ++result.records_decoded;
    block = cache_.insert(key, std::move(decoded));
  }
  copy_tables(*block, tables, state);
}

QueryResult QueryEngine::run_raw(const Source& source, const Query& query,
                                 const QueryWindow& window) const {
  const ArchiveReader& reader = *source.reader;
  QueryResult result;
  const std::optional<std::size_t> first =
      reader.index_at_or_after(sim::TimePoint::from_ms(window.from_ms));
  if (!first) return result;
  const std::optional<std::size_t> last =
      reader.index_at_or_before(sim::TimePoint::from_ms(window.to_ms));
  if (!last || *last < *first) return result;

  const MetricNeeds& needs = kMetricNeeds[static_cast<std::size_t>(query.metric)];
  const bool decode = needs.tables != 0;
  const bool track_routes = query.metric == QueryMetric::route_changes;
  // route_changes at cycle i diffs against cycle i-1, so the scan must have
  // materialized the predecessor: start one cycle early when it exists.
  const std::size_t first_needed =
      track_routes && *first > 0 ? *first - 1 : *first;
  // A metadata metric decodes nothing, so it starts at the range itself.
  const std::size_t start =
      decode ? reader.keyframe_index_before(first_needed) : *first;

  Snapshot state;
  SessionTable sessions;
  ParticipantTable participants;
  RouteTable previous_routes;
  bool have_previous = false;

  PointFolder points(window, query.aggregate, result.points);

  for (std::size_t i = start; i <= *last; ++i) {
    if (decode && i == start) {
      fetch_block(source, i, needs.tables, state, result);  // always a key-frame
    } else if (decode) {
      reader.apply_cycle(i, state, needs.tables);
      ++result.records_decoded;
    }
    std::size_t route_changes = 0;
    if (track_routes) {
      if (have_previous && i >= first_needed + 1) {
        route_changes =
            RouteTable::diff(previous_routes, state.routes).change_count();
      }
      if (i >= first_needed) {
        previous_routes = state.routes;
        have_previous = true;
      }
    }
    if (i < *first) continue;

    const ArchiveCycleMeta& meta = reader.meta_at(i);
    if (!query.include_stale && meta.stale) continue;
    if (!query.include_failed && meta.collection_failures > 0) continue;

    if (needs.sessions) {
      derive_sessions_into(state.pairs, options_.sender_threshold_kbps, sessions);
    }
    if (needs.participants) {
      derive_participants_into(state.pairs, options_.sender_threshold_kbps,
                               participants);
    }
    const double value = metric_value(query.metric, state, meta, sessions,
                                      participants, route_changes);
    if (query.min_value && value < *query.min_value) continue;
    if (query.max_value && value > *query.max_value) continue;
    points.add(reader.time_at(i).total_ms(), value);
  }
  points.finish();
  return result;
}

ReplayRun QueryEngine::replay(const std::string& target,
                              ReplayOptions options) const {
  const Source* source = find(target);
  if (source == nullptr) {
    throw std::invalid_argument("QueryEngine: unknown target " + target);
  }
  const ArchiveReader& reader = *source->reader;
  ReplayPipeline pipeline(options);
  pipeline.reserve(reader.size());
  Snapshot state;
  QueryResult scratch;  // counter sink; replay reports through the cache stats
  for (std::size_t i = 0; i < reader.size(); ++i) {
    if (reader.keyframe_at(i)) {
      fetch_block(*source, i, kAllTables, state, scratch);
    } else {
      reader.apply_cycle(i, state);
    }
    pipeline.observe(state, reader.meta_at(i));
  }
  return pipeline.finish();
}

void QueryEngine::set_telemetry(Telemetry* telemetry, std::string label) {
  telemetry_label_ = std::move(label);
  cache_.set_telemetry(telemetry, telemetry_label_);
  if (telemetry != nullptr && telemetry->enabled()) {
    MetricsRegistry& metrics = telemetry->metrics();
    const MetricLabels labels{{"engine", telemetry_label_}};
    query_counter_ = &metrics.counter("mantra_query_runs_total", labels);
    rollup_served_counter_ =
        &metrics.counter("mantra_query_rollup_served_total", labels);
  } else {
    query_counter_ = nullptr;
    rollup_served_counter_ = nullptr;
  }
}

}  // namespace mantra::core
