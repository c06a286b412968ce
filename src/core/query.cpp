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

double metric_value(QueryMetric metric, const CycleResult& result) {
  switch (metric) {
    case QueryMetric::sessions: return result.usage.sessions;
    case QueryMetric::participants: return result.usage.participants;
    case QueryMetric::active_sessions: return result.usage.active_sessions;
    case QueryMetric::senders: return result.usage.senders;
    case QueryMetric::bandwidth_kbps: return result.usage.bandwidth_kbps;
    case QueryMetric::unicast_equivalent_kbps: return result.usage.unicast_equivalent_kbps;
    case QueryMetric::dvmrp_routes: return static_cast<double>(result.dvmrp_routes);
    case QueryMetric::dvmrp_valid_routes: return static_cast<double>(result.dvmrp_valid_routes);
    case QueryMetric::route_changes: return static_cast<double>(result.route_changes);
    case QueryMetric::sa_entries: return static_cast<double>(result.sa_entries);
    case QueryMetric::mbgp_routes: return static_cast<double>(result.mbgp_routes);
    case QueryMetric::parse_warnings: return static_cast<double>(result.parse_warnings);
    case QueryMetric::stale: return result.stale ? 1.0 : 0.0;
    case QueryMetric::collection_failures:
      return static_cast<double>(result.collection_failures);
    case QueryMetric::collection_latency_ms:
      return static_cast<double>(result.collection_latency.total_ms());
  }
  return 0.0;  // unreachable: the switch is exhaustive
}

// --- RollupBuilder ----------------------------------------------------------

namespace {

void fold(std::map<std::int64_t, RollupBucket>& buckets, std::int64_t width,
          const CycleResult& result) {
  const std::int64_t start = bucket_floor(result.t.total_ms(), width);
  RollupBucket& bucket = buckets[start];
  bucket.start_ms = start;
  for (std::size_t m = 0; m < kQueryMetricCount; ++m) {
    bucket.metrics[m].add(metric_value(static_cast<QueryMetric>(m), result),
                          bucket.cycles == 0);
  }
  ++bucket.cycles;
  if (result.stale) ++bucket.stale_cycles;
  if (result.collection_failures > 0) ++bucket.failure_cycles;
}

}  // namespace

void RollupBuilder::observe(const CycleResult& result) {
  fold(hourly_, kHourMs, result);
  fold(daily_, kDayMs, result);
}

RollupSidecar RollupBuilder::finish(SidecarFingerprint fingerprint) {
  RollupSidecar sidecar;
  sidecar.source = fingerprint;
  sidecar.hourly.reserve(hourly_.size());
  for (auto& [start, bucket] : hourly_) sidecar.hourly.push_back(bucket);
  sidecar.daily.reserve(daily_.size());
  for (auto& [start, bucket] : daily_) sidecar.daily.push_back(bucket);
  hourly_.clear();
  daily_.clear();
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

RollupSidecar build_rollups(const ArchiveReader& reader) {
  RollupBuilder builder;
  for (std::size_t i = 0; i < reader.size(); ++i) builder.observe(reader.result_at(i));
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

  // An index walk: every cycle's answer is stored, so no record is decoded.
  PointFolder points(window, query.aggregate, result.points);
  for (std::size_t i = *first; i <= *last; ++i) {
    const CycleResult& cycle = reader.result_at(i);
    if (!query.include_stale && cycle.stale) continue;
    if (!query.include_failed && cycle.collection_failures > 0) continue;
    const double value = metric_value(query.metric, cycle);
    if (query.min_value && value < *query.min_value) continue;
    if (query.max_value && value > *query.max_value) continue;
    points.add(cycle.t.total_ms(), value);
  }
  points.finish();
  return result;
}

ReplayRun QueryEngine::replay(const std::string& target) const {
  const Source* source = find(target);
  if (source == nullptr) {
    throw std::invalid_argument("QueryEngine: unknown target " + target);
  }
  return replay_archive(*source->reader);
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
