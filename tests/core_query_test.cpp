// core/query: the read-optimized serving layer. The load-bearing claims
// under test: (1) a rollup-served coarse query returns exactly what a raw
// scan over the same range returns; (2) raw range scans walk the reader's
// index of stored results, decode zero archive records, and match the
// replayed results cycle for cycle; (3) the sharded LRU block cache evicts
// in recency order, counts hits/misses/evictions exactly, and survives a
// multithreaded hammer (tsan); (4) a sidecar whose fingerprint does not
// match its archive is rejected, and compaction rebuilds rollups from the
// surviving cycles only.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/archive.hpp"
#include "core/query.hpp"

namespace mantra::core {
namespace {

constexpr auto kCycle = sim::Duration::minutes(15);

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

PairRow pair(std::uint32_t source, std::uint32_t group, double kbps) {
  PairRow row;
  row.source = net::Ipv4Address(source);
  row.group = net::Ipv4Address(0xE0020000u + group);
  row.current_kbps = kbps;
  return row;
}

RouteRow route(std::uint32_t net_index, int metric) {
  RouteRow row;
  row.prefix = net::Prefix(net::Ipv4Address(0x0A000000u + (net_index << 8)), 24);
  row.next_hop = net::Ipv4Address(0xC0A80002u);
  row.interface = "tunnel0";
  row.metric = metric;
  row.holddown = net_index % 5 == 0;
  return row;
}

SaRow sa(std::uint32_t source, std::uint32_t group) {
  SaRow row;
  row.source = net::Ipv4Address(source);
  row.group = net::Ipv4Address(0xE0020000u + group);
  row.origin_rp = net::Ipv4Address(10, 0, 1, 1);
  row.via_peer = net::Ipv4Address(10, 0, 2, 1);
  return row;
}

ArchiveCycleMeta meta_for(int cycle) {
  ArchiveCycleMeta meta;
  meta.stale = cycle % 5 == 0;
  meta.collection_failures = cycle % 7 == 0 ? 1u : 0u;
  meta.parse_warnings = static_cast<std::uint32_t>(cycle % 3);
  meta.collection_latency = sim::Duration::seconds(1 + cycle % 9);
  return meta;
}

/// Writes a churning synthetic archive: `cycles` cycles at 15-minute spacing,
/// route flaps and rate changes every cycle so deltas are non-trivial.
void write_archive(const std::string& path, int cycles,
                   int keyframe_interval = 8, std::uint32_t seed = 11) {
  std::mt19937 rng(seed);
  ArchiveOptions options;
  options.keyframe_interval = keyframe_interval;
  options.fsync_on_keyframe = false;
  ArchiveWriter writer(path, options);

  Snapshot current;
  current.router_name = "fixw";
  for (std::uint32_t i = 0; i < 30; ++i) current.routes.upsert(route(i, 3));
  for (std::uint32_t i = 0; i < 10; ++i) {
    current.pairs.upsert(pair(0x0A010100u + i, i % 4, 2.0 + i));
  }
  for (std::uint32_t i = 0; i < 5; ++i) {
    current.sa_cache.upsert(sa(0x0A010100u + i, i));
  }

  for (int cycle = 0; cycle < cycles; ++cycle) {
    if (cycle > 0) {
      current.pairs.advance_derived(kCycle);
      current.routes.advance_derived(kCycle);
      current.sa_cache.advance_derived(kCycle);
      current.routes.upsert(route(rng() % 30, 3 + cycle % 11));
      current.pairs.upsert(pair(0x0A010100u + rng() % 10, rng() % 4,
                                static_cast<double>(rng() % 800) / 10.0));
      if (rng() % 4 == 0) {
        current.sa_cache.erase(sa(0x0A010100u + rng() % 5, rng() % 5).key());
      } else {
        current.sa_cache.upsert(sa(0x0A010100u + rng() % 5, rng() % 5));
      }
    }
    current.captured = sim::TimePoint::start() + kCycle * std::int64_t{cycle};
    writer.append(current, meta_for(cycle));
  }
  writer.close();
}

void write_sidecar_for(const std::string& path) {
  const ArchiveReader reader(path);
  ASSERT_TRUE(write_rollup_sidecar(rollup_path_for(path), build_rollups(reader)));
}

// --- Sidecar format ---------------------------------------------------------

TEST(RollupSidecar, RoundTripsThroughDisk) {
  const std::string path = temp_path("rollup_roundtrip.marc");
  write_archive(path, 30);
  const ArchiveReader reader(path);
  const RollupSidecar sidecar = build_rollups(reader);
  ASSERT_FALSE(sidecar.hourly.empty());
  ASSERT_FALSE(sidecar.daily.empty());
  // 30 cycles at 15 min span 7.25 h: 8 hourly buckets, 1 daily.
  EXPECT_EQ(sidecar.hourly.size(), 8u);
  EXPECT_EQ(sidecar.daily.size(), 1u);
  EXPECT_EQ(sidecar.source, fingerprint_of(reader));

  ASSERT_TRUE(write_rollup_sidecar(rollup_path_for(path), sidecar));
  const std::optional<RollupSidecar> loaded =
      load_rollup_sidecar(rollup_path_for(path));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->source, sidecar.source);
  EXPECT_EQ(loaded->hourly, sidecar.hourly);
  EXPECT_EQ(loaded->daily, sidecar.daily);
}

TEST(RollupSidecar, PathDerivation) {
  EXPECT_EQ(rollup_path_for("/data/fixw.marc"), "/data/fixw.mroll");
  EXPECT_EQ(rollup_path_for("fixw.marc"), "fixw.mroll");
  EXPECT_EQ(rollup_path_for("noext"), "noext.mroll");
  EXPECT_EQ(rollup_path_for("/dotted.dir/noext"), "/dotted.dir/noext.mroll");
}

TEST(RollupSidecar, DamagedFileLoadsAsAbsent) {
  const std::string path = temp_path("rollup_damage.marc");
  write_archive(path, 20);
  write_sidecar_for(path);
  const std::string sidecar_path = rollup_path_for(path);

  // Flip one payload byte: the CRC must reject it.
  {
    std::fstream file(sidecar_path,
                      std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(40);
    char byte = 0;
    file.seekg(40);
    file.get(byte);
    file.seekp(40);
    file.put(static_cast<char>(byte ^ 0x5A));
  }
  EXPECT_FALSE(load_rollup_sidecar(sidecar_path).has_value());
  EXPECT_FALSE(load_rollup_sidecar(temp_path("missing.mroll")).has_value());
}

TEST(RollupSidecar, StaleFingerprintIsRejectedByEngine) {
  const std::string path = temp_path("rollup_stale.marc");
  write_archive(path, 40);
  write_sidecar_for(path);
  // Rewrite the archive shorter; the sidecar on disk now describes 40
  // cycles that no longer exist.
  write_archive(path, 25);
  QueryEngine engine;
  engine.add_archive("fixw", path);
  EXPECT_FALSE(engine.has_rollups("fixw"));
  EXPECT_EQ(engine.rollups_rejected(), 1u);

  // A raw-falling-back coarse query still answers, from the archive.
  Query query;
  query.target = "fixw";
  query.metric = QueryMetric::dvmrp_routes;
  query.resolution = QueryResolution::hour;
  const QueryResult result = engine.run(query);
  EXPECT_FALSE(result.from_rollup);
  EXPECT_FALSE(result.points.empty());
  EXPECT_EQ(result.records_decoded, 0u);  // an index walk
  EXPECT_EQ(engine.reader("fixw")->records_decoded(), 0u);
}

// --- Rollup / raw equivalence ----------------------------------------------

TEST(QueryEngine, RollupMatchesRawScanOnEveryMetricAndAggregate) {
  const std::string path = temp_path("rollup_equiv.marc");
  write_archive(path, 120);  // 30 hours: 2 daily buckets, 30 hourly
  write_sidecar_for(path);
  QueryEngine engine;
  engine.add_archive("fixw", path);
  ASSERT_TRUE(engine.has_rollups("fixw"));

  for (std::size_t m = 0; m < kQueryMetricCount; ++m) {
    for (const QueryAggregate aggregate :
         {QueryAggregate::last, QueryAggregate::min, QueryAggregate::max,
          QueryAggregate::mean, QueryAggregate::sum, QueryAggregate::count}) {
      for (const QueryResolution resolution :
           {QueryResolution::hour, QueryResolution::day}) {
        Query query;
        query.target = "fixw";
        query.metric = static_cast<QueryMetric>(m);
        query.resolution = resolution;
        query.aggregate = aggregate;
        // A range that starts and ends mid-bucket, to exercise snapping.
        query.from = sim::TimePoint::from_ms(kHourMs + kHourMs / 2);
        query.to = sim::TimePoint::from_ms(20 * kHourMs + kHourMs / 3);

        const QueryResult rollup = engine.run(query);
        query.allow_rollup = false;
        const QueryResult raw = engine.run(query);

        ASSERT_TRUE(rollup.from_rollup)
            << to_string(query.metric) << " agg " << static_cast<int>(aggregate);
        ASSERT_FALSE(raw.from_rollup);
        ASSERT_EQ(rollup.points.size(), raw.points.size())
            << to_string(query.metric);
        for (std::size_t i = 0; i < rollup.points.size(); ++i) {
          EXPECT_EQ(rollup.points[i].t, raw.points[i].t) << to_string(query.metric);
          EXPECT_DOUBLE_EQ(rollup.points[i].value, raw.points[i].value)
              << to_string(query.metric) << " agg " << static_cast<int>(aggregate)
              << " point " << i;
          EXPECT_EQ(rollup.points[i].samples, raw.points[i].samples);
        }
      }
    }
  }
}

TEST(QueryEngine, RollupServedQueryDecodesZeroRecords) {
  const std::string path = temp_path("rollup_decodes.marc");
  write_archive(path, 60);
  write_sidecar_for(path);
  QueryEngine engine;
  engine.add_archive("fixw", path);
  const ArchiveReader* reader = engine.reader("fixw");
  ASSERT_NE(reader, nullptr);

  const std::uint64_t before = reader->records_decoded();
  Query query;
  query.target = "fixw";
  query.metric = QueryMetric::sessions;
  query.resolution = QueryResolution::hour;
  query.aggregate = QueryAggregate::mean;
  const QueryResult result = engine.run(query);
  EXPECT_TRUE(result.from_rollup);
  EXPECT_EQ(result.records_decoded, 0u);
  EXPECT_GT(result.rollup_buckets, 0u);
  EXPECT_EQ(reader->records_decoded(), before);  // the archive was not touched
}

TEST(QueryEngine, FilteredCoarseQueryFallsBackToRawScan) {
  const std::string path = temp_path("rollup_filtered.marc");
  write_archive(path, 48);
  write_sidecar_for(path);
  QueryEngine engine;
  engine.add_archive("fixw", path);

  Query query;
  query.target = "fixw";
  query.metric = QueryMetric::dvmrp_routes;
  query.resolution = QueryResolution::hour;
  query.include_stale = false;  // per-cycle filter: rollups cannot serve this
  const QueryResult result = engine.run(query);
  EXPECT_FALSE(result.from_rollup);
  EXPECT_FALSE(result.points.empty());
  EXPECT_EQ(result.records_decoded, 0u);  // the raw path walks the index
  EXPECT_EQ(engine.reader("fixw")->records_decoded(), 0u);
}

// --- Raw scans vs the replay pipeline ---------------------------------------

TEST(QueryEngine, RawScanMatchesReplayPerCycle) {
  const std::string path = temp_path("raw_vs_replay.marc");
  write_archive(path, 50);
  QueryEngine engine;
  engine.add_archive("fixw", path);
  const ArchiveReader reader(path);
  const ReplayRun run = replay_archive(reader);
  ASSERT_EQ(run.results.size(), 50u);

  // Mid-archive subrange, chosen off key-frame boundaries.
  const std::size_t a = 13, b = 41;
  Query query;
  query.target = "fixw";
  query.from = run.results[a].t;
  query.to = run.results[b].t;

  const auto expect_matches = [&](QueryMetric metric, auto extract) {
    query.metric = metric;
    const QueryResult result = engine.run(query);
    ASSERT_EQ(result.points.size(), b - a + 1) << to_string(metric);
    for (std::size_t i = 0; i < result.points.size(); ++i) {
      EXPECT_EQ(result.points[i].t, run.results[a + i].t);
      EXPECT_DOUBLE_EQ(result.points[i].value,
                       static_cast<double>(extract(run.results[a + i])))
          << to_string(metric) << " cycle " << a + i;
    }
  };
  expect_matches(QueryMetric::sessions,
                 [](const CycleResult& r) { return r.usage.sessions; });
  expect_matches(QueryMetric::participants,
                 [](const CycleResult& r) { return r.usage.participants; });
  expect_matches(QueryMetric::active_sessions,
                 [](const CycleResult& r) { return r.usage.active_sessions; });
  expect_matches(QueryMetric::senders,
                 [](const CycleResult& r) { return r.usage.senders; });
  expect_matches(QueryMetric::bandwidth_kbps,
                 [](const CycleResult& r) { return r.usage.bandwidth_kbps; });
  expect_matches(QueryMetric::unicast_equivalent_kbps, [](const CycleResult& r) {
    return r.usage.unicast_equivalent_kbps;
  });
  expect_matches(QueryMetric::dvmrp_routes,
                 [](const CycleResult& r) { return r.dvmrp_routes; });
  expect_matches(QueryMetric::dvmrp_valid_routes,
                 [](const CycleResult& r) { return r.dvmrp_valid_routes; });
  // route_changes diffs against the cycle before the range, which the
  // stored result already did.
  expect_matches(QueryMetric::route_changes,
                 [](const CycleResult& r) { return r.route_changes; });
  expect_matches(QueryMetric::sa_entries,
                 [](const CycleResult& r) { return r.sa_entries; });
  expect_matches(QueryMetric::parse_warnings,
                 [](const CycleResult& r) { return r.parse_warnings; });
  expect_matches(QueryMetric::collection_latency_ms, [](const CycleResult& r) {
    return static_cast<double>(r.collection_latency.total_ms());
  });
}

TEST(QueryEngine, FiltersDropCyclesBeforeAggregation) {
  const std::string path = temp_path("filters.marc");
  write_archive(path, 40);
  QueryEngine engine;
  engine.add_archive("fixw", path);
  const ReplayRun run = replay_archive(ArchiveReader(path));

  Query query;
  query.target = "fixw";
  query.metric = QueryMetric::dvmrp_routes;
  query.include_stale = false;
  query.include_failed = false;
  query.min_value = 10.0;
  const QueryResult result = engine.run(query);

  std::vector<const CycleResult*> kept;
  for (const CycleResult& r : run.results) {
    if (r.stale || r.collection_failures > 0) continue;
    if (static_cast<double>(r.dvmrp_routes) < 10.0) continue;
    kept.push_back(&r);
  }
  ASSERT_EQ(result.points.size(), kept.size());
  ASSERT_FALSE(kept.empty());
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(result.points[i].t, kept[i]->t);
    EXPECT_DOUBLE_EQ(result.points[i].value,
                     static_cast<double>(kept[i]->dvmrp_routes));
  }
}

TEST(QueryEngine, RangeScanDecodesOnlyTouchedBlocks) {
  const std::string path = temp_path("pruning.marc");
  write_archive(path, 96, /*keyframe_interval=*/8);
  QueryEngine engine;
  engine.add_archive("fixw", path);

  Query query;
  query.target = "fixw";
  query.metric = QueryMetric::sa_entries;
  query.from = sim::TimePoint::start() + kCycle * std::int64_t{50};
  query.to = sim::TimePoint::start() + kCycle * std::int64_t{55};
  const QueryResult result = engine.run(query);
  ASSERT_EQ(result.points.size(), 6u);
  // The range's stored results answer it: no block is touched at all, not
  // even the governing key-frame.
  EXPECT_EQ(result.records_decoded, 0u);
  EXPECT_EQ(engine.reader("fixw")->records_decoded(), 0u);
  const BlockCache::Stats cache = engine.cache().stats();
  EXPECT_EQ(cache.hits + cache.misses, 0u);
}

TEST(QueryEngine, RepeatedQueriesReadOnlyTheIndex) {
  const std::string path = temp_path("cache_reuse.marc");
  write_archive(path, 64, /*keyframe_interval=*/8);
  QueryEngine engine;
  engine.add_archive("fixw", path);

  Query query;
  query.target = "fixw";
  query.metric = QueryMetric::dvmrp_routes;
  query.from = sim::TimePoint::start() + kCycle * std::int64_t{16};
  query.to = sim::TimePoint::start() + kCycle * std::int64_t{20};
  const QueryResult cold = engine.run(query);
  const QueryResult warm = engine.run(query);
  // Neither run decodes a record or touches the block cache: a repeated
  // query costs what the first did.
  EXPECT_EQ(cold.records_decoded, 0u);
  EXPECT_EQ(warm.records_decoded, 0u);
  EXPECT_EQ(engine.reader("fixw")->records_decoded(), 0u);
  const BlockCache::Stats cache = engine.cache().stats();
  EXPECT_EQ(cache.hits + cache.misses + cache.insertions, 0u);
  ASSERT_EQ(cold.points.size(), 5u);
  ASSERT_EQ(warm.points.size(), cold.points.size());
  for (std::size_t i = 0; i < warm.points.size(); ++i) {
    EXPECT_DOUBLE_EQ(warm.points[i].value, cold.points[i].value);
  }
}

TEST(QueryEngine, ReplayThroughEngineMatchesReplayArchive) {
  const std::string path = temp_path("replay_parity.marc");
  write_archive(path, 40);
  QueryEngine engine;
  engine.add_archive("fixw", path);

  const ReplayRun direct = replay_archive(ArchiveReader(path));
  const ReplayRun via_engine = engine.replay("fixw");
  ASSERT_EQ(via_engine.results.size(), direct.results.size());
  for (std::size_t i = 0; i < direct.results.size(); ++i) {
    EXPECT_EQ(via_engine.results[i], direct.results[i]) << "cycle " << i;
  }
  // Replay returns the stored results: it decodes no table and never
  // touches the block cache.
  EXPECT_EQ(engine.reader("fixw")->records_decoded(), 0u);
  const BlockCache::Stats cache = engine.cache().stats();
  EXPECT_EQ(cache.hits + cache.misses + cache.insertions, 0u);
}

TEST(QueryEngine, UnknownTargetThrows) {
  const std::string path = temp_path("unknown_target.marc");
  write_archive(path, 10);
  QueryEngine engine;
  engine.add_archive("fixw", path);
  Query query;
  query.target = "nosuch";
  EXPECT_THROW((void)engine.run(query), std::invalid_argument);
  EXPECT_THROW((void)engine.replay("nosuch"), std::invalid_argument);
  EXPECT_THROW(engine.add_archive("fixw", path), std::invalid_argument);
  EXPECT_EQ(engine.reader("nosuch"), nullptr);
  EXPECT_EQ(engine.targets(), std::vector<std::string>{"fixw"});
}

// --- Compaction-time rollups ------------------------------------------------

TEST(Compaction, WritesSidecarTheEngineAccepts) {
  const std::string input = temp_path("compact_in.marc");
  const std::string output = temp_path("compact_out.marc");
  write_archive(input, 60);
  const CompactionStats stats = compact_archive(input, output);
  EXPECT_TRUE(stats.rollups_written);
  EXPECT_GT(stats.rollup_hour_buckets, 0u);
  EXPECT_GT(stats.rollup_day_buckets, 0u);

  QueryEngine engine;
  engine.add_archive("fixw", output);
  EXPECT_TRUE(engine.has_rollups("fixw"));
  EXPECT_EQ(engine.rollups_rejected(), 0u);
}

TEST(Compaction, DropBeforeRebuildsRollupsFromSurvivingCyclesOnly) {
  const std::string input = temp_path("compact_drop_in.marc");
  const std::string output = temp_path("compact_drop_out.marc");
  write_archive(input, 96);  // 24 hours
  CompactionOptions options;
  options.drop_before =
      sim::TimePoint::start() + kCycle * std::int64_t{30};  // mid-bucket horizon
  const CompactionStats stats = compact_archive(input, output, options);
  ASSERT_TRUE(stats.rollups_written);
  EXPECT_EQ(stats.cycles_out, 66u);

  QueryEngine engine;
  engine.add_archive("fixw", output);
  ASSERT_TRUE(engine.has_rollups("fixw"));

  // The straddling bucket was re-aggregated from the kept tail: the rollup
  // answer still equals the raw scan over the compacted archive.
  Query query;
  query.target = "fixw";
  query.metric = QueryMetric::bandwidth_kbps;
  query.resolution = QueryResolution::hour;
  query.aggregate = QueryAggregate::mean;
  const QueryResult rollup = engine.run(query);
  query.allow_rollup = false;
  const QueryResult raw = engine.run(query);
  ASSERT_TRUE(rollup.from_rollup);
  ASSERT_EQ(rollup.points.size(), raw.points.size());
  for (std::size_t i = 0; i < rollup.points.size(); ++i) {
    EXPECT_EQ(rollup.points[i].t, raw.points[i].t);
    EXPECT_DOUBLE_EQ(rollup.points[i].value, raw.points[i].value);
    EXPECT_EQ(rollup.points[i].samples, raw.points[i].samples);
  }
  // No bucket claims cycles from before the horizon.
  ASSERT_FALSE(rollup.points.empty());
  EXPECT_LT(rollup.points.front().samples, 4u);  // partial straddling bucket
}

// --- BlockCache -------------------------------------------------------------

Snapshot small_block(std::uint32_t tag) {
  Snapshot block;
  block.router_name = "cache";
  block.captured = sim::TimePoint::from_ms(tag);
  block.pairs.upsert(pair(0x0A010100u + tag, tag % 4, 1.0));
  return block;
}

TEST(BlockCache, EvictsInRecencyOrder) {
  const std::size_t block_bytes = approx_block_bytes(small_block(0));
  // Room for exactly three blocks, one shard so eviction is deterministic.
  BlockCache cache(3 * block_bytes, /*shard_count=*/1);
  cache.insert(1, small_block(1));
  cache.insert(2, small_block(2));
  cache.insert(3, small_block(3));
  ASSERT_EQ(cache.stats().entries, 3u);

  EXPECT_NE(cache.get(1), nullptr);  // 1 becomes most recently used
  cache.insert(4, small_block(4));   // over budget: evict LRU = 2

  EXPECT_EQ(cache.get(2), nullptr);
  EXPECT_NE(cache.get(1), nullptr);
  EXPECT_NE(cache.get(3), nullptr);
  EXPECT_NE(cache.get(4), nullptr);

  const BlockCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.insertions, 4u);
  EXPECT_EQ(stats.hits, 4u);    // get(1) + the three post-eviction probes
  EXPECT_EQ(stats.misses, 1u);  // get(2)
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 4.0 / 5.0);
  EXPECT_EQ(stats.bytes, 3 * block_bytes);
}

TEST(BlockCache, NewestEntrySurvivesItsOwnInsertion) {
  const std::size_t block_bytes = approx_block_bytes(small_block(0));
  BlockCache cache(block_bytes / 2, /*shard_count=*/1);  // nothing fits
  const auto handle = cache.insert(1, small_block(1));
  ASSERT_NE(handle, nullptr);
  EXPECT_NE(cache.get(1), nullptr);  // resident despite exceeding capacity
  cache.insert(2, small_block(2));   // next insertion pushes 1 out
  EXPECT_EQ(cache.get(1), nullptr);
  EXPECT_NE(cache.get(2), nullptr);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(BlockCache, ReplacingAKeyIsNotAnEviction) {
  BlockCache cache(1u << 20, 1);
  cache.insert(7, small_block(1));
  cache.insert(7, small_block(2));
  const BlockCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.insertions, 2u);
  EXPECT_EQ(stats.evictions, 0u);
  const auto block = cache.get(7);
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(block->captured, sim::TimePoint::from_ms(2));  // newest wins
}

TEST(BlockCache, EvictedBlockStaysAliveForExistingReaders) {
  const std::size_t block_bytes = approx_block_bytes(small_block(0));
  BlockCache cache(block_bytes, 1);
  const auto held = cache.insert(1, small_block(1));
  cache.insert(2, small_block(2));  // evicts key 1
  EXPECT_EQ(cache.get(1), nullptr);
  ASSERT_NE(held, nullptr);  // the shared_ptr keeps the block valid
  EXPECT_EQ(held->captured, sim::TimePoint::from_ms(1));
}

TEST(BlockCache, CountersExportThroughTelemetry) {
  TelemetryConfig config;
  config.enabled = true;
  Telemetry telemetry(config);
  BlockCache cache(1u << 20, 2);
  cache.set_telemetry(&telemetry, "fixw");
  cache.insert(1, small_block(1));
  (void)cache.get(1);
  (void)cache.get(2);
  const MetricLabels labels{{"cache", "fixw"}};
  EXPECT_EQ(telemetry.metrics().counter_value("mantra_query_cache_hits_total",
                                              labels),
            1u);
  EXPECT_EQ(telemetry.metrics().counter_value("mantra_query_cache_misses_total",
                                              labels),
            1u);
}

TEST(BlockCache, MultithreadedHammerStaysCoherent) {
  const std::size_t block_bytes = approx_block_bytes(small_block(0));
  BlockCache cache(6 * block_bytes, 4);  // small: constant eviction churn
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      std::mt19937 rng(static_cast<std::uint32_t>(t) + 1);
      for (int op = 0; op < kOpsPerThread; ++op) {
        const std::uint64_t key = rng() % 24;
        if (std::shared_ptr<const Snapshot> block = cache.get(key)) {
          // Read through the handle: tsan would flag an evicted-under-us
          // block if lifetimes were wrong.
          ASSERT_EQ(block->captured.total_ms(),
                    static_cast<std::int64_t>(key));
        } else {
          cache.insert(key, small_block(static_cast<std::uint32_t>(key)));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const BlockCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(stats.misses, stats.insertions);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GE(stats.entries, 1u);
  EXPECT_LE(stats.bytes, 6 * block_bytes + 4 * block_bytes);  // per-shard slack
}

TEST(QueryEngine, ConcurrentMixedQueriesAgreeWithSequentialAnswers) {
  const std::string path = temp_path("concurrent.marc");
  write_archive(path, 72);
  write_sidecar_for(path);
  QueryEngine engine;
  engine.add_archive("fixw", path);

  // Sequential ground truth for a small query family.
  std::vector<Query> queries;
  for (int i = 0; i < 6; ++i) {
    Query query;
    query.target = "fixw";
    query.metric = i % 2 == 0 ? QueryMetric::sessions : QueryMetric::dvmrp_routes;
    query.resolution = i % 3 == 0 ? QueryResolution::hour : QueryResolution::raw;
    query.aggregate = QueryAggregate::mean;
    query.from = sim::TimePoint::start() + kCycle * std::int64_t{4 * i};
    query.to = sim::TimePoint::start() + kCycle * std::int64_t{4 * i + 30};
    queries.push_back(query);
  }
  std::vector<QueryResult> expected;
  expected.reserve(queries.size());
  for (const Query& query : queries) expected.push_back(engine.run(query));

  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        const std::size_t i =
            static_cast<std::size_t>(t + round) % queries.size();
        const QueryResult result = engine.run(queries[i]);
        if (result.points.size() != expected[i].points.size()) {
          ++mismatches;
          continue;
        }
        for (std::size_t p = 0; p < result.points.size(); ++p) {
          if (result.points[p].value != expected[i].points[p].value ||
              result.points[p].t != expected[i].points[p].t) {
            ++mismatches;
            break;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(engine.reader("fixw")->records_decoded(), 0u);
}

}  // namespace
}  // namespace mantra::core
