// Projected raw scans: QueryEngine decodes of each archived record only the
// raw table its metric reads, and answers the four metadata metrics from
// the reader's index. The oracle (tests/oracle/raw_scan_oracle.cpp) is the
// scan as it was before, rebuilding all four tables from the governing
// key-frame for every metric. Both must return bit-identical points for
// every metric, filter, resolution and window shape, on cold and warm
// caches, over archives that exercise every section skipper: key-frame
// intervals 1, 8 and 96, an all-key-frame archive, stale and failed
// cycles, tables that drain to empty or stay empty, and MBGP AS paths long
// enough to leave the short-string buffer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/archive.hpp"
#include "core/query.hpp"
#include "oracle/raw_scan_oracle.hpp"

namespace mantra::core {
namespace {

constexpr auto kCycle = sim::Duration::minutes(15);

struct ArchiveShape {
  std::string name;
  int cycles = 0;
  int keyframe_interval = 8;
  bool store_deltas = true;
  bool sparse = false;  ///< no SA-cache and no MBGP rows in any cycle
};

PairRow pair(std::uint32_t source, std::uint32_t group, double kbps) {
  PairRow row;
  row.source = net::Ipv4Address(0x0A010100u + source);
  row.group = net::Ipv4Address(0xE0020000u + group);
  row.current_kbps = kbps;
  return row;
}

RouteRow route(std::uint32_t net_index, int metric, bool holddown) {
  RouteRow row;
  row.prefix = net::Prefix(net::Ipv4Address(0x0A000000u + (net_index << 8)), 24);
  row.next_hop = net::Ipv4Address(0xC0A80002u + net_index % 3);
  row.interface = net_index % 2 == 0 ? "tunnel0" : "Tunnel-to-ucsb-border-17";
  row.metric = metric;
  row.holddown = holddown;
  return row;
}

SaRow sa(std::uint32_t source, std::uint32_t group) {
  SaRow row;
  row.source = net::Ipv4Address(0x0A010100u + source);
  row.group = net::Ipv4Address(0xE0020000u + group);
  row.origin_rp = net::Ipv4Address(10, 0, 1, 1 + source % 3);
  row.via_peer = net::Ipv4Address(10, 0, 2, 1);
  return row;
}

MbgpRow mbgp(std::uint32_t net_index, std::uint32_t variant) {
  MbgpRow row;
  row.prefix = net::Prefix(net::Ipv4Address(0x0A400000u + (net_index << 10)), 22);
  row.next_hop = net::Ipv4Address(192, 168, 0, 2);
  // Longer than 15 characters: decoding allocates, skipping must not.
  row.as_path = "3000 104 10888 6461 " + std::to_string(net_index * 7 + variant);
  return row;
}

ArchiveCycleMeta meta_for(int cycle) {
  ArchiveCycleMeta meta;
  meta.stale = cycle % 5 == 0;
  meta.cycle_seq = static_cast<std::uint64_t>(cycle) + 1;
  meta.stale_tables = meta.stale ? 1u : 0u;
  meta.collection_failures = cycle % 7 == 0 ? 1u + static_cast<std::uint32_t>(cycle % 3) : 0u;
  meta.parse_warnings = static_cast<std::uint32_t>(cycle % 3);
  meta.collection_latency = sim::Duration::milliseconds(900 + 37 * (cycle % 11));
  return meta;
}

/// Every table churns every cycle: rate changes across the sender threshold,
/// pairs, routes and MBGP routes added and withdrawn, route flaps into
/// hold-down, and an SA cache that drains to empty and refills.
void write_archive(const ArchiveShape& shape, const std::string& path) {
  std::mt19937 rng(0x50524f4au + static_cast<std::uint32_t>(shape.keyframe_interval));
  ArchiveOptions options;
  options.keyframe_interval = shape.keyframe_interval;
  options.store_deltas = shape.store_deltas;
  options.fsync_on_keyframe = false;
  ArchiveWriter writer(path, options);

  Snapshot current;
  current.router_name = "fixw";
  for (std::uint32_t i = 0; i < 24; ++i) current.routes.upsert(route(i, 3, i % 5 == 0));
  for (std::uint32_t i = 0; i < 12; ++i) current.pairs.upsert(pair(i, i % 4, 1.0 + i));
  if (!shape.sparse) {
    for (std::uint32_t i = 0; i < 5; ++i) current.sa_cache.upsert(sa(i, i));
    for (std::uint32_t i = 0; i < 6; ++i) current.mbgp_routes.upsert(mbgp(i, 0));
  }

  for (int cycle = 0; cycle < shape.cycles; ++cycle) {
    if (cycle > 0) {
      current.pairs.advance_derived(kCycle);
      current.routes.advance_derived(kCycle);
      current.sa_cache.advance_derived(kCycle);
      current.routes.upsert(route(rng() % 28, 3 + static_cast<int>(rng() % 9), rng() % 4 == 0));
      if (rng() % 3 == 0) current.routes.erase(route(rng() % 28, 3, false).prefix);
      current.pairs.upsert(pair(rng() % 16, rng() % 5, static_cast<double>(rng() % 90) / 10.0));
      if (rng() % 4 == 0) current.pairs.erase(pair(rng() % 16, rng() % 5, 0.0).key());
      if (!shape.sparse) {
        // Cycles 40-59 of every 100 drain the SA cache; the rest refill it.
        if (cycle % 100 >= 40 && cycle % 100 < 60) {
          if (!current.sa_cache.empty()) {
            current.sa_cache.erase(current.sa_cache.begin()->key());
          }
        } else {
          current.sa_cache.upsert(sa(rng() % 8, rng() % 8));
        }
        if (rng() % 2 == 0) {
          current.mbgp_routes.upsert(mbgp(rng() % 10, rng() % 4));
        } else {
          current.mbgp_routes.erase(mbgp(rng() % 10, 0).prefix);
        }
      }
    }
    current.captured = sim::TimePoint::start() + kCycle * std::int64_t{cycle};
    writer.append(current, meta_for(cycle));
  }
  writer.close();
}

std::vector<ArchiveShape> shapes() {
  return {
      {"interval1", 30, 1, true, false},
      {"interval8", 72, 8, true, false},
      {"interval96", 200, 96, true, false},
      {"keyframes_only", 30, 8, false, false},
      {"sparse", 40, 8, true, true},
  };
}

sim::TimePoint at_cycle(std::int64_t cycle) { return sim::TimePoint::start() + kCycle * cycle; }

struct Window {
  const char* name;
  sim::TimePoint from;
  sim::TimePoint to;
};

/// The five window shapes, in cycles of `shape`'s archive.
std::vector<Window> windows(const ArchiveShape& shape) {
  const std::int64_t k = shape.keyframe_interval;
  const std::int64_t n = shape.cycles;
  return {
      {"on a key-frame", at_cycle(k), at_cycle(k + 9)},
      {"mid-delta-run", at_cycle(k + k / 2 + 1), at_cycle(k + k / 2 + 10)},
      {"several key-frames", at_cycle(3), at_cycle(n - 4)},
      {"one cycle", at_cycle(k + 5), at_cycle(k + 5)},
      {"past both ends", sim::TimePoint::start() - sim::Duration::days(2),
       at_cycle(n) + sim::Duration::days(2)},
  };
}

enum class Filter { none, min_value, max_value, exclude_stale, exclude_failed };
constexpr Filter kFilters[] = {Filter::none, Filter::min_value, Filter::max_value,
                               Filter::exclude_stale, Filter::exclude_failed};
constexpr QueryResolution kResolutions[] = {QueryResolution::raw, QueryResolution::hour,
                                            QueryResolution::day};

bool reads_no_table(QueryMetric metric) {
  return metric == QueryMetric::parse_warnings || metric == QueryMetric::stale ||
         metric == QueryMetric::collection_failures ||
         metric == QueryMetric::collection_latency_ms;
}

/// What a metadata metric reads off one cycle's index entry.
double meta_value(QueryMetric metric, const ArchiveCycleMeta& meta) {
  switch (metric) {
    case QueryMetric::parse_warnings: return meta.parse_warnings;
    case QueryMetric::stale: return meta.stale ? 1.0 : 0.0;
    case QueryMetric::collection_failures: return meta.collection_failures;
    default: return static_cast<double>(meta.collection_latency.total_ms());
  }
}

/// The median raw value of `metric` over the archive: a value filter at it
/// keeps some cycles and drops others.
double median_value(const ArchiveReader& reader, QueryMetric metric) {
  BlockCache cache;
  Query query;
  query.metric = metric;
  std::vector<double> values;
  for (const QueryPoint& point : oracle::full_decode_raw_scan(reader, cache, query).points) {
    values.push_back(point.value);
  }
  std::sort(values.begin(), values.end());
  return values.empty() ? 0.0 : values[values.size() / 2];
}

Query make_query(QueryMetric metric, const Window& window, Filter filter,
                 QueryResolution resolution, double threshold) {
  Query query;
  query.target = "fixw";
  query.metric = metric;
  query.from = window.from;
  query.to = window.to;
  query.resolution = resolution;
  query.aggregate = static_cast<QueryAggregate>(
      (static_cast<int>(metric) + static_cast<int>(filter)) % 6);
  query.allow_rollup = false;
  switch (filter) {
    case Filter::none: break;
    case Filter::min_value: query.min_value = threshold; break;
    case Filter::max_value: query.max_value = threshold; break;
    case Filter::exclude_stale: query.include_stale = false; break;
    case Filter::exclude_failed: query.include_failed = false; break;
  }
  return query;
}

std::string describe(const ArchiveShape& shape, const Query& query, const Window& window,
                     Filter filter) {
  return shape.name + " " + to_string(query.metric) + " window '" + window.name +
         "' filter " + std::to_string(static_cast<int>(filter)) + " resolution " +
         std::to_string(static_cast<int>(query.resolution));
}

/// Bit-identical points: same times, same value bits, same sample counts.
bool same_points(const QueryResult& got, const QueryResult& want) {
  if (got.points.size() != want.points.size()) return false;
  for (std::size_t i = 0; i < got.points.size(); ++i) {
    if (got.points[i].t != want.points[i].t ||
        std::bit_cast<std::uint64_t>(got.points[i].value) !=
            std::bit_cast<std::uint64_t>(want.points[i].value) ||
        got.points[i].samples != want.points[i].samples) {
      return false;
    }
  }
  return true;
}

/// Every shape's archive, under file names of the running test's own (ctest
/// runs the tests as concurrent processes), removed when the test ends.
class ProjectedRawScan : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string test =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    for (const ArchiveShape& shape : shapes()) {
      paths_.push_back(::testing::TempDir() + "projection_" + test + "_" + shape.name +
                       ".marc");
      write_archive(shape, paths_.back());
    }
  }
  void TearDown() override {
    for (const std::string& path : paths_) std::remove(path.c_str());
  }
  [[nodiscard]] const std::string& path_of(std::size_t shape) const { return paths_[shape]; }

 private:
  std::vector<std::string> paths_;
};

TEST_F(ProjectedRawScan, MatchesTheFullDecodeOracle) {
  for (std::size_t s = 0; s < shapes().size(); ++s) {
    const ArchiveShape shape = shapes()[s];
    const ArchiveReader reader(path_of(s));
    ASSERT_EQ(reader.size(), static_cast<std::size_t>(shape.cycles));
    // One engine across the whole sweep: its key-frames were cached by
    // queries for other metrics, whose projections differ.
    QueryEngine shared;
    shared.add_archive("fixw", path_of(s));
    std::size_t compared = 0;
    std::size_t non_empty = 0;
    for (std::size_t m = 0; m < kQueryMetricCount; ++m) {
      const auto metric = static_cast<QueryMetric>(m);
      const double threshold = median_value(reader, metric);
      for (const Window& window : windows(shape)) {
        for (const Filter filter : kFilters) {
          for (const QueryResolution resolution : kResolutions) {
            const Query query = make_query(metric, window, filter, resolution, threshold);
            const std::string label = describe(shape, query, window, filter);
            BlockCache oracle_cache;
            const QueryResult want = oracle::full_decode_raw_scan(reader, oracle_cache, query);
            ++compared;
            if (!want.points.empty()) ++non_empty;

            QueryEngine engine;
            engine.add_archive("fixw", path_of(s));
            const QueryResult cold = engine.run(query);
            const QueryResult warm = engine.run(query);
            EXPECT_TRUE(same_points(cold, want)) << label << " (cold)";
            EXPECT_TRUE(same_points(warm, want)) << label << " (warm)";
            EXPECT_TRUE(same_points(shared.run(query), want)) << label << " (shared)";
            EXPECT_FALSE(cold.from_rollup) << label;
            if (reads_no_table(metric)) {
              for (const QueryResult* result : {&cold, &warm}) {
                EXPECT_EQ(result->records_decoded, 0u) << label;
                EXPECT_EQ(result->cache_hits, 0u) << label;
                EXPECT_EQ(result->cache_misses, 0u) << label;
              }
            } else {
              // The same records and key-frame fetches as the full decode;
              // warm, the key-frame fetch is a hit instead of a decode.
              EXPECT_EQ(cold.records_decoded, want.records_decoded) << label;
              EXPECT_EQ(cold.cache_hits, want.cache_hits) << label;
              EXPECT_EQ(cold.cache_misses, want.cache_misses) << label;
              EXPECT_EQ(warm.records_decoded, want.records_decoded - want.cache_misses) << label;
              EXPECT_EQ(warm.cache_hits, want.cache_misses) << label;
              EXPECT_EQ(warm.cache_misses, 0u) << label;
            }
          }
        }
      }
    }
    // The sweep compared real answers, mostly not empty ones.
    EXPECT_GT(non_empty, compared / 2) << shape.name;
  }
}

TEST_F(ProjectedRawScan, MetadataMetricsReadOnlyTheIndex) {
  const ArchiveShape shape = shapes()[2];  // key-frame interval 96
  QueryEngine engine;
  engine.add_archive("fixw", path_of(2));
  const ArchiveReader& reader = *engine.reader("fixw");
  for (const QueryMetric metric :
       {QueryMetric::parse_warnings, QueryMetric::stale, QueryMetric::collection_failures,
        QueryMetric::collection_latency_ms}) {
    for (const Window& window : windows(shape)) {
      Query query = make_query(metric, window, Filter::none, QueryResolution::raw, 0.0);
      const std::uint64_t decoded_before = reader.records_decoded();
      const BlockCache::Stats cache_before = engine.cache().stats();
      const QueryResult result = engine.run(query);
      const BlockCache::Stats cache_after = engine.cache().stats();
      EXPECT_FALSE(result.points.empty()) << to_string(metric) << " " << window.name;
      EXPECT_EQ(result.records_decoded, 0u);
      EXPECT_EQ(result.cache_hits, 0u);
      EXPECT_EQ(result.cache_misses, 0u);
      EXPECT_EQ(reader.records_decoded(), decoded_before) << to_string(metric);
      EXPECT_EQ(cache_after.hits + cache_after.misses, cache_before.hits + cache_before.misses);
      EXPECT_EQ(cache_after.insertions, cache_before.insertions);
      for (const QueryPoint& point : result.points) {
        const std::size_t i = *reader.index_at_or_before(point.t);
        EXPECT_EQ(reader.time_at(i), point.t);
        EXPECT_EQ(point.value, meta_value(metric, reader.meta_at(i))) << to_string(metric);
      }
    }
  }
  // A table metric over the same engine still goes through the cache.
  const QueryResult routes = engine.run(
      make_query(QueryMetric::dvmrp_routes, windows(shape)[0], Filter::none,
                 QueryResolution::raw, 0.0));
  EXPECT_EQ(routes.cache_misses, 1u);
  EXPECT_GT(routes.records_decoded, 0u);
}

/// Concurrent clients share one engine, one reader and one cache while
/// asking for different projections of the same key-frames.
TEST_F(ProjectedRawScan, ConcurrentClientsMatchTheOracle) {
  const ArchiveShape shape = shapes()[1];  // key-frame interval 8
  const ArchiveReader reader(path_of(1));
  std::vector<Query> queries;
  std::vector<QueryResult> expected;
  for (std::size_t m = 0; m < kQueryMetricCount; ++m) {
    for (const Window& window : windows(shape)) {
      const auto metric = static_cast<QueryMetric>(m);
      queries.push_back(make_query(metric, window, Filter::none, QueryResolution::raw, 0.0));
      BlockCache cache;
      expected.push_back(oracle::full_decode_raw_scan(reader, cache, queries.back()));
    }
  }
  // A small cache keeps key-frames cycling through miss, insert and evict.
  QueryEngineOptions options;
  options.cache_bytes = 4 * approx_block_bytes(reader.snapshot(0));
  options.cache_shards = 2;
  QueryEngine engine(options);
  engine.add_archive("fixw", path_of(1));

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(static_cast<std::uint32_t>(t) + 101);
      for (int round = 0; round < 60; ++round) {
        const std::size_t i = rng() % queries.size();
        if (!same_points(engine.run(queries[i]), expected[i])) ++mismatches;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(engine.cache().stats().hits, 0u);
}

}  // namespace
}  // namespace mantra::core
