// Macro-benchmark for the core/query serving layer: a multi-month synthetic
// archive (15-minute cycles, seeded table churn), its `.mroll` rollup
// sidecar, and two measurements —
//
//   1. rollup leverage: one full-range per-hour query answered from the
//      sidecar vs the same query forced down the raw delta-scan path. The
//      paper's readers ask coarse questions about months of history; the
//      sidecar must make those queries cheap regardless of capture rate.
//   2. raw cost per metric: the median time of a 12-hour raw drill-down
//      for each query metric, the same seeded windows for every metric,
//      every key-frame already cached. A raw scan decodes only the table
//      its metric reads, and the metadata metrics decode nothing, so the
//      metrics differ by what they decode and derive.
//   3. client scaling: 1 / 8 / 64 simulated clients hammering one shared
//      QueryEngine with a mixed workload (raw range scans over random
//      windows + coarse rollup queries), reporting aggregate queries/sec
//      and the block-cache hit rate.
//
// Emits BENCH_query_scale.json at the repo root (MANTRA_REPO_ROOT baked in
// at configure time), with the host facts (cores, build type, compiler) the
// numbers were measured on. Scale knobs:
//   MANTRA_QUERY_SCALE_DAYS           archive span in days (default 90)
//   MANTRA_QUERY_SCALE_CLIENTS        largest client count (default 64)
//   MANTRA_QUERY_SCALE_QUERIES        queries per client per measurement
//                                     (default 200)
//   MANTRA_BENCH_OUTPUT_DIR           overrides the JSON output directory
//   MANTRA_QUERY_SCALE_ASSERT_ROLLUP  when set, fail unless the rollup-served
//                                     query is >= 10x faster than the raw
//                                     scan and the cache hit rate at the
//                                     largest client count exceeds 50%
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/archive.hpp"
#include "core/query.hpp"
#include "macro_run.hpp"

namespace mantra::bench {
namespace {

int env_int(const char* name, int fallback) {
  if (const char* env = std::getenv(name)) {
    const int value = std::atoi(env);
    if (value > 0) return value;
  }
  return fallback;
}

std::string output_path() {
  if (const char* dir = std::getenv("MANTRA_BENCH_OUTPUT_DIR")) {
    return std::string(dir) + "/BENCH_query_scale.json";
  }
#ifdef MANTRA_REPO_ROOT
  return std::string(MANTRA_REPO_ROOT) + "/BENCH_query_scale.json";
#else
  return "BENCH_query_scale.json";
#endif
}

constexpr auto kCycle = sim::Duration::minutes(15);

/// Synthetic multi-month archive: direct ArchiveWriter appends with seeded
/// churn (a route flap, rate changes, SA cache turnover per cycle) — the
/// bench measures the serving layer, not the scenario simulator, and 90 days
/// of 15-minute cycles (8640 records) write in well under a second.
void write_archive(const std::string& path, int days) {
  std::mt19937 rng(424242);
  core::ArchiveOptions options;
  options.keyframe_interval = 96;  // one key-frame per simulated day
  options.fsync_on_keyframe = false;
  core::ArchiveWriter writer(path, options);

  core::Snapshot current;
  current.router_name = "fixw";
  for (std::uint32_t i = 0; i < 400; ++i) {
    core::RouteRow route;
    route.prefix = net::Prefix(net::Ipv4Address(0x0A000000u + (i << 8)), 24);
    route.next_hop = net::Ipv4Address(0xC0A80002u);
    route.interface = i % 2 == 0 ? "tunnel0" : "tunnel1";
    route.metric = 3;
    current.routes.upsert(route);
  }
  for (std::uint32_t i = 0; i < 120; ++i) {
    core::PairRow pair;
    pair.source = net::Ipv4Address(0x0A010100u + i);
    pair.group = net::Ipv4Address(0xE0020000u + i % 40);
    pair.current_kbps = 2.0 + static_cast<double>(i % 30);
    current.pairs.upsert(pair);
  }
  for (std::uint32_t i = 0; i < 60; ++i) {
    core::SaRow entry;
    entry.source = net::Ipv4Address(0x0A010100u + i);
    entry.group = net::Ipv4Address(0xE0020000u + i % 40);
    entry.origin_rp = net::Ipv4Address(10, 0, 1, 1);
    entry.via_peer = net::Ipv4Address(10, 0, 2, 1);
    current.sa_cache.upsert(entry);
  }

  const int cycles = days * 96;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    if (cycle > 0) {
      current.pairs.advance_derived(kCycle);
      current.routes.advance_derived(kCycle);
      current.sa_cache.advance_derived(kCycle);
      for (int churn = 0; churn < 4; ++churn) {
        core::RouteRow route;
        route.prefix = net::Prefix(
            net::Ipv4Address(0x0A000000u + ((rng() % 400) << 8)), 24);
        route.next_hop = net::Ipv4Address(0xC0A80002u);
        route.interface = "tunnel0";
        route.metric = 3 + static_cast<int>(rng() % 12);
        current.routes.upsert(route);
      }
      core::PairRow pair;
      pair.source = net::Ipv4Address(0x0A010100u + rng() % 120);
      pair.group = net::Ipv4Address(0xE0020000u + rng() % 40);
      pair.current_kbps = static_cast<double>(rng() % 900) / 10.0;
      current.pairs.upsert(pair);
    }
    current.captured = sim::TimePoint::start() + kCycle * std::int64_t{cycle};
    core::ArchiveCycleMeta meta;
    meta.stale = cycle % 97 == 0;
    meta.collection_failures = cycle % 131 == 0 ? 1u : 0u;
    meta.collection_latency = sim::Duration::seconds(1);
    writer.append(current, meta);
  }
  writer.close();
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Raw drill-down: a random half-day window at raw resolution.
void set_raw_window(core::Query& query, std::mt19937& rng, std::int64_t span_ms) {
  const std::int64_t window = 12 * core::kHourMs;
  const std::int64_t from =
      static_cast<std::int64_t>(rng()) % std::max<std::int64_t>(span_ms - window, 1);
  query.resolution = core::QueryResolution::raw;
  query.from = sim::TimePoint::from_ms(from);
  query.to = sim::TimePoint::from_ms(from + window);
}

/// The mixed per-client workload: mostly coarse dashboard questions (rollup
/// territory) with a minority of raw drill-downs over random 12-hour
/// windows (cache territory).
core::Query random_query(std::mt19937& rng, std::int64_t span_ms) {
  core::Query query;
  query.target = "fixw";
  query.metric = static_cast<core::QueryMetric>(rng() % core::kQueryMetricCount);
  const int kind = static_cast<int>(rng() % 4);
  if (kind == 0) {
    set_raw_window(query, rng, span_ms);
  } else {
    // Coarse sweep over the whole archive.
    query.resolution = kind == 1 ? core::QueryResolution::day
                                 : core::QueryResolution::hour;
    query.aggregate = kind == 2 ? core::QueryAggregate::max
                                : core::QueryAggregate::mean;
  }
  return query;
}

struct ClientMeasurement {
  int clients = 0;
  double seconds = 0.0;
  std::uint64_t queries = 0;
  std::uint64_t rollup_served = 0;
  double hit_rate = 0.0;
};

}  // namespace
}  // namespace mantra::bench

int main() {
  using namespace mantra;
  using namespace mantra::bench;

  const int days = env_int("MANTRA_QUERY_SCALE_DAYS", 90);
  const int max_clients = env_int("MANTRA_QUERY_SCALE_CLIENTS", 64);
  const int queries_per_client = env_int("MANTRA_QUERY_SCALE_QUERIES", 200);

  const std::string archive_path =
      (std::getenv("MANTRA_BENCH_OUTPUT_DIR") != nullptr
           ? std::string(std::getenv("MANTRA_BENCH_OUTPUT_DIR"))
           : std::string("/tmp")) +
      "/query_scale.marc";

  std::fprintf(stderr, "writing %d-day synthetic archive...\n", days);
  auto started = std::chrono::steady_clock::now();
  write_archive(archive_path, days);
  std::fprintf(stderr, "archive written in %.2fs\n", seconds_since(started));

  // Compaction materializes the sidecar the engine will serve from.
  started = std::chrono::steady_clock::now();
  const core::CompactionStats compaction =
      core::compact_archive(archive_path, archive_path + ".c");
  std::remove(archive_path.c_str());
  const std::string serving_path = archive_path + ".c";
  std::fprintf(stderr,
               "compacted + rolled up in %.2fs (%zu hourly, %zu daily buckets)\n",
               seconds_since(started), compaction.rollup_hour_buckets,
               compaction.rollup_day_buckets);

  core::QueryEngine engine;
  engine.add_archive("fixw", serving_path);
  if (!engine.has_rollups("fixw")) {
    std::fprintf(stderr, "FATAL: compaction did not produce a usable sidecar\n");
    return 1;
  }
  const std::int64_t span_ms = engine.reader("fixw")->last_time().total_ms();
  const std::size_t cycles = engine.reader("fixw")->size();

  // --- Measurement 1: rollup leverage on one coarse full-range query -------
  core::Query coarse;
  coarse.target = "fixw";
  coarse.metric = core::QueryMetric::sessions;
  coarse.resolution = core::QueryResolution::hour;
  coarse.aggregate = core::QueryAggregate::mean;

  started = std::chrono::steady_clock::now();
  const core::QueryResult rollup_result = engine.run(coarse);
  const double rollup_s = seconds_since(started);

  coarse.allow_rollup = false;
  started = std::chrono::steady_clock::now();
  const core::QueryResult raw_result = engine.run(coarse);
  const double raw_s = seconds_since(started);

  bool equivalent = rollup_result.points.size() == raw_result.points.size();
  for (std::size_t i = 0; equivalent && i < rollup_result.points.size(); ++i) {
    equivalent = rollup_result.points[i].value == raw_result.points[i].value &&
                 rollup_result.points[i].t == raw_result.points[i].t;
  }
  const double speedup = rollup_s > 0.0 ? raw_s / rollup_s : 0.0;
  std::fprintf(stderr,
               "full-range per-hour query over %zu cycles: rollup=%.4fms "
               "(0 records) raw=%.1fms (%llu records)  speedup=%.0fx  "
               "identical=%s\n",
               cycles, rollup_s * 1e3, raw_s * 1e3,
               static_cast<unsigned long long>(raw_result.records_decoded),
               speedup, equivalent ? "yes" : "NO");

  // --- Measurement 2: raw drill-down cost per metric -----------------------
  // Every key-frame is cached first, so each query pays for its own table
  // decode and derivation, not for cache misses.
  const core::ArchiveReader& reader = *engine.reader("fixw");
  for (std::size_t i = 0; i < reader.size(); ++i) {
    if (!reader.keyframe_at(i)) continue;
    core::Query warm;
    warm.target = "fixw";
    warm.metric = core::QueryMetric::dvmrp_routes;
    warm.from = warm.to = reader.time_at(i);
    (void)engine.run(warm);
  }
  constexpr int kRawSamples = 101;
  std::array<double, core::kQueryMetricCount> raw_us{};
  for (std::size_t m = 0; m < core::kQueryMetricCount; ++m) {
    std::mt19937 rng(9001);  // the same windows for every metric
    std::vector<double> samples;
    samples.reserve(kRawSamples);
    for (int q = 0; q < kRawSamples; ++q) {
      core::Query query;
      query.target = "fixw";
      query.metric = static_cast<core::QueryMetric>(m);
      set_raw_window(query, rng, span_ms);
      started = std::chrono::steady_clock::now();
      (void)engine.run(query);
      samples.push_back(seconds_since(started) * 1e6);
    }
    std::nth_element(samples.begin(), samples.begin() + kRawSamples / 2, samples.end());
    raw_us[m] = samples[kRawSamples / 2];
    std::fprintf(stderr, "raw 12-hour %-24s median %8.1fus\n",
                 core::to_string(static_cast<core::QueryMetric>(m)), raw_us[m]);
  }

  // --- Measurement 3: client scaling ---------------------------------------
  std::vector<ClientMeasurement> sweep;
  for (const int clients : {1, 8, 64}) {
    if (clients > max_clients) break;
    // Fresh engine per point: the cache starts cold for every client count.
    core::QueryEngine point_engine;
    point_engine.add_archive("fixw", serving_path);
    std::atomic<std::uint64_t> rollup_served{0};

    started = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        std::mt19937 rng(static_cast<std::uint32_t>(c) * 7919u + 17u);
        std::uint64_t served = 0;
        for (int q = 0; q < queries_per_client; ++q) {
          const core::QueryResult result =
              point_engine.run(random_query(rng, span_ms));
          if (result.from_rollup) ++served;
        }
        rollup_served.fetch_add(served, std::memory_order_relaxed);
      });
    }
    for (std::thread& thread : threads) thread.join();

    ClientMeasurement m;
    m.clients = clients;
    m.seconds = seconds_since(started);
    m.queries = static_cast<std::uint64_t>(clients) * queries_per_client;
    m.rollup_served = rollup_served.load();
    m.hit_rate = point_engine.cache().stats().hit_rate();
    sweep.push_back(m);
    std::fprintf(stderr,
                 "clients=%2d  %llu queries in %.2fs  qps=%8.0f  "
                 "rollup_served=%.0f%%  cache_hit_rate=%.0f%%\n",
                 m.clients, static_cast<unsigned long long>(m.queries),
                 m.seconds, m.seconds > 0.0 ? m.queries / m.seconds : 0.0,
                 100.0 * m.rollup_served / m.queries, 100.0 * m.hit_rate);
  }

  // --- JSON artifact --------------------------------------------------------
  const std::string json_path = output_path();
  std::ofstream json(json_path);
  char line[512];
  std::snprintf(line, sizeof line,
                "{\n  \"bench\": \"query_scale\",\n"
                "  \"host\": {\"nproc\": %u, \"build_type\": \"%s\", "
                "\"compiler\": \"%s\"},\n"
                "  \"archive_days\": %d,\n"
                "  \"cycles\": %zu,\n  \"queries_per_client\": %d,\n"
                "  \"rollup\": {\"rollup_ms\": %.4f, \"raw_ms\": %.3f, "
                "\"speedup\": %.1f, \"raw_records_decoded\": %llu, "
                "\"identical\": %s},\n",
                std::max(1u, std::thread::hardware_concurrency()),
                MANTRA_BENCH_BUILD_TYPE, MANTRA_BENCH_COMPILER, days, cycles,
                queries_per_client, rollup_s * 1e3, raw_s * 1e3, speedup,
                static_cast<unsigned long long>(raw_result.records_decoded),
                equivalent ? "true" : "false");
  json << line;
  json << "  \"raw_by_metric\": {\"window_hours\": 12, \"queries\": " << kRawSamples
       << ", \"median_us\": {";
  for (std::size_t m = 0; m < core::kQueryMetricCount; ++m) {
    std::snprintf(line, sizeof line, "%s\"%s\": %.1f", m == 0 ? "" : ", ",
                  core::to_string(static_cast<core::QueryMetric>(m)), raw_us[m]);
    json << line;
  }
  json << "}},\n  \"clients\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const ClientMeasurement& m = sweep[i];
    std::snprintf(line, sizeof line,
                  "    {\"clients\": %d, \"queries\": %llu, \"seconds\": %.3f, "
                  "\"qps\": %.0f, \"rollup_served\": %llu, "
                  "\"cache_hit_rate\": %.3f}%s\n",
                  m.clients, static_cast<unsigned long long>(m.queries),
                  m.seconds, m.seconds > 0.0 ? m.queries / m.seconds : 0.0,
                  static_cast<unsigned long long>(m.rollup_served), m.hit_rate,
                  i + 1 < sweep.size() ? "," : "");
    json << line;
  }
  json << "  ]\n}\n";
  std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  std::remove(serving_path.c_str());
  std::remove(core::rollup_path_for(serving_path).c_str());

  print_check("rollup answers identical to raw scan", equivalent,
              equivalent ? "coarse query equal on both paths"
                         : "MISMATCH between rollup and raw answers");

  bool assert_ok = true;
  if (std::getenv("MANTRA_QUERY_SCALE_ASSERT_ROLLUP") != nullptr) {
    const bool speedup_ok = speedup >= 10.0;
    print_check("rollup >= 10x faster than raw delta scan", speedup_ok,
                speedup_ok ? "sidecar pays for itself"
                           : "rollup leverage below 10x");
    const ClientMeasurement& last = sweep.back();
    const bool hit_ok = last.hit_rate > 0.5;
    char detail[128];
    std::snprintf(detail, sizeof detail, "%.0f%% at %d clients",
                  100.0 * last.hit_rate, last.clients);
    print_check("cache hit rate > 50% at the largest client count", hit_ok,
                detail);
    assert_ok = speedup_ok && hit_ok;
  }
  return (equivalent && assert_ok) ? 0 : 1;
}
