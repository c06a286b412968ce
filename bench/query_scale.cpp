// Macro-benchmark for the core/query serving layer and the archive paths
// under it: a multi-month synthetic archive (15-minute cycles, seeded table
// churn) whose records store each cycle's derived result, its `.mroll`
// rollup sidecar, and five measurements —
//
//   1. archive costs: bytes per record and append time (each append derives
//      and stores the cycle's result), compaction with and without the
//      rollup sidecar, opening the compacted archive, replay_archive (which
//      reads the stored results), and a full table decode for scale.
//   2. rollup vs index walk: full-range per-hour and per-day queries
//      answered from the sidecar vs the same queries forced down the raw
//      path, which is an index walk over the stored results. The ratios say
//      what each rollup resolution still saves.
//   3. raw cost per metric: the median time of a 12-hour raw drill-down for
//      each query metric, the same seeded windows for every metric.
//   4. client scaling: 1 / 8 / 64 simulated clients hammering one shared
//      QueryEngine with a mixed workload (raw range scans over random
//      windows + coarse rollup queries), reporting aggregate queries/sec.
//   5. decodes: every query of measurements 2-4 must decode 0 archive
//      records, rollup-served and raw alike.
//
// Emits BENCH_query_scale.json at the repo root (MANTRA_REPO_ROOT baked in
// at configure time), with the host facts (cores, build type, compiler) the
// numbers were measured on. Scale knobs:
//   MANTRA_QUERY_SCALE_DAYS           archive span in days (default 90)
//   MANTRA_QUERY_SCALE_CLIENTS        largest client count (default 64)
//   MANTRA_QUERY_SCALE_QUERIES        queries per client per measurement
//                                     (default 200)
//   MANTRA_BENCH_OUTPUT_DIR           overrides the JSON output directory
//   MANTRA_QUERY_SCALE_ASSERT_ZERO_DECODE
//                                     when set, fail unless every raw and
//                                     every rollup-served query decoded 0
//                                     archive records
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

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Median wall time of `repeats` calls of `fn`, in milliseconds.
template <typename Fn>
double median_ms(int repeats, Fn&& fn) {
  std::vector<double> samples;
  for (int r = 0; r < repeats; ++r) {
    const auto started = std::chrono::steady_clock::now();
    fn();
    samples.push_back(seconds_since(started) * 1e3);
  }
  std::nth_element(samples.begin(), samples.begin() + repeats / 2, samples.end());
  return samples[static_cast<std::size_t>(repeats / 2)];
}

struct WriteStats {
  double append_us = 0.0;  ///< mean ArchiveWriter::append time per record
  double bytes_per_record = 0.0;
};

/// Synthetic multi-month archive: direct ArchiveWriter appends with seeded
/// churn (a route flap, rate changes, SA cache turnover per cycle) — the
/// bench measures the serving layer, not the scenario simulator, and 90 days
/// of 15-minute cycles (8640 records) write in about a second.
WriteStats write_archive(const std::string& path, int days) {
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
  double append_s = 0.0;
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
    const auto started = std::chrono::steady_clock::now();
    writer.append(current, meta);
    append_s += seconds_since(started);
  }
  writer.close();
  WriteStats stats;
  stats.append_us = append_s * 1e6 / cycles;
  stats.bytes_per_record = static_cast<double>(writer.bytes_written()) / cycles;
  return stats;
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
/// windows (index walks).
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
};

/// Full-range coarse query at `resolution`: the sidecar's answer against
/// the raw path's index walk, timed as the median of `repeats` runs each.
struct RollupComparison {
  double rollup_ms = 0.0;
  double walk_ms = 0.0;
  bool identical = false;
  std::uint64_t decoded = 0;  ///< records decoded by both paths' queries
};

RollupComparison compare_rollup(const core::QueryEngine& engine,
                                core::QueryResolution resolution, int repeats) {
  core::Query query;
  query.target = "fixw";
  query.metric = core::QueryMetric::sessions;
  query.resolution = resolution;
  query.aggregate = core::QueryAggregate::mean;
  RollupComparison out;
  core::QueryResult rollup;
  core::QueryResult walk;
  out.rollup_ms = median_ms(repeats, [&] { rollup = engine.run(query); });
  query.allow_rollup = false;
  out.walk_ms = median_ms(repeats, [&] { walk = engine.run(query); });
  out.identical = rollup.from_rollup && !walk.from_rollup &&
                  rollup.points.size() == walk.points.size();
  for (std::size_t i = 0; out.identical && i < rollup.points.size(); ++i) {
    out.identical = rollup.points[i].value == walk.points[i].value &&
                    rollup.points[i].t == walk.points[i].t &&
                    rollup.points[i].samples == walk.points[i].samples;
  }
  out.decoded = rollup.records_decoded + walk.records_decoded;
  return out;
}

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
  const std::string serving_path = archive_path + ".c";

  // --- Measurement 1: archive costs ----------------------------------------
  std::fprintf(stderr, "writing %d-day synthetic archive...\n", days);
  auto started = std::chrono::steady_clock::now();
  const WriteStats written = write_archive(archive_path, days);
  std::fprintf(stderr, "archive written in %.2fs: %.1f bytes/record, append %.1fus\n",
               seconds_since(started), written.bytes_per_record, written.append_us);

  constexpr int kRepeats = 3;
  core::CompactionOptions bare;
  bare.write_rollups = false;
  const double compact_bare_ms = median_ms(kRepeats, [&] {
    (void)core::compact_archive(archive_path, serving_path, bare);
  });
  core::CompactionStats compaction;
  const double compact_rollups_ms = median_ms(kRepeats, [&] {
    compaction = core::compact_archive(archive_path, serving_path);
  });
  std::remove(archive_path.c_str());
  std::fprintf(stderr,
               "compaction %.1fms without rollups, %.1fms with (%zu hourly, %zu daily "
               "buckets)\n",
               compact_bare_ms, compact_rollups_ms, compaction.rollup_hour_buckets,
               compaction.rollup_day_buckets);

  const double open_ms =
      median_ms(kRepeats, [&] { (void)core::ArchiveReader(serving_path); });
  const core::ArchiveReader replay_reader(serving_path);
  const double replay_ms =
      median_ms(kRepeats, [&] { (void)core::replay_archive(replay_reader); });
  const double full_decode_ms = median_ms(kRepeats, [&] {
    replay_reader.for_each([](std::size_t, const core::Snapshot&, const core::ArchiveCycleMeta&) {});
  });
  std::fprintf(stderr, "open %.1fms, replay_archive %.2fms, full table decode %.1fms\n",
               open_ms, replay_ms, full_decode_ms);

  core::QueryEngine engine;
  engine.add_archive("fixw", serving_path);
  if (!engine.has_rollups("fixw")) {
    std::fprintf(stderr, "FATAL: compaction did not produce a usable sidecar\n");
    return 1;
  }
  const core::ArchiveReader& reader = *engine.reader("fixw");
  const std::int64_t span_ms = reader.last_time().total_ms();
  const std::size_t cycles = reader.size();
  // Every query below must leave this counter where it is.
  const std::uint64_t decoded_at_open = reader.records_decoded();
  std::uint64_t query_decodes = 0;

  // --- Measurement 2: rollups vs the index walk ----------------------------
  constexpr int kCoarseRepeats = 21;
  const RollupComparison hourly =
      compare_rollup(engine, core::QueryResolution::hour, kCoarseRepeats);
  const RollupComparison daily =
      compare_rollup(engine, core::QueryResolution::day, kCoarseRepeats);
  query_decodes += hourly.decoded + daily.decoded;
  const bool equivalent = hourly.identical && daily.identical;
  for (const auto& [name, c] : {std::pair<const char*, const RollupComparison&>{"hour", hourly},
                                {"day", daily}}) {
    std::fprintf(stderr,
                 "full-range per-%s query over %zu cycles: rollup=%.4fms index walk=%.4fms "
                 "(walk/rollup %.1fx) identical=%s\n",
                 name, cycles, c.rollup_ms, c.walk_ms,
                 c.rollup_ms > 0.0 ? c.walk_ms / c.rollup_ms : 0.0,
                 c.identical ? "yes" : "NO");
  }

  // --- Measurement 3: raw drill-down cost per metric -----------------------
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
      const core::QueryResult result = engine.run(query);
      samples.push_back(seconds_since(started) * 1e6);
      query_decodes += result.records_decoded;
    }
    std::nth_element(samples.begin(), samples.begin() + kRawSamples / 2, samples.end());
    raw_us[m] = samples[kRawSamples / 2];
    std::fprintf(stderr, "raw 12-hour %-24s median %8.2fus\n",
                 core::to_string(static_cast<core::QueryMetric>(m)), raw_us[m]);
  }

  // --- Measurement 4: client scaling ---------------------------------------
  std::vector<ClientMeasurement> sweep;
  for (const int clients : {1, 8, 64}) {
    if (clients > max_clients) break;
    core::QueryEngine point_engine;
    point_engine.add_archive("fixw", serving_path);
    std::atomic<std::uint64_t> rollup_served{0};
    std::atomic<std::uint64_t> decoded{0};

    started = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        std::mt19937 rng(static_cast<std::uint32_t>(c) * 7919u + 17u);
        std::uint64_t served = 0;
        std::uint64_t records = 0;
        for (int q = 0; q < queries_per_client; ++q) {
          const core::QueryResult result =
              point_engine.run(random_query(rng, span_ms));
          if (result.from_rollup) ++served;
          records += result.records_decoded;
        }
        rollup_served.fetch_add(served, std::memory_order_relaxed);
        decoded.fetch_add(records, std::memory_order_relaxed);
      });
    }
    for (std::thread& thread : threads) thread.join();

    ClientMeasurement m;
    m.clients = clients;
    m.seconds = seconds_since(started);
    m.queries = static_cast<std::uint64_t>(clients) * queries_per_client;
    m.rollup_served = rollup_served.load();
    query_decodes += decoded.load() + point_engine.reader("fixw")->records_decoded();
    sweep.push_back(m);
    std::fprintf(stderr,
                 "clients=%2d  %llu queries in %.3fs  qps=%9.0f  rollup_served=%.0f%%\n",
                 m.clients, static_cast<unsigned long long>(m.queries), m.seconds,
                 m.seconds > 0.0 ? m.queries / m.seconds : 0.0,
                 100.0 * m.rollup_served / m.queries);
  }
  query_decodes += reader.records_decoded() - decoded_at_open;

  // --- JSON artifact --------------------------------------------------------
  const std::string json_path = output_path();
  std::ofstream json(json_path);
  char line[768];
  std::snprintf(line, sizeof line,
                "{\n  \"bench\": \"query_scale\",\n"
                "  \"host\": {\"nproc\": %u, \"build_type\": \"%s\", "
                "\"compiler\": \"%s\"},\n"
                "  \"archive_days\": %d,\n"
                "  \"cycles\": %zu,\n  \"queries_per_client\": %d,\n"
                "  \"archive\": {\"bytes_per_record\": %.1f, \"append_us\": %.2f, "
                "\"compact_ms\": %.1f, \"compact_with_rollups_ms\": %.1f, "
                "\"open_ms\": %.2f, \"replay_ms\": %.3f, \"full_decode_ms\": %.1f},\n",
                std::max(1u, std::thread::hardware_concurrency()),
                MANTRA_BENCH_BUILD_TYPE, MANTRA_BENCH_COMPILER, days, cycles,
                queries_per_client, written.bytes_per_record, written.append_us,
                compact_bare_ms, compact_rollups_ms, open_ms, replay_ms, full_decode_ms);
  json << line;
  std::snprintf(line, sizeof line,
                "  \"rollup\": {\"repeats\": %d, \"metric\": \"sessions\", "
                "\"hour\": {\"rollup_ms\": %.4f, \"index_walk_ms\": %.4f, "
                "\"index_walk_over_rollup\": %.1f}, "
                "\"day\": {\"rollup_ms\": %.4f, \"index_walk_ms\": %.4f, "
                "\"index_walk_over_rollup\": %.1f}, \"identical\": %s},\n",
                kCoarseRepeats, hourly.rollup_ms, hourly.walk_ms,
                hourly.rollup_ms > 0.0 ? hourly.walk_ms / hourly.rollup_ms : 0.0,
                daily.rollup_ms, daily.walk_ms,
                daily.rollup_ms > 0.0 ? daily.walk_ms / daily.rollup_ms : 0.0,
                equivalent ? "true" : "false");
  json << line;
  json << "  \"raw_by_metric\": {\"window_hours\": 12, \"queries\": " << kRawSamples
       << ", \"median_us\": {";
  for (std::size_t m = 0; m < core::kQueryMetricCount; ++m) {
    std::snprintf(line, sizeof line, "%s\"%s\": %.2f", m == 0 ? "" : ", ",
                  core::to_string(static_cast<core::QueryMetric>(m)), raw_us[m]);
    json << line;
  }
  json << "}},\n  \"records_decoded_by_queries\": " << query_decodes
       << ",\n  \"clients\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const ClientMeasurement& m = sweep[i];
    std::snprintf(line, sizeof line,
                  "    {\"clients\": %d, \"queries\": %llu, \"seconds\": %.3f, "
                  "\"qps\": %.0f, \"rollup_served\": %llu}%s\n",
                  m.clients, static_cast<unsigned long long>(m.queries),
                  m.seconds, m.seconds > 0.0 ? m.queries / m.seconds : 0.0,
                  static_cast<unsigned long long>(m.rollup_served),
                  i + 1 < sweep.size() ? "," : "");
    json << line;
  }
  json << "  ]\n}\n";
  std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  std::remove(serving_path.c_str());
  std::remove(core::rollup_path_for(serving_path).c_str());

  print_check("rollup answers identical to raw scan", equivalent,
              equivalent ? "hourly and daily queries equal on both paths"
                         : "MISMATCH between rollup and raw answers");

  bool assert_ok = true;
  if (std::getenv("MANTRA_QUERY_SCALE_ASSERT_ZERO_DECODE") != nullptr) {
    assert_ok = query_decodes == 0;
    char detail[128];
    std::snprintf(detail, sizeof detail, "%llu records decoded",
                  static_cast<unsigned long long>(query_decodes));
    print_check("raw and rollup-served queries decode 0 records", assert_ok, detail);
  }
  return (equivalent && assert_ok) ? 0 : 1;
}
