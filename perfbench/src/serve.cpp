// archive_serve: a seeded multi-target `.marc` set spanning months of
// 15-minute cycles, compacted with `.mroll` sidecars, served by one
// QueryEngine to a closed loop of clients, then replayed into a report.
//
// The archives hold the FIXW scenario's own traffic. A Mantra polls FIXW and
// some borders of a seeded scenario for a few cycles after its warm-up (clean
// transport, as live_clean collects). Each target's archive starts from the
// tables of its first observed cycle; every later cycle applies one of that
// target's observed cycle-to-cycle changes, drawn at random, with the
// collection facts Mantra recorded for it. Table shapes (pairs, DVMRP routes,
// SA cache, MBGP) and churn are therefore the program's; only the timeline is
// stretched to months.
//
// Sizing: compaction keeps four key-frames per simulated day; the target
// count, scenario size and span below make the key-frame working set about
// twice the default 64 MiB BlockCache (the run prints the measured figure as
// keyframe_working_set_mb).
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/alert.hpp"
#include "core/archive.hpp"
#include "core/collect.hpp"
#include "core/mantra.hpp"
#include "core/query.hpp"
#include "core/report.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace mantra;

constexpr sim::Duration kCyclePeriod = sim::Duration::minutes(15);
/// Key-frame interval of the compacted archives: four per simulated day.
constexpr int kKeyframeInterval = 24;

struct ServeSize {
  int targets = 0;          ///< FIXW plus (targets - 1) borders
  int domains = 0;          ///< border domains of the observed scenario
  int observed_cycles = 0;  ///< cycles polled after the scenario's warm-up
  int days = 0;             ///< archived span
  int setup_repeats = 0;
  int report_passes = 0;
};

ServeSize serve_size(const RunConfig& config) {
  if (config.smoke) return {3, 8, 4, 4, 2, 1};
  return {11, 60, 16, 60, 3, 3};
}

/// One observed cycle of one target: how each logged table changed since the
/// previous cycle, and the collection facts Mantra archived with it.
struct ObservedCycle {
  core::PairTable::Delta pairs;
  core::RouteTable::Delta routes;
  core::SaTable::Delta sa_cache;
  core::MbgpTable::Delta mbgp_routes;
  core::ArchiveCycleMeta meta;
};

struct ObservedTarget {
  std::string name;
  core::Snapshot first;  ///< tables of the first observed cycle
  core::ArchiveCycleMeta first_meta;
  std::vector<ObservedCycle> cycles;  ///< the cycles after the first
};

core::ArchiveCycleMeta meta_of(const core::CycleResult& result) {
  core::ArchiveCycleMeta meta;
  meta.stale = result.stale;
  meta.stale_tables = static_cast<std::uint32_t>(result.stale_tables);
  meta.collection_failures = static_cast<std::uint32_t>(result.collection_failures);
  meta.consecutive_failures = static_cast<std::uint32_t>(result.consecutive_failures);
  meta.parse_warnings = static_cast<std::uint32_t>(result.parse_warnings);
  meta.capture_attempts = result.capture_attempts;
  meta.collection_latency = result.collection_latency;
  return meta;
}

/// Seed of the observed scenario. It is fixed, so every workload seed serves
/// archives of the same shape; the workload seed draws the archive's walk
/// through the observed changes and the query mix. Drawn from the workload
/// seed instead, the observed pair and SA-cache row counts varied about 10x
/// over five seeds, which changes what every query decodes.
constexpr std::uint64_t kScenarioSeed = 1;

/// Polls FIXW and (targets - 1) borders of the FIXW scenario for
/// `observed_cycles` cycles after a 2-hour warm-up.
std::vector<ObservedTarget> observe_scenario(const RunConfig& config, const ServeSize& size) {
  workload::ScenarioConfig scenario_cfg = scenario_config(kScenarioSeed, size.domains);
  // Mid-transition: half of the new sessions are sparse-mode, so the MSDP SA
  // caches fill (every border already speaks MBGP with FIXW).
  scenario_cfg.generator.sparse_probability = 0.5;
  workload::FixwScenario scenario(scenario_cfg);
  scenario.start();
  sim::Engine& engine = scenario.engine();
  engine.run_until(engine.now() + sim::Duration::hours(2));

  core::MantraConfig mc;
  mc.cycle = kCyclePeriod;
  mc.worker_threads = config.threads;
  core::Mantra monitor(engine, mc);
  for (const router::MulticastRouter* router : scenario_targets(scenario, size.targets)) {
    monitor.add_target(router);
  }
  std::vector<ObservedTarget> observed;
  for (const std::string& name : monitor.target_names()) {
    observed.emplace_back();
    observed.back().name = name;
  }
  std::vector<core::Snapshot> previous(observed.size());
  for (int c = 0; c < size.observed_cycles; ++c) {
    engine.run_until(engine.now() + kCyclePeriod);
    monitor.run_cycle_now();
    for (std::size_t i = 0; i < observed.size(); ++i) {
      ObservedTarget& target = observed[i];
      const core::Mantra::TargetView view = monitor.target_view(target.name);
      const core::Snapshot& now = view.latest_snapshot();
      const core::ArchiveCycleMeta meta = meta_of(view.results().back());
      if (c == 0) {
        target.first = now;
        target.first_meta = meta;
      } else {
        ObservedCycle cycle;
        cycle.pairs = core::PairTable::diff(previous[i].pairs, now.pairs);
        cycle.routes = core::RouteTable::diff(previous[i].routes, now.routes);
        cycle.sa_cache = core::SaTable::diff(previous[i].sa_cache, now.sa_cache);
        cycle.mbgp_routes = core::MbgpTable::diff(previous[i].mbgp_routes, now.mbgp_routes);
        cycle.meta = meta;
        target.cycles.push_back(std::move(cycle));
      }
      previous[i] = now;
    }
  }
  return observed;
}

/// Writes one target's raw archive of `cycles` cycles: the observed first
/// tables, then per cycle one of the target's observed changes drawn at
/// random (rows a change does not mention age by one period, as the logger
/// assumes). Returns the total ns spent in append().
std::int64_t write_raw_archive(const std::string& path, const ObservedTarget& observed,
                               std::uint64_t seed, int cycles, std::uint64_t* bytes,
                               std::uint64_t* records) {
  std::mt19937_64 rng(seed);
  core::ArchiveOptions options;
  options.fsync_on_keyframe = false;
  core::ArchiveWriter writer(path, options);
  core::Snapshot current = observed.first;
  std::int64_t append_ns = 0;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    core::ArchiveCycleMeta meta = observed.first_meta;
    if (cycle > 0) {
      current.pairs.advance_derived(kCyclePeriod);
      current.routes.advance_derived(kCyclePeriod);
      current.sa_cache.advance_derived(kCyclePeriod);
      current.mbgp_routes.advance_derived(kCyclePeriod);
      const ObservedCycle& change = observed.cycles[rng() % observed.cycles.size()];
      current.pairs.apply(change.pairs);
      current.routes.apply(change.routes);
      current.sa_cache.apply(change.sa_cache);
      current.mbgp_routes.apply(change.mbgp_routes);
      meta = change.meta;
    }
    current.captured = sim::TimePoint::start() + kCyclePeriod * std::int64_t{cycle};
    meta.cycle_seq = static_cast<std::uint64_t>(cycle + 1);
    const std::int64_t start = now_ns();
    writer.append(current, meta);
    append_ns += now_ns() - start;
  }
  writer.close();
  *bytes = writer.bytes_written();
  *records = writer.cycles_written();
  return append_ns;
}

struct ArchiveSet {
  std::vector<std::string> names;
  std::vector<std::string> paths;  ///< compacted archives (with .mroll)
  std::int64_t append_ns = 0;
  std::uint64_t raw_bytes = 0;
  std::uint64_t raw_records = 0;
};

/// Generates and compacts every target's archive, `threads` targets at once.
ArchiveSet build_archives(const RunConfig& config, const ServeSize& size,
                          const std::vector<ObservedTarget>& observed,
                          const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ArchiveSet set;
  for (const ObservedTarget& target : observed) {
    set.names.push_back(target.name);
    set.paths.push_back(dir + "/" + target.name + ".marc");
  }
  std::vector<std::int64_t> append_ns(set.names.size(), 0);
  std::vector<std::uint64_t> bytes(set.names.size(), 0);
  std::vector<std::uint64_t> records(set.names.size(), 0);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < std::min(config.threads, set.names.size()); ++w) {
    workers.emplace_back([&] {
      for (std::size_t i = next++; i < set.names.size(); i = next++) {
        const std::string raw = dir + "/" + set.names[i] + ".raw";
        append_ns[i] = write_raw_archive(
            raw, observed[i], core::per_target_seed(config.seed, "archive/" + set.names[i]),
            size.days * 96, &bytes[i], &records[i]);
        core::CompactionOptions compaction;
        compaction.keyframe_interval = kKeyframeInterval;
        core::compact_archive(raw, set.paths[i], compaction);
        std::filesystem::remove(raw);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (std::size_t i = 0; i < set.names.size(); ++i) {
    set.append_ns += append_ns[i];
    set.raw_bytes += bytes[i];
    set.raw_records += records[i];
  }
  return set;
}

enum class Kind { raw, coarse, snapshot };

struct Client {
  std::vector<double> raw_ms;
  std::vector<double> coarse_ms;
  std::vector<double> snapshot_ms;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t runs = 0;          ///< QueryEngine::run calls
  std::uint64_t rollup_served = 0;
  std::uint64_t raw_decoded = 0;   ///< records decoded by raw queries
};

/// One query of the mix: half raw 12-hour drill-downs (a third of them
/// filtered), 30 % coarse hour/day questions the rollups can answer, 20 %
/// snapshot_at lookups. The mix is an assumption: no archive reader's
/// traffic has been recorded. It follows how the paper's operators read the
/// history: plots over weeks and months (coarse), drill-downs into an
/// incident such as the Fig 9 route injection (raw windows), and the tables
/// as they stood at one instant (snapshot_at).
struct Request {
  Kind kind = Kind::raw;
  std::size_t target = 0;
  core::Query query;
  sim::TimePoint at;
};

Request next_request(std::mt19937_64& rng, const std::vector<std::string>& names,
                     std::int64_t span_ms) {
  Request r;
  r.target = static_cast<std::size_t>(rng() % names.size());
  r.query.target = names[r.target];
  r.query.metric = static_cast<core::QueryMetric>(rng() % core::kQueryMetricCount);
  const int roll = static_cast<int>(rng() % 10);
  if (roll < 5) {
    r.kind = Kind::raw;
    const std::int64_t window = 12 * core::kHourMs;
    const std::int64_t from =
        static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(std::max<std::int64_t>(span_ms - window, 1)));
    r.query.resolution = core::QueryResolution::raw;
    r.query.from = sim::TimePoint::from_ms(from);
    r.query.to = sim::TimePoint::from_ms(from + window);
    switch (rng() % 6) {
      case 0: r.query.min_value = 1.0; break;
      case 1: r.query.include_stale = false; break;
      default: break;
    }
  } else if (roll < 8) {
    r.kind = Kind::coarse;
    r.query.resolution = rng() % 2 == 0 ? core::QueryResolution::hour : core::QueryResolution::day;
    r.query.aggregate = static_cast<core::QueryAggregate>(rng() % 6);
    if (rng() % 2 == 0) {
      const std::int64_t window = 14 * core::kDayMs;
      const std::int64_t from = static_cast<std::int64_t>(
          rng() % static_cast<std::uint64_t>(std::max<std::int64_t>(span_ms - window, 1)));
      r.query.from = sim::TimePoint::from_ms(from);
      r.query.to = sim::TimePoint::from_ms(from + window);
    }
  } else {
    r.kind = Kind::snapshot;
    r.at = sim::TimePoint::from_ms(static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(span_ms)));
  }
  return r;
}

bool same_points(const core::QueryResult& a, const core::QueryResult& b) {
  if (a.points.size() != b.points.size()) return false;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    if (a.points[i].t != b.points[i].t || a.points[i].value != b.points[i].value ||
        a.points[i].samples != b.points[i].samples) {
      return false;
    }
  }
  return true;
}

}  // namespace

Outcome run_archive_serve(const RunConfig& config) {
  Outcome out;
  const ServeSize size = serve_size(config);
  const std::string dir = config.work_dir + "/archive_serve";

  // --- The scenario traffic the archives are made of. It is mostly
  // substrate advance, so it runs once and is not part of setup_s.
  const auto observe_start = Clock::now();
  const std::vector<ObservedTarget> observed = observe_scenario(config, size);
  out.fact("observe_s", ms_since(observe_start) / 1e3);
  {
    std::size_t pairs = 0, routes = 0, sa = 0, mbgp = 0, changes = 0, steps = 0;
    for (const ObservedTarget& target : observed) {
      pairs += target.first.pairs.size();
      routes += target.first.routes.size();
      sa += target.first.sa_cache.size();
      mbgp += target.first.mbgp_routes.size();
      for (const ObservedCycle& cycle : target.cycles) {
        changes += cycle.pairs.change_count() + cycle.routes.change_count() +
                   cycle.sa_cache.change_count() + cycle.mbgp_routes.change_count();
        ++steps;
      }
    }
    out.fact("observed_rows", "pairs " + std::to_string(pairs) + ", routes " +
                                  std::to_string(routes) + ", sa " + std::to_string(sa) +
                                  ", mbgp " + std::to_string(mbgp));
    out.fact("observed_changes_per_cycle",
             steps == 0 ? 0.0 : static_cast<double>(changes) / static_cast<double>(steps));
    out.check(pairs > 0 && routes > 0 && sa > 0 && mbgp > 0,
              "the observed scenario left a logged table empty");
  }

  // --- Set-up: generate + compact the archive set, open the engine; the
  // whole set-up runs setup_repeats times and setup_s is the median.
  std::vector<double> setup_ms;
  ArchiveSet set;
  std::unique_ptr<core::QueryEngine> engine;
  for (int r = 0; r < size.setup_repeats; ++r) {
    engine.reset();
    const auto start = Clock::now();
    set = build_archives(config, size, observed, dir);
    engine = std::make_unique<core::QueryEngine>();
    for (std::size_t i = 0; i < set.names.size(); ++i) {
      engine->add_archive(set.names[i], set.paths[i]);
    }
    setup_ms.push_back(ms_since(start));
  }
  for (const std::string& name : set.names) {
    out.check(engine->has_rollups(name), "no usable .mroll sidecar for " + name);
  }
  const std::int64_t span_ms = engine->reader(set.names[0])->last_time().total_ms();

  // --- Closed loop: `threads` clients, each sending its next query when the
  // previous one returns, for the run's seconds.
  const std::size_t clients = config.threads;
  SpanLog spans(clients + 1);
  const std::uint16_t raw_id = spans.name_id("query.raw");
  const std::uint16_t coarse_id = spans.name_id("query.coarse");
  const std::uint16_t snapshot_id = spans.name_id("archive.snapshot_at");
  std::vector<Client> results(clients);
  std::atomic<bool> stop{false};
  const double run_seconds = config.smoke ? 1.0 : static_cast<double>(config.seconds);
  const auto loop_start = Clock::now();
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        std::mt19937_64 rng(core::per_target_seed(config.seed, "client/" + std::to_string(c)));
        Client& me = results[c];
        while (!stop.load(std::memory_order_relaxed)) {
          const Request request = next_request(rng, set.names, span_ms);
          const std::uint16_t name = request.kind == Kind::raw      ? raw_id
                                     : request.kind == Kind::coarse ? coarse_id
                                                                    : snapshot_id;
          const auto start = Clock::now();
          const auto execute = [&] {
            if (request.kind == Kind::snapshot) {
              (void)engine->reader(set.names[request.target])->snapshot_at(request.at);
              return;
            }
            const core::QueryResult result = engine->run(request.query);
            ++me.runs;
            me.rollup_served += result.from_rollup ? 1 : 0;
            if (request.kind == Kind::raw) me.raw_decoded += result.records_decoded;
          };
          try {
            if (config.trace) {
              SpanLog::Scope span(spans, c + 1, name, static_cast<std::uint32_t>(me.completed));
              execute();
            } else {
              execute();
            }
          } catch (const std::exception&) {
            ++me.failed;
            continue;
          }
          const double ms = ms_since(start);
          (request.kind == Kind::raw      ? me.raw_ms
           : request.kind == Kind::coarse ? me.coarse_ms
                                          : me.snapshot_ms)
              .push_back(ms);
          ++me.completed;
        }
      });
    }
    while (ms_since(loop_start) < run_seconds * 1e3) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stop = true;
    for (std::thread& thread : threads) thread.join();
  }
  const double loop_s = ms_since(loop_start) / 1e3;
  const core::BlockCache::Stats cache = engine->cache().stats();

  // --- Replay-and-report passes: QueryEngine::replay of every target, the
  // default rules over the replayed streams, the HTML report.
  std::vector<double> pass_ms, replay_ms, data_ms, render_ms;
  std::size_t report_bytes = 0;
  std::vector<core::ReportTargetData> first_pass;
  for (int p = 0; p < size.report_passes; ++p) {
    const auto start = Clock::now();
    std::vector<core::ReportTargetData> targets;
    for (const std::string& name : set.names) {
      core::ReportTargetData target;
      target.name = name;
      target.results = engine->replay(name).results;
      targets.push_back(std::move(target));
    }
    replay_ms.push_back(ms_since(start));
    if (p == 0) first_pass = targets;
    auto step = Clock::now();
    const core::ReportData data =
        core::report_data_from_replay(std::move(targets), core::default_alert_rules());
    data_ms.push_back(ms_since(step));
    step = Clock::now();
    const std::string html = core::render_html_report(data);
    render_ms.push_back(ms_since(step));
    pass_ms.push_back(ms_since(start));
    report_bytes = html.size();
  }

  // --- Metrics.
  std::vector<double> raw, coarse, snapshot;
  std::uint64_t completed = 0, failed = 0, runs = 0, served = 0, decoded = 0;
  for (const Client& c : results) {
    raw.insert(raw.end(), c.raw_ms.begin(), c.raw_ms.end());
    coarse.insert(coarse.end(), c.coarse_ms.begin(), c.coarse_ms.end());
    snapshot.insert(snapshot.end(), c.snapshot_ms.begin(), c.snapshot_ms.end());
    completed += c.completed;
    failed += c.failed;
    runs += c.runs;
    served += c.rollup_served;
    decoded += c.raw_decoded;
  }
  out.set("op_ms_p50", median(raw), "ms");
  out.set("op_ms_p90", quantile(raw, 0.9), "ms");
  out.set("ops_per_s", static_cast<double>(completed) / loop_s, "1/s");
  out.set("setup_s", median(setup_ms) / 1e3, "s");
  out.attempted = completed + failed;
  out.failed = failed;
  out.check(completed > 0, "no query completed");
  out.check(failed == 0, "queries failed");

  out.fact("targets", std::to_string(set.names.size()));
  out.fact("clients", std::to_string(clients));
  out.fact("archive_days", std::to_string(size.days));
  out.fact("archived_cycles", std::to_string(set.raw_records));
  out.fact("raw_queries", std::to_string(raw.size()));
  out.fact("coarse_queries", std::to_string(coarse.size()));
  out.fact("snapshot_at_lookups", std::to_string(snapshot.size()));
  out.fact("raw_query_ms_p50", median(raw));
  out.fact("raw_query_ms_p90", quantile(raw, 0.9));
  out.fact("queries_per_s", static_cast<double>(completed) / loop_s);
  out.fact("replay_report_s", median(pass_ms) / 1e3);
  out.fact("cache_hit_rate", cache.hit_rate());
  {
    double keyframe_bytes = 0.0;
    std::size_t keyframes = 0;
    for (const std::string& name : set.names) {
      const core::ArchiveReader& r = *engine->reader(name);
      std::size_t target_keyframes = 0;
      for (std::size_t i = 0; i < r.size(); ++i) target_keyframes += r.keyframe_at(i) ? 1 : 0;
      keyframes += target_keyframes;
      keyframe_bytes += static_cast<double>(core::approx_block_bytes(r.snapshot(0))) *
                        static_cast<double>(target_keyframes);
    }
    out.fact("keyframes", std::to_string(keyframes));
    out.fact("keyframe_working_set_mb", keyframe_bytes / (1 << 20));
  }

  if (config.trace) {
    out.set("archive.append_us",
            static_cast<double>(set.append_ns) / static_cast<double>(set.raw_records) / 1e3, "us");
    out.set("archive.bytes_per_record",
            static_cast<double>(set.raw_bytes) / static_cast<double>(set.raw_records), "bytes");
    out.set("archive.records_decoded_per_raw_query",
            raw.empty() ? 0.0 : static_cast<double>(decoded) / static_cast<double>(raw.size()),
            "count");
    out.set("archive.snapshot_at_us", median(spans.durations_ms("archive.snapshot_at")) * 1e3, "us");
    out.set("query.raw_us_p50", median(spans.durations_ms("query.raw")) * 1e3, "us");
    out.set("query.rollup_us_p50", median(spans.durations_ms("query.coarse")) * 1e3, "us");
    out.set("query.rollup_served_frac",
            runs == 0 ? 0.0 : static_cast<double>(served) / static_cast<double>(runs), "ratio");
    out.set("query.cache_hit_rate", cache.hit_rate(), "ratio");
    out.set("query.cache_evictions", static_cast<double>(cache.evictions), "count");
    out.set("query.replay_ms", median(replay_ms), "ms");
    out.set("report.data_ms", median(data_ms), "ms");
    out.set("report.render_ms", median(render_ms), "ms");
    out.set("report.bytes", static_cast<double>(report_bytes), "bytes");
    out.set("trace.spans", static_cast<double>(spans.span_count()), "count");
    if (!spans.write_jsonl(dir + "/spans.jsonl")) out.check(false, "could not write the span file");
    out.fact("spans_file", dir + "/spans.jsonl");
  }

  // --- Correctness: rollup-served answers equal forced raw scans on a
  // seeded sample, and QueryEngine::replay equals replay_archive.
  std::mt19937_64 rng(core::per_target_seed(config.seed, "parity"));
  int compared = 0;
  for (int i = 0; i < 400 && compared < 24; ++i) {
    Request request = next_request(rng, set.names, span_ms);
    if (request.kind != Kind::coarse) continue;
    const core::QueryResult served_result = engine->run(request.query);
    if (!served_result.from_rollup) continue;
    request.query.allow_rollup = false;
    const core::QueryResult raw_result = engine->run(request.query);
    out.check(same_points(served_result, raw_result),
              "rollup-served answer differs from the raw scan for " + request.query.target);
    ++compared;
  }
  out.check(compared > 0, "no rollup-served query to compare");
  for (std::size_t i = 0; i < set.names.size(); ++i) {
    const core::ReplayRun direct = core::replay_archive(*engine->reader(set.names[i]));
    out.check(direct.results == first_pass[i].results,
              "QueryEngine::replay differs from replay_archive for " + set.names[i]);
  }
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  engine.reset();
  for (const std::string& path : set.paths) {
    std::filesystem::remove(path);
    std::filesystem::remove(core::rollup_path_for(path));
  }
  return out;
}

}  // namespace perfbench
