// Microbenchmarks of the monitoring pipeline itself (google-benchmark):
// capture-text preprocessing, table parsing, delta computation, logging,
// statistics, DVMRP route monitoring, and the LPM trie — the per-cycle costs that bound how many
// routers one Mantra instance can poll at a given cycle length, and the
// "text scraping vs structured access" cost DESIGN.md calls out. The
// render benchmarks time the other side of the capture: the simulated
// router writing `show ip dvmrp route` and `show ip mbgp` from its tables,
// and one whole capture of the five default commands with the transcript
// bytes the collector holds between cycles. The observation benchmarks time
// the monitor watching itself: a capture with telemetry on, and one
// self-monitor sample of a 50-target registry with the `.mtel` on.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>
#include <sstream>

#include "core/collect.hpp"
#include "core/log.hpp"
#include "core/mantra.hpp"
#include "core/parse.hpp"
#include "core/process.hpp"
#include "core/teltrace.hpp"
#include "net/prefix_trie.hpp"
#include "router/cli.hpp"
#include "sim/random.hpp"
#include "workload/scenario.hpp"

using namespace mantra;

namespace {

/// Synthesizes an IOS-style `show ip mroute count` capture with n pairs.
/// Rows cycle through the groups, so (S,G) keys arrive out of order, as in
/// IOS's group-major output.
std::string synth_mroute_count(int pairs) {
  std::ostringstream out;
  out << "IP Multicast Statistics\n"
      << pairs << " routes using " << pairs * 328 << " bytes of memory\n"
      << "Counts: Pkt Count/Pkts per second/Avg Pkt Size/Kilobits per second\n\n";
  for (int i = 0; i < pairs; ++i) {
    const int group = i % (pairs / 4 + 1);
    out << "Group: 224.2." << (group / 250) << "." << (group % 250) << "\n";
    out << "  Source: 10." << (i % 200) << ".1." << (i % 250)
        << "/32, Forwarding: " << (i * 37) << "/3/512/" << (i % 97) * 1.5
        << ", Other: " << (i * 37) << "/0/0\n";
    out << "    Average: " << (i % 89) * 1.1 << " kbps, Uptime: 01:02:"
        << (i % 60 < 10 ? "0" : "") << (i % 60) << "\n";
  }
  return out.str();
}

std::string synth_dvmrp_route(int routes) {
  std::ostringstream out;
  out << "DVMRP Routing Table - " << routes << " entries\n";
  for (int i = 0; i < routes; ++i) {
    out << "10." << (i / 250) << "." << (i % 250) << ".0/24 [0/" << (i % 30 + 1)
        << "] uptime 0" << (i % 9) << ":11:22, expires 00:02:0" << (i % 9) << "\n"
        << "    via 192.168." << (i % 14) << ".2, tunnel" << (i % 14) << "\n";
  }
  return out.str();
}

std::string with_telnet_noise(const std::string& body) {
  return "\r\nUser Access Verification\r\n\r\nPassword: \r\nfixw> terminal length 0\r\n"
         "fixw> show ip mroute count\r\n" +
         body + "fixw> ";
}

core::PairTable synth_pairs(int n, sim::Rng& rng) {
  core::PairTable pairs;
  for (int i = 0; i < n; ++i) {
    core::PairRow row;
    row.source = net::Ipv4Address(static_cast<std::uint32_t>(0x0A000000 + i));
    row.group = net::Ipv4Address(static_cast<std::uint32_t>(0xE0020000 + i % (n / 3 + 1)));
    row.current_kbps = rng.uniform(0.1, 300.0);
    row.uptime = sim::Duration::minutes(static_cast<std::int64_t>(rng.uniform(1, 500)));
    pairs.upsert(row);
  }
  return pairs;
}

void BM_Preprocess(benchmark::State& state) {
  const std::string raw = with_telnet_noise(synth_mroute_count(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::preprocess(raw));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(raw.size()));
}
BENCHMARK(BM_Preprocess)->Arg(100)->Arg(1000)->Arg(4000);

void BM_ParseMrouteCount(benchmark::State& state) {
  const std::string text = synth_mroute_count(static_cast<int>(state.range(0)));
  core::PairTable table;  // reused: measures the steady-state in-place parse
  for (auto _ : state) {
    core::parse_mroute_count(text, table);
    benchmark::DoNotOptimize(table.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ParseMrouteCount)->Arg(100)->Arg(1000)->Arg(4000);

void BM_ParseDvmrpRoute(benchmark::State& state) {
  const std::string text = synth_dvmrp_route(static_cast<int>(state.range(0)));
  core::RouteTable table;  // reused: measures the steady-state in-place parse
  for (auto _ : state) {
    core::parse_dvmrp_route(text, table);
    benchmark::DoNotOptimize(table.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ParseDvmrpRoute)->Arg(100)->Arg(1000)->Arg(6000);

void BM_TableDiff(benchmark::State& state) {
  sim::Rng rng(7);
  core::PairTable before = synth_pairs(static_cast<int>(state.range(0)), rng);
  core::PairTable after = before;
  // 5% churn between cycles.
  int i = 0;
  after.visit([&](const core::PairRow& row) {
    if (++i % 20 == 0) {
      core::PairRow changed = row;
      changed.current_kbps += 1.0;
      after.upsert(changed);
    }
  });
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::PairTable::diff(before, after));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_TableDiff)->Arg(500)->Arg(3000);

void BM_LoggerRecord(benchmark::State& state) {
  sim::Rng rng(7);
  core::Snapshot snapshot;
  snapshot.router_name = "fixw";
  snapshot.pairs = synth_pairs(static_cast<int>(state.range(0)), rng);
  std::int64_t cycle = 0;
  core::DataLogger logger;
  for (auto _ : state) {
    snapshot.captured = sim::TimePoint::from_ms(cycle++ * 900'000);
    logger.record(snapshot);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_LoggerRecord)->Arg(500)->Arg(3000);

void BM_DeriveAndUsage(benchmark::State& state) {
  sim::Rng rng(7);
  core::Snapshot snapshot;
  snapshot.pairs = synth_pairs(static_cast<int>(state.range(0)), rng);
  for (auto _ : state) {
    snapshot.participants = core::derive_participants(snapshot.pairs);
    snapshot.sessions = core::derive_sessions(snapshot.pairs);
    benchmark::DoNotOptimize(core::compute_usage(snapshot));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_DeriveAndUsage)->Arg(500)->Arg(3000);

void BM_RouteMonitorObserve(benchmark::State& state) {
  // Two tables 1 % apart (every 200th prefix replaced, every 200th further
  // one flipped into hold-down), observed alternately: each cycle merges a
  // full table with 1 % churn.
  const int n = static_cast<int>(state.range(0));
  core::RouteTable tables[2];
  for (int i = 0; i < n; ++i) {
    core::RouteRow row;
    row.prefix = net::Prefix(net::Ipv4Address(0x0A000000u + (static_cast<std::uint32_t>(i) << 8)), 24);
    row.next_hop = net::Ipv4Address(0xC0A80002u + static_cast<std::uint32_t>(i % 14));
    row.interface = "tunnel" + std::to_string(i % 14);
    row.metric = i % 30 + 1;
    tables[0].upsert(row);
    if (i % 200 == 0) {
      row.prefix = net::Prefix(net::Ipv4Address(0x0B000000u + (static_cast<std::uint32_t>(i) << 8)), 24);
    } else if (i % 200 == 100) {
      row.holddown = true;
    }
    tables[1].upsert(row);
  }
  core::RouteMonitor monitor;
  std::int64_t cycle = 0;
  for (auto _ : state) {
    monitor.observe(sim::TimePoint::from_ms(cycle * 900'000), tables[cycle & 1]);
    ++cycle;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_RouteMonitorObserve)->Arg(1600);

void BM_TrieLongestMatch(benchmark::State& state) {
  sim::Rng rng(11);
  net::PrefixTrie<int> trie;
  for (int i = 0; i < state.range(0); ++i) {
    trie.insert(net::Prefix(net::Ipv4Address(static_cast<std::uint32_t>(rng.engine()())),
                            static_cast<int>(rng.uniform_int(8, 28))),
                i);
  }
  std::uint32_t probe = 1;
  for (auto _ : state) {
    probe = probe * 1664525u + 1013904223u;
    benchmark::DoNotOptimize(trie.longest_match(net::Ipv4Address(probe)));
  }
}
BENCHMARK(BM_TrieLongestMatch)->Arg(600)->Arg(6000);

/// A 200-target FIXW scenario (199 domains of 12 DVMRP stubs each, the
/// live_clean shape) after a 2-hour warm-up: FIXW holds ~1,600 DVMRP
/// routes and ~200 MBGP routes. Built once for the render benchmarks.
workload::FixwScenario& render_scenario() {
  static const std::unique_ptr<workload::FixwScenario> scenario = [] {
    workload::ScenarioConfig config;
    config.seed = 701;
    config.domains = 199;
    config.hosts_per_domain = 2;
    config.dvmrp_prefixes_per_domain = 12;
    config.report_loss = 0.02;
    config.generator.session_arrivals_per_hour = 20.0;
    config.generator.bursts_per_day = 0.0;
    auto built = std::make_unique<workload::FixwScenario>(config);
    built->start();
    built->engine().run_until(built->engine().now() + sim::Duration::hours(2));
    return built;
  }();
  return *scenario;
}

const router::MulticastRouter& render_fixw() {
  workload::FixwScenario& scenario = render_scenario();
  return *scenario.network().router(scenario.fixw_node());
}

void BM_RenderDvmrpRoute(benchmark::State& state) {
  const router::MulticastRouter& fixw = render_fixw();
  const sim::TimePoint now = render_scenario().engine().now();
  std::string out;
  for (auto _ : state) {
    out.clear();
    router::cli::show_ip_dvmrp_route_into(fixw, now, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  const auto routes = static_cast<std::int64_t>(fixw.dvmrp()->routes().size());
  state.counters["routes"] = static_cast<double>(routes);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * routes);
}
BENCHMARK(BM_RenderDvmrpRoute);

void BM_RenderMbgp(benchmark::State& state) {
  const router::MulticastRouter& fixw = render_fixw();
  const sim::TimePoint now = render_scenario().engine().now();
  std::string out;
  for (auto _ : state) {
    out.clear();
    router::cli::show_ip_mbgp_into(fixw, now, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  const auto routes = static_cast<std::int64_t>(fixw.mbgp()->route_count());
  state.counters["routes"] = static_cast<double>(routes);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * routes);
}
BENCHMARK(BM_RenderMbgp);

/// The walk alone under BM_RenderDvmrpRoute: FIXW's DVMRP table visited in
/// address order with no text written.
void BM_TrieVisit(benchmark::State& state) {
  const dvmrp::RouteTable& table = render_fixw().dvmrp()->routes();
  for (auto _ : state) {
    int metrics = 0;
    table.visit([&metrics](const dvmrp::Route& route) { metrics += route.metric; });
    benchmark::DoNotOptimize(metrics);
  }
  state.counters["routes"] = static_cast<double>(table.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(table.size()));
}
BENCHMARK(BM_TrieVisit);

/// One warm `Collector::capture` of FIXW's five default commands over the
/// clean transport: render, transport and preprocess together.
/// `held_bytes` is the transcript capacity the collector keeps between
/// cycles, every slot's `raw_text` plus `clean_text`.
void BM_CollectorCapture(benchmark::State& state) {
  const router::MulticastRouter& fixw = render_fixw();
  const sim::TimePoint now = render_scenario().engine().now();
  core::Collector collector;
  // Warm-up: one capture per command plus one, so that however the
  // collector assigns buffers to slots, each has reached its steady size.
  for (std::size_t i = 0; i <= collector.commands().size(); ++i) {
    benchmark::DoNotOptimize(collector.capture(fixw, now).attempts);
  }
  std::size_t raw_bytes = 0;
  for (auto _ : state) {
    const core::CaptureReport& report = collector.capture(fixw, now);
    raw_bytes = 0;
    for (const core::RawCapture& capture : report.captures) {
      benchmark::DoNotOptimize(capture.clean_text.data());
      raw_bytes += capture.raw_text.size();
    }
    benchmark::ClobberMemory();
  }
  std::size_t held = 0;
  for (const core::RawCapture& capture : collector.capture(fixw, now).captures) {
    held += capture.raw_text.capacity() + capture.clean_text.capacity();
  }
  state.counters["held_bytes"] = static_cast<double>(held);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(raw_bytes));
}
BENCHMARK(BM_CollectorCapture);

/// One warm `Collector::capture` of FIXW's five default commands over a
/// FaultInjectingTransport (20 % command failures) with telemetry on: the
/// capture plus its metric updates, spans and events. The tracer keeps 1,024
/// spans and then counts the rest as dropped, so the run's memory stays flat.
void BM_ObservedCapture(benchmark::State& state) {
  const router::MulticastRouter& fixw = render_fixw();
  const sim::TimePoint now = render_scenario().engine().now();
  core::TelemetryConfig telemetry_config;
  telemetry_config.enabled = true;
  telemetry_config.max_spans = 1024;
  telemetry_config.max_events = 1024;
  core::Telemetry telemetry(telemetry_config);
  core::Collector collector(core::default_command_set(), core::RetryPolicy{},
                            std::make_unique<core::FaultInjectingTransport>(
                                0x0b5e, core::FaultProfile::command_failure_rate(0.2)));
  collector.set_telemetry(&telemetry, "fixw");
  for (std::size_t i = 0; i <= collector.commands().size(); ++i) {
    benchmark::DoNotOptimize(collector.capture(fixw, now).attempts);
  }
  std::size_t attempts = 0;
  for (auto _ : state) {
    const core::CaptureReport& report = collector.capture(fixw, now);
    benchmark::DoNotOptimize(report.attempts);
    attempts += report.attempts;
    benchmark::ClobberMemory();
  }
  state.counters["attempts_per_capture"] =
      static_cast<double>(attempts) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_ObservedCapture);

/// A 50-target observed monitor (the live_observed shape: 20 % command
/// failures, four workers, alerts and provenance, `.marc` archives) after
/// 48 cycles, so its registry holds the series a running monitor has.
struct ObservedRun {
  std::filesystem::path archive_dir =
      std::filesystem::temp_directory_path() / "pipeline_micro_marc";
  std::unique_ptr<workload::FixwScenario> scenario;
  std::unique_ptr<core::Mantra> monitor;  ///< reads the scenario's routers

  ObservedRun() {
    workload::ScenarioConfig config;
    config.seed = 83;
    config.domains = 49;
    config.hosts_per_domain = 2;
    config.dvmrp_prefixes_per_domain = 12;
    config.report_loss = 0.02;
    config.generator.session_arrivals_per_hour = 20.0;
    config.generator.bursts_per_day = 0.0;
    scenario = std::make_unique<workload::FixwScenario>(config);
    scenario->start();
    sim::Engine& engine = scenario->engine();
    engine.run_until(engine.now() + sim::Duration::hours(2));
    core::MantraConfig mc;
    mc.cycle = sim::Duration::minutes(30);
    mc.worker_threads = 4;
    mc.archive_dir = archive_dir.string();
    mc.telemetry.enabled = true;
    mc.alerts.enabled = true;
    mc.alerts.provenance = true;
    monitor = std::make_unique<core::Mantra>(
        engine, mc, [](const std::string& name) -> std::unique_ptr<core::Transport> {
          return std::make_unique<core::FaultInjectingTransport>(
              core::per_target_seed(0x5e1f, name),
              core::FaultProfile::command_failure_rate(0.2));
        });
    monitor->add_target(scenario->network().router(scenario->fixw_node()));
    for (const net::NodeId border : scenario->border_nodes()) {
      monitor->add_target(scenario->network().router(border));
    }
    for (int cycle = 0; cycle < 48; ++cycle) {
      engine.run_until(engine.now() + mc.cycle);
      monitor->run_cycle_now();
    }
  }
  ~ObservedRun() {
    monitor.reset();
    std::filesystem::remove_all(archive_dir);
  }
  ObservedRun(const ObservedRun&) = delete;
  ObservedRun& operator=(const ObservedRun&) = delete;
};

core::Mantra& observed_monitor() {
  static ObservedRun run;
  return *run.monitor;
}

/// One warm `SelfMonitor::sample` of the observed monitor's registry with
/// the `.mtel` on: snapshot, encode and append, and the self-rules.
void BM_SelfMonitorSample(benchmark::State& state) {
  core::Mantra& monitor = observed_monitor();
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "pipeline_micro_self.mtel";
  core::SelfMonitorConfig config;
  config.enabled = true;
  config.path = path.string();
  core::SelfMonitor self(config, &monitor.telemetry());
  std::int64_t t_ms = 0;
  for (int warm = 0; warm < 3; ++warm) self.sample(sim::TimePoint::from_ms(t_ms += 1000));
  for (auto _ : state) {
    self.sample(sim::TimePoint::from_ms(t_ms += 1000));
  }
  const core::MetricsSnapshot snapshot = monitor.telemetry().metrics().snapshot();
  state.counters["series"] = static_cast<double>(
      snapshot.counters.size() + snapshot.gauges.size() + snapshot.histograms.size());
  self.close();
  state.counters["bytes_per_sample"] =
      static_cast<double>(std::filesystem::file_size(path)) /
      static_cast<double>(state.iterations() + 3);
  std::filesystem::remove(path);
}
BENCHMARK(BM_SelfMonitorSample)->Unit(benchmark::kMicrosecond);

void BM_SpikeDetector(benchmark::State& state) {
  core::SpikeDetector detector;
  double value = 600.0;
  for (auto _ : state) {
    value += 1.0;
    benchmark::DoNotOptimize(detector.observe(value));
  }
}
BENCHMARK(BM_SpikeDetector);

}  // namespace

BENCHMARK_MAIN();
