// Fleet-scale monitoring (ROADMAP north-star): N sharded Mantra monitors,
// each watching its own simulated exchange-point topology, merged into one
// fleet-wide view by core/fleet's FleetAggregator.
//
//   $ ./examples/fleet_monitor [shards] [targets_per_shard] [days] [failure_rate]
//       (defaults: 4 shards x 4 targets, 3 days, no failures)
//
// Each shard is fully autonomous — its own scenario, engine, transports,
// alert engine and (optionally) .marc archives — and the aggregation tier
// only reads, so the fleet view is a pure (shard, name)-ordered merge.
//
// Flags:
//   --report-out=<path>         write the fleet HTML report (per-shard
//                               health tiles, merged alert table, top-K
//                               busiest targets) at the end of the run
//   --archive-dir=<dir>         per-shard durable archives under
//                               <dir>/shard-NN/<router>.marc
//   --replay-report-out=<path>  after the run, rebuild the fleet report
//                               offline from the archives via QueryEngine
//                               and write it here; the bytes must equal the
//                               live report (the CI job cmp's the two)
//   --self-telemetry            enable core/telemetry + a per-shard
//                               SelfMonitor; with --archive-dir each shard
//                               streams its samples to
//                               <dir>/<shard>/monitor.mtel and the replay
//                               rebuilds each "Monitor health" section from
//                               that file (still byte-identical)
//   --metrics-out=<path>        write the fleet-federated Prometheus
//                               exposition (counters summed across shards,
//                               gauges/unmergeable histograms tagged
//                               shard="..."); the exposition is lint-checked
//                               and violations fail the run
//   --events-out=<path>         write the fleet-merged logfmt event stream
//                               ((sim_ts, shard, seq) order, shard= field)
//   --explain-out=<path>        write the fleet-wide alert explanations
//                               (core/provenance, every shard's records
//                               merged (fired_at, shard, rule, target))
//   --replay-explain-out=<path> rebuild the explanations offline from the
//                               archives (+ per-shard .mtel event tails)
//                               and write them here; with --explain-out the
//                               two are compared and a mismatch fails the
//                               run
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/fleet.hpp"
#include "core/mantra.hpp"
#include "core/provenance.hpp"
#include "core/query.hpp"
#include "core/report.hpp"
#include "core/transport.hpp"
#include "workload/scenario.hpp"

using namespace mantra;

namespace {

std::string shard_name(std::size_t index) {
  char buffer[16];
  std::snprintf(buffer, sizeof buffer, "shard-%02zu", index);
  return buffer;
}

/// One autonomous shard: its own exchange-point scenario (own engine and
/// seed) plus the Mantra instance that monitors it.
struct Shard {
  std::string name;
  std::unique_ptr<workload::FixwScenario> scenario;
  std::unique_ptr<core::Mantra> monitor;
};

}  // namespace

int main(int argc, char** argv) {
  std::string report_out;
  std::string archive_dir;
  std::string replay_report_out;
  std::string metrics_out;
  std::string events_out;
  std::string explain_out;
  std::string replay_explain_out;
  bool self_telemetry = false;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--report-out=", 13) == 0) {
      report_out = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--archive-dir=", 14) == 0) {
      archive_dir = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--replay-report-out=", 20) == 0) {
      replay_report_out = argv[i] + 20;
    } else if (std::strncmp(argv[i], "--explain-out=", 14) == 0) {
      explain_out = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--replay-explain-out=", 21) == 0) {
      replay_explain_out = argv[i] + 21;
    } else if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) {
      metrics_out = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--events-out=", 13) == 0) {
      events_out = argv[i] + 13;
    } else if (std::strcmp(argv[i], "--self-telemetry") == 0) {
      self_telemetry = true;
    } else {
      positional.push_back(argv[i]);
    }
  }
  const bool telemetry_on =
      self_telemetry || !metrics_out.empty() || !events_out.empty();
  const std::size_t shard_count =
      positional.size() > 0 ? static_cast<std::size_t>(std::atoi(positional[0])) : 4;
  const std::size_t targets_per_shard =
      positional.size() > 1 ? static_cast<std::size_t>(std::atoi(positional[1])) : 4;
  const int days = positional.size() > 2 ? std::atoi(positional[2]) : 3;
  const double failure_rate = positional.size() > 3 ? std::atof(positional[3]) : 0.0;
  if ((!replay_report_out.empty() || !replay_explain_out.empty()) &&
      archive_dir.empty()) {
    std::fprintf(stderr,
                 "--replay-report-out/--replay-explain-out require "
                 "--archive-dir\n");
    return 1;
  }

  // --- build the shards ---
  std::vector<Shard> shards;
  for (std::size_t s = 0; s < shard_count; ++s) {
    workload::ScenarioConfig config;
    config.seed = 1998 + s;  // independent workload per shard
    // One exchange point plus enough border domains to reach the target
    // count (targets = fixw hub + one border router per domain).
    config.domains = std::max<std::size_t>(1, targets_per_shard - 1);
    config.hosts_per_domain = 4;
    config.dvmrp_prefixes_per_domain = 12;
    config.report_loss = 0.08;
    config.timer_scale = 40;
    config.full_timers = false;
    config.generator.session_arrivals_per_hour = 40.0;
    config.generator.bursts_per_day = 1.0;

    Shard shard;
    shard.name = shard_name(s);
    shard.scenario = std::make_unique<workload::FixwScenario>(config);
    shard.scenario->schedule_transition(
        sim::TimePoint::start() + sim::Duration::days(std::max(1, days / 2)),
        sim::Duration::days(std::max(1, days / 5)), 0.85);

    core::MantraConfig monitor_config;
    monitor_config.cycle = sim::Duration::minutes(30);
    monitor_config.alerts.enabled = true;
    monitor_config.telemetry.enabled = telemetry_on;
    if (!archive_dir.empty()) {
      monitor_config.archive_dir = archive_dir + "/" + shard.name;
    }
    if (self_telemetry) {
      monitor_config.self.enabled = true;
      monitor_config.self.name = shard.name;
      if (!archive_dir.empty()) {
        monitor_config.self.path =
            archive_dir + "/" + shard.name + "/monitor.mtel";
      }
    }
    core::TransportFactory factory;
    if (failure_rate > 0.0) {
      const std::uint64_t seed = config.seed;
      factory = [seed, failure_rate](const std::string& name) {
        return std::make_unique<core::FaultInjectingTransport>(
            core::per_target_seed(seed, name),
            core::FaultProfile::command_failure_rate(failure_rate));
      };
    }
    shard.monitor = std::make_unique<core::Mantra>(
        shard.scenario->engine(), monitor_config, std::move(factory));
    shard.monitor->add_target(
        shard.scenario->network().router(shard.scenario->fixw_node()));
    for (std::size_t t = 1; t < targets_per_shard; ++t) {
      shard.monitor->add_target(shard.scenario->network().router(
          shard.scenario->border_nodes().at(t - 1)));
    }
    shard.scenario->start();
    shard.monitor->start();
    shards.push_back(std::move(shard));
  }

  // --- run every shard's engine in day-sized lockstep ---
  for (int day = 1; day <= days; ++day) {
    std::size_t live_sessions = 0;
    for (Shard& shard : shards) {
      shard.scenario->engine().run_until(sim::TimePoint::start() +
                                         sim::Duration::days(day));
      live_sessions += shard.scenario->generator().live_session_count();
    }
    std::fprintf(stderr, "day %d/%d: %zu live sessions across %zu shards\n",
                 day, days, live_sessions, shards.size());
  }

  // --- aggregate ---
  core::FleetAggregator fleet;
  for (const Shard& shard : shards) {
    fleet.add_shard(shard.name, *shard.monitor);
  }
  const core::FleetStatus status = fleet.status();
  std::printf("=== Fleet shard health ===\n\n%s\n",
              status.shard_table().render().c_str());
  std::printf("=== Per-target status (%zu targets) ===\n\n%s\n",
              status.targets.size(), status.to_table().render().c_str());

  const auto write_file = [](const std::string& path,
                             const std::string& content) {
    FILE* out = std::fopen(path.c_str(), "wb");
    const bool ok = out != nullptr &&
                    std::fwrite(content.data(), 1, content.size(), out) ==
                        content.size();
    if (out != nullptr) std::fclose(out);
    std::fprintf(stderr, "%s %s\n", ok ? "wrote" : "FAILED to write",
                 path.c_str());
    return ok;
  };

  if (!metrics_out.empty()) {
    const std::string exposition = core::federated_prometheus_text(fleet);
    const std::vector<std::string> violations =
        core::prometheus_lint(exposition);
    for (const std::string& violation : violations) {
      std::fprintf(stderr, "federated exposition lint: %s\n",
                   violation.c_str());
    }
    if (!write_file(metrics_out, exposition) || !violations.empty()) return 1;
  }
  if (!events_out.empty()) {
    if (!write_file(events_out, core::federated_events_logfmt(fleet))) return 1;
  }

  const core::FleetReportData live_data = core::fleet_report_data_from(fleet);
  std::string live_report;
  if (!report_out.empty()) {
    live_report = core::render_fleet_html_report(live_data);
    FILE* out = std::fopen(report_out.c_str(), "wb");
    const bool ok = out != nullptr &&
                    std::fwrite(live_report.data(), 1, live_report.size(),
                                out) == live_report.size();
    if (out != nullptr) std::fclose(out);
    std::fprintf(stderr, "%s %s\n", ok ? "wrote" : "FAILED to write",
                 report_out.c_str());
    if (!ok) return 1;
  }

  std::string live_explain;
  if (!explain_out.empty()) {
    const core::FleetProvenance merged = core::fleet_provenance_from(live_data);
    live_explain = core::render_explanations(merged.records,
                                             core::ExplainFilter{},
                                             &merged.shards);
    if (!write_file(explain_out, live_explain)) return 1;
  }

  if (replay_report_out.empty() && replay_explain_out.empty()) return 0;

  // --- offline rebuild from the archives (QueryEngine per shard) ---
  std::vector<std::pair<std::string, std::vector<std::string>>> layout;
  for (const Shard& shard : shards) {
    layout.emplace_back(shard.name, shard.monitor->target_names());
  }
  shards.clear();  // destroys the monitors, flushing every .marc archive

  std::vector<core::FleetShardReplay> replayed;
  for (const auto& [name, targets] : layout) {
    core::QueryEngine engine;
    core::FleetShardReplay shard;
    shard.shard = name;
    shard.rules = core::default_alert_rules();
    for (const std::string& target : targets) {
      engine.add_archive(
          target, archive_dir + "/" + name + "/" + target + ".marc");
      shard.targets.push_back({target, engine.replay(target).results});
    }
    if (self_telemetry) {
      // The "Monitor health" section re-derived from the shard's `.mtel`:
      // the codec is lossless and the rule evaluation is a pure function of
      // the samples, so the replayed section renders byte-identically. The
      // same samples feed the provenance event tails.
      core::TelemetryArchiveReader reader(archive_dir + "/" + name +
                                          "/monitor.mtel");
      shard.health = core::monitor_health_from_samples(name, reader.samples());
      shard.samples = reader.samples();
    }
    replayed.push_back(std::move(shard));
  }
  const core::FleetReportData offline_data =
      core::fleet_report_data_from_replay(std::move(replayed));
  if (!replay_report_out.empty()) {
    const std::string offline = core::render_fleet_html_report(offline_data);
    if (!write_file(replay_report_out, offline)) return 1;
    if (!live_report.empty()) {
      std::fprintf(stderr, "live vs replay fleet report: %s\n",
                   live_report == offline ? "byte-identical" : "MISMATCH");
      if (live_report != offline) return 1;
    }
  }
  if (!replay_explain_out.empty()) {
    const core::FleetProvenance merged =
        core::fleet_provenance_from(offline_data);
    const std::string offline_explain = core::render_explanations(
        merged.records, core::ExplainFilter{}, &merged.shards);
    if (!write_file(replay_explain_out, offline_explain)) return 1;
    if (!live_explain.empty()) {
      std::fprintf(stderr, "live vs replay fleet explanations: %s\n",
                   live_explain == offline_explain ? "byte-identical"
                                                   : "MISMATCH");
      if (live_explain != offline_explain) return 1;
    }
  }
  return 0;
}
