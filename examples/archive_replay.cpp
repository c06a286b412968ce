// Capture-to-disk / analyse-later: the deployment split that let Mantra
// archive six months of router state and build the paper's figures off-line.
//
//   $ ./examples/archive_replay [days] [archive.marc | archive-dir] [flags]
//
// With no archive argument, records a [days]-long FIXW run (default 2) into
// /tmp/mantra-archive/fixw.marc with the durable archive sink enabled, then
// throws the live monitor away. Everything printed afterwards — the Fig 3
// usage-count series, the Fig 7 DVMRP route series, the busiest-sessions
// summary table — is rebuilt purely from the bytes on disk. With an archive
// argument, skips recording and analyses that file instead, so a file
// written by fixw_monitor-style deployments (or a previous run of this tool)
// replays without the scenario that produced it.
//
//   --report-out=<path>   re-derive the alert history (default rules) from
//                         the replayed results and write the self-contained
//                         HTML report. Given the directory a live
//                         `fixw_monitor --archive-dir=` run wrote (every
//                         *.marc replayed, target name = file stem), the
//                         report is byte-identical to the live one.
//   --explain[=<rule>[:<target>]]
//                         re-derive alert provenance from the replayed
//                         results and print each matching alert's causal
//                         explanation: the evaluation window with per-cycle
//                         collection facts and the triggering threshold
//                         math. Byte-identical to the live monitor's
//                         explanation of the same run.
//   --explain-out=<path>  write the explanation text there instead of stdout.
//   --mtel=<path>         the run's `.mtel` self-telemetry archive; attaches
//                         the correlated event tail (capture_failed,
//                         target_unreachable, ...) to each explanation and
//                         rebuilds the report's "Monitor health" section.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/archive.hpp"
#include "core/mantra.hpp"
#include "core/provenance.hpp"
#include "core/query.hpp"
#include "core/report.hpp"
#include "core/teltrace.hpp"
#include "workload/scenario.hpp"

using namespace mantra;

namespace {

/// Records the demo scenario to `dir` and returns the archive file path.
std::string record_demo_archive(const std::string& dir, int days) {
  workload::ScenarioConfig config;
  config.seed = 1998;
  config.domains = 6;
  config.hosts_per_domain = 12;
  config.dvmrp_prefixes_per_domain = 20;
  config.report_loss = 0.05;
  config.timer_scale = 10;
  config.full_timers = false;
  config.generator.session_arrivals_per_hour = 30.0;
  config.generator.bursts_per_day = 1.0;

  workload::FixwScenario scenario(config);
  scenario.start();

  core::MantraConfig monitor_config;
  monitor_config.cycle = sim::Duration::minutes(15);
  monitor_config.archive_dir = dir;
  core::Mantra monitor(scenario.engine(), monitor_config);
  monitor.add_target(scenario.network().router(scenario.fixw_node()));
  monitor.start();
  scenario.engine().run_until(sim::TimePoint::start() + sim::Duration::days(days));

  const core::ArchiveWriter* sink = monitor.target_view("fixw").archive();
  std::printf("recorded %zu cycles, %.1f KiB (%.0f bytes/cycle) -> %s\n\n",
              sink->cycles_written(),
              static_cast<double>(sink->bytes_written()) / 1024.0,
              static_cast<double>(sink->bytes_written()) /
                  static_cast<double>(sink->cycles_written()),
              sink->path().c_str());
  return sink->path();
  // The monitor (and with it the writer) is destroyed here: from now on the
  // file is the only thing that survives.
}

/// The §III "interactive table", rebuilt from an archived snapshot instead
/// of a live monitor.
core::SummaryTable busiest_sessions(const core::Snapshot& snapshot,
                                    std::size_t limit) {
  core::SummaryTable table({"group", "density", "senders", "kbps", "active", "age"});
  char buffer[64];
  snapshot.sessions.visit([&](const core::SessionRow& session) {
    std::snprintf(buffer, sizeof buffer, "%.2f", session.total_kbps);
    table.add_row({session.group.to_string(), std::to_string(session.density),
                   std::to_string(session.senders), buffer,
                   session.active ? "yes" : "no", session.age.to_string()});
  });
  table.sort_by(table.column_index("kbps").value(), /*numeric=*/true,
                /*descending=*/true);
  core::SummaryTable trimmed(std::vector<std::string>(table.columns()));
  for (std::size_t i = 0; i < std::min(limit, table.row_count()); ++i) {
    trimmed.add_row(std::vector<std::string>(table.rows()[i]));
  }
  return trimmed;
}

/// Replays one engine target into a report target (name = target name).
core::ReportTargetData replay_target(const core::QueryEngine& engine,
                                     const std::string& name) {
  core::ReportTargetData target;
  target.name = name;
  target.results = engine.replay(name).results;
  std::printf("  %s: %zu archived cycles%s\n", target.name.c_str(),
              target.results.size(),
              engine.has_rollups(name) ? " (rollup sidecar attached)" : "");
  return target;
}

/// Decoded `.mtel` samples for the explanation event tails; empty without a
/// path (the tails are then empty, exactly as live without a SelfMonitor).
std::vector<core::TelemetrySample> load_samples(const std::string& path) {
  if (path.empty()) return {};
  core::TelemetryArchiveReader reader(path);
  if (!reader.recovery().clean) {
    std::fprintf(stderr, "note: .mtel torn tail recovered — %s\n",
                 reader.recovery().reason.c_str());
  }
  return reader.samples();
}

/// The --explain surface: renders matching provenance records to stdout or
/// `out_path`. Returns 0 on success.
int emit_explanations(const core::ReportData& data, const std::string& spec,
                      const std::string& out_path) {
  const std::string text = core::render_explanations(
      data.provenance, core::parse_explain_spec(spec));
  if (out_path.empty()) {
    std::fputs(text.c_str(), stdout);
    return 0;
  }
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (out) out << text;
  std::fprintf(stderr, "%s %s\n", out ? "wrote" : "FAILED to write",
               out_path.c_str());
  return out ? 0 : 1;
}

/// Directory mode: every *.marc in `dir` (name order) replayed through one
/// query engine and the default alert rules, rendered to one report — the
/// offline twin of a `fixw_monitor --archive-dir= --report-out=` run.
int report_from_directory(const std::string& dir, const std::string& report_out,
                          const std::vector<core::TelemetrySample>& samples,
                          bool explain, const std::string& explain_spec,
                          const std::string& explain_out) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".marc") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::fprintf(stderr, "no *.marc files in %s\n", dir.c_str());
    return 1;
  }
  std::printf("replaying %zu archive(s) from %s\n", files.size(), dir.c_str());
  core::QueryEngine engine;
  for (const std::filesystem::path& file : files) {
    engine.add_archive(file.stem().string(), file.string());
  }
  std::vector<core::ReportTargetData> targets;
  targets.reserve(files.size());
  for (const std::filesystem::path& file : files) {
    targets.push_back(replay_target(engine, file.stem().string()));
  }
  core::ReportData data = core::report_data_from_replay(
      std::move(targets), core::default_alert_rules(), &samples);
  if (!samples.empty()) {
    // "monitor" is SelfMonitorConfig's default name, which is what a
    // single-monitor fixw_monitor --mtel-out= run carries; the health
    // section then renders byte-identically to the live report.
    data.health = core::monitor_health_from_samples("monitor", samples);
  }
  std::printf("re-derived %zu alert(s) from the archived results\n",
              data.alerts.size());
  int rc = 0;
  if (!report_out.empty()) {
    const bool ok = core::write_html_report(report_out, data);
    std::fprintf(stderr, "%s %s\n", ok ? "wrote" : "FAILED to write",
                 report_out.c_str());
    if (!ok) rc = 1;
  }
  if (explain && emit_explanations(data, explain_spec, explain_out) != 0) {
    rc = 1;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  std::string report_out;
  std::string explain_spec, explain_out, mtel_path;
  bool explain = false;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--report-out=", 13) == 0) {
      report_out = argv[i] + 13;
    } else if (std::strcmp(argv[i], "--explain") == 0) {
      explain = true;
    } else if (std::strncmp(argv[i], "--explain=", 10) == 0) {
      explain = true;
      explain_spec = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--explain-out=", 14) == 0) {
      explain = true;
      explain_out = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--mtel=", 7) == 0) {
      mtel_path = argv[i] + 7;
    } else {
      positional.push_back(argv[i]);
    }
  }
  const int days = positional.size() > 0 ? std::atoi(positional[0]) : 2;
  const std::string path =
      positional.size() > 1 ? positional[1]
                            : record_demo_archive("/tmp/mantra-archive", days);
  const std::vector<core::TelemetrySample> samples = load_samples(mtel_path);

  if (std::filesystem::is_directory(path)) {
    if (report_out.empty() && !explain) {
      std::fprintf(stderr,
                   "a directory argument needs --report-out=<path> "
                   "or --explain\n");
      return 2;
    }
    return report_from_directory(path, report_out, samples, explain,
                                 explain_spec, explain_out);
  }

  // --- Everything below reads only the archive file, served through the
  // query engine (the same path dashboards use). ---
  core::QueryEngine engine;
  const std::string target_name = std::filesystem::path(path).stem().string();
  engine.add_archive(target_name, path);
  const core::ArchiveReader& reader = *engine.reader(target_name);
  if (!reader.recovery().clean) {
    std::printf("note: torn tail recovered — dropped %llu bytes (%s)\n",
                static_cast<unsigned long long>(reader.recovery().bytes_dropped),
                reader.recovery().reason.c_str());
  }
  if (reader.empty()) {
    std::printf("archive %s holds no complete cycles\n", path.c_str());
    return 1;
  }
  std::printf("replaying %zu archived cycles: %s .. %s\n\n", reader.size(),
              reader.first_time().to_string().c_str(),
              reader.last_time().to_string().c_str());

  const core::ReplayRun replay = engine.replay(target_name);

  // Fig 3: usage counts over time, from disk.
  core::AsciiChart usage;
  const core::TimeSeries sessions =
      core::series_from(replay.results, "sessions", [](const core::CycleResult& r) {
        return static_cast<double>(r.usage.sessions);
      });
  const core::TimeSeries participants = core::series_from(
      replay.results, "participants", [](const core::CycleResult& r) {
        return static_cast<double>(r.usage.participants);
      });
  usage.add_series(sessions, 's');
  usage.add_series(participants, 'p');
  std::printf("Fig 3 — usage counts (replayed from archive)\n%s\n",
              usage.render().c_str());

  // Fig 7: DVMRP valid routes over time, from disk.
  core::AsciiChart routes;
  const core::TimeSeries valid_routes = core::series_from(
      replay.results, "dvmrp_valid_routes", [](const core::CycleResult& r) {
        return static_cast<double>(r.dvmrp_valid_routes);
      });
  routes.add_series(valid_routes, '*');
  std::printf("Fig 7 — DVMRP valid routes (replayed from archive)\n%s\n",
              routes.render().c_str());
  std::uint64_t route_changes = 0;
  std::size_t spikes = 0;
  for (const core::CycleResult& r : replay.results) {
    route_changes += r.route_changes;
    spikes += r.route_spike ? 1 : 0;
  }
  std::printf("route changes total: %llu, spike cycles: %zu\n\n",
              static_cast<unsigned long long>(route_changes), spikes);

  // The interactive table, as of the final archived instant.
  const core::Snapshot last = reader.snapshot_at(reader.last_time());
  std::printf("busiest sessions at %s (from archive)\n%s\n",
              last.captured.to_string().c_str(),
              busiest_sessions(last, 10).render().c_str());
  std::printf("CSV (RFC 4180):\n%s\n", busiest_sessions(last, 5).to_csv().c_str());

  // Compaction: re-frame sparsely and drop the first half of the history.
  core::CompactionOptions compaction;
  compaction.keyframe_interval = 192;
  compaction.drop_before = reader.first_time() +
                           (reader.last_time() - reader.first_time()) / 2;
  const core::CompactionStats stats =
      core::compact_archive(path, path + ".compact", compaction);
  std::printf("compacted %zu -> %zu cycles (%zu dropped), %llu -> %llu bytes, "
              "rollup sidecar: %zu hourly + %zu daily buckets\n",
              stats.cycles_in, stats.cycles_out, stats.cycles_dropped,
              static_cast<unsigned long long>(stats.bytes_in),
              static_cast<unsigned long long>(stats.bytes_out),
              stats.rollup_hour_buckets, stats.rollup_day_buckets);

  // Serve a coarse query from the compacted file: with the sidecar attached
  // an unfiltered per-hour question decodes zero archive records.
  core::QueryEngine compacted;
  compacted.add_archive(target_name, path + ".compact");
  core::Query sample;
  sample.target = target_name;
  sample.metric = core::QueryMetric::sessions;
  sample.resolution = core::QueryResolution::hour;
  sample.aggregate = core::QueryAggregate::mean;
  const core::QueryResult answer = compacted.run(sample);
  std::printf("per-hour mean sessions over the compacted half: %zu points, "
              "%s, %llu records decoded\n",
              answer.points.size(),
              answer.from_rollup ? "rollup-served" : "raw scan",
              static_cast<unsigned long long>(answer.records_decoded));

  int rc = 0;
  if (!report_out.empty() || explain) {
    core::ReportTargetData target;
    target.name = std::filesystem::path(path).stem().string();
    target.results = replay.results;
    const core::ReportData data = core::report_data_from_replay(
        {std::move(target)}, core::default_alert_rules(), &samples);
    if (!report_out.empty()) {
      const bool ok = core::write_html_report(report_out, data);
      std::fprintf(stderr, "%s %s (%zu alerts re-derived)\n",
                   ok ? "wrote" : "FAILED to write", report_out.c_str(),
                   data.alerts.size());
      if (!ok) rc = 1;
    }
    if (explain && emit_explanations(data, explain_spec, explain_out) != 0) {
      rc = 1;
    }
  }
  return rc;
}
