// The paper's headline deployment: Mantra watching the FIXW exchange point
// and the UCSB campus mrouted across the infrastructure transition.
//
//   $ ./examples/fixw_monitor [days] [failure_rate] [flags]    (default 14, 0)
//
// Runs the trace-scale FIXW scenario with the transition scheduled mid-run,
// monitors both collection points, and emits the paper's series as CSV plus
// overlaid ASCII charts — the terminal equivalent of Mantra's web applets.
//
// Pass a nonzero failure rate as the second argument to collect over a
// faulty telnet path (the paper's reality): failed captures carry the
// previous cycle's tables forward and the overview reports target health.
//
//   $ ./examples/fixw_monitor 14 0.2     (14 days, 20% command failures)
//
// Self-instrumentation flags (any of these enables core/telemetry):
//   --metrics-out=<path>   write Prometheus metrics exposition on exit
//   --trace-out=<path>     write Chrome trace_event JSON (chrome://tracing)
//   --mtel-out=<path>      durable self-telemetry: sample the full metric
//                          registry + event tail into a `.mtel` archive every
//                          cycle and evaluate the self-monitoring rule pack;
//                          the HTML report (--report-out=) gains a "Monitor
//                          health" section rendered from those samples
// With telemetry on, the monitor-of-the-monitor status table prints each
// simulated day and the run ends with the final status plus the tail of the
// structured event log.
//
// Operator-facing observability (core/alert + core/report):
//   --report-out=<path>    enable the default alert rules and write the
//                          self-contained HTML report (plots, tables, alert
//                          history) at the end of the run
//   --report-every=<N>     also refresh the report every N cycles while
//                          running (live dashboard semantics; default: only
//                          the final write)
//   --archive-dir=<dir>    durable .marc archive per target; replaying
//                          those files through archive_replay --report-out=
//                          reproduces this run's report byte-for-byte
//   --explain-out=<path>   enable the alert rules and write every fired
//                          alert's causal explanation (core/provenance) as
//                          text; `archive_replay --explain` over the run's
//                          --archive-dir (+ --mtel= for the event tails)
//                          reconstructs the same bytes
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/log.hpp"
#include "core/mantra.hpp"
#include "core/provenance.hpp"
#include "core/report.hpp"
#include "core/transport.hpp"
#include "workload/scenario.hpp"

using namespace mantra;

int main(int argc, char** argv) {
  std::string metrics_out;
  std::string trace_out;
  std::string mtel_out;
  std::string report_out;
  std::string explain_out;
  std::string archive_dir;
  std::size_t report_every = 0;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) {
      metrics_out = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      trace_out = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--mtel-out=", 11) == 0) {
      mtel_out = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--report-out=", 13) == 0) {
      report_out = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--explain-out=", 14) == 0) {
      explain_out = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--report-every=", 15) == 0) {
      report_every = static_cast<std::size_t>(std::atoi(argv[i] + 15));
    } else if (std::strncmp(argv[i], "--archive-dir=", 14) == 0) {
      archive_dir = argv[i] + 14;
    } else {
      positional.push_back(argv[i]);
    }
  }
  const int days = positional.size() > 0 ? std::atoi(positional[0]) : 14;
  const double failure_rate = positional.size() > 1 ? std::atof(positional[1]) : 0.0;
  const bool telemetry_on =
      !metrics_out.empty() || !trace_out.empty() || !mtel_out.empty();

  workload::ScenarioConfig config;
  config.seed = 1998;
  config.domains = 10;
  config.hosts_per_domain = 30;
  config.dvmrp_prefixes_per_domain = 25;
  config.report_loss = 0.08;
  config.timer_scale = 40;
  config.full_timers = false;
  config.generator.session_arrivals_per_hour = 40.0;
  config.generator.bursts_per_day = 1.0;

  workload::FixwScenario scenario(config);
  // Transition in the middle of the run so both regimes are visible.
  scenario.schedule_transition(
      sim::TimePoint::start() + sim::Duration::days(days / 2),
      sim::Duration::days(std::max(1, days / 5)), 0.85);
  if (failure_rate > 0.0) {
    // The faulty fixture also replays the Fig 9 incident: a misconfigured
    // redistribution dumps unicast routes into the UCSB border's DVMRP
    // table mid-run, so the spike detector (and the report's spike
    // annotations) have something real to call out.
    scenario.schedule_route_injection(
        sim::TimePoint::start() + sim::Duration::days(days / 2) +
            sim::Duration::hours(14),
        1500, sim::Duration::hours(6));
  }

  core::MantraConfig monitor_config;
  monitor_config.cycle = sim::Duration::minutes(30);
  monitor_config.telemetry.enabled = telemetry_on;
  monitor_config.alerts.enabled = !report_out.empty() || !explain_out.empty();
  monitor_config.archive_dir = archive_dir;
  if (!mtel_out.empty()) {
    monitor_config.self.enabled = true;
    monitor_config.self.path = mtel_out;
  }
  core::TransportFactory factory;
  if (failure_rate > 0.0) {
    // Every target collects over its own faulty telnet path, each with an
    // independent fault stream derived from the scenario seed.
    factory = [&config, failure_rate](const std::string& name) {
      return std::make_unique<core::FaultInjectingTransport>(
          core::per_target_seed(config.seed, name),
          core::FaultProfile::command_failure_rate(failure_rate));
    };
  }
  core::Mantra mantra(scenario.engine(), monitor_config, std::move(factory));
  mantra.add_target(scenario.network().router(scenario.fixw_node()));
  mantra.add_target(scenario.network().router(scenario.ucsb_node()));

  // Storage accounting (§III): the paper's text log under its delta and
  // redundancy optimisations, counted for every cycle FIXW recorded (dark
  // cycles record nothing, so they add nothing).
  core::DataLogger logger;
  mantra.set_cycle_hook([&mantra, &logger, &report_out, report_every](std::size_t cycle) {
    const core::Mantra::TargetView fixw = mantra.target_view("fixw");
    if (fixw.results().size() > logger.cycle_count()) {
      logger.record(fixw.latest_snapshot());
    }
    // Live dashboard semantics: rewrite the report every N cycles so an
    // operator refreshing the file sees the run as it happens.
    if (!report_out.empty() && report_every > 0 && cycle % report_every == 0) {
      core::write_html_report(report_out, core::report_data_from(mantra));
    }
  });

  scenario.start();
  mantra.start();
  for (int day = 1; day <= days; ++day) {
    scenario.engine().run_until(sim::TimePoint::start() + sim::Duration::days(day));
    std::fprintf(stderr, "day %d/%d: %zu live sessions\n", day, days,
                 scenario.generator().live_session_count());
    if (telemetry_on) {
      std::fprintf(stderr, "%s\n", mantra.status().to_table().render().c_str());
    }
  }

  const auto sessions = mantra.series("fixw", "sessions", [](const core::CycleResult& r) {
    return static_cast<double>(r.usage.sessions);
  });
  const auto participants = mantra.series("fixw", "participants", [](const core::CycleResult& r) {
    return static_cast<double>(r.usage.participants);
  });
  const auto senders = mantra.series("fixw", "senders", [](const core::CycleResult& r) {
    return static_cast<double>(r.usage.senders);
  });
  const auto routes_fixw = mantra.series("fixw", "dvmrp_routes", [](const core::CycleResult& r) {
    return static_cast<double>(r.dvmrp_valid_routes);
  });
  const auto routes_ucsb = mantra.series("ucsb-gw", "dvmrp_routes", [](const core::CycleResult& r) {
    return static_cast<double>(r.dvmrp_valid_routes);
  });

  std::printf("=== Usage at FIXW: participants (*) overlaid with sessions (o) ===\n\n");
  core::AsciiChart usage_chart(76, 16);
  usage_chart.add_series(participants, '*');
  usage_chart.add_series(sessions, 'o');
  std::printf("%s\n", usage_chart.render().c_str());

  std::printf("=== DVMRP routes: UCSB (u) vs FIXW (f) ===\n\n");
  core::AsciiChart route_chart(76, 12);
  route_chart.add_series(routes_ucsb, 'u');
  route_chart.add_series(routes_fixw, 'f');
  std::printf("%s\n", route_chart.render().c_str());

  std::printf("=== Mantra overview (latest cycle) ===\n\n%s\n",
              mantra.overview().render().c_str());

  if (failure_rate > 0.0) {
    for (const std::string& name : mantra.target_names()) {
      const core::Mantra::TargetView view = mantra.target_view(name);
      std::size_t stale_cycles = 0;
      std::size_t failed_commands = 0;
      for (const core::CycleResult& result : view.results()) {
        if (result.stale) ++stale_cycles;
        failed_commands += result.collection_failures;
      }
      std::printf("collection health at %s: %s (%zu/%zu cycles stale, "
                  "%zu failed commands, %zu dark cycles pending)\n",
                  name.c_str(), core::to_string(view.health()),
                  stale_cycles, view.results().size(), failed_commands,
                  view.consecutive_failures());
    }
    std::printf("\n");
  }

  // CSV export for external plotting (the archive Mantra kept for off-line
  // analysis).
  std::printf("=== sessions.csv (first lines) ===\n");
  const std::string csv = sessions.to_csv();
  std::size_t shown = 0;
  for (std::size_t i = 0; i < csv.size() && shown < 6; ++i) {
    std::putchar(csv[i]);
    if (csv[i] == '\n') ++shown;
  }

  // Storage accounting: the delta log vs naive full snapshots.
  std::printf("\n=== Data logger ===\ncycles recorded: %zu\n"
              "stored (delta codec): %llu bytes\nnaive (full snapshots): %llu bytes\n",
              logger.cycle_count(),
              static_cast<unsigned long long>(logger.stored_bytes()),
              static_cast<unsigned long long>(logger.naive_bytes()));
  if (logger.stored_bytes() == 0) {
    std::printf("savings: n/a\n");
  } else {
    std::printf("savings: %.1fx\n", static_cast<double>(logger.naive_bytes()) /
                                         static_cast<double>(logger.stored_bytes()));
  }
  std::printf("\nsenders at FIXW (last cycle): %.0f\n",
              senders.points().empty() ? 0.0 : senders.points().back().value);

  if (telemetry_on) {
    std::printf("\n=== Monitor status (end of run) ===\n\n%s\n",
                mantra.status().to_table().render().c_str());
    const core::Telemetry& telemetry = mantra.telemetry();
    const std::string events = telemetry.events().logfmt(12);
    if (!events.empty()) {
      std::printf("=== Telemetry events (last %zu of %llu) ===\n%s\n",
                  std::min<std::size_t>(telemetry.events().size(), 12),
                  static_cast<unsigned long long>(telemetry.events().total_logged()),
                  events.c_str());
    }
    if (!metrics_out.empty()) {
      const bool ok = telemetry.write_metrics_prom(metrics_out);
      std::fprintf(stderr, "%s %s\n",
                   ok ? "wrote" : "FAILED to write", metrics_out.c_str());
    }
    if (!trace_out.empty()) {
      const bool ok = telemetry.write_trace_json(trace_out);
      std::fprintf(stderr, "%s %s (%zu spans, %llu dropped)\n",
                   ok ? "wrote" : "FAILED to write", trace_out.c_str(),
                   telemetry.tracer().span_count(),
                   static_cast<unsigned long long>(telemetry.tracer().dropped()));
    }
    if (core::SelfMonitor* self = mantra.self_monitor()) {
      self->close();
      std::fprintf(stderr, "wrote %s (%zu samples, %zu self-alerts fired)\n",
                   mtel_out.c_str(), self->samples().size(),
                   self->alerts().history().size());
    }
  }

  if (!report_out.empty()) {
    std::printf("\n=== Alerts ===\n\n%s\n",
                mantra.alerts().history_table().render().c_str());
    const bool ok =
        core::write_html_report(report_out, core::report_data_from(mantra));
    std::fprintf(stderr, "%s %s (%zu alerts fired, %zu firing now)\n",
                 ok ? "wrote" : "FAILED to write", report_out.c_str(),
                 mantra.alerts().history().size(),
                 mantra.alerts().firing_count());
  }

  if (!explain_out.empty()) {
    // report_data_from attaches the provenance event tails from the
    // SelfMonitor's samples (when --mtel-out ran) — the same recorded
    // stream `archive_replay --mtel=` feeds offline.
    const core::ReportData data = core::report_data_from(mantra);
    const std::string text =
        core::render_explanations(data.provenance, core::ExplainFilter{});
    std::ofstream out(explain_out, std::ios::binary | std::ios::trunc);
    if (out) out << text;
    std::fprintf(stderr, "%s %s (%zu explanation(s))\n",
                 out ? "wrote" : "FAILED to write", explain_out.c_str(),
                 data.provenance.size());
  }
  return 0;
}
