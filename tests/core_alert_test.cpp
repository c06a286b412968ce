// core/alert: rule validation, the pending -> firing -> resolved lifecycle
// with for-durations and hysteresis (flapping fires once, clears once, and
// never storms the event log), replay equivalence via evaluate_history, and
// the tentpole invariant that alert evaluation is result-neutral — results,
// CSVs, archives and MonitorStatus are identical with alerting on or off.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/alert.hpp"
#include "core/mantra.hpp"
#include "core/provenance.hpp"
#include "core/query.hpp"
#include "core/report.hpp"
#include "core/telemetry.hpp"
#include "core/teltrace.hpp"
#include "workload/scenario.hpp"

namespace mantra::core {
namespace {

/// A synthetic recorded cycle `minutes` into the run with a chosen sample
/// value planted in dvmrp_valid_routes (the field the test rules extract).
CycleResult cycle_at(int minutes, double value) {
  CycleResult result;
  result.t = sim::TimePoint::start() + sim::Duration::minutes(minutes);
  result.dvmrp_valid_routes = static_cast<std::size_t>(value);
  return result;
}

/// A last-value threshold rule over dvmrp_valid_routes: fire >= 10, clear
/// < 5, with configurable durations.
AlertRule routes_rule(std::size_t for_cycles, std::size_t clear_for_cycles) {
  AlertRule rule;
  rule.name = "routes_high";
  rule.kind = AlertRule::Kind::threshold;
  rule.extract = [](const CycleResult& r) {
    return static_cast<double>(r.dvmrp_valid_routes);
  };
  rule.fire_threshold = 10.0;
  rule.clear_threshold = 5.0;
  rule.for_cycles = for_cycles;
  rule.clear_for_cycles = clear_for_cycles;
  return rule;
}

/// The (rule, target) pairs that are pending or firing.
std::vector<AlertStatus> active(const AlertEngine& engine) {
  std::vector<AlertStatus> out;
  for (AlertStatus& status : engine.status()) {
    if (status.state != AlertState::inactive) out.push_back(std::move(status));
  }
  return out;
}

// --- validation --------------------------------------------------------------

TEST(AlertRule, ValidateNamesTheOffendingField) {
  EXPECT_THROW(AlertRule{}.validate(), std::invalid_argument);  // empty name

  AlertRule no_extract = routes_rule(1, 1);
  no_extract.extract = nullptr;
  EXPECT_THROW(no_extract.validate(), std::invalid_argument);

  // Spike rules read the detector verdict; no extract needed.
  AlertRule spike;
  spike.name = "s";
  spike.kind = AlertRule::Kind::spike;
  spike.fire_threshold = spike.clear_threshold = 1.0;
  EXPECT_NO_THROW(spike.validate());

  AlertRule bad_q = routes_rule(1, 1);
  bad_q.quantile_q = 1.5;
  EXPECT_THROW(bad_q.validate(), std::invalid_argument);

  // Inverted hysteresis would let an alert clear and re-arm on one value.
  AlertRule inverted = routes_rule(1, 1);
  inverted.clear_threshold = 20.0;
  EXPECT_THROW(inverted.validate(), std::invalid_argument);

  for (const AlertRule& rule : default_alert_rules()) {
    EXPECT_NO_THROW(rule.validate()) << rule.name;
  }
}

// --- for-duration ------------------------------------------------------------

TEST(AlertEngine, ForDurationHoldsPendingBeforeFiring) {
  AlertEngine engine({routes_rule(/*for_cycles=*/3, /*clear_for_cycles=*/1)});

  engine.observe("fixw", cycle_at(0, 12.0));
  engine.observe("fixw", cycle_at(15, 12.0));
  ASSERT_EQ(active(engine).size(), 1u);
  EXPECT_EQ(active(engine)[0].state, AlertState::pending);
  EXPECT_TRUE(engine.history().empty());
  EXPECT_EQ(engine.firing_count(), 0u);

  engine.observe("fixw", cycle_at(30, 12.0));  // third consecutive cycle
  ASSERT_EQ(engine.history().size(), 1u);
  const AlertRecord& record = engine.history()[0];
  EXPECT_EQ(record.rule, "routes_high");
  EXPECT_EQ(record.target, "fixw");
  // pending_at is when the condition first held; fired_at when the
  // for-duration was met.
  EXPECT_EQ(record.pending_at, sim::TimePoint::start());
  EXPECT_EQ(record.fired_at, sim::TimePoint::start() + sim::Duration::minutes(30));
  EXPECT_FALSE(record.resolved_at.has_value());
  EXPECT_EQ(engine.firing_count(), 1u);
}

TEST(AlertEngine, ConditionLapseDuringPendingLeavesNoEpisode) {
  AlertEngine engine({routes_rule(/*for_cycles=*/3, /*clear_for_cycles=*/1)});
  engine.observe("fixw", cycle_at(0, 12.0));
  engine.observe("fixw", cycle_at(15, 12.0));
  engine.observe("fixw", cycle_at(30, 2.0));  // lapses before the duration
  EXPECT_TRUE(engine.history().empty());
  EXPECT_TRUE(active(engine).empty());

  // The hold counter restarts from scratch on the next excursion.
  engine.observe("fixw", cycle_at(45, 12.0));
  engine.observe("fixw", cycle_at(60, 12.0));
  EXPECT_TRUE(engine.history().empty());
  engine.observe("fixw", cycle_at(75, 12.0));
  EXPECT_EQ(engine.history().size(), 1u);
}

// --- hysteresis / flap resistance --------------------------------------------

TEST(AlertEngine, FlappingBetweenThresholdsFiresOnceAndClearsOnce) {
  // fire >= 10, clear < 5: values oscillating in the hysteresis band [5, 10)
  // keep one episode alive instead of storming.
  Telemetry telemetry(TelemetryConfig{.enabled = true});
  AlertEngine engine({routes_rule(/*for_cycles=*/1, /*clear_for_cycles=*/2)});
  engine.set_telemetry(&telemetry);

  int minutes = 0;
  engine.observe("fixw", cycle_at(minutes += 15, 12.0));  // fires
  for (int i = 0; i < 6; ++i) {
    // Flap between "still over" and "inside the band": never clears.
    engine.observe("fixw", cycle_at(minutes += 15, i % 2 == 0 ? 6.0 : 12.0));
  }
  ASSERT_EQ(engine.history().size(), 1u);
  EXPECT_EQ(engine.firing_count(), 1u);
  EXPECT_FALSE(engine.history()[0].resolved_at.has_value());

  // One cycle below the clear threshold is not enough (clear_for_cycles=2)
  // — and a bounce back over the band resets the clear hold.
  engine.observe("fixw", cycle_at(minutes += 15, 2.0));
  engine.observe("fixw", cycle_at(minutes += 15, 7.0));
  engine.observe("fixw", cycle_at(minutes += 15, 2.0));
  EXPECT_EQ(engine.firing_count(), 1u);
  engine.observe("fixw", cycle_at(minutes += 15, 2.0));  // second in a row
  EXPECT_EQ(engine.firing_count(), 0u);
  ASSERT_EQ(engine.history().size(), 1u);
  EXPECT_TRUE(engine.history()[0].resolved_at.has_value());
  EXPECT_GT(engine.history()[0].peak_value, 10.0);

  // The event log saw exactly one firing and one resolution — no storm.
  const std::string events = telemetry.events().logfmt();
  std::size_t firing = 0, resolved = 0, pos = 0;
  while ((pos = events.find("event=alert_firing", pos)) != std::string::npos) {
    ++firing;
    ++pos;
  }
  pos = 0;
  while ((pos = events.find("event=alert_resolved", pos)) != std::string::npos) {
    ++resolved;
    ++pos;
  }
  EXPECT_EQ(firing, 1u);
  EXPECT_EQ(resolved, 1u);
  // The exported gauge ended on 0 (inactive), enum-ordered states.
  EXPECT_DOUBLE_EQ(telemetry.metrics()
                       .gauge("mantra_alert_state",
                              {{"rule", "routes_high"}, {"target", "fixw"}})
                       .value(),
                   0.0);
}

// --- rule kinds --------------------------------------------------------------

TEST(AlertEngine, RateOfChangeReadsZeroUntilWindowFull) {
  AlertRule rule = routes_rule(1, 1);
  rule.name = "flux";
  rule.kind = AlertRule::Kind::rate_of_change;
  rule.window = 2;
  rule.fire_threshold = 100.0;
  rule.clear_threshold = 50.0;
  AlertEngine engine({rule});

  engine.observe("fixw", cycle_at(0, 1000.0));
  engine.observe("fixw", cycle_at(15, 2000.0));  // window not yet full
  EXPECT_TRUE(active(engine).empty());
  engine.observe("fixw", cycle_at(30, 1150.0));  // x[n] - x[n-2] = 150 >= 100
  EXPECT_EQ(engine.firing_count(), 1u);
  ASSERT_EQ(engine.status().size(), 1u);
  EXPECT_DOUBLE_EQ(engine.status()[0].value, 150.0);
}

TEST(AlertEngine, SpikeRuleEscalatesOnlyConsecutiveSpikes) {
  AlertRule rule;
  rule.name = "spike";
  rule.kind = AlertRule::Kind::spike;
  rule.fire_threshold = 1.0;
  rule.clear_threshold = 1.0;
  rule.for_cycles = 2;
  rule.clear_for_cycles = 1;
  AlertEngine engine({rule});

  CycleResult spiking = cycle_at(0, 0.0);
  spiking.route_spike = true;
  spiking.route_spike_score = 14.0;

  // A one-off blip goes pending, then lapses: no alert.
  engine.observe("ucsb-gw", spiking);
  engine.observe("ucsb-gw", cycle_at(15, 0.0));
  EXPECT_TRUE(engine.history().empty());

  // Two consecutive spike cycles escalate.
  spiking.t = sim::TimePoint::start() + sim::Duration::minutes(30);
  engine.observe("ucsb-gw", spiking);
  spiking.t = sim::TimePoint::start() + sim::Duration::minutes(45);
  spiking.route_spike_score = 20.0;
  engine.observe("ucsb-gw", spiking);
  ASSERT_EQ(engine.history().size(), 1u);
  EXPECT_DOUBLE_EQ(engine.history()[0].peak_value, 20.0);
}

// --- replay equivalence ------------------------------------------------------

TEST(AlertEngine, EvaluateHistoryReproducesLiveObservationOrder) {
  // Two interleaved targets: live evaluation goes cycle by cycle, name
  // order within a cycle. evaluate_history must rebuild the same history
  // from the per-target streams.
  const auto make_engine = [] {
    return AlertEngine({routes_rule(/*for_cycles=*/2, /*clear_for_cycles=*/1)});
  };
  std::vector<CycleResult> alpha, beta;
  for (int c = 0; c < 8; ++c) {
    alpha.push_back(cycle_at(c * 15, c >= 2 ? 12.0 : 0.0));
    beta.push_back(cycle_at(c * 15, c >= 5 ? 12.0 : 0.0));
  }

  AlertEngine live = make_engine();
  for (int c = 0; c < 8; ++c) {  // the monitor's order: per cycle, by name
    live.observe("alpha", alpha[static_cast<std::size_t>(c)]);
    live.observe("beta", beta[static_cast<std::size_t>(c)]);
  }

  AlertEngine replayed = make_engine();
  evaluate_history(replayed, {{"beta", &beta}, {"alpha", &alpha}});

  ASSERT_EQ(live.history().size(), 2u);
  EXPECT_EQ(live.history(), replayed.history());
  EXPECT_EQ(live.status_table().render(), replayed.status_table().render());
  EXPECT_EQ(live.history_table().render(), replayed.history_table().render());
}

// --- result neutrality -------------------------------------------------------

std::string read_file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(AlertNeutrality, ResultsArchivesAndStatusIdenticalOnOrOff) {
  const std::filesystem::path base =
      std::filesystem::path(::testing::TempDir()) / "mantra_alert_neutral";
  std::filesystem::remove_all(base);

  const auto run = [&](bool alerts_on) {
    workload::ScenarioConfig config;
    config.seed = 33;
    config.domains = 4;
    config.hosts_per_domain = 6;
    config.dvmrp_prefixes_per_domain = 6;
    config.report_loss = 0.05;
    config.timer_scale = 1;
    config.full_timers = true;
    config.generator.session_arrivals_per_hour = 40.0;
    config.generator.bursts_per_day = 0.0;
    workload::FixwScenario scenario(config);
    scenario.start();

    MantraConfig monitor_config;
    monitor_config.cycle = sim::Duration::minutes(15);
    monitor_config.retry.max_attempts = 2;
    monitor_config.archive_dir =
        (base / (alerts_on ? "on" : "off")).string();
    monitor_config.alerts.enabled = alerts_on;
    auto monitor = std::make_unique<Mantra>(
        scenario.engine(), monitor_config,
        [](const std::string& name) -> std::unique_ptr<Transport> {
          FaultProfile profile;
          if (name == "ucsb-gw") {
            profile = FaultProfile::command_failure_rate(0.3);
          }
          return std::make_unique<FaultInjectingTransport>(
              per_target_seed(0xa1e27, name), profile);
        });
    monitor->add_target(scenario.network().router(scenario.fixw_node()));
    monitor->add_target(scenario.network().router(scenario.ucsb_node()));
    monitor->start();
    scenario.engine().run_until(scenario.engine().now() +
                                sim::Duration::hours(6));

    struct Outcome {
      std::vector<std::vector<CycleResult>> results;
      std::string status;
      std::string overview_csv;
      std::size_t alerts_evaluated;
    } outcome;
    for (const std::string& name : monitor->target_names()) {
      outcome.results.push_back(monitor->target_view(name).results());
    }
    outcome.status = monitor->status().to_table().render();
    outcome.overview_csv = monitor->overview().to_csv();
    outcome.alerts_evaluated = monitor->alerts().status().size();
    return outcome;
  };

  const auto with = run(true);
  const auto without = run(false);

  // The engine evaluated rules only when enabled...
  EXPECT_GT(with.alerts_evaluated, 0u);
  EXPECT_EQ(without.alerts_evaluated, 0u);
  // ...and nothing it computed leaked into the monitoring outcome.
  EXPECT_EQ(with.results, without.results);
  EXPECT_EQ(with.status, without.status);
  EXPECT_EQ(with.overview_csv, without.overview_csv);

  // Archive bytes, after the writers flush.
  for (const char* name : {"fixw", "ucsb-gw"}) {
    const std::string on_bytes =
        read_file_bytes(base / "on" / (std::string(name) + ".marc"));
    const std::string off_bytes =
        read_file_bytes(base / "off" / (std::string(name) + ".marc"));
    ASSERT_FALSE(on_bytes.empty());
    EXPECT_EQ(on_bytes, off_bytes) << name;
  }
}

// --- provenance capture ------------------------------------------------------

TEST(Provenance, CapturesWindowFactsAndMathAtFire) {
  AlertEngine engine({routes_rule(/*for_cycles=*/2, /*clear_for_cycles=*/1)});

  CycleResult first = cycle_at(0, 12.0);
  first.cycle_seq = 7;
  first.stale = true;
  first.stale_tables = 2;
  first.collection_failures = 1;
  first.capture_attempts = 3;
  first.collection_latency = sim::Duration::seconds(40);
  CycleResult second = cycle_at(15, 14.0);
  second.cycle_seq = 8;

  engine.observe("fixw", first);
  EXPECT_TRUE(engine.provenance().empty());  // pending is not an episode
  engine.observe("fixw", second);

  ASSERT_EQ(engine.provenance().size(), 1u);
  const ProvenanceRecord& why = engine.provenance()[0];
  EXPECT_EQ(why.rule, "routes_high");
  EXPECT_EQ(why.target, "fixw");
  EXPECT_EQ(why.corr, correlation_id(8, "fixw"));
  EXPECT_EQ(why.corr, "c8/fixw");
  EXPECT_EQ(why.severity, "warning");
  EXPECT_EQ(why.kind, "threshold");
  EXPECT_EQ(why.aggregate, "last");
  EXPECT_EQ(why.fire_cycle_seq, 8u);
  EXPECT_DOUBLE_EQ(why.value_at_fire, 14.0);
  EXPECT_EQ(why.pending_at, sim::TimePoint::start());
  EXPECT_EQ(why.fired_at, sim::TimePoint::start() + sim::Duration::minutes(15));
  EXPECT_EQ(why.math, "last(w=1) = 14 >= 10 held 2/2 cycles; clears < 5 for 1");
  // The trail holds the aggregation window plus the pending hold, with the
  // archived collection facts of every contributing cycle.
  ASSERT_EQ(why.points.size(), 2u);
  EXPECT_EQ(why.points[0].cycle_seq, 7u);
  EXPECT_DOUBLE_EQ(why.points[0].raw, 12.0);
  EXPECT_TRUE(why.points[0].over);
  EXPECT_TRUE(why.points[0].facts.stale);
  EXPECT_EQ(why.points[0].facts.stale_tables, 2u);
  EXPECT_EQ(why.points[0].facts.collection_failures, 1u);
  EXPECT_EQ(why.points[0].facts.capture_attempts, 3u);
  EXPECT_EQ(why.points[0].facts.collection_latency, sim::Duration::seconds(40));
  EXPECT_DOUBLE_EQ(why.points[1].value, 14.0);
  EXPECT_TRUE(why.events.empty());  // tails attach separately

  // The history record carries the same joining correlation id.
  ASSERT_EQ(engine.history().size(), 1u);
  EXPECT_EQ(engine.history()[0].corr, "c8/fixw");
}

TEST(Provenance, ValueOnlyObservationsLeaveCorrEmpty) {
  // Self-monitoring rules feed observe_values without collection facts:
  // no monitor cycle of their own, so no correlation id and cycle_seq 0.
  AlertRule rule = routes_rule(1, 1);
  AlertEngine engine({rule});
  engine.observe_values("monitor", sim::TimePoint::from_ms(60'000), {12.0});
  ASSERT_EQ(engine.provenance().size(), 1u);
  EXPECT_TRUE(engine.provenance()[0].corr.empty());
  EXPECT_EQ(engine.provenance()[0].fire_cycle_seq, 0u);
  ASSERT_EQ(engine.history().size(), 1u);
  EXPECT_TRUE(engine.history()[0].corr.empty());
}

TEST(Provenance, CaptureIsEvaluationNeutral) {
  const auto run = [](bool provenance_on) {
    AlertEngine engine({routes_rule(/*for_cycles=*/2, /*clear_for_cycles=*/2)});
    engine.set_provenance(provenance_on);
    int minutes = 0;
    for (const double value : {12.0, 14.0, 6.0, 2.0, 2.0, 12.0, 12.0}) {
      engine.observe("fixw", cycle_at(minutes += 15, value));
    }
    return engine;
  };
  const AlertEngine with = run(true);
  const AlertEngine without = run(false);
  EXPECT_EQ(with.history(), without.history());
  EXPECT_EQ(with.status_table().render(), without.status_table().render());
  EXPECT_FALSE(with.provenance().empty());
  EXPECT_TRUE(without.provenance().empty());
}

TEST(Provenance, AttachEventsFiltersByTargetAndWindowAndCapsTail) {
  AlertEngine engine({routes_rule(/*for_cycles=*/2, /*clear_for_cycles=*/1)});
  CycleResult first = cycle_at(15, 12.0);
  first.cycle_seq = 2;
  CycleResult second = cycle_at(30, 12.0);
  second.cycle_seq = 3;
  engine.observe("fixw", first);
  engine.observe("fixw", second);
  std::vector<ProvenanceRecord> records = engine.provenance();
  ASSERT_EQ(records.size(), 1u);

  std::vector<TelemetryEvent> events;
  const auto event_at = [](std::int64_t ms, const char* target,
                           std::uint64_t seq) {
    TelemetryEvent event;
    event.level = EventLevel::warn;
    event.name = "capture_failed";
    event.sim_ts_ms = ms;
    event.seq = seq;
    event.fields = {{"target", target}};
    return event;
  };
  events.push_back(event_at(14 * 60'000, "fixw", 1));   // before the window
  events.push_back(event_at(31 * 60'000, "fixw", 2));   // after fired_at
  events.push_back(event_at(20 * 60'000, "ucsb-gw", 3));  // other target
  for (std::uint64_t i = 0; i < kMaxProvenanceEvents + 4; ++i) {
    events.push_back(event_at(20 * 60'000, "fixw", 100 + i));
  }
  attach_provenance_events(records, events);
  ASSERT_EQ(records[0].events.size(), kMaxProvenanceEvents);  // newest kept
  EXPECT_EQ(records[0].events.front().seq, 104u);
  EXPECT_EQ(records[0].events.back().seq,
            100u + kMaxProvenanceEvents + 3);
  for (const TelemetryEvent& event : records[0].events) {
    EXPECT_EQ(event.fields[0].second, "fixw");
  }
}

TEST(Provenance, ParseExplainSpecForms) {
  EXPECT_TRUE(parse_explain_spec("").rule.empty());
  EXPECT_TRUE(parse_explain_spec("").target.empty());
  EXPECT_EQ(parse_explain_spec("stale_fraction").rule, "stale_fraction");
  EXPECT_TRUE(parse_explain_spec("stale_fraction").target.empty());
  const ExplainFilter both = parse_explain_spec("stale_fraction:ucsb-gw");
  EXPECT_EQ(both.rule, "stale_fraction");
  EXPECT_EQ(both.target, "ucsb-gw");
  EXPECT_TRUE(parse_explain_spec(":").rule.empty());
  EXPECT_TRUE(parse_explain_spec(":").target.empty());

  ProvenanceRecord record;
  record.rule = "stale_fraction";
  record.target = "ucsb-gw";
  EXPECT_TRUE(ExplainFilter{}.matches(record));
  EXPECT_TRUE(both.matches(record));
  EXPECT_FALSE(parse_explain_spec("other").matches(record));
  EXPECT_FALSE(parse_explain_spec("stale_fraction:fixw").matches(record));
}

TEST(Provenance, RenderExplanationsMatchesGolden) {
  ProvenanceRecord record;
  record.corr = "c8/fixw";
  record.rule = "routes_high";
  record.target = "fixw";
  record.severity = "warning";
  record.kind = "threshold";
  record.aggregate = "last";
  record.fire_threshold = 10.0;
  record.clear_threshold = 5.0;
  record.value_at_fire = 14.0;
  record.fire_cycle_seq = 8;
  record.pending_at = sim::TimePoint::start();
  record.fired_at = sim::TimePoint::start() + sim::Duration::minutes(15);
  record.math = "last(w=1) = 14 >= 10 held 2/2 cycles; clears < 5 for 1";
  ProvenanceWindowPoint point;
  point.cycle_seq = 8;
  point.t = record.fired_at;
  point.raw = 14.0;
  point.value = 14.0;
  point.over = true;
  point.facts.stale = true;
  point.facts.stale_tables = 1;
  point.facts.capture_attempts = 2;
  point.facts.collection_latency = sim::Duration::seconds(40);
  record.points.push_back(point);
  TelemetryEvent event;
  event.level = EventLevel::warn;
  event.name = "capture_failed";
  event.sim_ts_ms = point.t.total_ms();
  event.fields = {{"target", "fixw"}, {"detail", "timed out"}};
  record.events.push_back(event);

  const std::string text = render_explanations({record}, ExplainFilter{});
  EXPECT_EQ(text,
            "alert routes_high:fixw severity=warning corr=c8/fixw\n"
            "  pending_at=" + record.pending_at.to_string() +
            " fired_at=" + record.fired_at.to_string() +
            " fire_cycle=8 value=14\n"
            "  math: last(w=1) = 14 >= 10 held 2/2 cycles; clears < 5 for 1\n"
            "  window:\n"
            "    seq=8 t=" + point.t.to_string() +
            " raw=14 value=14 over=1 stale=1 stale_tables=1 fails=0 streak=0"
            " attempts=2 latency_ms=40000\n"
            "  events:\n"
            "    sim_ts=900000 level=warn event=capture_failed target=fixw"
            " detail=\"timed out\"\n"
            "1 alert(s) explained\n");

  // A non-matching filter explains nothing; the shard tag prefixes the id.
  EXPECT_EQ(render_explanations({record}, parse_explain_spec("other")),
            "0 alert(s) explained\n");
  const std::vector<std::string> shards = {"shard-00"};
  EXPECT_NE(render_explanations({record}, ExplainFilter{}, &shards)
                .find("alert routes_high:fixw shard=shard-00 "),
            std::string::npos);
}

// --- provenance determinism: live vs archive replay --------------------------

TEST(Provenance, LiveAndArchiveReplayExplanationsAreByteIdentical) {
  const std::filesystem::path base =
      std::filesystem::path(::testing::TempDir()) / "mantra_provenance_replay";
  std::filesystem::remove_all(base);

  workload::ScenarioConfig config;
  config.seed = 33;
  config.domains = 4;
  config.hosts_per_domain = 6;
  config.dvmrp_prefixes_per_domain = 6;
  config.report_loss = 0.05;
  config.timer_scale = 1;
  config.full_timers = true;
  config.generator.session_arrivals_per_hour = 40.0;
  config.generator.bursts_per_day = 0.0;
  workload::FixwScenario scenario(config);
  scenario.start();

  MantraConfig monitor_config;
  monitor_config.cycle = sim::Duration::minutes(15);
  monitor_config.retry.max_attempts = 2;
  monitor_config.worker_threads = 4;
  monitor_config.archive_dir = base.string();
  monitor_config.alerts.enabled = true;
  monitor_config.telemetry.enabled = true;
  monitor_config.self.enabled = true;
  monitor_config.self.path = (base / "monitor.mtel").string();
  auto monitor = std::make_unique<Mantra>(
      scenario.engine(), monitor_config,
      [](const std::string& name) -> std::unique_ptr<Transport> {
        FaultProfile profile;
        if (name == "ucsb-gw") {
          profile = FaultProfile::command_failure_rate(0.3);
        }
        return std::make_unique<FaultInjectingTransport>(
            per_target_seed(0xa1e27, name), profile);
      });
  monitor->add_target(scenario.network().router(scenario.fixw_node()));
  monitor->add_target(scenario.network().router(scenario.ucsb_node()));
  monitor->start();
  scenario.engine().run_until(scenario.engine().now() + sim::Duration::hours(6));

  const ReportData live = report_data_from(*monitor);
  ASSERT_FALSE(live.provenance.empty());
  // Every explanation joins its alert-history row via the correlation id.
  ASSERT_EQ(live.provenance.size(), live.alerts.size());
  for (std::size_t i = 0; i < live.alerts.size(); ++i) {
    EXPECT_FALSE(live.alerts[i].corr.empty());
    EXPECT_EQ(live.provenance[i].corr, live.alerts[i].corr);
  }
  // The faulty target's tails picked up correlated collection events.
  bool any_tail = false;
  for (const ProvenanceRecord& record : live.provenance) {
    if (!record.events.empty()) any_tail = true;
  }
  EXPECT_TRUE(any_tail);
  const std::string live_text =
      render_explanations(live.provenance, ExplainFilter{});

  // Tear the monitor down (flushing .marc and .mtel) and rebuild everything
  // from the recorded bytes alone.
  const std::vector<std::string> names = monitor->target_names();
  monitor->self_monitor()->close();
  monitor.reset();

  QueryEngine engine;
  std::vector<ReportTargetData> targets;
  for (const std::string& name : names) {
    engine.add_archive(name, (base / (name + ".marc")).string());
    targets.push_back({name, engine.replay(name).results});
  }
  // Cycle sequence numbers survive the archive round-trip (dark-cycle gaps
  // included) — the correlation ids depend on it.
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(targets[i].results, live.targets[i].results) << names[i];
    for (const CycleResult& result : targets[i].results) {
      EXPECT_GT(result.cycle_seq, 0u);
    }
  }
  TelemetryArchiveReader reader((base / "monitor.mtel").string());
  const ReportData replayed = report_data_from_replay(
      std::move(targets), default_alert_rules(), &reader.samples());

  EXPECT_EQ(live.provenance, replayed.provenance);
  EXPECT_EQ(live_text,
            render_explanations(replayed.provenance, ExplainFilter{}));
  std::filesystem::remove_all(base);
}

}  // namespace
}  // namespace mantra::core
