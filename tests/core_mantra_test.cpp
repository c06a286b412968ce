#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <memory>
#include <set>
#include <vector>

#include "core/mantra.hpp"
#include "sim/random.hpp"
#include "workload/scenario.hpp"

namespace mantra::core {
namespace {

/// Delegates to the real CLI transport but fails an exact set of commands
/// (deterministic truncation) and can refuse sessions outright — full
/// control over dark vs. partially-failed cycles for the recovery tests.
class SelectiveFailTransport : public Transport {
 public:
  void fail_command(std::string command) { failing_.insert(std::move(command)); }
  void clear_failures() { failing_.clear(); }
  void set_dark(bool dark) { dark_ = dark; }

  void connect_into(const router::MulticastRouter& router, sim::TimePoint now,
                    TransportResult& out) override {
    if (dark_) {
      out.reset();
      out.status = TransportStatus::connection_refused;
      return;
    }
    inner_.connect_into(router, now, out);
  }

  void execute_into(const router::MulticastRouter& router,
                    std::string_view command, sim::TimePoint now,
                    TransportResult& out) override {
    inner_.execute_into(router, command, now, out);
    if (failing_.count(std::string(command)) > 0) {
      out.status = TransportStatus::truncated;
      out.text.clear();
    }
  }

  void disconnect() override { inner_.disconnect(); }

 private:
  CliTransport inner_;
  std::set<std::string> failing_;
  bool dark_ = false;
};

/// A factory that hands `transport` to the first target added, so a test
/// can keep a raw pointer to it and swap fault profiles mid-run.
TransportFactory hand_over(std::unique_ptr<Transport> transport) {
  return [held = std::make_shared<std::unique_ptr<Transport>>(std::move(transport))](
             const std::string&) { return std::move(*held); };
}

/// The value of `field` in the newest `name` event, or nullopt.
std::optional<std::string> newest_event_field(const Telemetry& telemetry,
                                              std::string_view name,
                                              std::string_view field) {
  const std::vector<TelemetryEvent> events = telemetry.events().snapshot();
  for (auto it = events.rbegin(); it != events.rend(); ++it) {
    if (it->name != name) continue;
    for (const auto& [key, value] : it->fields) {
      if (key == field) return value;
    }
    return std::nullopt;
  }
  return std::nullopt;
}

std::size_t event_count(const Telemetry& telemetry, std::string_view name) {
  std::size_t count = 0;
  for (const TelemetryEvent& event : telemetry.events().snapshot()) {
    if (event.name == name) ++count;
  }
  return count;
}

/// Full pipeline over a small protocol-faithful scenario.
class MantraPipeline : public ::testing::Test {
 protected:
  MantraPipeline() : scenario_(make_config()) {
    scenario_.start();
    MantraConfig config;
    config.cycle = sim::Duration::minutes(15);
    monitor_ = std::make_unique<Mantra>(scenario_.engine(), config);
    monitor_->add_target(scenario_.network().router(scenario_.fixw_node()));
    monitor_->add_target(scenario_.network().router(scenario_.ucsb_node()));
    monitor_->start();
  }

  static workload::ScenarioConfig make_config() {
    workload::ScenarioConfig config;
    config.seed = 21;
    config.domains = 4;
    config.hosts_per_domain = 6;
    config.dvmrp_prefixes_per_domain = 6;
    config.report_loss = 0.02;
    config.timer_scale = 1;
    config.full_timers = true;
    config.generator.session_arrivals_per_hour = 40.0;
    config.generator.bursts_per_day = 0.0;
    return config;
  }

  void run_hours(int hours) {
    scenario_.engine().run_until(scenario_.engine().now() +
                                 sim::Duration::hours(hours));
  }

  void run_minutes(int minutes) {
    scenario_.engine().run_until(scenario_.engine().now() +
                                 sim::Duration::minutes(minutes));
  }

  workload::FixwScenario scenario_;
  std::unique_ptr<Mantra> monitor_;
};

TEST_F(MantraPipeline, CyclesAccumulateResults) {
  run_hours(2);
  const auto& results = monitor_->target_view("fixw").results();
  EXPECT_EQ(results.size(), 8u);  // 2h / 15min
  EXPECT_EQ(monitor_->target_view("ucsb-gw").results().size(), 8u);
}

TEST_F(MantraPipeline, UsageStatisticsAreLive) {
  run_hours(3);
  const CycleResult& last = monitor_->target_view("fixw").results().back();
  EXPECT_GT(last.usage.sessions, 0);
  EXPECT_GT(last.usage.participants, 0);
  EXPECT_GE(last.usage.participants, last.usage.senders);
  EXPECT_GE(last.usage.sessions, last.usage.active_sessions);
  EXPECT_GT(last.dvmrp_routes, 0u);
  EXPECT_EQ(last.parse_warnings, 0u);
}

TEST_F(MantraPipeline, LatestSnapshotHoldsItsOwnCyclesDerivedTables) {
  // The cycle derives into reused storage and hands the tables to the
  // snapshot; after every cycle they must be that cycle's, not a recycled
  // earlier cycle's, and agree with the recorded result.
  for (int cycle = 0; cycle < 8; ++cycle) {
    run_minutes(15);
    for (const char* name : {"fixw", "ucsb-gw"}) {
      const Mantra::TargetView view = monitor_->target_view(name);
      const Snapshot& latest = view.latest_snapshot();
      EXPECT_EQ(latest.participants, derive_participants(latest.pairs))
          << name << " cycle " << cycle;
      EXPECT_EQ(latest.sessions, derive_sessions(latest.pairs)) << name << " cycle " << cycle;
      EXPECT_EQ(view.results().back().usage, compute_usage(latest))
          << name << " cycle " << cycle;
    }
  }
}

TEST_F(MantraPipeline, LoggerRecordsEveryCycleAndReconstructs) {
  // Mantra's key-frame/delta log is the `.marc` archive: every recorded
  // cycle lands there, and each reconstructs to the snapshot the monitor
  // held after that cycle, with equal stable fields (an empty Table::diff).
  // Time-derived fields are rebuilt by recurrence, so they are not
  // compared. The writer takes each delta against the target's `latest`
  // snapshot; with 20 % command failures and no retries both targets have
  // stale cycles (tables carried forward) and dark ones (nothing recorded).
  const std::string dir = ::testing::TempDir() + "mantra_pipeline_marc";
  std::filesystem::remove_all(dir);
  MantraConfig config;
  config.cycle = sim::Duration::minutes(15);
  config.retry.max_attempts = 1;
  config.archive_dir = dir;
  auto archived = std::make_unique<Mantra>(
      scenario_.engine(), config,
      [](const std::string& name) -> std::unique_ptr<Transport> {
        return std::make_unique<FaultInjectingTransport>(
            per_target_seed(0x1ed9e7, name), FaultProfile::command_failure_rate(0.2));
      });
  archived->add_target(scenario_.network().router(scenario_.fixw_node()));
  archived->add_target(scenario_.network().router(scenario_.ucsb_node()));
  const char* const names[] = {"fixw", "ucsb-gw"};
  std::vector<Snapshot> recorded[std::size(names)];
  archived->set_cycle_hook([&](std::size_t) {
    for (std::size_t t = 0; t < std::size(names); ++t) {
      const Mantra::TargetView view = archived->target_view(names[t]);
      if (view.results().size() > recorded[t].size()) {
        recorded[t].push_back(view.latest_snapshot());
      }
    }
  });
  archived->start();
  run_hours(12);
  for (std::size_t t = 0; t < std::size(names); ++t) {
    const Mantra::TargetView view = archived->target_view(names[t]);
    std::size_t stale_cycles = 0;
    for (const CycleResult& result : view.results()) stale_cycles += result.stale;
    EXPECT_LT(view.results().size(), 48u) << names[t] << ": no dark cycle";
    EXPECT_GT(stale_cycles, 0u) << names[t] << ": no stale cycle";
    ASSERT_EQ(recorded[t].size(), view.results().size()) << names[t];
    ASSERT_NE(view.archive(), nullptr);
    EXPECT_EQ(view.archive()->cycles_written(), view.results().size()) << names[t];
  }
  archived.reset();  // closes the archives

  for (std::size_t t = 0; t < std::size(names); ++t) {
    const ArchiveReader reader(dir + "/" + names[t] + ".marc");
    const std::vector<Snapshot>& held = recorded[t];
    ASSERT_EQ(reader.size(), held.size()) << names[t];
    EXPECT_GT(held.back().pairs.size(), 0u) << names[t];
    EXPECT_GT(held.back().routes.size(), 0u) << names[t];
    for (std::size_t i = 0; i < held.size(); ++i) {
      const Snapshot rebuilt = reader.snapshot(i);
      const std::string label = std::string(names[t]) + " cycle " + std::to_string(i);
      EXPECT_EQ(rebuilt.captured, held[i].captured) << label;
      EXPECT_TRUE(PairTable::diff(rebuilt.pairs, held[i].pairs).empty()) << label;
      EXPECT_TRUE(RouteTable::diff(rebuilt.routes, held[i].routes).empty()) << label;
      EXPECT_TRUE(SaTable::diff(rebuilt.sa_cache, held[i].sa_cache).empty()) << label;
      EXPECT_TRUE(MbgpTable::diff(rebuilt.mbgp_routes, held[i].mbgp_routes).empty())
          << label;
    }
  }
  std::filesystem::remove_all(dir);
}

// The §III byte ledger, pinned on a seeded faulty two-target run: 20 %
// command failures with retries off over 12 sim hours, so each target has
// dark cycles (skipped, never logged) and stale tables (logged as carried
// forward). The constants were read from the per-target loggers Mantra ran
// inside its cycle, under the default LoggerConfig and each of its three
// ablations; ledgers fed from the cycle hook reproduce them. Never
// regenerate them.
struct LedgerPin {
  std::size_t cycles;
  std::uint64_t stored_bytes;
  std::uint64_t naive_bytes;
};

TEST_F(MantraPipeline, LedgerBytesArePinnedOnAFaultyTwoTargetRun) {
  LoggerConfig no_deltas;
  no_deltas.store_deltas = false;
  LoggerConfig derived_stored;
  derived_stored.derive_redundant = false;
  LoggerConfig short_keyframes;
  short_keyframes.full_snapshot_every = 4;
  struct Case {
    const char* label;
    LoggerConfig logger;
    LedgerPin fixw;
    LedgerPin ucsb;
  };
  const Case cases[] = {
      {"default", LoggerConfig{}, {47, 110682, 402529}, {46, 115703, 393273}},
      {"store_deltas=false", no_deltas, {47, 402529, 402529}, {46, 393273, 393273}},
      {"derive_redundant=false", derived_stored, {47, 110682, 526344},
       {46, 115703, 514823}},
      {"full_snapshot_every=4", short_keyframes, {47, 183264, 402529},
       {46, 181871, 393273}},
  };

  workload::FixwScenario scenario(make_config());
  scenario.start();
  MantraConfig config;
  config.cycle = sim::Duration::minutes(15);
  config.retry.max_attempts = 1;
  Mantra faulty(scenario.engine(), config,
                [](const std::string& name) -> std::unique_ptr<Transport> {
                  return std::make_unique<FaultInjectingTransport>(
                      per_target_seed(0x1ed9e7, name),
                      FaultProfile::command_failure_rate(0.2));
                });
  faulty.add_target(scenario.network().router(scenario.fixw_node()));
  faulty.add_target(scenario.network().router(scenario.ucsb_node()));
  // One ledger per (target, case), fed each cycle the target recorded.
  const char* const names[] = {"fixw", "ucsb-gw"};
  std::vector<DataLogger> ledgers;
  for (std::size_t t = 0; t < std::size(names); ++t) {
    for (const Case& c : cases) ledgers.emplace_back(c.logger);
  }
  faulty.set_cycle_hook([&](std::size_t) {
    for (std::size_t t = 0; t < std::size(names); ++t) {
      const Mantra::TargetView view = faulty.target_view(names[t]);
      for (std::size_t k = 0; k < std::size(cases); ++k) {
        DataLogger& ledger = ledgers[t * std::size(cases) + k];
        if (view.results().size() > ledger.cycle_count()) {
          ledger.record(view.latest_snapshot());
        }
      }
    }
  });
  faulty.start();
  scenario.engine().run_until(sim::TimePoint::start() + sim::Duration::hours(12));

  for (std::size_t t = 0; t < std::size(names); ++t) {
    const Mantra::TargetView view = faulty.target_view(names[t]);
    std::size_t stale_cycles = 0;
    for (const CycleResult& result : view.results()) stale_cycles += result.stale;
    EXPECT_LT(view.results().size(), 48u) << names[t] << ": no dark cycle";
    EXPECT_GT(stale_cycles, 0u) << names[t] << ": no stale cycle";

    for (std::size_t k = 0; k < std::size(cases); ++k) {
      const LedgerPin& pin = t == 0 ? cases[k].fixw : cases[k].ucsb;
      const DataLogger& ledger = ledgers[t * std::size(cases) + k];
      const std::string label = std::string(cases[k].label) + " " + names[t];
      EXPECT_EQ(ledger.cycle_count(), pin.cycles) << label;
      EXPECT_EQ(ledger.stored_bytes(), pin.stored_bytes) << label;
      EXPECT_EQ(ledger.naive_bytes(), pin.naive_bytes) << label;
    }
  }
}

TEST_F(MantraPipeline, SeriesExtraction) {
  run_hours(2);
  const TimeSeries sessions = monitor_->series(
      "fixw", "sessions",
      [](const CycleResult& r) { return static_cast<double>(r.usage.sessions); });
  EXPECT_EQ(sessions.size(), 8u);
  EXPECT_GT(sessions.max(), 0.0);
}

TEST_F(MantraPipeline, SummaryTablesRender) {
  run_hours(2);
  const SummaryTable busiest = monitor_->busiest_sessions("fixw", 5);
  EXPECT_LE(busiest.row_count(), 5u);
  const SummaryTable senders = monitor_->top_senders("fixw", 5);
  EXPECT_LE(senders.row_count(), 5u);
  const SummaryTable overview = monitor_->overview();
  EXPECT_EQ(overview.row_count(), 2u);
  EXPECT_FALSE(overview.render().empty());
}

TEST_F(MantraPipeline, AggregateUsageAtLeastSingleView) {
  run_hours(2);
  const UsageStats fixw = compute_usage(monitor_->target_view("fixw").latest_snapshot());
  const UsageStats aggregate = monitor_->aggregate_usage();
  EXPECT_GE(aggregate.sessions, fixw.sessions);
  EXPECT_GE(aggregate.participants, fixw.participants);
}

TEST_F(MantraPipeline, RouteMonitorSeesChangesAcrossOutage) {
  run_hours(1);
  // Take FIXW's tunnel to UCSB down for an hour: UCSB's learned routes
  // expire into hold-down and are garbage-collected; the monitor's
  // cycle-to-cycle diffs must register the churn in both directions.
  scenario_.network().set_interface_enabled(scenario_.fixw_node(), 0, false);
  run_hours(1);
  const std::size_t during =
      monitor_->target_view("ucsb-gw").results().back().dvmrp_valid_routes;
  scenario_.network().set_interface_enabled(scenario_.fixw_node(), 0, true);
  run_hours(1);
  const RouteMonitor& monitor = monitor_->target_view("ucsb-gw").route_monitor();
  EXPECT_EQ(monitor.history().size(), 12u);
  EXPECT_GT(monitor.total_changes(), 0u);
  EXPECT_LT(during, monitor_->target_view("ucsb-gw").results().back().dvmrp_valid_routes);
}

TEST_F(MantraPipeline, UnknownTargetThrows) {
  EXPECT_THROW(monitor_->target_view("nonesuch").results(), std::out_of_range);
}

// Adding a monitored router again throws before anything is built: a second
// state would reopen `<archive_dir>/fixw.marc` with "wb" and replace the
// first, so the results and the archived cycles so far would be lost and
// the file left torn.
TEST_F(MantraPipeline, ReAddingAMonitoredTargetThrowsAndKeepsItsArchive) {
  const std::string dir = ::testing::TempDir() + "mantra_pipeline_readd";
  std::filesystem::remove_all(dir);
  MantraConfig config;
  config.cycle = sim::Duration::minutes(15);
  config.archive_dir = dir;
  auto archived = std::make_unique<Mantra>(scenario_.engine(), config);
  const router::MulticastRouter* fixw = scenario_.network().router(scenario_.fixw_node());
  archived->add_target(fixw);
  archived->start();
  run_minutes(90);
  const std::vector<CycleResult> before = archived->target_view("fixw").results();
  ASSERT_EQ(before.size(), 6u);

  EXPECT_THROW(archived->add_target(fixw), std::invalid_argument);
  EXPECT_EQ(archived->target_names(), std::vector<std::string>{"fixw"});
  EXPECT_EQ(archived->target_view("fixw").results(), before);

  run_minutes(15);
  const std::vector<CycleResult> results = archived->target_view("fixw").results();
  ASSERT_EQ(results.size(), 7u);
  archived.reset();  // closes the archive

  const ArchiveReader reader(dir + "/fixw.marc");
  EXPECT_TRUE(reader.recovery().clean) << reader.recovery().reason;
  ASSERT_EQ(reader.size(), results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(reader.result_at(i), results[i]) << "cycle " << i;
  }
  std::filesystem::remove_all(dir);
}

TEST_F(MantraPipeline, StopHaltsCycles) {
  run_hours(1);
  monitor_->stop();
  const std::size_t cycles = monitor_->target_view("fixw").results().size();
  run_hours(1);
  EXPECT_EQ(monitor_->target_view("fixw").results().size(), cycles);
}

TEST_F(MantraPipeline, TargetViewConsolidatesAccessors) {
  run_hours(2);
  const Mantra::TargetView view = monitor_->target_view("fixw");
  EXPECT_EQ(view.name(), "fixw");
  EXPECT_EQ(&view.results(), &monitor_->target_view("fixw").results());
  EXPECT_EQ(&view.route_monitor(), &monitor_->target_view("fixw").route_monitor());
  EXPECT_EQ(&view.latest_snapshot(), &monitor_->target_view("fixw").latest_snapshot());
  EXPECT_EQ(view.health(), TargetHealth::Healthy);
  EXPECT_EQ(view.consecutive_failures(), 0u);
  EXPECT_THROW(monitor_->target_view("nonesuch"), std::out_of_range);
}

TEST_F(MantraPipeline, CleanCollectionIsNeverStale) {
  run_hours(2);
  for (const CycleResult& result : monitor_->target_view("fixw").results()) {
    EXPECT_FALSE(result.stale);
    EXPECT_EQ(result.stale_tables, 0u);
    EXPECT_EQ(result.collection_failures, 0u);
    EXPECT_EQ(result.consecutive_failures, 0u);
    EXPECT_GT(result.capture_attempts, 0u);
    EXPECT_GT(result.collection_latency.total_ms(), 0);
  }
}

TEST_F(MantraPipeline, OverviewReportsHealth) {
  run_hours(1);
  const SummaryTable overview = monitor_->overview();
  const auto health_column = overview.column_index("health");
  ASSERT_TRUE(health_column.has_value());
  for (const auto& row : overview.rows()) {
    EXPECT_EQ(row[*health_column], "healthy");
  }
}

TEST_F(MantraPipeline, HealthTransitionsAreObservable) {
  MantraConfig config;
  config.cycle = sim::Duration::minutes(15);
  config.unreachable_after = 2;
  auto owned = std::make_unique<FaultInjectingTransport>(7, FaultProfile{});
  FaultInjectingTransport* faults = owned.get();
  Mantra faulty(scenario_.engine(), config, hand_over(std::move(owned)));
  faulty.add_target(scenario_.network().router(scenario_.fixw_node()));
  faulty.start();

  run_hours(1);
  EXPECT_EQ(faulty.target_view("fixw").health(), TargetHealth::Healthy);
  const std::size_t clean_cycles = faulty.target_view("fixw").results().size();
  EXPECT_GT(clean_cycles, 0u);

  // Take the router dark: the first dark cycle degrades the target, the
  // second (== unreachable_after) marks it unreachable; dark cycles record
  // no results.
  FaultProfile dark;
  dark.connect_refused_p = 1.0;
  faults->set_profile(dark);
  run_minutes(15);
  EXPECT_EQ(faulty.target_view("fixw").health(), TargetHealth::Degraded);
  EXPECT_EQ(faulty.target_view("fixw").consecutive_failures(), 1u);
  run_minutes(15);
  EXPECT_EQ(faulty.target_view("fixw").health(), TargetHealth::Unreachable);
  EXPECT_EQ(faulty.target_view("fixw").consecutive_failures(), 2u);
  EXPECT_EQ(faulty.target_view("fixw").results().size(), clean_cycles);

  // Recovery: the next clean cycle returns the target to Healthy and its
  // result records how many dark cycles were skipped.
  faults->set_profile(FaultProfile{});
  run_minutes(15);
  EXPECT_EQ(faulty.target_view("fixw").health(), TargetHealth::Healthy);
  EXPECT_EQ(faulty.target_view("fixw").consecutive_failures(), 0u);
  const auto& results = faulty.target_view("fixw").results();
  ASSERT_EQ(results.size(), clean_cycles + 1);
  EXPECT_EQ(results.back().consecutive_failures, 2u);
}

TEST_F(MantraPipeline, LastSuccessFreezesThroughDarkCyclesAndRecovers) {
  MantraConfig config;
  config.cycle = sim::Duration::minutes(15);
  config.unreachable_after = 2;
  auto owned = std::make_unique<FaultInjectingTransport>(7, FaultProfile{});
  FaultInjectingTransport* faults = owned.get();
  Mantra faulty(scenario_.engine(), config, hand_over(std::move(owned)));
  faulty.add_target(scenario_.network().router(scenario_.fixw_node()));

  // Before any cycle has run the target has never succeeded.
  EXPECT_FALSE(faulty.target_view("fixw").last_success().has_value());
  faulty.start();

  run_hours(1);
  const auto after_clean = faulty.target_view("fixw").last_success();
  ASSERT_TRUE(after_clean.has_value());
  // The last recorded cycle's timestamp, i.e. the most recent cycle tick.
  EXPECT_EQ(*after_clean, faulty.target_view("fixw").results().back().t);

  // Dark cycles leave last_success frozen at the pre-outage instant.
  FaultProfile dark;
  dark.connect_refused_p = 1.0;
  faults->set_profile(dark);
  run_minutes(30);
  EXPECT_EQ(faulty.target_view("fixw").health(), TargetHealth::Unreachable);
  ASSERT_TRUE(faulty.target_view("fixw").last_success().has_value());
  EXPECT_EQ(*faulty.target_view("fixw").last_success(), *after_clean);

  // Recovery advances it to the recovering cycle's timestamp.
  faults->set_profile(FaultProfile{});
  run_minutes(15);
  ASSERT_TRUE(faulty.target_view("fixw").last_success().has_value());
  EXPECT_GT(*faulty.target_view("fixw").last_success(), *after_clean);
  EXPECT_EQ(*faulty.target_view("fixw").last_success(),
            faulty.target_view("fixw").results().back().t);

  // The overview table surfaces the same instant.
  const SummaryTable overview = faulty.overview();
  const auto column = overview.column_index("last_success");
  ASSERT_TRUE(column.has_value());
  EXPECT_EQ(overview.rows()[0][*column],
            faulty.target_view("fixw").last_success()->to_string());
}

TEST_F(MantraPipeline, RecoveryToDegradedCarriesHealthContext) {
  MantraConfig config;
  config.cycle = sim::Duration::minutes(15);
  config.retry.max_attempts = 1;
  config.unreachable_after = 2;
  config.telemetry.enabled = true;
  auto owned = std::make_unique<SelectiveFailTransport>();
  SelectiveFailTransport* transport = owned.get();
  Mantra faulty(scenario_.engine(), config, hand_over(std::move(owned)));
  faulty.add_target(scenario_.network().router(scenario_.fixw_node()));
  faulty.start();

  run_hours(1);
  EXPECT_EQ(event_count(faulty.telemetry(), "target_recovered"), 0u);

  // Two dark cycles, then a recovery whose capture is itself partially
  // failed: the dark spell ends, but the target lands in Degraded — and the
  // event must say so.
  transport->set_dark(true);
  run_minutes(30);
  EXPECT_EQ(faulty.target_view("fixw").consecutive_failures(), 2u);
  transport->set_dark(false);
  transport->fail_command("show ip dvmrp route");
  run_minutes(15);

  EXPECT_EQ(faulty.target_view("fixw").health(), TargetHealth::Degraded);
  EXPECT_EQ(faulty.target_view("fixw").results().back().consecutive_failures, 2u);
  EXPECT_TRUE(faulty.target_view("fixw").results().back().stale);
  ASSERT_EQ(event_count(faulty.telemetry(), "target_recovered"), 1u);
  EXPECT_EQ(newest_event_field(faulty.telemetry(), "target_recovered", "health"),
            "degraded");
  EXPECT_EQ(newest_event_field(faulty.telemetry(), "target_recovered",
                               "dark_cycles"),
            "2");

  // Further degraded-but-recorded cycles are not recoveries: no dark spell
  // is ending, so no event fires.
  run_minutes(30);
  EXPECT_EQ(event_count(faulty.telemetry(), "target_recovered"), 1u);
}

TEST_F(MantraPipeline, RecoveryToHealthyCarriesHealthContext) {
  MantraConfig config;
  config.cycle = sim::Duration::minutes(15);
  config.retry.max_attempts = 1;
  config.telemetry.enabled = true;
  auto owned = std::make_unique<SelectiveFailTransport>();
  SelectiveFailTransport* transport = owned.get();
  Mantra faulty(scenario_.engine(), config, hand_over(std::move(owned)));
  faulty.add_target(scenario_.network().router(scenario_.fixw_node()));
  faulty.start();

  run_hours(1);
  transport->set_dark(true);
  run_minutes(15);
  transport->set_dark(false);
  run_minutes(15);

  EXPECT_EQ(faulty.target_view("fixw").health(), TargetHealth::Healthy);
  ASSERT_EQ(event_count(faulty.telemetry(), "target_recovered"), 1u);
  EXPECT_EQ(newest_event_field(faulty.telemetry(), "target_recovered", "health"),
            "healthy");
  EXPECT_EQ(newest_event_field(faulty.telemetry(), "target_recovered",
                               "dark_cycles"),
            "1");
}

TEST_F(MantraPipeline, MonitorStatusReportsCollectionHealth) {
  MantraConfig config;
  config.cycle = sim::Duration::minutes(15);
  config.unreachable_after = 2;
  auto owned = std::make_unique<FaultInjectingTransport>(7, FaultProfile{});
  FaultInjectingTransport* faults = owned.get();
  Mantra faulty(scenario_.engine(), config, hand_over(std::move(owned)));
  faulty.add_target(scenario_.network().router(scenario_.fixw_node()));
  faulty.start();

  run_hours(1);
  FaultProfile dark;
  dark.connect_refused_p = 1.0;
  faults->set_profile(dark);
  run_minutes(30);

  const MonitorStatus status = faulty.status();
  EXPECT_EQ(status.now, scenario_.engine().now());
  EXPECT_EQ(status.cycles_run, 6u);  // 1h clean + 30min dark at 15min cycles
  ASSERT_EQ(status.targets.size(), 1u);
  const MonitorStatus::Target& fixw = status.targets[0];
  EXPECT_EQ(fixw.name, "fixw");
  EXPECT_EQ(fixw.health, TargetHealth::Unreachable);
  EXPECT_EQ(fixw.cycles_recorded, 4u);
  EXPECT_EQ(fixw.consecutive_failures, 2u);
  ASSERT_TRUE(fixw.last_success.has_value());
  // Staleness is the age of the data being served: now - last_success.
  EXPECT_EQ(fixw.staleness, status.now - *fixw.last_success);
  EXPECT_GE(fixw.staleness, sim::Duration::minutes(30));
  // Latency percentiles come from the recorded cycle history, so they are
  // populated (clean CLI captures cost a fixed per-command latency).
  EXPECT_GT(fixw.latency_p50_s, 0.0);
  EXPECT_GE(fixw.latency_p95_s, fixw.latency_p50_s);
  EXPECT_GE(fixw.latency_max_s, fixw.latency_p95_s);
  EXPECT_EQ(fixw.last_latency.total_seconds(), fixw.latency_max_s);

  // The rendered table has one row per target and stays renderable.
  const SummaryTable table = status.to_table();
  EXPECT_EQ(table.row_count(), 1u);
  EXPECT_FALSE(table.render().empty());
  EXPECT_TRUE(table.column_index("staleness").has_value());
}

// status() reads each target's TargetSummary, folded once per recorded
// cycle. After a seeded faulty run every row equals a fresh fold of the
// target's recorded results plus the live facts, and its percentiles equal
// sim::quantile over the same latencies, bit for bit.
TEST_F(MantraPipeline, StatusRowsEqualAFreshFoldOfTheResults) {
  MantraConfig config;
  config.cycle = sim::Duration::minutes(15);
  config.retry.max_attempts = 2;
  Mantra faulty(scenario_.engine(), config,
                [](const std::string& name) -> std::unique_ptr<Transport> {
                  FaultProfile profile = FaultProfile::command_failure_rate(0.25);
                  profile.connect_refused_p = 0.3;
                  return std::make_unique<FaultInjectingTransport>(
                      per_target_seed(0x51a7, name), profile);
                });
  faulty.add_target(scenario_.network().router(scenario_.fixw_node()));
  faulty.add_target(scenario_.network().router(scenario_.ucsb_node()));
  faulty.start();
  run_hours(12);

  const auto bits = [](double value) { return std::bit_cast<std::uint64_t>(value); };
  const MonitorStatus status = faulty.status();
  ASSERT_EQ(status.targets.size(), 2u);
  for (const MonitorStatus::Target& row : status.targets) {
    const Mantra::TargetView view = faulty.target_view(row.name);
    TargetSummary fold;
    std::vector<double> seconds;
    for (const CycleResult& result : view.results()) {
      fold.add(result);
      seconds.push_back(result.collection_latency.total_seconds());
    }
    // The faulty transport produced stale cycles and spread latencies.
    EXPECT_GT(fold.stale_cycles, 0u) << row.name;
    EXPECT_GT(fold.latency_counts.size() + fold.latency_recent.size(), 1u) << row.name;

    EXPECT_EQ(row.cycles_recorded, fold.cycles) << row.name;
    EXPECT_EQ(row.stale_cycles, fold.stale_cycles) << row.name;
    EXPECT_EQ(row.route_spikes, fold.spikes) << row.name;
    EXPECT_EQ(row.last_latency, fold.last_latency) << row.name;
    EXPECT_EQ(row.last_latency, view.results().back().collection_latency) << row.name;
    EXPECT_EQ(bits(row.latency_p50_s), bits(fold.latency_quantile_s(0.5))) << row.name;
    EXPECT_EQ(bits(row.latency_p95_s), bits(fold.latency_quantile_s(0.95))) << row.name;
    EXPECT_EQ(bits(row.latency_max_s), bits(fold.latency_max_s())) << row.name;
    EXPECT_EQ(bits(row.latency_p50_s), bits(sim::quantile(seconds, 0.5))) << row.name;
    EXPECT_EQ(bits(row.latency_p95_s), bits(sim::quantile(seconds, 0.95))) << row.name;

    EXPECT_EQ(row.health, view.health()) << row.name;
    EXPECT_EQ(row.consecutive_failures, view.consecutive_failures()) << row.name;
    EXPECT_EQ(row.last_success, view.last_success()) << row.name;
    ASSERT_TRUE(row.last_success.has_value()) << row.name;
    EXPECT_EQ(row.staleness, status.now - *row.last_success) << row.name;
  }
}

// Pinned semantics for a target that has NEVER produced a usable capture:
// last_success stays unset, the status row renders "never", and staleness is
// the age of the whole run (now - sim::TimePoint::start()) — the monitor has
// been serving no data for its entire lifetime, so the age of the data it
// serves is the lifetime itself. The fleet-merged status (core/fleet) reuses
// these rows verbatim, so the same semantics hold fleet-wide.
TEST_F(MantraPipeline, MonitorStatusNeverSucceededTargetAgesFromRunStart) {
  MantraConfig config;
  config.cycle = sim::Duration::minutes(15);
  config.unreachable_after = 2;
  FaultProfile dark;
  dark.connect_refused_p = 1.0;
  Mantra faulty(scenario_.engine(), config,
                hand_over(std::make_unique<FaultInjectingTransport>(7, dark)));
  faulty.add_target(scenario_.network().router(scenario_.fixw_node()));
  faulty.start();
  run_hours(1);

  const MonitorStatus status = faulty.status();
  ASSERT_EQ(status.targets.size(), 1u);
  const MonitorStatus::Target& row = status.targets[0];
  EXPECT_FALSE(row.last_success.has_value());
  EXPECT_EQ(row.cycles_recorded, 0u);
  EXPECT_EQ(row.health, TargetHealth::Unreachable);
  EXPECT_EQ(row.staleness, status.now - sim::TimePoint::start());
  EXPECT_GE(row.staleness, sim::Duration::hours(1));
  // No recorded cycles: every latency statistic reads zero, not garbage.
  EXPECT_EQ(row.last_latency, sim::Duration());
  EXPECT_DOUBLE_EQ(row.latency_p50_s, 0.0);
  EXPECT_DOUBLE_EQ(row.latency_p95_s, 0.0);
  EXPECT_DOUBLE_EQ(row.latency_max_s, 0.0);

  const SummaryTable table = status.to_table();
  const auto last_success = table.column_index("last_success");
  const auto staleness = table.column_index("staleness");
  ASSERT_TRUE(last_success.has_value() && staleness.has_value());
  EXPECT_EQ(table.rows()[0][*last_success], "never");
  EXPECT_EQ(table.rows()[0][*staleness], row.staleness.to_string());
}

TEST_F(MantraPipeline, FaultyCollectionDegradesGracefully) {
  // The acceptance run: 20% command-failure rate, retries disabled so every
  // fault surfaces. The faulty monitor rides the same scenario as the
  // fault-free fixture monitor, so every clean capture it makes is
  // byte-identical to the fixture's at the same instant.
  MantraConfig config;
  config.cycle = sim::Duration::minutes(15);
  config.retry.max_attempts = 1;
  Mantra faulty(scenario_.engine(), config,
                hand_over(std::make_unique<FaultInjectingTransport>(
                    99, FaultProfile::command_failure_rate(0.2))));
  faulty.add_target(scenario_.network().router(scenario_.fixw_node()));
  faulty.start();

  run_hours(6);

  const auto& clean = monitor_->target_view("fixw").results();
  const auto& degraded = faulty.target_view("fixw").results();
  ASSERT_FALSE(clean.empty());
  ASSERT_FALSE(degraded.empty());
  // Dark cycles may be skipped, never invented.
  EXPECT_LE(degraded.size(), clean.size());

  std::size_t stale_cycles = 0;
  bool seen_routes = false;
  for (const CycleResult& result : degraded) {
    if (result.stale) ++stale_cycles;
    EXPECT_EQ(result.stale, result.stale_tables > 0);
    EXPECT_GE(result.collection_failures, result.stale_tables);

    // Stale-carry-forward bound: every per-cycle statistic must equal the
    // fault-free run's value at this cycle or at some earlier cycle — a
    // failed capture repeats old truth, it never fabricates or zeroes.
    bool sessions_ok = false;
    bool routes_ok = false;
    for (const CycleResult& reference : clean) {
      if (reference.t > result.t) break;
      if (reference.usage.sessions == result.usage.sessions) sessions_ok = true;
      if (reference.dvmrp_routes == result.dvmrp_routes) routes_ok = true;
    }
    EXPECT_TRUE(sessions_ok) << "sessions value outside stale-carry-forward "
                                "bounds at " << result.t.to_string();
    EXPECT_TRUE(routes_ok) << "route count outside stale-carry-forward "
                              "bounds at " << result.t.to_string();

    // Once populated, carried-forward tables never collapse to zero.
    if (result.dvmrp_routes > 0) {
      seen_routes = true;
    } else {
      EXPECT_FALSE(seen_routes)
          << "dvmrp routes zeroed after being populated at "
          << result.t.to_string();
    }
  }
  EXPECT_TRUE(seen_routes);
  EXPECT_GT(stale_cycles, 0u);

  const TargetHealth health = faulty.target_view("fixw").health();
  EXPECT_TRUE(health == TargetHealth::Healthy || health == TargetHealth::Degraded ||
              health == TargetHealth::Unreachable);
}

TEST(MantraConfigValidate, RejectsBadFieldsWithNamedMessages) {
  sim::Engine engine;
  const auto expect_reject = [&engine](const std::function<void(MantraConfig&)>& mutate,
                                       std::string_view field) {
    MantraConfig config;
    mutate(config);
    try {
      Mantra monitor(engine, config);
      FAIL() << "expected rejection of bad " << field;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string_view(error.what()).find(field),
                std::string_view::npos)
          << "message should name " << field << ", got: " << error.what();
    }
  };

  expect_reject([](MantraConfig& c) { c.cycle = sim::Duration(); }, "cycle");
  expect_reject([](MantraConfig& c) { c.sender_threshold_kbps = -1.0; },
                "sender_threshold_kbps");
  expect_reject([](MantraConfig& c) { c.spike_window = 1; }, "spike_window");
  expect_reject([](MantraConfig& c) { c.spike_k = 0.0; }, "spike_k");
  expect_reject([](MantraConfig& c) { c.retry.max_attempts = 0; },
                "retry.max_attempts");
  expect_reject(
      [](MantraConfig& c) { c.retry.initial_backoff = sim::Duration::seconds(-1); },
      "retry.initial_backoff");
  expect_reject([](MantraConfig& c) { c.retry.backoff_multiplier = 0.5; },
                "retry.backoff_multiplier");
  expect_reject([](MantraConfig& c) { c.retry.jitter = 1.5; }, "retry.jitter");
  expect_reject([](MantraConfig& c) { c.retry.command_deadline = sim::Duration(); },
                "retry.command_deadline");
  expect_reject([](MantraConfig& c) { c.unreachable_after = 0; },
                "unreachable_after");
}

TEST(MantraConfigValidate, AcceptsDefaults) {
  sim::Engine engine;
  EXPECT_NO_THROW(Mantra(engine, MantraConfig{}));
}

TEST_F(MantraPipeline, RouteInjectionFlagsSpike) {
  // Let the detector build a baseline, then inject.
  run_hours(3);
  scenario_.schedule_route_injection(scenario_.engine().now() + sim::Duration::minutes(20),
                                     1500, sim::Duration::hours(2));
  run_hours(1);
  bool spiked = false;
  for (const CycleResult& result : monitor_->target_view("ucsb-gw").results()) {
    if (result.route_spike) spiked = true;
  }
  EXPECT_TRUE(spiked);
}

}  // namespace
}  // namespace mantra::core
