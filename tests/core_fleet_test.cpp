// core/fleet: the aggregation tier merges sharded monitors into one view in
// (shard, name) order regardless of registration order or per-shard
// worker_threads; the live fleet report over >= 4 shards is byte-identical
// to one rebuilt from the shards' .marc archives through QueryEngine; and
// the fleet-merged status reuses the pinned single-monitor semantics
// (never-succeeded staleness spans the whole run).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/fleet.hpp"
#include "core/mantra.hpp"
#include "core/provenance.hpp"
#include "core/query.hpp"
#include "core/report.hpp"
#include "core/teltrace.hpp"
#include "workload/scenario.hpp"

namespace mantra::core {
namespace {

/// Four single-target shards over one FIXW scenario: the hub plus three
/// border routers, each monitored by its own Mantra (own transport factory,
/// own archives, own alert engine). shard-01 collects through a lossy
/// transport so the fixture produces degraded cycles and alert content.
class FleetFixture : public ::testing::Test {
 protected:
  static constexpr std::size_t kShards = 4;

  FleetFixture() : scenario_(make_config()) { scenario_.start(); }

  static workload::ScenarioConfig make_config() {
    workload::ScenarioConfig config;
    config.seed = 41;
    config.domains = 4;
    config.hosts_per_domain = 6;
    config.dvmrp_prefixes_per_domain = 6;
    config.report_loss = 0.05;
    config.timer_scale = 1;
    config.full_timers = true;
    config.generator.session_arrivals_per_hour = 40.0;
    config.generator.bursts_per_day = 0.0;
    return config;
  }

  [[nodiscard]] net::NodeId shard_node(std::size_t index) const {
    return index == 0 ? scenario_.fixw_node()
                      : scenario_.border_nodes().at(index - 1);
  }

  static std::string shard_name(std::size_t index) {
    return "shard-0" + std::to_string(index);
  }

  /// Builds one shard monitor. `faulty` shards collect through a 30%
  /// command-failure transport; `archive_dir` empty disables archiving;
  /// `telemetry` turns on core/telemetry so the shard has a metric registry
  /// and event log for the federation tests to merge; `self_path` non-empty
  /// additionally records a `.mtel` self-telemetry archive (requires
  /// telemetry), which the provenance tests replay for event tails.
  std::unique_ptr<Mantra> make_shard(std::size_t index,
                                     const std::string& archive_dir,
                                     std::size_t worker_threads,
                                     bool telemetry = false,
                                     const std::string& self_path = {}) {
    MantraConfig config;
    config.cycle = sim::Duration::minutes(15);
    config.retry.max_attempts = 2;
    config.worker_threads = worker_threads;
    config.archive_dir = archive_dir;
    config.alerts.enabled = true;  // default rule set, per-shard engine
    config.telemetry.enabled = telemetry;
    config.self.enabled = !self_path.empty();
    config.self.path = self_path;
    config.self.name = shard_name(index);
    const bool faulty = index == 1;
    auto monitor = std::make_unique<Mantra>(
        scenario_.engine(), config,
        [faulty](const std::string& name) -> std::unique_ptr<Transport> {
          FaultProfile profile;
          if (faulty) profile = FaultProfile::command_failure_rate(0.3);
          return std::make_unique<FaultInjectingTransport>(
              per_target_seed(0x5e90a7, name), profile);
        });
    monitor->add_target(scenario_.network().router(shard_node(index)));
    monitor->start();
    return monitor;
  }

  std::vector<std::unique_ptr<Mantra>> make_fleet(
      const std::filesystem::path& archive_base, std::size_t worker_threads,
      bool telemetry = false) {
    std::vector<std::unique_ptr<Mantra>> shards;
    for (std::size_t i = 0; i < kShards; ++i) {
      const std::string dir =
          archive_base.empty() ? std::string()
                               : (archive_base / shard_name(i)).string();
      shards.push_back(make_shard(i, dir, worker_threads, telemetry));
    }
    return shards;
  }

  void run_hours(int hours) {
    scenario_.engine().run_until(scenario_.engine().now() +
                                 sim::Duration::hours(hours));
  }

  workload::FixwScenario scenario_;
};

TEST_F(FleetFixture, StatusMergesShardsInNameOrderWithRollups) {
  auto shards = make_fleet({}, 0);
  run_hours(4);

  FleetAggregator fleet;
  // Registration order is scrambled on purpose: the merge must not see it.
  fleet.add_shard(shard_name(2), *shards[2]);
  fleet.add_shard(shard_name(0), *shards[0]);
  fleet.add_shard(shard_name(3), *shards[3]);
  fleet.add_shard(shard_name(1), *shards[1]);

  EXPECT_EQ(fleet.shard_count(), kShards);
  EXPECT_EQ(fleet.target_count(), kShards);
  const std::vector<std::string> names = fleet.shard_names();
  ASSERT_EQ(names.size(), kShards);
  for (std::size_t i = 0; i < kShards; ++i) EXPECT_EQ(names[i], shard_name(i));

  const FleetStatus status = fleet.status();
  ASSERT_EQ(status.shards.size(), kShards);
  ASSERT_EQ(status.targets.size(), kShards);
  for (std::size_t i = 0; i < kShards; ++i) {
    const FleetStatus::ShardRow& row = status.shards[i];
    EXPECT_EQ(row.shard, shard_name(i));
    EXPECT_EQ(row.targets, 1u);
    EXPECT_EQ(row.healthy + row.degraded + row.unreachable, row.targets);
    EXPECT_GT(row.cycles_run, 0u);
    EXPECT_GT(row.cycles_recorded, 0u);
    // Target rows follow the same shard order, tagged with their owner.
    EXPECT_EQ(status.targets[i].shard, shard_name(i));
    const MonitorStatus shard_status = fleet.shard(shard_name(i)).status();
    ASSERT_EQ(shard_status.targets.size(), 1u);
    EXPECT_EQ(status.targets[i].target.name, shard_status.targets[0].name);
    EXPECT_EQ(status.targets[i].target.cycles_recorded,
              shard_status.targets[0].cycles_recorded);
    EXPECT_EQ(row.cycles_recorded, shard_status.targets[0].cycles_recorded);
  }
  // The lossy shard actually degraded, so the rollup separates health kinds.
  EXPECT_GT(status.shards[1].stale_cycles, 0u);
  EXPECT_EQ(status.now, scenario_.engine().now());

  // The rendered tables carry the same order: shard column ascending.
  const SummaryTable shard_table = status.shard_table();
  ASSERT_EQ(shard_table.row_count(), kShards);
  const SummaryTable target_table = status.to_table();
  ASSERT_EQ(target_table.row_count(), kShards);
  for (std::size_t i = 0; i < kShards; ++i) {
    EXPECT_EQ(shard_table.rows()[i][0], shard_name(i));
    EXPECT_EQ(target_table.rows()[i][0], shard_name(i));
  }
}

TEST_F(FleetFixture, RegistrationOrderDoesNotChangeFleetReportBytes) {
  auto shards = make_fleet({}, 0);
  run_hours(4);

  FleetAggregator forward, scrambled;
  for (std::size_t i = 0; i < kShards; ++i) {
    forward.add_shard(shard_name(i), *shards[i]);
  }
  for (const std::size_t i : {std::size_t{3}, std::size_t{1}, std::size_t{0},
                              std::size_t{2}}) {
    scrambled.add_shard(shard_name(i), *shards[i]);
  }
  EXPECT_EQ(render_fleet_html_report(fleet_report_data_from(forward)),
            render_fleet_html_report(fleet_report_data_from(scrambled)));
}

TEST_F(FleetFixture, ShardRegistrationValidates) {
  auto shard = make_shard(0, "", 0);
  FleetAggregator fleet;
  fleet.add_shard("alpha", *shard);
  EXPECT_THROW(fleet.add_shard("alpha", *shard), std::invalid_argument);
  EXPECT_THROW(fleet.add_shard("", *shard), std::invalid_argument);
  EXPECT_THROW(fleet.shard("unknown"), std::out_of_range);
}

TEST_F(FleetFixture, LiveAndQueryReplayFleetReportsAreByteIdentical) {
  const std::filesystem::path base =
      std::filesystem::path(::testing::TempDir()) / "mantra_fleet_replay";
  std::filesystem::remove_all(base);
  auto shards = make_fleet(base, 0);
  run_hours(8);

  FleetAggregator fleet;
  for (std::size_t i = 0; i < kShards; ++i) {
    fleet.add_shard(shard_name(i), *shards[i]);
  }
  const std::string live =
      render_fleet_html_report(fleet_report_data_from(fleet));

  std::vector<std::vector<std::string>> shard_targets;
  for (std::size_t i = 0; i < kShards; ++i) {
    shard_targets.push_back(shards[i]->target_names());
  }
  shards.clear();  // flush every shard's archives

  // Rebuild offline: one QueryEngine per shard directory, full-fidelity
  // replay per target, per-shard rule re-evaluation, same merge.
  std::vector<FleetShardReplay> replayed;
  for (std::size_t i = 0; i < kShards; ++i) {
    QueryEngine engine;
    FleetShardReplay shard;
    shard.shard = shard_name(i);
    shard.rules = default_alert_rules();
    for (const std::string& target : shard_targets[i]) {
      engine.add_archive(target,
                         (base / shard_name(i) / (target + ".marc")).string());
      shard.targets.push_back({target, engine.replay(target).results});
    }
    replayed.push_back(std::move(shard));
  }
  const std::string offline = render_fleet_html_report(
      fleet_report_data_from_replay(std::move(replayed)));
  EXPECT_EQ(live, offline);
  // The lossy shard produced real alert content to compare.
  EXPECT_NE(live.find("Fleet alerts"), std::string::npos);
  EXPECT_NE(live.find("shard-01"), std::string::npos);
}

// --- fleet provenance --------------------------------------------------------

// The fleet-wide explain merge is the same total order as the fleet alert
// table: (fired_at, shard, rule, target), pending_at tiebreak — pinned on
// synthetic data so the comparator can't drift.
TEST(FleetProvenanceMerge, OrdersByFiredAtShardRuleTarget) {
  const auto record = [](int fired_min, const char* rule, const char* target) {
    ProvenanceRecord out;
    out.rule = rule;
    out.target = target;
    out.fired_at = sim::TimePoint::start() + sim::Duration::minutes(fired_min);
    return out;
  };
  FleetReportData data;
  data.shards.push_back({"a", {}});
  data.shards.push_back({"b", {}});
  // Capture order within each shard is deliberately not the merge order.
  data.shards[0].data.provenance = {record(10, "r1", "t1"),
                                    record(5, "r9", "t9")};
  data.shards[1].data.provenance = {record(10, "r1", "t1"),
                                    record(10, "r0", "t0"),
                                    record(10, "r1", "t0")};

  const FleetProvenance merged = fleet_provenance_from(data);
  ASSERT_EQ(merged.records.size(), 5u);
  ASSERT_EQ(merged.shards.size(), 5u);
  const std::vector<std::string> expect_shards = {"a", "a", "b", "b", "b"};
  const std::vector<std::string> expect_rules = {"r9", "r1", "r0", "r1", "r1"};
  const std::vector<std::string> expect_targets = {"t9", "t1", "t0", "t0",
                                                   "t1"};
  for (std::size_t i = 0; i < merged.records.size(); ++i) {
    EXPECT_EQ(merged.shards[i], expect_shards[i]) << i;
    EXPECT_EQ(merged.records[i].rule, expect_rules[i]) << i;
    EXPECT_EQ(merged.records[i].target, expect_targets[i]) << i;
  }
}

TEST_F(FleetFixture, LiveAndReplayFleetExplanationsAreByteIdentical) {
  const std::filesystem::path base =
      std::filesystem::path(::testing::TempDir()) / "mantra_fleet_explain";
  std::filesystem::remove_all(base);
  std::filesystem::create_directories(base);

  // Shards with archives + self-telemetry (the `.mtel` feeds the replayed
  // event tails) on worker pools, registered in scrambled order.
  std::vector<std::unique_ptr<Mantra>> shards;
  for (std::size_t i = 0; i < kShards; ++i) {
    const std::string dir = (base / shard_name(i)).string();
    shards.push_back(make_shard(i, dir, /*worker_threads=*/2,
                                /*telemetry=*/true,
                                dir + "/" + shard_name(i) + ".mtel"));
  }
  run_hours(8);

  FleetAggregator fleet;
  for (const std::size_t i : {std::size_t{3}, std::size_t{1}, std::size_t{0},
                              std::size_t{2}}) {
    fleet.add_shard(shard_name(i), *shards[i]);
  }
  const FleetProvenance live = fleet_provenance_from(fleet_report_data_from(fleet));
  ASSERT_FALSE(live.records.empty());
  ASSERT_EQ(live.records.size(), live.shards.size());
  // The merge is in (fired_at, shard, rule, target) order.
  for (std::size_t i = 1; i < live.records.size(); ++i) {
    const auto key = [&](std::size_t k) {
      return std::make_tuple(live.records[k].fired_at.total_ms(),
                             live.shards[k], live.records[k].rule,
                             live.records[k].target);
    };
    EXPECT_LE(key(i - 1), key(i)) << i;
  }
  const std::string live_text =
      render_explanations(live.records, ExplainFilter{}, &live.shards);
  EXPECT_NE(live_text.find(" shard=shard-01 "), std::string::npos);

  // Flush everything and rebuild the merged explanations from bytes alone.
  std::vector<std::vector<std::string>> shard_targets;
  for (auto& shard : shards) {
    shard_targets.push_back(shard->target_names());
    shard->self_monitor()->close();
  }
  shards.clear();

  std::vector<FleetShardReplay> replayed;
  for (std::size_t i = 0; i < kShards; ++i) {
    QueryEngine engine;
    FleetShardReplay shard;
    shard.shard = shard_name(i);
    shard.rules = default_alert_rules();
    for (const std::string& target : shard_targets[i]) {
      engine.add_archive(target,
                         (base / shard_name(i) / (target + ".marc")).string());
      shard.targets.push_back({target, engine.replay(target).results});
    }
    TelemetryArchiveReader reader(
        (base / shard_name(i) / (shard_name(i) + ".mtel")).string());
    shard.samples = reader.samples();
    replayed.push_back(std::move(shard));
  }
  const FleetProvenance offline =
      fleet_provenance_from(fleet_report_data_from_replay(std::move(replayed)));
  EXPECT_EQ(live.records, offline.records);
  EXPECT_EQ(live.shards, offline.shards);
  EXPECT_EQ(live_text,
            render_explanations(offline.records, ExplainFilter{},
                                &offline.shards));
  std::filesystem::remove_all(base);
}

TEST_F(FleetFixture, PerShardWorkerPoolsDoNotChangeFleetReportBytes) {
  auto sequential = make_fleet({}, 0);
  auto pooled = make_fleet({}, 2);
  run_hours(4);

  FleetAggregator fleet_seq, fleet_par;
  for (std::size_t i = 0; i < kShards; ++i) {
    fleet_seq.add_shard(shard_name(i), *sequential[i]);
    fleet_par.add_shard(shard_name(i), *pooled[i]);
  }
  EXPECT_EQ(render_fleet_html_report(fleet_report_data_from(fleet_seq)),
            render_fleet_html_report(fleet_report_data_from(fleet_par)));
}

TEST_F(FleetFixture, NeverSucceededTargetKeepsPinnedStalenessFleetWide) {
  // One extra shard whose target is dark from the first cycle: the fleet
  // row must reuse the single-monitor semantics pinned in core_mantra_test
  // (last_success unset, staleness = now - run start, "never" rendering).
  MantraConfig config;
  config.cycle = sim::Duration::minutes(15);
  config.unreachable_after = 2;
  FaultProfile dark;
  dark.connect_refused_p = 1.0;
  Mantra dark_shard(scenario_.engine(), config,
                    [dark](const std::string&) -> std::unique_ptr<Transport> {
                      return std::make_unique<FaultInjectingTransport>(9, dark);
                    });
  dark_shard.add_target(scenario_.network().router(shard_node(0)));
  dark_shard.start();
  auto healthy_shard = make_shard(1, "", 0);
  run_hours(2);

  FleetAggregator fleet;
  fleet.add_shard("dark", dark_shard);
  fleet.add_shard("live", *healthy_shard);
  const FleetStatus status = fleet.status();
  ASSERT_EQ(status.targets.size(), 2u);
  const FleetStatus::TargetRow& row = status.targets[0];
  ASSERT_EQ(row.shard, "dark");
  EXPECT_FALSE(row.target.last_success.has_value());
  EXPECT_EQ(row.target.health, TargetHealth::Unreachable);
  EXPECT_EQ(row.target.staleness, status.now - sim::TimePoint::start());
  ASSERT_EQ(status.shards.size(), 2u);
  EXPECT_EQ(status.shards[0].unreachable, 1u);
  EXPECT_EQ(status.shards[0].cycles_recorded, 0u);

  const SummaryTable table = status.to_table();
  const auto last_success = table.column_index("last_success");
  const auto staleness = table.column_index("staleness");
  ASSERT_TRUE(last_success.has_value() && staleness.has_value());
  EXPECT_EQ(table.rows()[0][*last_success], "never");
  EXPECT_EQ(table.rows()[0][*staleness], row.target.staleness.to_string());
}

TEST_F(FleetFixture, FederatedMetricsSumCountersTagGaugesMergeHistograms) {
  auto shards = make_fleet({}, 0, /*telemetry=*/true);
  run_hours(4);

  FleetAggregator fleet;
  for (std::size_t i = 0; i < kShards; ++i) {
    fleet.add_shard(shard_name(i), *shards[i]);
  }
  const MetricsSnapshot merged = federated_metrics(fleet);

  // Counters with equal (name, labels) collapse to one fleet-wide sum.
  std::uint64_t cycles = 0;
  for (const auto& shard : shards) {
    cycles += shard->telemetry().metrics().counter_total("mantra_cycles_total");
  }
  const MetricsSnapshot::CounterSample* total =
      find_counter(merged, "mantra_cycles_total");
  ASSERT_NE(total, nullptr);
  EXPECT_GT(total->value, 0u);
  EXPECT_EQ(total->value, cycles);

  // Gauges keep per-shard identity behind a shard="..." label; the unlabeled
  // original must not leak through.
  EXPECT_EQ(find_gauge(merged, "mantra_targets"), nullptr);
  for (std::size_t i = 0; i < kShards; ++i) {
    const MetricsSnapshot::GaugeSample* targets =
        find_gauge(merged, "mantra_targets", "shard=\"" + shard_name(i) + "\"");
    ASSERT_NE(targets, nullptr) << shard_name(i);
    EXPECT_EQ(targets->value, 1.0);
  }

  // Histograms whose bounds agree across every shard merge bucket-wise.
  const MetricsSnapshot::HistogramSample* duration =
      find_histogram(merged, "mantra_cycle_duration_seconds");
  ASSERT_NE(duration, nullptr);
  std::vector<std::uint64_t> buckets(duration->buckets.size(), 0);
  std::uint64_t observations = 0;
  for (const auto& shard : shards) {
    const MetricsSnapshot snapshot = shard->telemetry().metrics().snapshot();
    const MetricsSnapshot::HistogramSample* own =
        find_histogram(snapshot, "mantra_cycle_duration_seconds");
    ASSERT_NE(own, nullptr);
    ASSERT_EQ(own->bounds, duration->bounds);
    ASSERT_EQ(own->buckets.size(), buckets.size());
    for (std::size_t j = 0; j < buckets.size(); ++j) {
      buckets[j] += own->buckets[j];
    }
    observations += own->count;
  }
  EXPECT_GT(observations, 0u);
  EXPECT_EQ(duration->count, observations);
  EXPECT_EQ(duration->buckets, buckets);

  // The rendered exposition passes the conformance checker and carries the
  // shard label verbatim.
  const std::string exposition = federated_prometheus_text(fleet);
  EXPECT_TRUE(prometheus_lint(exposition).empty());
  EXPECT_NE(exposition.find("mantra_targets{shard=\"shard-01\"} 1\n"),
            std::string::npos);
}

TEST_F(FleetFixture, FederationIgnoresRegistrationOrder) {
  auto shards = make_fleet({}, 0, /*telemetry=*/true);
  run_hours(4);

  FleetAggregator forward, scrambled;
  for (std::size_t i = 0; i < kShards; ++i) {
    forward.add_shard(shard_name(i), *shards[i]);
  }
  for (const std::size_t i : {std::size_t{3}, std::size_t{1}, std::size_t{0},
                              std::size_t{2}}) {
    scrambled.add_shard(shard_name(i), *shards[i]);
  }
  EXPECT_EQ(federated_prometheus_text(forward),
            federated_prometheus_text(scrambled));
  EXPECT_EQ(federated_events_logfmt(forward),
            federated_events_logfmt(scrambled));
}

TEST_F(FleetFixture, FederatedEventsMergeInTimestampShardOrder) {
  auto shards = make_fleet({}, 0, /*telemetry=*/true);
  run_hours(6);

  FleetAggregator fleet;
  for (std::size_t i = 0; i < kShards; ++i) {
    fleet.add_shard(shard_name(i), *shards[i]);
  }
  const std::string merged = federated_events_logfmt(fleet);
  ASSERT_FALSE(merged.empty());

  std::size_t buffered = 0;
  for (const auto& shard : shards) {
    buffered += shard->telemetry().events().size();
  }

  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t i = 0; i < merged.size(); ++i) {
    if (merged[i] == '\n') {
      lines.push_back(merged.substr(start, i - start));
      start = i + 1;
    }
  }
  EXPECT_EQ(lines.size(), buffered);

  // Every line is `sim_ts=<ms> shard=<name> ...` and the (sim_ts, shard)
  // pairs are nondecreasing — the merge is a total order, not per-shard
  // concatenation.
  std::pair<std::int64_t, std::string> prev{
      std::numeric_limits<std::int64_t>::min(), ""};
  for (const std::string& line : lines) {
    ASSERT_EQ(line.rfind("sim_ts=", 0), 0u) << line;
    const std::size_t ts_end = line.find(' ');
    ASSERT_NE(ts_end, std::string::npos) << line;
    const std::int64_t ts = std::stoll(line.substr(7, ts_end - 7));
    ASSERT_EQ(line.compare(ts_end + 1, 6, "shard="), 0) << line;
    const std::size_t shard_end = line.find(' ', ts_end + 1);
    ASSERT_NE(shard_end, std::string::npos) << line;
    std::pair<std::int64_t, std::string> key{
        ts, line.substr(ts_end + 7, shard_end - ts_end - 7)};
    EXPECT_LE(prev, key) << line;
    prev = std::move(key);
  }
}

}  // namespace
}  // namespace mantra::core
