// Status and report goldens. One seeded faulty run of two monitors renders
// every operator-facing status table and report section, and the bytes are
// pinned by files under tests/golden/: the single and the fleet HTML reports
// (at the default caps and at caps small enough to cut the alert history and
// the drill-down list), the explanations, and the text tables printed by
// MonitorStatus, FleetStatus, AlertEngine and Mantra::overview. A refactor
// of how a row, table or section is built shows up here as a byte diff.
//
// The Monitor-health sections are rebuilt from tests/golden/self.mtel with
// monitor_health_from_samples: a live `.mtel` holds wall-clock cycle times,
// so a live health section never renders the same bytes twice.
//
// Regenerate only for an intentional change of the rendered output:
//   MANTRA_UPDATE_GOLDEN=1 ./tests/output_golden_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/fleet.hpp"
#include "core/mantra.hpp"
#include "core/provenance.hpp"
#include "core/report.hpp"
#include "core/teltrace.hpp"
#include "workload/scenario.hpp"

#ifndef MANTRA_GOLDEN_DIR
#error "MANTRA_GOLDEN_DIR must name tests/golden"
#endif

namespace mantra::core {
namespace {

namespace fs = std::filesystem;

fs::path golden(const std::string& name) { return fs::path(MANTRA_GOLDEN_DIR) / name; }

std::string read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Compares rendered bytes with their golden, or refreshes the golden when
/// MANTRA_UPDATE_GOLDEN is set.
void expect_matches_golden(const std::string& bytes, const std::string& name) {
  ASSERT_FALSE(bytes.empty()) << name;
  if (std::getenv("MANTRA_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden(name), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return;
  }
  ASSERT_TRUE(fs::exists(golden(name))) << "missing golden " << name;
  EXPECT_EQ(bytes, read_bytes(golden(name))) << name << " bytes changed";
}

/// Two monitors over one FIXW scenario, run for a sim day with the default
/// alert rules. "east" watches the hub and UCSB, whose commands fail 30 % of
/// the time and whose connects are refused 45 % of the time (dark cycles and
/// failure streaks); "west" watches two border routers, one of them at 25 %
/// command failures. "east" runs with telemetry and an in-memory
/// self-monitor, so its alert drill-downs carry event tails.
class OutputGolden : public ::testing::Test {
 protected:
  OutputGolden() : scenario_(scenario_config()) {
    scenario_.start();
    FaultProfile flaky = FaultProfile::command_failure_rate(0.3);
    flaky.connect_refused_p = 0.45;
    east_ = make_monitor({scenario_.fixw_node(), scenario_.ucsb_node()},
                         scenario_.network().router(scenario_.ucsb_node())->hostname(),
                         flaky, /*observed=*/true);
    const std::vector<net::NodeId>& borders = scenario_.border_nodes();
    west_ = make_monitor({borders.at(1), borders.at(2)},
                         scenario_.network().router(borders.at(2))->hostname(),
                         FaultProfile::command_failure_rate(0.25), /*observed=*/false);
    scenario_.engine().run_until(scenario_.engine().now() + sim::Duration::hours(24));
    fleet_.add_shard("west", *west_);
    fleet_.add_shard("east", *east_);
  }

  static workload::ScenarioConfig scenario_config() {
    workload::ScenarioConfig config;
    config.seed = 57;
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

  std::unique_ptr<Mantra> make_monitor(const std::vector<net::NodeId>& nodes,
                                       const std::string& faulty,
                                       const FaultProfile& faults, bool observed) {
    MantraConfig config;
    config.cycle = sim::Duration::minutes(15);
    config.retry.max_attempts = 2;
    config.alerts.enabled = true;  // default rule set
    config.telemetry.enabled = observed;
    config.self.enabled = observed;
    auto monitor = std::make_unique<Mantra>(
        scenario_.engine(), config,
        [faulty, faults](const std::string& name) -> std::unique_ptr<Transport> {
          FaultProfile profile;
          if (name == faulty) profile = faults;
          return std::make_unique<FaultInjectingTransport>(per_target_seed(0x9017e2, name),
                                                           profile);
        });
    for (const net::NodeId node : nodes) {
      monitor->add_target(scenario_.network().router(node));
    }
    monitor->start();
    return monitor;
  }

  /// Monitor-health input rebuilt from the golden `.mtel`.
  static MonitorHealthData golden_health(const std::string& name) {
    const TelemetryArchiveReader reader(golden("self.mtel").string());
    return monitor_health_from_samples(name, reader.samples());
  }

  /// "east"'s report data, its health section read from the golden `.mtel`.
  [[nodiscard]] ReportData single_data() const {
    ReportData data = report_data_from(*east_);
    data.health = golden_health("monitor");
    return data;
  }

  /// The fleet's report data; "east" carries the golden health section.
  [[nodiscard]] FleetReportData fleet_data() const {
    FleetReportData data = fleet_report_data_from(fleet_);
    for (FleetShardData& shard : data.shards) {
      if (shard.shard == "east") shard.data.health = golden_health("east");
    }
    return data;
  }

  workload::FixwScenario scenario_;
  std::unique_ptr<Mantra> east_;
  std::unique_ptr<Mantra> west_;
  FleetAggregator fleet_;
};

TEST_F(OutputGolden, FixtureFiresAlertsAndExplainsThem) {
  const ReportData data = single_data();
  EXPECT_FALSE(data.alerts.empty());
  EXPECT_FALSE(data.provenance.empty());
  bool tails = false;
  for (const ProvenanceRecord& record : data.provenance) {
    tails = tails || !record.events.empty();
  }
  EXPECT_TRUE(tails);
  const FleetReportData fleet = fleet_data();
  ASSERT_EQ(fleet.shards.size(), 2u);
  EXPECT_FALSE(fleet.shards[1].data.alerts.empty());  // "west"
  EXPECT_FALSE(data.health->samples.empty());
}

TEST_F(OutputGolden, SingleReportMatchesGolden) {
  const ReportData data = single_data();
  expect_matches_golden(render_html_report(data), "report_single.html");
  ReportOptions capped;
  capped.max_alert_rows = 2;
  capped.max_explained = 1;
  expect_matches_golden(render_html_report(data, capped), "report_single_capped.html");
}

TEST_F(OutputGolden, FleetReportMatchesGolden) {
  const FleetReportData data = fleet_data();
  expect_matches_golden(render_fleet_html_report(data), "report_fleet.html");
  FleetReportOptions capped;
  capped.max_alert_rows = 2;
  capped.max_explained = 1;
  capped.top_k = 3;
  expect_matches_golden(render_fleet_html_report(data, capped), "report_fleet_capped.html");
}

TEST(OutputGoldenEmpty, EmptyReportsMatchGolden) {
  expect_matches_golden(render_html_report(ReportData{}), "report_single_empty.html");
  FleetReportData fleet;
  fleet.shards.push_back({"idle", ReportData{}});
  fleet.shards[0].data.targets.push_back({"never-up", {}});
  expect_matches_golden(render_fleet_html_report(fleet), "report_fleet_empty.html");
}

TEST_F(OutputGolden, StatusTablesMatchGolden) {
  const FleetStatus fleet = fleet_.status();
  std::string out;
  const auto section = [&out](const char* title, const SummaryTable& table) {
    out += std::string("== ") + title + " ==\n" + table.render() + "\n";
  };
  section("MonitorStatus::to_table", east_->status().to_table());
  section("Mantra::overview", east_->overview());
  section("AlertEngine::status_table", east_->alerts().status_table());
  section("AlertEngine::history_table", east_->alerts().history_table());
  section("FleetStatus::shard_table", fleet.shard_table());
  section("FleetStatus::to_table", fleet.to_table());
  section("MonitorStatus::to_table (west)", west_->status().to_table());
  section("AlertEngine::history_table (west)", west_->alerts().history_table());
  expect_matches_golden(out, "status_tables.txt");
}

TEST_F(OutputGolden, ExplanationsMatchGolden) {
  const ReportData data = single_data();
  expect_matches_golden(render_explanations(data.provenance, ExplainFilter{}),
                        "explain_single.txt");
  const FleetProvenance merged = fleet_provenance_from(fleet_data());
  expect_matches_golden(render_explanations(merged.records, ExplainFilter{}, &merged.shards),
                        "explain_fleet.txt");
}

}  // namespace
}  // namespace mantra::core
