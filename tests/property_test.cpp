// Property-style parameterized sweeps (TEST_P) over the system's core
// invariants: codec round-trips, protocol convergence under loss, archive
// reconstruction across configurations, engine determinism, delivery
// completeness across planes and group sizes, and parser robustness against
// corrupted captures.
#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <string>

#include "core/archive.hpp"
#include "core/mantra.hpp"
#include "core/parse.hpp"
#include "router/cli.hpp"
#include "core/tables.hpp"
#include "router/network.hpp"
#include "workload/scenario.hpp"

namespace mantra {
namespace {

// ---------------------------------------------------------------------------
// Prefix codec round-trip across every prefix length.
// ---------------------------------------------------------------------------

class PrefixRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(PrefixRoundTrip, ParseRenderIsIdentity) {
  const int length = GetParam();
  std::mt19937 rng(static_cast<unsigned>(length) * 7919u + 3);
  for (int i = 0; i < 50; ++i) {
    const net::Prefix prefix(net::Ipv4Address(static_cast<std::uint32_t>(rng())),
                             length);
    const auto parsed = net::Prefix::parse(prefix.to_string());
    ASSERT_TRUE(parsed.has_value()) << prefix.to_string();
    EXPECT_EQ(*parsed, prefix);
    // Canonical: no host bits below the mask.
    EXPECT_EQ(prefix.address().value() & ~prefix.netmask(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllLengths, PrefixRoundTrip, ::testing::Range(0, 33));

// ---------------------------------------------------------------------------
// Uptime codec round-trip across magnitudes (CLI render -> parser).
// ---------------------------------------------------------------------------

class UptimeRoundTrip : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(UptimeRoundTrip, CliRenderingParsesBack) {
  const sim::Duration d = sim::Duration::seconds(GetParam());
  const std::string text = router::cli::uptime_string(d);
  const auto parsed = core::parse_uptime(text);
  ASSERT_TRUE(parsed.has_value()) << text;
  // "XdYYh" loses sub-hour precision by design; check within an hour.
  EXPECT_LE(std::abs((*parsed - d).total_ms()), 3'600'000) << text;
}

INSTANTIATE_TEST_SUITE_P(Magnitudes, UptimeRoundTrip,
                         ::testing::Values(0, 1, 59, 60, 3599, 3600, 86399, 86400,
                                           90000, 900000, 40000000));

// ---------------------------------------------------------------------------
// DVMRP convergence: after loss stops, all routers agree on reachability.
// ---------------------------------------------------------------------------

struct ConvergenceCase {
  int domains;
  double initial_loss;
};

class DvmrpConvergence : public ::testing::TestWithParam<ConvergenceCase> {};

TEST_P(DvmrpConvergence, AllRoutersAgreeOnceLossStops) {
  const ConvergenceCase param = GetParam();
  workload::ScenarioConfig config;
  config.seed = 31 + param.domains;
  config.domains = param.domains;
  config.hosts_per_domain = 2;
  config.dvmrp_prefixes_per_domain = 8;
  config.report_loss = param.initial_loss;
  config.timer_scale = 1;
  config.full_timers = true;
  config.generator.session_arrivals_per_hour = 0.0;
  config.generator.bursts_per_day = 0.0;
  workload::FixwScenario scenario(config);
  scenario.start();

  // Churn phase under loss.
  scenario.engine().run_until(sim::TimePoint::start() + sim::Duration::minutes(30));

  // Loss stops; within a few report rounds every router must know every
  // originated prefix again (distance-vector convergence).
  for (const net::Node& node : scenario.topology().nodes()) {
    for (const net::Interface& iface : node.interfaces) {
      if (iface.link != net::kInvalidLink) {
        scenario.network().set_link_loss(iface.link, 0.0);
      }
    }
  }
  scenario.engine().run_until(scenario.engine().now() + sim::Duration::minutes(15));

  // Convergence invariant: every stub network is RPF-reachable from every
  // border (either via the exact /24 or a covering aggregate -- even-indexed
  // domains advertise their stubs aggregated).
  for (int d = 0; d < param.domains; ++d) {
    const auto* border = scenario.network().router(scenario.border_nodes()[d]);
    for (int origin = 0; origin < param.domains; ++origin) {
      for (const net::Prefix& stub : scenario.domain_stub_prefixes(origin)) {
        const dvmrp::Route* route =
            border->dvmrp()->routes().rpf_lookup(stub.host(1));
        ASSERT_NE(route, nullptr)
            << "domain " << d << " cannot reach " << stub.to_string();
        EXPECT_EQ(route->state, dvmrp::RouteState::kValid);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    TopologiesAndLoss, DvmrpConvergence,
    ::testing::Values(ConvergenceCase{3, 0.0}, ConvergenceCase{3, 0.4},
                      ConvergenceCase{6, 0.2}, ConvergenceCase{10, 0.3}));

// ---------------------------------------------------------------------------
// Logger reconstruction across configurations: randomised pair churn
// through the `.marc` archive (Mantra's key-frame/delta log) and back.
// ---------------------------------------------------------------------------

struct LoggerCase {
  bool store_deltas;
  int keyframe_every;
};

// Without a printer gtest names a case by its raw bytes, padding included,
// and that padding differs from build to build.
void PrintTo(const LoggerCase& c, std::ostream* os) {
  *os << '{' << (c.store_deltas ? "true" : "false") << ", " << c.keyframe_every << '}';
}

class LoggerReconstruction : public ::testing::TestWithParam<LoggerCase> {};

TEST_P(LoggerReconstruction, StableFieldsExactEverywhere) {
  const LoggerCase param = GetParam();
  core::ArchiveOptions options;
  options.store_deltas = param.store_deltas;
  options.keyframe_interval = param.keyframe_every;
  options.fsync_on_keyframe = false;
  const std::string path = ::testing::TempDir() + "reconstruction_" +
                           (param.store_deltas ? "deltas_" : "full_") +
                           std::to_string(param.keyframe_every) + ".marc";
  auto writer = std::make_unique<core::ArchiveWriter>(path, options);

  std::mt19937 rng(17);
  core::PairTable current;
  std::vector<core::PairTable> truth;
  for (int cycle = 0; cycle < 30; ++cycle) {
    for (int mutation = 0; mutation < 6; ++mutation) {
      core::PairRow row;
      row.source = net::Ipv4Address(0x0A000000u + rng() % 40);
      row.group = net::Ipv4Address(0xE0020000u + rng() % 5);
      if (rng() % 4 == 0) {
        current.erase(row.key());
      } else {
        row.current_kbps = static_cast<double>(rng() % 1000) / 7.0;
        current.upsert(row);
      }
    }
    core::Snapshot snapshot;
    snapshot.router_name = "r";
    snapshot.captured =
        sim::TimePoint::start() + sim::Duration::minutes(15 * cycle);
    snapshot.pairs = current;
    writer->append(snapshot);
    truth.push_back(current);
  }
  writer.reset();  // closes the file

  const core::ArchiveReader reader(path);
  ASSERT_EQ(reader.size(), truth.size());
  for (std::size_t i = 0; i < truth.size(); ++i) {
    const core::Snapshot rebuilt = reader.snapshot(i);
    ASSERT_EQ(rebuilt.pairs.size(), truth[i].size()) << "cycle " << i;
    truth[i].visit([&](const core::PairRow& row) {
      const core::PairRow* got = rebuilt.pairs.find(row.key());
      ASSERT_NE(got, nullptr);
      EXPECT_DOUBLE_EQ(got->current_kbps, row.current_kbps);
    });
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Configs, LoggerReconstruction,
                         ::testing::Values(LoggerCase{true, 96}, LoggerCase{true, 4},
                                           LoggerCase{true, 1},
                                           LoggerCase{false, 96}));

// ---------------------------------------------------------------------------
// Scenario determinism: identical seeds give identical monitored series.
// ---------------------------------------------------------------------------

class ScenarioDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScenarioDeterminism, SameSeedSameSeries) {
  const auto run = [&](std::uint64_t seed) {
    workload::ScenarioConfig config;
    config.seed = seed;
    config.domains = 4;
    config.hosts_per_domain = 6;
    config.dvmrp_prefixes_per_domain = 4;
    config.report_loss = 0.1;
    config.timer_scale = 4;
    config.full_timers = false;
    config.generator.session_arrivals_per_hour = 30.0;
    config.generator.bursts_per_day = 2.0;
    workload::FixwScenario scenario(config);
    core::Mantra mantra(scenario.engine(), core::MantraConfig{});
    mantra.add_target(scenario.network().router(scenario.fixw_node()));
    scenario.start();
    mantra.start();
    scenario.engine().run_until(sim::TimePoint::start() + sim::Duration::hours(12));
    std::vector<std::pair<int, std::size_t>> series;
    for (const core::CycleResult& r : mantra.target_view("fixw").results()) {
      series.emplace_back(r.usage.sessions, r.dvmrp_valid_routes);
    }
    return series;
  };
  const auto a = run(GetParam());
  const auto b = run(GetParam());
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScenarioDeterminism,
                         ::testing::Values(1u, 42u, 1998u));

// ---------------------------------------------------------------------------
// Delivery completeness: a flow reaches every member, on both planes, for
// growing audience sizes.
// ---------------------------------------------------------------------------

struct DeliveryCase {
  router::MfcMode plane;
  int members;
};

void PrintTo(const DeliveryCase& c, std::ostream* os) {
  *os << '{' << (c.plane == router::MfcMode::kDense ? "dense" : "sparse") << ", "
      << c.members << '}';
}

class DeliveryCompleteness : public ::testing::TestWithParam<DeliveryCase> {};

TEST_P(DeliveryCompleteness, EveryMemberReached) {
  const DeliveryCase param = GetParam();
  workload::ScenarioConfig config;
  config.seed = 77;
  config.domains = 5;
  config.hosts_per_domain = 12;
  config.dvmrp_prefixes_per_domain = 2;
  config.report_loss = 0.0;
  config.timer_scale = 1;
  config.full_timers = true;
  config.generator.session_arrivals_per_hour = 0.0;
  config.generator.bursts_per_day = 0.0;
  workload::FixwScenario scenario(config);
  scenario.start();
  scenario.engine().run_until(sim::TimePoint::start() + sim::Duration::minutes(5));

  const net::Ipv4Address group(224, 2, 9, 9);
  scenario.network().set_group_plane(group, param.plane);

  // Spread members across domains round-robin; the first is the sender.
  std::vector<net::NodeId> members;
  for (int i = 0; i < param.members; ++i) {
    const int domain = i % config.domains;
    const std::string name =
        (domain == 0 ? std::string("ucsb-gw") : "bdr" + std::to_string(domain)) +
        "-h" + std::to_string(i / config.domains);
    for (const net::Node& node : scenario.topology().nodes()) {
      if (node.name == name) members.push_back(node.id);
    }
  }
  ASSERT_EQ(members.size(), static_cast<std::size_t>(param.members));
  for (net::NodeId member : members) scenario.network().host_join(member, group);
  scenario.engine().run_until(scenario.engine().now() + sim::Duration::seconds(30));
  scenario.network().flow_start(members[0], group, 128.0, param.plane);
  scenario.engine().run_until(scenario.engine().now() + sim::Duration::minutes(3));

  const router::Flow* flow = scenario.network().flow(
      scenario.network().host_address(members[0]), group);
  ASSERT_NE(flow, nullptr);
  // Every member except the sender itself receives the stream. (The sender
  // is also a member; loopback delivery is host-local and not modelled.)
  for (std::size_t i = 1; i < members.size(); ++i) {
    EXPECT_EQ(flow->reached_hosts.count(members[i]), 1u) << "member " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PlanesAndSizes, DeliveryCompleteness,
    ::testing::Values(DeliveryCase{router::MfcMode::kDense, 3},
                      DeliveryCase{router::MfcMode::kDense, 10},
                      DeliveryCase{router::MfcMode::kDense, 25},
                      DeliveryCase{router::MfcMode::kSparse, 3},
                      DeliveryCase{router::MfcMode::kSparse, 10},
                      DeliveryCase{router::MfcMode::kSparse, 25}));

// ---------------------------------------------------------------------------
// Threshold monotonicity: raising the sender threshold never increases the
// sender/active counts.
// ---------------------------------------------------------------------------

class ThresholdMonotonicity : public ::testing::TestWithParam<double> {};

TEST_P(ThresholdMonotonicity, HigherThresholdFewerSenders) {
  std::mt19937 rng(5);
  core::PairTable pairs;
  for (int i = 0; i < 300; ++i) {
    core::PairRow row;
    row.source = net::Ipv4Address(0x0A000000u + i);
    row.group = net::Ipv4Address(0xE0020000u + i % 40);
    row.current_kbps = static_cast<double>(rng() % 2000) / 13.0;
    pairs.upsert(row);
  }
  const double threshold = GetParam();
  const auto lower = core::derive_participants(pairs, threshold);
  const auto higher = core::derive_participants(pairs, threshold * 2.0);
  int low_senders = 0, high_senders = 0;
  lower.visit([&](const core::ParticipantRow& r) { low_senders += r.sender; });
  higher.visit([&](const core::ParticipantRow& r) { high_senders += r.sender; });
  EXPECT_GE(low_senders, high_senders);

  const auto s_low = core::derive_sessions(pairs, threshold);
  const auto s_high = core::derive_sessions(pairs, threshold * 2.0);
  int a_low = 0, a_high = 0;
  s_low.visit([&](const core::SessionRow& r) { a_low += r.active; });
  s_high.visit([&](const core::SessionRow& r) { a_high += r.active; });
  EXPECT_GE(a_low, a_high);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ThresholdMonotonicity,
                         ::testing::Values(1.0, 2.0, 4.0, 8.0, 16.0, 64.0));

// ---------------------------------------------------------------------------
// Parser robustness: corrupted captures never crash and produce warnings,
// never phantom rows.
// ---------------------------------------------------------------------------

class ParserRobustness : public ::testing::TestWithParam<int> {};

TEST_P(ParserRobustness, CorruptedCapturesDegradeGracefully) {
  const char* clean =
      "Group: 224.2.0.5\n"
      "  Source: 10.1.1.2/32, Forwarding: 1200/12/512/48.25, Other: 1200/0/0\n"
      "    Average: 44.10 kbps, Uptime: 00:15:00\n";
  std::string text = clean;
  switch (GetParam()) {
    case 0: text = text.substr(0, text.size() / 2); break;      // truncated
    case 1: text = "garbage\n" + text + "\x01\x02trailing"; break;
    case 2: text.insert(text.find("Source"), "Source: bogus, Forwarding: x\n  "); break;
    case 3: {  // CRLF + extra blank noise
      std::string crlf;
      for (char c : text) {
        if (c == '\n') crlf += "\r\n\r\n";
        else crlf += c;
      }
      text = crlf;
      break;
    }
    case 4: text = ""; break;
    case 5: text = std::string(10'000, 'A'); break;
    default: break;
  }
  core::PairTable pairs;
  core::parse_mroute_count(text, pairs);
  // Any parsed row must be internally valid.
  pairs.visit([](const core::PairRow& row) {
    EXPECT_TRUE(row.group.is_multicast());
    EXPECT_FALSE(row.source.is_unspecified());
    EXPECT_GE(row.current_kbps, 0.0);
  });
  core::RouteTable routes;
  core::parse_dvmrp_route(text, routes);
  routes.visit([](const core::RouteRow& row) {
    EXPECT_GE(row.metric, 0);
  });
}

INSTANTIATE_TEST_SUITE_P(CorruptionModes, ParserRobustness, ::testing::Range(0, 6));

}  // namespace
}  // namespace mantra
