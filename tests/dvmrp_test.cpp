#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <vector>

#include "dvmrp/dvmrp.hpp"

namespace mantra::dvmrp {
namespace {

const net::Ipv4Address kSelf{10, 0, 0, 1};
const net::Ipv4Address kPeerA{10, 0, 0, 2};
const net::Ipv4Address kPeerB{10, 0, 0, 3};

net::Prefix P(const char* text) { return *net::Prefix::parse(text); }

/// Harness capturing outgoing reports per interface.
class DvmrpTest : public ::testing::Test {
 protected:
  std::unique_ptr<Dvmrp> make(Config config) {
    auto instance = std::make_unique<Dvmrp>(engine_, kSelf, std::move(config));
    instance->set_send_report(
        [this](net::IfIndex ifindex, const RouteReport& report) {
          sent_[ifindex].push_back(report);
        });
    return instance;
  }

  static Config two_interface_config() {
    Config config;
    config.interfaces = {{0, 1}, {1, 1}};
    config.originated = {{P("10.5.0.0/16"), 1}};
    config.timers_enabled = false;
    return config;
  }

  RouteReport report_from(net::Ipv4Address sender,
                          std::vector<ReportedRoute> routes) {
    RouteReport report;
    report.sender = sender;
    report.routes = std::move(routes);
    return report;
  }

  sim::Engine engine_;
  std::map<net::IfIndex, std::vector<RouteReport>> sent_;
};

// --- RouteTable ------------------------------------------------------------

TEST(RouteTable, UpsertTracksChanges) {
  sim::Engine engine;
  RouteTable table;
  Route& r1 = table.upsert(P("10.1.0.0/16"), 3, net::Ipv4Address{10, 0, 0, 9}, 1,
                           false, engine.now());
  EXPECT_EQ(r1.flap_count, 0u);
  // Refresh with identical attributes: no flap.
  Route& r2 = table.upsert(P("10.1.0.0/16"), 3, net::Ipv4Address{10, 0, 0, 9}, 1,
                           false, engine.now());
  EXPECT_EQ(r2.flap_count, 0u);
  // Metric change: flap.
  Route& r3 = table.upsert(P("10.1.0.0/16"), 5, net::Ipv4Address{10, 0, 0, 9}, 1,
                           false, engine.now());
  EXPECT_EQ(r3.flap_count, 1u);
}

TEST(RouteTable, RpfLookupUsesLongestValidMatch) {
  sim::Engine engine;
  RouteTable table;
  table.upsert(P("10.0.0.0/8"), 2, kPeerA, 0, false, engine.now());
  table.upsert(P("10.1.0.0/16"), 3, kPeerB, 1, false, engine.now());
  const Route* route = table.rpf_lookup(net::Ipv4Address(10, 1, 2, 3));
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->upstream, kPeerB);

  // Hold-down routes are not usable for RPF.
  table.find(P("10.1.0.0/16"))->state = RouteState::kHolddown;
  const Route* fallback = table.rpf_lookup(net::Ipv4Address(10, 1, 2, 3));
  ASSERT_NE(fallback, nullptr);
  EXPECT_EQ(fallback->upstream, kPeerA);
}

// rpf_lookup's single descent equals its definition over all_matches: the
// longest covering route in kValid state. Random tables mix hold-down
// routes, re-learned routes and erasures.
TEST(RouteTable, RpfLookupEqualsAllMatchesDefinition) {
  sim::Engine engine;
  std::mt19937 rng(1075);
  const auto random_address = [&rng] {
    return net::Ipv4Address(0x0A000000u | (static_cast<std::uint32_t>(rng()) & 0x000FFFFFu));
  };
  for (int trial = 0; trial < 10; ++trial) {
    RouteTable table;
    net::PrefixTrie<RouteState> mirror;  // same entries, state only
    for (int i = 0; i < 300; ++i) {
      const net::Prefix prefix(random_address(), 8 + static_cast<int>(rng() % 21));
      if (rng() % 5 == 0) {
        ASSERT_EQ(table.erase(prefix), mirror.erase(prefix));
        continue;
      }
      Route& route = table.upsert(prefix, 1 + static_cast<int>(rng() % 31), kPeerA, 0,
                                  false, engine.now());
      if (rng() % 3 == 0) route.state = RouteState::kHolddown;
      mirror.insert(prefix, route.state);
    }
    ASSERT_EQ(table.size(), mirror.size());
    for (int probe = 0; probe < 500; ++probe) {
      const net::Ipv4Address source = random_address();
      const auto matches = mirror.all_matches(source);
      std::optional<net::Prefix> want;
      for (auto it = matches.rbegin(); it != matches.rend(); ++it) {
        if (*it->second == RouteState::kValid) {
          want = it->first;
          break;
        }
      }
      const Route* got = table.rpf_lookup(source);
      ASSERT_EQ(got != nullptr, want.has_value()) << source.to_string();
      if (got != nullptr) {
        EXPECT_EQ(got->prefix, *want);
        EXPECT_EQ(got->state, RouteState::kValid);
      }
    }
  }
}

// --- Dvmrp protocol ---------------------------------------------------------

TEST_F(DvmrpTest, StartInstallsOriginatedRoutes) {
  auto dvmrp = make(two_interface_config());
  dvmrp->start();
  EXPECT_EQ(dvmrp->routes().size(), 1u);
  const Route* route = dvmrp->routes().find(P("10.5.0.0/16"));
  ASSERT_NE(route, nullptr);
  EXPECT_TRUE(route->local);
  EXPECT_EQ(route->metric, 1);
}

TEST_F(DvmrpTest, AdoptsAdvertisedRouteWithMetricIncrement) {
  auto dvmrp = make(two_interface_config());
  dvmrp->start();
  dvmrp->on_report(0, kPeerA, report_from(kPeerA, {{P("10.9.0.0/16"), 4}}));
  const Route* route = dvmrp->routes().find(P("10.9.0.0/16"));
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->metric, 5);  // 4 + interface metric 1
  EXPECT_EQ(route->upstream, kPeerA);
  EXPECT_EQ(route->ifindex, 0u);
}

TEST_F(DvmrpTest, PrefersLowerMetricThenLowerAddress) {
  auto dvmrp = make(two_interface_config());
  dvmrp->start();
  dvmrp->on_report(0, kPeerB, report_from(kPeerB, {{P("10.9.0.0/16"), 6}}));
  dvmrp->on_report(1, kPeerA, report_from(kPeerA, {{P("10.9.0.0/16"), 4}}));
  EXPECT_EQ(dvmrp->routes().find(P("10.9.0.0/16"))->upstream, kPeerA);

  // Equal metric from a lower address: tiebreak switches upstream.
  auto tie = make(two_interface_config());
  tie->start();
  tie->on_report(0, kPeerB, report_from(kPeerB, {{P("10.9.0.0/16"), 4}}));
  tie->on_report(1, kPeerA, report_from(kPeerA, {{P("10.9.0.0/16"), 4}}));
  EXPECT_EQ(tie->routes().find(P("10.9.0.0/16"))->upstream, kPeerA);
}

TEST_F(DvmrpTest, WorseMetricFromCurrentUpstreamIsAccepted) {
  // Distance-vector rule: the current upstream's word is final.
  auto dvmrp = make(two_interface_config());
  dvmrp->start();
  dvmrp->on_report(0, kPeerA, report_from(kPeerA, {{P("10.9.0.0/16"), 4}}));
  dvmrp->on_report(0, kPeerA, report_from(kPeerA, {{P("10.9.0.0/16"), 9}}));
  EXPECT_EQ(dvmrp->routes().find(P("10.9.0.0/16"))->metric, 10);
}

TEST_F(DvmrpTest, WorseMetricFromOtherNeighborIgnored) {
  auto dvmrp = make(two_interface_config());
  dvmrp->start();
  dvmrp->on_report(0, kPeerA, report_from(kPeerA, {{P("10.9.0.0/16"), 4}}));
  dvmrp->on_report(1, kPeerB, report_from(kPeerB, {{P("10.9.0.0/16"), 8}}));
  EXPECT_EQ(dvmrp->routes().find(P("10.9.0.0/16"))->upstream, kPeerA);
  EXPECT_EQ(dvmrp->routes().find(P("10.9.0.0/16"))->metric, 5);
}

TEST_F(DvmrpTest, PoisonReverseMarksDependent) {
  auto dvmrp = make(two_interface_config());
  dvmrp->start();
  // Peer B poisons our local net: it depends on us.
  dvmrp->on_report(1, kPeerB,
                  report_from(kPeerB, {{P("10.5.0.0/16"), 1 + kInfinity}}));
  const Route* route = dvmrp->routes().find(P("10.5.0.0/16"));
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->dependents.count(kPeerB), 1u);
  // A later reachable advert clears the dependency.
  dvmrp->on_report(1, kPeerB, report_from(kPeerB, {{P("10.5.0.0/16"), 3}}));
  EXPECT_EQ(dvmrp->routes().find(P("10.5.0.0/16"))->dependents.count(kPeerB), 0u);
}

TEST_F(DvmrpTest, OutgoingReportsPoisonReverseTowardUpstream) {
  auto dvmrp = make(two_interface_config());
  dvmrp->start();
  dvmrp->on_report(0, kPeerA, report_from(kPeerA, {{P("10.9.0.0/16"), 4}}));
  dvmrp->send_reports_now();

  // On interface 0 (towards the upstream) the route is poisoned.
  ASSERT_EQ(sent_[0].size(), 1u);
  bool poisoned = false;
  for (const ReportedRoute& r : sent_[0][0].routes) {
    if (r.prefix == P("10.9.0.0/16")) poisoned = r.metric >= kInfinity;
  }
  EXPECT_TRUE(poisoned);

  // On interface 1 it is advertised normally.
  ASSERT_EQ(sent_[1].size(), 1u);
  bool normal = false;
  for (const ReportedRoute& r : sent_[1][0].routes) {
    if (r.prefix == P("10.9.0.0/16")) normal = r.metric == 5;
  }
  EXPECT_TRUE(normal);
}

TEST_F(DvmrpTest, UnreachableFromUpstreamEntersHolddown) {
  auto dvmrp = make(two_interface_config());
  dvmrp->start();
  dvmrp->on_report(0, kPeerA, report_from(kPeerA, {{P("10.9.0.0/16"), 4}}));
  dvmrp->on_report(0, kPeerA, report_from(kPeerA, {{P("10.9.0.0/16"), kInfinity - 1}}));
  const Route* route = dvmrp->routes().find(P("10.9.0.0/16"));
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->state, RouteState::kHolddown);
  EXPECT_EQ(dvmrp->routes().valid_count(), 1u);  // only the local route
}

TEST_F(DvmrpTest, HolddownRouteRecoversOnNewAdvert) {
  auto dvmrp = make(two_interface_config());
  dvmrp->start();
  dvmrp->on_report(0, kPeerA, report_from(kPeerA, {{P("10.9.0.0/16"), 4}}));
  dvmrp->on_report(0, kPeerA, report_from(kPeerA, {{P("10.9.0.0/16"), kInfinity}}));
  ASSERT_EQ(dvmrp->routes().find(P("10.9.0.0/16"))->state, RouteState::kHolddown);
  dvmrp->on_report(1, kPeerB, report_from(kPeerB, {{P("10.9.0.0/16"), 2}}));
  const Route* route = dvmrp->routes().find(P("10.9.0.0/16"));
  EXPECT_EQ(route->state, RouteState::kValid);
  EXPECT_EQ(route->upstream, kPeerB);
}

TEST_F(DvmrpTest, ExpiryMovesStaleRoutesToHolddownThenGarbage) {
  Config config = two_interface_config();
  auto dvmrp = make(std::move(config));
  dvmrp->start();
  dvmrp->on_report(0, kPeerA, report_from(kPeerA, {{P("10.9.0.0/16"), 4}}));

  engine_.run_until(sim::TimePoint::start() + dvmrp->config().route_expiry +
                    sim::Duration::seconds(1));
  dvmrp->expire_now();
  EXPECT_EQ(dvmrp->routes().find(P("10.9.0.0/16"))->state, RouteState::kHolddown);

  engine_.run_until(engine_.now() + dvmrp->config().garbage_timeout +
                    sim::Duration::seconds(1));
  dvmrp->expire_now();
  EXPECT_EQ(dvmrp->routes().find(P("10.9.0.0/16")), nullptr);
  // The local route never expires.
  EXPECT_NE(dvmrp->routes().find(P("10.5.0.0/16")), nullptr);
}

TEST_F(DvmrpTest, AggregatesCoveredRoutesInReports) {
  Config config = two_interface_config();
  config.originated.push_back({P("10.6.16.0/24"), 1});
  config.originated.push_back({P("10.6.17.0/24"), 3});
  config.aggregates.push_back(P("10.6.0.0/16"));
  auto dvmrp = make(std::move(config));
  dvmrp->start();
  dvmrp->send_reports_now();

  ASSERT_FALSE(sent_[0].empty());
  bool aggregate_seen = false;
  for (const ReportedRoute& r : sent_[0][0].routes) {
    EXPECT_NE(r.prefix, P("10.6.16.0/24"));  // members are suppressed
    EXPECT_NE(r.prefix, P("10.6.17.0/24"));
    if (r.prefix == P("10.6.0.0/16")) {
      aggregate_seen = true;
      EXPECT_EQ(r.metric, 1);  // min metric of contributors
    }
  }
  EXPECT_TRUE(aggregate_seen);
}

TEST_F(DvmrpTest, InjectRoutesSpikesTableAndFlashes) {
  auto dvmrp = make(two_interface_config());
  dvmrp->start();
  const std::size_t before = dvmrp->routes().size();

  std::vector<ReportedRoute> injected;
  for (int i = 0; i < 100; ++i) {
    injected.push_back({net::Prefix(net::Ipv4Address(172, 16, static_cast<std::uint8_t>(i), 0), 24), 1});
  }
  dvmrp->inject_routes(injected);
  EXPECT_EQ(dvmrp->routes().size(), before + 100);
  // Flash update went out immediately.
  EXPECT_FALSE(sent_[0].empty());

  std::vector<net::Prefix> prefixes;
  for (const ReportedRoute& r : injected) prefixes.push_back(r.prefix);
  dvmrp->withdraw_routes(prefixes);
  EXPECT_EQ(dvmrp->routes().valid_count(), before);
}

TEST_F(DvmrpTest, RouteChangeCounterAdvances) {
  auto dvmrp = make(two_interface_config());
  dvmrp->start();
  const auto before = dvmrp->route_changes();
  dvmrp->on_report(0, kPeerA, report_from(kPeerA, {{P("10.9.0.0/16"), 4}}));
  EXPECT_GT(dvmrp->route_changes(), before);
  // A pure refresh does not count as a change.
  const auto after = dvmrp->route_changes();
  dvmrp->on_report(0, kPeerA, report_from(kPeerA, {{P("10.9.0.0/16"), 4}}));
  EXPECT_EQ(dvmrp->route_changes(), after);
}

TEST_F(DvmrpTest, PeriodicTimersEmitReports) {
  Config config = two_interface_config();
  config.timers_enabled = true;
  auto dvmrp = make(std::move(config));
  dvmrp->start();
  engine_.run_until(sim::TimePoint::start() +
                    dvmrp->config().report_interval * std::int64_t{3} +
                    sim::Duration::seconds(5));
  EXPECT_GE(sent_[0].size(), 3u);
}

TEST_F(DvmrpTest, InvalidMetricsIgnored) {
  auto dvmrp = make(two_interface_config());
  dvmrp->start();
  dvmrp->on_report(0, kPeerA, report_from(kPeerA, {{P("10.9.0.0/16"), 2 * kInfinity},
                                                  {P("10.8.0.0/16"), -1}}));
  EXPECT_EQ(dvmrp->routes().find(P("10.9.0.0/16")), nullptr);
  EXPECT_EQ(dvmrp->routes().find(P("10.8.0.0/16")), nullptr);
}

}  // namespace
}  // namespace mantra::dvmrp
