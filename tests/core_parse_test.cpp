#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "core/collect.hpp"
#include "core/parse.hpp"
#include "router/cli.hpp"
#include "router/network.hpp"

namespace mantra::core {
namespace {

// Test-local convenience over the canonical in-place parse API: bundle the
// table and warnings so assertions read naturally.
template <typename TableType>
struct Parsed {
  TableType table;
  std::vector<std::string> warnings;
};

Parsed<PairTable> parsed_mroute_count(std::string_view text) {
  Parsed<PairTable> out;
  parse_mroute_count(text, out.table, &out.warnings);
  return out;
}
Parsed<RouteTable> parsed_dvmrp_route(std::string_view text) {
  Parsed<RouteTable> out;
  parse_dvmrp_route(text, out.table, &out.warnings);
  return out;
}
Parsed<SaTable> parsed_msdp_sa_cache(std::string_view text) {
  Parsed<SaTable> out;
  parse_msdp_sa_cache(text, out.table, &out.warnings);
  return out;
}
Parsed<MbgpTable> parsed_mbgp(std::string_view text) {
  Parsed<MbgpTable> out;
  parse_mbgp(text, out.table, &out.warnings);
  return out;
}

// --- preprocess --------------------------------------------------------------

TEST(Preprocess, StripsTelnetNoise) {
  const std::string raw =
      "\r\nUser Access Verification\r\n\r\nPassword: \r\n"
      "fixw> terminal length 0\r\n"
      "fixw> show ip mroute\r\n"
      "IP Multicast Routing Table\r\n"
      "data line  \r\n"
      "fixw> ";
  const std::string clean = preprocess(raw);
  EXPECT_EQ(clean, "IP Multicast Routing Table\ndata line\n");
}

TEST(Preprocess, KeepsMbgpStatusLines) {
  EXPECT_EQ(preprocess("*> 10.0.0.0/16 192.168.0.2 100\r\n"),
            "*> 10.0.0.0/16 192.168.0.2 100\n");
}

TEST(Preprocess, CollapsesBlankRuns) {
  EXPECT_EQ(preprocess("a\n\n\n\nb\n"), "a\n\nb\n");
}

TEST(Preprocess, EmptyInput) { EXPECT_EQ(preprocess(""), ""); }

TEST(Preprocess, CrlfOnlyLinesCollapseToNothing) {
  EXPECT_EQ(preprocess("\r\n\r\n\r\n"), "");
  // CRLF-only runs between data lines collapse to one blank line.
  EXPECT_EQ(preprocess("a\r\n\r\n\r\n\r\nb\r\n"), "a\n\nb\n");
}

TEST(Preprocess, TruncatedFinalLineWithoutNewline) {
  EXPECT_EQ(preprocess("complete line\npartial li"), "complete line\npartial li\n");
  EXPECT_EQ(preprocess("only partial"), "only partial\n");
}

TEST(Preprocess, PromptLookalikeDataLinesAreKept) {
  // '>' embedded mid-token is data, not a prompt.
  EXPECT_EQ(preprocess("a>b rest of line\n"), "a>b rest of line\n");
  // A token with non-hostname characters before '>' is data.
  EXPECT_EQ(preprocess("(*,G)> entry\n"), "(*,G)> entry\n");
  // A real prompt-echo line is still stripped.
  EXPECT_EQ(preprocess("fixw> show ip mbgp\n*> 10.0.0.0/16 x\n"),
            "*> 10.0.0.0/16 x\n");
}

TEST(Preprocess, WhitespaceOnlyInput) {
  EXPECT_EQ(preprocess("   \t \n \r\n"), "");
}

// --- parse_uptime --------------------------------------------------------------

TEST(ParseUptime, Forms) {
  EXPECT_EQ(parse_uptime("01:02:05"), sim::Duration::seconds(3725));
  EXPECT_EQ(parse_uptime("2d03h"), sim::Duration::days(2) + sim::Duration::hours(3));
  EXPECT_EQ(parse_uptime(" 00:00:09 "), sim::Duration::seconds(9));
  EXPECT_FALSE(parse_uptime("bogus").has_value());
  EXPECT_FALSE(parse_uptime("1:2").has_value());
  // Day or hour counts whose milliseconds overflow int64_t are rejected.
  EXPECT_FALSE(parse_uptime("99999999999999d01h").has_value());
  EXPECT_FALSE(parse_uptime("18446744073709551615d00h").has_value());
  EXPECT_FALSE(parse_uptime("0d2562047788016h").has_value());
  EXPECT_FALSE(parse_uptime("106751991167d08h").has_value());
  EXPECT_EQ(parse_uptime("106751991167d07h"),
            sim::Duration::days(106751991167) + sim::Duration::hours(7));
}

// --- parsers on hand-written text ------------------------------------------------

TEST(ParseMrouteCount, ExtractsPairs) {
  const char* text =
      "IP Multicast Statistics\n"
      "2 routes using 656 bytes of memory\n"
      "Counts: Pkt Count/Pkts per second/Avg Pkt Size/Kilobits per second\n"
      "\n"
      "Group: 224.2.0.5\n"
      "  Source: 10.1.1.2/32, Forwarding: 1200/12/512/48.25, Other: 1200/0/0\n"
      "    Average: 44.10 kbps, Uptime: 00:15:00\n"
      "  Source: 10.2.1.9/32, Forwarding: 30/0/512/1.20, Other: 30/0/0\n"
      "    Average: 1.10 kbps, Uptime: 01:00:30\n";
  const auto outcome = parsed_mroute_count(text);
  EXPECT_TRUE(outcome.warnings.empty());
  ASSERT_EQ(outcome.table.size(), 2u);
  const PairRow* row = outcome.table.find({*net::Ipv4Address::parse("10.1.1.2"),
                                           *net::Ipv4Address::parse("224.2.0.5")});
  ASSERT_NE(row, nullptr);
  EXPECT_DOUBLE_EQ(row->current_kbps, 48.25);
  EXPECT_DOUBLE_EQ(row->average_kbps, 44.10);
  EXPECT_EQ(row->packets, 1200u);
  EXPECT_EQ(row->uptime, sim::Duration::minutes(15));
}

TEST(ParseMrouteCount, WarnsOnGarbageDataLines) {
  const auto outcome = parsed_mroute_count("Group: not-an-address\n");
  EXPECT_EQ(outcome.table.size(), 0u);
  EXPECT_EQ(outcome.warnings.size(), 1u);
}

TEST(ParseMrouteCount, SourceBeforeGroupIsWarned) {
  const auto outcome = parsed_mroute_count(
      "  Source: 10.1.1.2/32, Forwarding: 1/0/512/0.5, Other: 1/0/0\n");
  EXPECT_EQ(outcome.table.size(), 0u);
  EXPECT_FALSE(outcome.warnings.empty());
}

TEST(ParseDvmrpRoute, ExtractsRoutes) {
  const char* text =
      "DVMRP Routing Table - 2 entries\n"
      "10.3.16.0/24 [0/3] uptime 01:23:45, expires 00:02:15\n"
      "    via 192.168.3.2, tunnel0\n"
      "10.4.0.0/16 [0/32] uptime 2d03h, expires holddown\n"
      "    via 192.168.4.2, tunnel1\n";
  const auto outcome = parsed_dvmrp_route(text);
  EXPECT_TRUE(outcome.warnings.empty());
  ASSERT_EQ(outcome.table.size(), 2u);
  const RouteRow* row = outcome.table.find(*net::Prefix::parse("10.3.16.0/24"));
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->metric, 3);
  EXPECT_EQ(row->next_hop, *net::Ipv4Address::parse("192.168.3.2"));
  EXPECT_EQ(row->interface, "tunnel0");
  EXPECT_FALSE(row->holddown);
  EXPECT_EQ(row->uptime, sim::Duration::hours(1) + sim::Duration::minutes(23) +
                             sim::Duration::seconds(45));
  EXPECT_TRUE(outcome.table.find(*net::Prefix::parse("10.4.0.0/16"))->holddown);
}

TEST(ParseMsdpSaCache, ExtractsEntries) {
  const char* text =
      "MSDP Source-Active Cache - 2 entries\n"
      "(10.2.1.7, 224.2.3.4), RP 192.168.1.2, via peer 192.168.2.2, 00:05:00\n"
      "(10.1.1.9, 224.4.1.2), RP 10.1.1.1, local, 00:07:21\n";
  const auto outcome = parsed_msdp_sa_cache(text);
  EXPECT_TRUE(outcome.warnings.empty());
  ASSERT_EQ(outcome.table.size(), 2u);
  const SaRow* remote = outcome.table.find({*net::Ipv4Address::parse("10.2.1.7"),
                                            *net::Ipv4Address::parse("224.2.3.4")});
  ASSERT_NE(remote, nullptr);
  EXPECT_EQ(remote->origin_rp, *net::Ipv4Address::parse("192.168.1.2"));
  EXPECT_EQ(remote->via_peer, *net::Ipv4Address::parse("192.168.2.2"));
  EXPECT_EQ(remote->age, sim::Duration::minutes(5));
  const SaRow* local = outcome.table.find({*net::Ipv4Address::parse("10.1.1.9"),
                                           *net::Ipv4Address::parse("224.4.1.2")});
  ASSERT_NE(local, nullptr);
  EXPECT_TRUE(local->via_peer.is_unspecified());
}

TEST(ParseMbgp, ExtractsBestPaths) {
  const char* text =
      "MBGP table version is 1, local router ID is 192.168.0.1\n"
      "Status codes: * valid, > best\n"
      "   Network            Next Hop            Path\n"
      "*> 10.3.0.0/16        192.168.3.2         103\n"
      "*> 10.4.0.0/16        192.168.0.1         3000 104\n";
  const auto outcome = parsed_mbgp(text);
  EXPECT_TRUE(outcome.warnings.empty());
  ASSERT_EQ(outcome.table.size(), 2u);
  const MbgpRow* row = outcome.table.find(*net::Prefix::parse("10.4.0.0/16"));
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->as_path, "3000 104");
}

// --- Row order ---------------------------------------------------------------------

/// `show ip mroute count` body for sources x groups, either group-major (IOS
/// order: one "Group:" header, then its sources) or in (S,G) key order.
std::string mroute_count_text(int sources, int groups, bool group_major) {
  std::string out = "IP Multicast Statistics\n";
  const auto row = [&](int s, int g, bool header) {
    const std::string group = "224.2." + std::to_string(g) + ".1";
    if (header) out += "Group: " + group + "\n";
    const std::string n = std::to_string(s * 100 + g);
    out += "  Source: 10.0." + std::to_string(s) + ".9/32, Forwarding: " + n +
           "/1/512/" + n + ".50, Other: " + n + "/0/0\n    Average: " + n +
           ".25 kbps, Uptime: 00:0" + std::to_string(g % 10) + ":00\n";
  };
  if (group_major) {
    for (int g = 0; g < groups; ++g) {
      for (int s = sources - 1; s >= 0; --s) row(s, g, s == sources - 1);
    }
  } else {
    for (int s = 0; s < sources; ++s) {
      for (int g = 0; g < groups; ++g) row(s, g, true);
    }
  }
  return out;
}

TEST(ParseOrder, GroupMajorMrouteCountEqualsKeyOrdered) {
  const auto group_major = parsed_mroute_count(mroute_count_text(7, 5, true));
  const auto key_ordered = parsed_mroute_count(mroute_count_text(7, 5, false));
  EXPECT_TRUE(group_major.warnings.empty());
  EXPECT_TRUE(key_ordered.warnings.empty());
  ASSERT_EQ(key_ordered.table.size(), 35u);
  EXPECT_TRUE(group_major.table == key_ordered.table);
  const PairRow* row = group_major.table.find(
      {net::Ipv4Address(10, 0, 3, 9), net::Ipv4Address(224, 2, 4, 1)});
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->packets, 304u);
  EXPECT_EQ(row->uptime, sim::Duration::minutes(4));
}

TEST(ParseOrder, ShuffledDvmrpCaptureEqualsKeyOrdered) {
  std::vector<std::string> blocks;
  for (int i = 0; i < 60; ++i) {
    blocks.push_back("10." + std::to_string(i / 7) + "." + std::to_string(i * 3 % 256) +
                     ".0/24 [0/" + std::to_string(i % 30 + 1) + "] uptime 01:0" +
                     std::to_string(i % 10) + ":00, expires " +
                     (i % 11 == 0 ? "holddown" : "00:02:10") + "\n    via 192.168." +
                     std::to_string(i % 5) + ".2, tunnel" + std::to_string(i % 5) + "\n");
  }
  const auto join = [](const std::vector<std::string>& parts) {
    std::string text = "DVMRP Routing Table - 60 entries\n";
    for (const std::string& part : parts) text += part;
    return text;
  };
  const auto key_ordered = parsed_dvmrp_route(join(blocks));
  std::vector<std::string> shuffled = blocks;
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937(20));
  ASSERT_NE(shuffled, blocks);
  const auto reordered = parsed_dvmrp_route(join(shuffled));
  EXPECT_TRUE(key_ordered.warnings.empty());
  EXPECT_TRUE(reordered.warnings.empty());
  ASSERT_EQ(key_ordered.table.size(), 60u);
  EXPECT_TRUE(reordered.table == key_ordered.table);
}

TEST(ParseOrder, RepeatedKeyKeepsTheLastRow) {
  // What Table::upsert did row by row: a later row for the same key wins,
  // wherever the rows sit.
  const auto outcome = parsed_dvmrp_route(
      "10.2.0.0/16 [0/5] uptime 00:01:00, expires 00:02:00\n    via 192.168.1.2, tunnel1\n"
      "10.1.0.0/16 [0/3] uptime 00:01:00, expires 00:02:00\n    via 192.168.1.2, tunnel1\n"
      "10.2.0.0/16 [0/7] uptime 00:09:00, expires holddown\n    via 192.168.9.2, tunnel9\n");
  ASSERT_EQ(outcome.table.size(), 2u);
  const RouteRow* row = outcome.table.find(*net::Prefix::parse("10.2.0.0/16"));
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->metric, 7);
  EXPECT_EQ(row->interface, "tunnel9");
  EXPECT_TRUE(row->holddown);
  EXPECT_EQ(outcome.table.begin()->prefix, *net::Prefix::parse("10.1.0.0/16"));
}

// --- Round trip: router CLI -> collector -> parser ------------------------------

class RoundTrip : public ::testing::Test {
 protected:
  RoundTrip() : rng_(5), network_(engine_, topo_, rng_, router::NetworkConfig{}) {
    r1_ = topo_.add_router("r1");
    r2_ = topo_.add_router("r2");
    topo_.connect(r1_, r2_, *net::Prefix::parse("192.168.0.0/30"));
    const auto lan = topo_.create_lan(*net::Prefix::parse("10.1.1.0/24"));
    topo_.attach_to_lan(r1_, lan);
    host_ = topo_.add_host("h1");
    topo_.attach_to_lan(host_, lan);

    router::RouterConfig config;
    config.dvmrp_enabled = true;
    config.dvmrp.timers_enabled = false;
    config.pim_enabled = true;
    config.pim.timers_enabled = false;
    config.pim.rp_map = {{net::kMulticastRange, net::Ipv4Address(10, 1, 1, 1)}};
    config.igmp.timers_enabled = false;
    network_.add_router(r1_, config);
    network_.add_router(r2_, config);
    network_.start();
    network_.router(r1_)->dvmrp()->send_reports_now();
    network_.router(r2_)->dvmrp()->send_reports_now();
    engine_.run_until(engine_.now() + sim::Duration::seconds(2));
  }

  sim::Engine engine_;
  sim::Rng rng_;
  net::Topology topo_;
  router::Network network_;
  net::NodeId r1_, r2_, host_;
};

TEST_F(RoundTrip, DvmrpTableSurvivesScrapeAndParse) {
  const CaptureReport report = Collector().capture(*network_.router(r1_), engine_.now());
  ASSERT_TRUE(report.all_ok());
  const RawCapture* capture = report.find("show ip dvmrp route");
  ASSERT_NE(capture, nullptr);
  const std::string dvmrp_text = capture->clean_text;
  const auto outcome = parsed_dvmrp_route(dvmrp_text);
  EXPECT_TRUE(outcome.warnings.empty());
  // Parsed route count matches the router's actual table.
  EXPECT_EQ(outcome.table.size(),
            network_.router(r1_)->dvmrp()->routes().size());
}

TEST_F(RoundTrip, MrouteCountSurvivesScrapeAndParse) {
  // Put a flow through r1 so there is something to scrape.
  network_.host_join(host_, net::Ipv4Address(224, 2, 0, 5));
  network_.flow_start(host_, net::Ipv4Address(224, 2, 0, 5), 100.0,
                      router::MfcMode::kDense);
  engine_.run_until(engine_.now() + sim::Duration::minutes(10));

  const CaptureReport report = Collector().capture(*network_.router(r1_), engine_.now());
  ASSERT_TRUE(report.all_ok());
  const RawCapture* capture = report.find("show ip mroute count");
  ASSERT_NE(capture, nullptr);
  const std::string text = capture->clean_text;
  const auto outcome = parsed_mroute_count(text);
  EXPECT_TRUE(outcome.warnings.empty());
  ASSERT_EQ(outcome.table.size(), 1u);
  const PairRow row = outcome.table.rows()[0];
  EXPECT_DOUBLE_EQ(row.current_kbps, 100.0);
  EXPECT_GT(row.packets, 0u);
  EXPECT_GT(row.uptime.total_seconds(), 500.0);
}

TEST_F(RoundTrip, GarbledTranscriptNeverParsesCleanly) {
  // Regression: unrecognized non-header lines used to be dropped silently,
  // so a transcript with interleaved garbage (two sessions on one tty)
  // could parse with parse_warnings == 0 and nobody would know the table
  // was suspect. Garble every command and check the parsers complain.
  FaultProfile profile;
  profile.garble_p = 1.0;
  FaultInjectingTransport transport(11, profile);
  ASSERT_TRUE(transport.connect(*network_.router(r1_), engine_.now()).ok());

  const TransportResult dvmrp =
      transport.execute(*network_.router(r1_), "show ip dvmrp route", engine_.now());
  ASSERT_EQ(dvmrp.status, TransportStatus::garbled);
  EXPECT_FALSE(parsed_dvmrp_route(preprocess(dvmrp.text)).warnings.empty());

  // Clean reference: the same dump un-garbled still parses warning-free.
  const std::string clean = router::cli::telnet_capture(
      *network_.router(r1_), "show ip dvmrp route", engine_.now());
  EXPECT_TRUE(parsed_dvmrp_route(preprocess(clean)).warnings.empty());

  network_.host_join(host_, net::Ipv4Address(224, 2, 0, 5));
  network_.flow_start(host_, net::Ipv4Address(224, 2, 0, 5), 100.0,
                      router::MfcMode::kDense);
  engine_.run_until(engine_.now() + sim::Duration::minutes(10));
  const TransportResult mroute = transport.execute(
      *network_.router(r1_), "show ip mroute count", engine_.now());
  ASSERT_EQ(mroute.status, TransportStatus::garbled);
  EXPECT_FALSE(parsed_mroute_count(preprocess(mroute.text)).warnings.empty());
  const std::string clean_mroute = router::cli::telnet_capture(
      *network_.router(r1_), "show ip mroute count", engine_.now());
  EXPECT_TRUE(parsed_mroute_count(preprocess(clean_mroute)).warnings.empty());
}

TEST_F(RoundTrip, CaptureRecordsRawAndCleanText) {
  const CaptureReport report = Collector().capture(*network_.router(r1_), engine_.now());
  ASSERT_EQ(report.captures.size(), default_command_set().size());
  EXPECT_TRUE(report.connected);
  EXPECT_TRUE(report.all_ok());
  EXPECT_EQ(report.failure_count(), 0u);
  for (const RawCapture& capture : report.captures) {
    EXPECT_EQ(capture.router_name, "r1");
    EXPECT_EQ(capture.status, CaptureStatus::ok);
    EXPECT_EQ(capture.attempts, 1u);
    EXPECT_NE(capture.raw_text.find("Password:"), std::string::npos);
    EXPECT_EQ(capture.clean_text.find("Password:"), std::string::npos);
  }
}

}  // namespace
}  // namespace mantra::core
