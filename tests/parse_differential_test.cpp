// Differential fuzz test of the collection text path. `preprocess_into`,
// the four core/parse entry points, `parse_uptime` and the address and
// prefix readers are held to the test oracle (tests/oracle/: the
// implementations the format-directed scanners replaced) on real
// transcripts and on seeded damage to them: identical preprocessed bytes,
// identical rows and identical warnings in the same order.
//
// Corpus: telnet transcripts of all five commands from FIXW and the UCSB
// border of a small FIXW scenario (half the sessions sparse-mode, so the
// MSDP SA cache fills; a Fig 9 route injection in the DVMRP tables), plus
// garbled and truncated FaultInjectingTransport captures. Every transcript
// gets 500 byte-level mutations (flip/insert/erase/truncate/splice, shared
// with the format fuzz test) and 500 grammar edits that plant the
// characters and tokens the parsers branch on.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "core/collect.hpp"
#include "core/parse.hpp"
#include "core/transport.hpp"
#include "fuzz_mutate.hpp"
#include "oracle/parse_oracle.hpp"
#include "router/cli.hpp"
#include "workload/scenario.hpp"

namespace mantra::core {
namespace {

constexpr int kEditsPerTranscript = 500;

struct Transcript {
  std::string label;
  std::string raw;
};

/// One to three edits, each planting a character or token the CLI grammars
/// (or the preprocessor's noise test) branch on, over or before a random
/// byte.
std::string plant_tokens(const std::string& text, std::mt19937& rng) {
  static constexpr std::string_view kTokens[] = {
      " ", "\t", "\r", "\n", ",", ".", "/", ":", "[", "]", "(", ")", ">", "-", "0",
      "9", "d", "h", "  ", "256", "-0", "99999999999999999999", "4294967296",
      "2147483648", "nan", "1e308", "Group: ", "Source: ", "Average: ", "via ",
      "via peer ", "RP ", "local, ", "expires holddown", "uptime ", "Uptime: ",
      "Forwarding: ", "/32, ", "[0/", "*> ", "fixw> ", "Password:",
      "User Access Verification", "Routing Table", "99999999999999d01h"};
  std::string out = text;
  const int edits = 1 + static_cast<int>(rng() % 3);
  for (int e = 0; e < edits; ++e) {
    const std::string_view token = kTokens[rng() % std::size(kTokens)];
    const std::size_t at = rng() % (out.size() + 1);
    if (rng() % 2 == 0 && at < out.size()) {
      out.replace(at, token.size(), token);
    } else {
      out.insert(at, token);
    }
  }
  return out;
}

std::vector<Transcript> build_corpus() {
  workload::ScenarioConfig config;
  config.seed = 7;
  config.domains = 4;
  config.hosts_per_domain = 3;
  config.dvmrp_prefixes_per_domain = 6;
  config.report_loss = 0.02;
  config.generator.session_arrivals_per_hour = 40.0;
  config.generator.bursts_per_day = 0.0;
  config.generator.sparse_probability = 0.5;
  workload::FixwScenario scenario(config);
  scenario.start();
  sim::Engine& engine = scenario.engine();
  scenario.schedule_route_injection(engine.now() + sim::Duration::hours(1), 30,
                                    sim::Duration::hours(6));
  engine.run_until(engine.now() + sim::Duration::hours(2));

  std::vector<Transcript> corpus;
  for (const net::NodeId node : {scenario.fixw_node(), scenario.ucsb_node()}) {
    const router::MulticastRouter& router = *scenario.network().router(node);
    for (const std::string& command : default_command_set()) {
      Transcript t{router.hostname() + " " + command, {}};
      router::cli::telnet_capture_into(router, command, engine.now(), t.raw);
      corpus.push_back(std::move(t));
    }
  }
  const router::MulticastRouter& fixw = *scenario.network().router(scenario.fixw_node());
  for (const unsigned seed : {3u, 17u}) {
    for (const bool garble : {true, false}) {
      FaultProfile profile;
      (garble ? profile.garble_p : profile.truncate_p) = 1.0;
      FaultInjectingTransport transport(seed, profile);
      EXPECT_TRUE(transport.connect(fixw, engine.now()).ok());
      for (const char* command : {"show ip mroute count", "show ip dvmrp route",
                                  "show ip msdp sa-cache", "show ip mbgp"}) {
        const TransportResult result = transport.execute(fixw, command, engine.now());
        EXPECT_EQ(result.status,
                  garble ? TransportStatus::garbled : TransportStatus::truncated);
        corpus.push_back({std::string(garble ? "garbled " : "truncated ") + command +
                              " seed " + std::to_string(seed),
                          result.text});
      }
    }
  }
  return corpus;
}

const std::vector<Transcript>& corpus() {
  static const std::vector<Transcript> built = build_corpus();
  return built;
}

/// Rows compared field by field with doubles compared bit for bit, so a
/// parsed NaN matches itself.
bool same_row(const PairRow& a, const PairRow& b) {
  return a.source == b.source && a.group == b.group && a.packets == b.packets &&
         a.uptime == b.uptime &&
         std::bit_cast<std::uint64_t>(a.current_kbps) ==
             std::bit_cast<std::uint64_t>(b.current_kbps) &&
         std::bit_cast<std::uint64_t>(a.average_kbps) ==
             std::bit_cast<std::uint64_t>(b.average_kbps);
}
template <typename Row>
bool same_row(const Row& a, const Row& b) {
  return a == b;
}

template <typename TableType>
void expect_same_table(const TableType& got, const TableType& want,
                       const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  auto g = got.begin();
  for (auto w = want.begin(); w != want.end(); ++w, ++g) {
    ASSERT_TRUE(same_row(*g, *w)) << context << ": row " << (w - want.begin());
  }
}

struct Parsed {
  PairTable pairs;
  RouteTable routes;
  SaTable sa_cache;
  MbgpTable mbgp;
  std::vector<std::size_t> counts;
  std::vector<std::string> warnings;
};

/// Every parser over the same text, warnings appended to one vector in
/// parser order (as a monitoring cycle does).
template <typename Impl>
void parse_all(std::string_view text, Parsed& out) {
  out.counts.clear();
  out.warnings.clear();
  out.counts.push_back(Impl::mroute_count(text, out.pairs, &out.warnings));
  out.counts.push_back(Impl::dvmrp_route(text, out.routes, &out.warnings));
  out.counts.push_back(Impl::msdp_sa_cache(text, out.sa_cache, &out.warnings));
  out.counts.push_back(Impl::mbgp(text, out.mbgp, &out.warnings));
}

struct Production {
  static constexpr auto mroute_count = &parse_mroute_count;
  static constexpr auto dvmrp_route = &parse_dvmrp_route;
  static constexpr auto msdp_sa_cache = &parse_msdp_sa_cache;
  static constexpr auto mbgp = &parse_mbgp;
};
struct Oracle {
  static constexpr auto mroute_count = &oracle::parse_mroute_count;
  static constexpr auto dvmrp_route = &oracle::parse_dvmrp_route;
  static constexpr auto msdp_sa_cache = &oracle::parse_msdp_sa_cache;
  static constexpr auto mbgp = &oracle::parse_mbgp;
};

/// Production and oracle state, reused across inputs like the hot path
/// reuses its buffers and tables.
struct Differ {
  std::string clean;
  std::string clean_oracle;
  Parsed got;
  Parsed want;
  std::size_t warned_inputs = 0;

  void parse_and_compare(std::string_view text, const std::string& context) {
    parse_all<Production>(text, got);
    parse_all<Oracle>(text, want);
    EXPECT_EQ(got.counts, want.counts) << context;
    EXPECT_EQ(got.warnings, want.warnings) << context;
    expect_same_table(got.pairs, want.pairs, context + " (mroute count)");
    expect_same_table(got.routes, want.routes, context + " (dvmrp route)");
    expect_same_table(got.sa_cache, want.sa_cache, context + " (msdp sa-cache)");
    expect_same_table(got.mbgp, want.mbgp, context + " (mbgp)");
    if (!got.warnings.empty()) ++warned_inputs;
  }

  /// The raw transcript through both preprocessors, then the cleaned text
  /// and (for lines the preprocessor would have fixed) the raw text through
  /// both parser sets.
  void check(const std::string& raw, const std::string& context) {
    preprocess_into(raw, clean);
    oracle::preprocess_into(raw, clean_oracle);
    ASSERT_EQ(clean, clean_oracle) << context << ": preprocess bytes differ";
    parse_and_compare(clean, context + " [clean]");
    parse_and_compare(raw, context + " [raw]");
  }
};

TEST(ParseDifferential, CorpusCoversEveryTableAndFault) {
  Differ differ;
  std::size_t rows[4] = {};
  for (const Transcript& t : corpus()) {
    differ.check(t.raw, t.label);
    for (std::size_t i = 0; i < 4; ++i) rows[i] += differ.got.counts[i];
    if (t.label == "ucsb-gw show ip dvmrp route") {
      // About 20 routes of its own; the 30 injected ones come on top.
      EXPECT_GE(differ.got.counts[1], 30u) << "no route injection in the DVMRP table";
    }
  }
  // The scenario has to exercise every grammar, or the fuzzing below
  // mostly hits headers.
  EXPECT_GT(rows[0], 0u) << "no (S,G) pairs";
  EXPECT_GT(rows[2], 0u) << "empty MSDP SA cache";
  EXPECT_GT(rows[3], 0u) << "no MBGP routes";
  EXPECT_GT(differ.warned_inputs, 0u) << "no fault capture raised a warning";
}

TEST(ParseDifferential, SeededByteMutationsMatchTheOracle) {
  Differ differ;
  std::mt19937 rng(0x70617273u);
  for (const Transcript& t : corpus()) {
    for (int i = 0; i < kEditsPerTranscript; ++i) {
      differ.check(fuzz::mutate(t.raw, rng).first,
                   t.label + " mutation " + std::to_string(i));
      if (::testing::Test::HasFailure()) return;  // one input is enough to debug
    }
  }
}

TEST(ParseDifferential, PlantedGrammarTokensMatchTheOracle) {
  Differ differ;
  std::mt19937 rng(0x746f6b73u);
  for (const Transcript& t : corpus()) {
    for (int i = 0; i < kEditsPerTranscript; ++i) {
      differ.check(plant_tokens(t.raw, rng), t.label + " edit " + std::to_string(i));
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(ParseDifferential, FieldReadersMatchTheOracle) {
  const std::vector<std::string> seeds = {
      "10.1.2.3", "255.255.255.255", "0.0.0.0", "010.001.000.9", "10.3.16.0/24",
      "0.0.0.0/0", "1.2.3.4/32", "1.2.3.4/-0", "1.2.3.4/-1", "1.2.3.4/0032",
      "1.2.3.4/33", "1.2.3.4/", "1.2.3", "1.2.3.4.5", "256.1.1.1", "4294967297.0.0.1",
      "01:23:45", "00:00:09", " 00:00:09 ", "2d03h", "0d00h", "1:2", "-1:-2:-3",
      "2147483647:59:59", "2147483648:00:00", "-2147483648:0:0", "1: 2: 3",
      "99999999999999d01h", "18446744073709551615d00h", "106751991167d07h",
      "106751991167d08h", "0d2562047788015h", "0d2562047788016h", "dh", "5dh"};
  std::mt19937 rng(0x6669656cu);
  const auto check = [](const std::string& text) {
    EXPECT_EQ(net::Ipv4Address::parse(text), oracle::parse_address(text)) << text;
    EXPECT_EQ(net::Prefix::parse(text), oracle::parse_prefix(text)) << text;
    EXPECT_EQ(parse_uptime(text), oracle::parse_uptime(text)) << text;
  };
  for (const std::string& seed : seeds) {
    check(seed);
    for (int i = 0; i < 200; ++i) {
      check(fuzz::mutate(seed, rng).first);
      check(plant_tokens(seed, rng));
    }
  }
}

}  // namespace
}  // namespace mantra::core
