// Pins the bytes of every simulated router's CLI transcripts across route
// churn. A seeded FIXW scenario runs a Fig 9 route injection and its
// revert, a partial DVMRP migration and a second injection of the same
// prefixes, so the routers' DVMRP tables insert, hold down, erase and
// re-learn routes. At six instants every router's `telnet_capture` of the
// five default commands and of `show ip mroute` must match the length and
// FNV-1a digest recorded below.
//
// A refactor of the route tables or the renderers must leave the constants
// alone. Only a change that means to alter CLI output may regenerate them
// (the failure message prints the current table).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "core/collect.hpp"
#include "router/cli.hpp"
#include "workload/scenario.hpp"

namespace mantra::workload {
namespace {

constexpr std::size_t kCommands = 6;

struct Capture {
  std::size_t bytes = 0;
  std::uint64_t digest = 0;
};

struct PinnedRow {
  int minute;            ///< sim minutes since start
  const char* hostname;  ///< router whose captures the row holds
  std::array<Capture, kCommands> captures;
};

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::vector<std::string> pinned_commands() {
  std::vector<std::string> commands = core::default_command_set();
  commands.emplace_back("show ip mroute");
  return commands;
}

ScenarioConfig pin_config() {
  ScenarioConfig config;
  config.seed = 29;
  config.domains = 5;
  config.hosts_per_domain = 3;
  config.dvmrp_prefixes_per_domain = 12;
  config.report_loss = 0.05;
  config.timer_scale = 4;
  config.generator.session_arrivals_per_hour = 30.0;
  config.generator.bursts_per_day = 0.0;
  config.generator.sparse_probability = 0.5;
  return config;
}

constexpr int kInjected = 150;
// The instants, in sim minutes: warm, injected, held down after the
// revert, erased by garbage collection, re-learned, and after the migrated
// domains' stubs were collected.
constexpr std::array<int, 6> kInstants = {40, 60, 80, 115, 150, 200};

const std::vector<PinnedRow>& pinned() {
  static const std::vector<PinnedRow> rows = {
      {40, "fixw", {{{3102, 0x5f08e5e97a182827ULL}, {3900, 0x3b34c1786146768eULL}, {121, 0x45ff0db33f87cdc8ULL}, {456, 0x63da0583bf42958aULL}, {187, 0xe2999f332dc543e9ULL}, {4711, 0x39a8ca49f170bec4ULL}}}},
      {40, "ucsb-gw", {{{3102, 0xa0c48f877edebcf4ULL}, {3891, 0xdfe0abcc90c6358eULL}, {800, 0x069a7ed80f06ffd1ULL}, {480, 0xa378608e9b46a967ULL}, {596, 0xb20471026c47fe6cULL}, {4495, 0x11e75d59c183e3dbULL}}}},
      {40, "bdr1", {{{2573, 0x51c64032654a1192ULL}, {3882, 0x28ef9d50336f4831ULL}, {839, 0x9ea6a9f3f8c35b97ULL}, {471, 0xf9d774538e9f0281ULL}, {287, 0x37b6b406b91f540aULL}, {3265, 0x23a86d89898b8b9dULL}}}},
      {40, "bdr2", {{{2710, 0x9bab6cfb91e351c3ULL}, {4866, 0x00f3494da4ea9223ULL}, {839, 0xffc74ea5f65d0893ULL}, {471, 0xe40b69a68a3b2d41ULL}, {287, 0x61d052c2fb0e0240ULL}, {3308, 0x3ae37901ac600ddcULL}}}},
      {40, "bdr3", {{{1949, 0xe94ea6567e3942bbULL}, {3882, 0x0c72453c5ee0950fULL}, {839, 0x7babab1935f27cbdULL}, {471, 0xa03190316b04cf11ULL}, {337, 0x49f51042048177c1ULL}, {2474, 0x78b4d04f6cbe4227ULL}}}},
      {40, "bdr4", {{{2596, 0xa29d18b43ab8b6c9ULL}, {4866, 0x34f38d06af3b6799ULL}, {815, 0x5e199d170d8d8233ULL}, {471, 0xdca2bf6513ca0781ULL}, {337, 0x18f4ac0553c097e8ULL}, {3478, 0xbf90afd9d8cb45a1ULL}}}},
      {60, "fixw", {{{2497, 0x7047684ab9c914d6ULL}, {16541, 0x00c4c55a2aa1fa5dULL}, {121, 0x45ff0db33f87cdc8ULL}, {456, 0x63da0583bf42958aULL}, {187, 0xe2999f332dc543e9ULL}, {3335, 0x8c72182695f46f54ULL}}}},
      {60, "ucsb-gw", {{{2625, 0xd2509a6367bdff6bULL}, {16232, 0xabc67fb5ba854849ULL}, {815, 0x7a24c1f5eea0708dULL}, {480, 0xa378608e9b46a967ULL}, {546, 0x1384361f7fab2f38ULL}, {3822, 0x1144f2c53fca412fULL}}}},
      {60, "bdr1", {{{1981, 0xefdbf5f5607642d6ULL}, {16523, 0xf498c0c71cb178acULL}, {842, 0x568d2f669ca612b1ULL}, {471, 0xf9d774538e9f0281ULL}, {387, 0xb14ce41cb43a837cULL}, {2474, 0x6ee8d87ab66fb278ULL}}}},
      {60, "bdr2", {{{2224, 0x9dadfa8bc4fca1a1ULL}, {17507, 0xa43f691c2e4c5107ULL}, {842, 0x61ff5af05bb2ffcbULL}, {471, 0xe40b69a68a3b2d41ULL}, {337, 0x4b28512a29288555ULL}, {2884, 0x60f7389ac81b7cb5ULL}}}},
      {60, "bdr3", {{{1857, 0xff760f12e40e986aULL}, {16523, 0xdb64609a1a46d8e2ULL}, {842, 0x634776bcc90c5e5bULL}, {471, 0xa03190316b04cf11ULL}, {287, 0x2f712a5360c18bedULL}, {2302, 0xb6832cb0e6b4c40dULL}}}},
      {60, "bdr4", {{{2356, 0x141fd9694217617cULL}, {17507, 0x8b4123bf1bf2761dULL}, {806, 0x40c7ddb7688eec2bULL}, {471, 0xdca2bf6513ca0781ULL}, {337, 0x61a0151979601483ULL}, {3271, 0x2e11e5f5a1d3cefdULL}}}},
      {80, "fixw", {{{7477, 0xdd4561bfa02a9762ULL}, {16691, 0x4730429a431e491aULL}, {121, 0x45ff0db33f87cdc8ULL}, {456, 0x63da0583bf42958aULL}, {187, 0xe2999f332dc543e9ULL}, {15400, 0x6331d49a7b097425ULL}}}},
      {80, "ucsb-gw", {{{7740, 0x8b091423072360cdULL}, {16382, 0xedfa0acefaef0f1fULL}, {2173, 0x7ae94747f83ece5bULL}, {480, 0xa378608e9b46a967ULL}, {796, 0x9c55bde6ca4c6533ULL}, {11182, 0xed5f3cb102e5c1f1ULL}}}},
      {80, "bdr1", {{{7199, 0x27b73c2c09182b86ULL}, {16673, 0x394942af1f7a1608ULL}, {2200, 0x3c6e1837d1b34cc9ULL}, {471, 0xf9d774538e9f0281ULL}, {537, 0xe0ca5dc22bd2172dULL}, {10046, 0x9a546d24401303f4ULL}}}},
      {80, "bdr2", {{{7332, 0x8361e80a1c94dd44ULL}, {17657, 0xda5c1250e7fab2e7ULL}, {2224, 0x6603fc11476bbf51ULL}, {471, 0xe40b69a68a3b2d41ULL}, {487, 0x2bf6ccfc2de42143ULL}, {10141, 0x30a5de3b221f9852ULL}}}},
      {80, "bdr3", {{{6946, 0x0921929796358c59ULL}, {16673, 0x59ad893681960882ULL}, {2236, 0x07df4f65307a9c5cULL}, {471, 0xa03190316b04cf11ULL}, {537, 0xd00fb31d55c54065ULL}, {9807, 0x8d2ef5a8dcdcdcb1ULL}}}},
      {80, "bdr4", {{{7203, 0x0e7fac3a0513fbaaULL}, {17657, 0xd5cf7c6e5b09a9cdULL}, {2200, 0x8d742463742d5769ULL}, {471, 0xdca2bf6513ca0781ULL}, {437, 0xb5e25b2be2439077ULL}, {9931, 0xa6fe8e88c62aa4daULL}}}},
      {115, "fixw", {{{11137, 0x8bdaae7c70dc2516ULL}, {3900, 0x1220e70af9d18b6eULL}, {121, 0x45ff0db33f87cdc8ULL}, {456, 0x63da0583bf42958aULL}, {187, 0xe2999f332dc543e9ULL}, {23981, 0xcc4452569890ee5cULL}}}},
      {115, "ucsb-gw", {{{12024, 0x6e3e22dfa5c8bc2bULL}, {3891, 0x05045f48c17da942ULL}, {4110, 0x9d702fe9705e4332ULL}, {480, 0xa378608e9b46a967ULL}, {1196, 0x2a74c9fb98b9e7f8ULL}, {18292, 0xc9c1bbce3e526e1eULL}}}},
      {115, "bdr1", {{{10234, 0x40ba9d2291752134ULL}, {3882, 0x36f52c027c744bf1ULL}, {4257, 0x0dc224d0d0b4ad36ULL}, {471, 0xf9d774538e9f0281ULL}, {687, 0xff44c0fa33bd1231ULL}, {14565, 0x12983368dda174deULL}}}},
      {115, "bdr2", {{{10493, 0x02a6e52f3d2f6ccfULL}, {4866, 0x5f718500f1e76d77ULL}, {4197, 0xd4566e982ad54becULL}, {471, 0xe40b69a68a3b2d41ULL}, {687, 0x2491d89d80a3f658ULL}, {15077, 0xffc359a1e5d975cfULL}}}},
      {115, "bdr3", {{{10112, 0x4b582019f8252cabULL}, {3882, 0x6b5e762e2dadfb3bULL}, {4269, 0xf8188b8984e7df71ULL}, {471, 0xa03190316b04cf11ULL}, {537, 0x14d2832aba6a3c64ULL}, {14129, 0x15dd629bef0b939aULL}}}},
      {115, "bdr4", {{{10614, 0xd9ae37f6efa50745ULL}, {4878, 0x6cca458c09de4379ULL}, {4221, 0xb649ce2cdeb325baULL}, {471, 0xdca2bf6513ca0781ULL}, {687, 0x6de8557af10d5f37ULL}, {15160, 0x4f070dbfacacefbdULL}}}},
      {150, "fixw", {{{9919, 0x318fbff4aea06e8fULL}, {15557, 0x120fb7395a04462fULL}, {121, 0x45ff0db33f87cdc8ULL}, {456, 0x63da0583bf42958aULL}, {187, 0xe2999f332dc543e9ULL}, {19825, 0xa876a82e22514284ULL}}}},
      {150, "ucsb-gw", {{{10683, 0xad9b2d85269be3c1ULL}, {16244, 0xac8dc2182d97d12dULL}, {3289, 0xdc006170bfc266c2ULL}, {480, 0xa378608e9b46a967ULL}, {1196, 0xe48f6be7db89e749ULL}, {16241, 0x236577c3f9b4fc76ULL}}}},
      {150, "bdr1", {{{9759, 0x3c395ace076d4a53ULL}, {16535, 0xbb41c7773ff1dbcaULL}, {3412, 0x9fd8dd09bc6d7da4ULL}, {471, 0xf9d774538e9f0281ULL}, {737, 0x4dad6bb11d22afe5ULL}, {14022, 0x202971add52af3e6ULL}}}},
      {150, "bdr2", {{{9136, 0xcdee964c02a50e0fULL}, {17519, 0x334d31e66a9096afULL}, {3436, 0x136406ad314fa6b2ULL}, {471, 0xe40b69a68a3b2d41ULL}, {537, 0xfc847b93c8f13b25ULL}, {12569, 0xf40dc1e734eebab0ULL}}}},
      {150, "bdr3", {{{8137, 0x5d84ecf3930d56cbULL}, {15563, 0x4b95998b02d2d44bULL}, {3448, 0x43a7f818609a3e3bULL}, {471, 0xa03190316b04cf11ULL}, {437, 0x73ebd24731a44081ULL}, {11039, 0x1003e59384ac8c65ULL}}}},
      {150, "bdr4", {{{9130, 0xa634f7fdf84f4893ULL}, {16559, 0x5d749945b96fafd3ULL}, {3400, 0x020af1b75cd7655aULL}, {471, 0xdca2bf6513ca0781ULL}, {587, 0x27541ac99d1a4827ULL}, {12693, 0x4fcd33a06a88ec2eULL}}}},
      {200, "fixw", {{{9546, 0xaef061c9af6c83cdULL}, {15557, 0x674cd2a302e8920bULL}, {121, 0x45ff0db33f87cdc8ULL}, {456, 0x63da0583bf42958aULL}, {187, 0xe2999f332dc543e9ULL}, {19195, 0xfade8518f4670f96ULL}}}},
      {200, "ucsb-gw", {{{9811, 0x1390dea1748e5c18ULL}, {15261, 0xcf372f403b3d3f02ULL}, {2541, 0x0a450b0f8f05b001ULL}, {480, 0xa378608e9b46a967ULL}, {1096, 0x8fcc16ba9bce4e47ULL}, {14381, 0xa4b302aee67d9e00ULL}}}},
      {200, "bdr1", {{{9249, 0xa5b7f159e4641c20ULL}, {15539, 0x60345d85be8c8045ULL}, {2616, 0x0a2ce05315033363ULL}, {471, 0xf9d774538e9f0281ULL}, {637, 0xb0f7d17166e3b765ULL}, {12645, 0xa80a0ccf66492399ULL}}}},
      {200, "bdr2", {{{9001, 0x89005c2fece6c1beULL}, {16536, 0x58155a6003bf117bULL}, {2568, 0x23d03c762c4a98c3ULL}, {471, 0xe40b69a68a3b2d41ULL}, {587, 0x4ca76c4de73289a1ULL}, {12182, 0xe4602cd99f32042eULL}}}},
      {200, "bdr3", {{{8405, 0x8d1479f339f91eb3ULL}, {15576, 0xb4cf79113f30fcb9ULL}, {2592, 0xfbacbcdd53883715ULL}, {471, 0xa03190316b04cf11ULL}, {737, 0xf50e0d25b3af07b0ULL}, {11454, 0x642a09cd80fb89beULL}}}},
      {200, "bdr4", {{{8994, 0x983c7a907dab0183ULL}, {15576, 0x55fc1aeb83ac7b18ULL}, {2604, 0xd2d1edf2f54d42afULL}, {471, 0xdca2bf6513ca0781ULL}, {537, 0x73ea2347a43faeb2ULL}, {12125, 0xf4f45480e14d0a6fULL}}}},
  };
  return rows;
}

TEST(TranscriptPin, RouterCapturesAcrossRouteChurnAreByteIdentical) {
  FixwScenario scenario(pin_config());
  scenario.start();
  sim::Engine& engine = scenario.engine();
  const sim::TimePoint start = engine.now();
  const auto at = [start](int minute) {
    return start + sim::Duration::minutes(minute);
  };
  scenario.schedule_route_injection(at(45), kInjected, sim::Duration::minutes(30));
  scenario.schedule_dvmrp_migration(at(90), sim::Duration::minutes(40), 0.4);
  scenario.schedule_route_injection(at(140), kInjected, sim::Duration::hours(2));

  const std::vector<std::string> commands = pinned_commands();
  ASSERT_EQ(commands.size(), kCommands);
  const router::MulticastRouter& ucsb = *scenario.network().router(scenario.ucsb_node());

  std::vector<PinnedRow> got;
  std::vector<std::string> hostnames;  // owns the names `got` points at
  hostnames.reserve(kInstants.size() * scenario.network().routers().size());
  std::vector<std::size_t> ucsb_routes;
  std::string raw;
  for (const int minute : kInstants) {
    engine.run_until(at(minute));
    ucsb_routes.push_back(ucsb.dvmrp()->routes().size());
    for (const auto& [node, router] : scenario.network().routers()) {
      hostnames.push_back(router->hostname());
      PinnedRow row{minute, hostnames.back().c_str(), {}};
      for (std::size_t c = 0; c < kCommands; ++c) {
        raw.clear();
        router::cli::telnet_capture_into(*router, commands[c], engine.now(), raw);
        row.captures[c] = {raw.size(), fnv1a(raw)};
      }
      got.push_back(row);
    }
  }

  // The schedule does what the header says: the injected routes appear,
  // are erased after the revert and are learned again, and the migrated
  // stubs go.
  EXPECT_GE(ucsb_routes[1], ucsb_routes[0] + kInjected);
  EXPECT_EQ(ucsb_routes[2], ucsb_routes[1]);  // held down, still listed
  EXPECT_EQ(ucsb_routes[3], ucsb_routes[0]);  // garbage-collected
  EXPECT_EQ(ucsb_routes[4], ucsb_routes[1]);  // re-learned
  EXPECT_LT(ucsb_routes[5], ucsb_routes[4]);  // migrated stubs collected

  std::string table;
  char line[160];
  for (const PinnedRow& row : got) {
    std::snprintf(line, sizeof line, "      {%d, \"%s\", {{", row.minute, row.hostname);
    table += line;
    for (std::size_t c = 0; c < kCommands; ++c) {
      std::snprintf(line, sizeof line, "%s{%zu, 0x%016llxULL}", c == 0 ? "" : ", ",
                    row.captures[c].bytes,
                    static_cast<unsigned long long>(row.captures[c].digest));
      table += line;
    }
    table += "}}},\n";
  }

  const std::vector<PinnedRow>& want = pinned();
  ASSERT_EQ(got.size(), want.size()) << "current table:\n" << table;
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(std::string(got[i].hostname) + " at minute " +
                 std::to_string(got[i].minute));
    EXPECT_EQ(got[i].minute, want[i].minute);
    EXPECT_STREQ(got[i].hostname, want[i].hostname);
    for (std::size_t c = 0; c < kCommands; ++c) {
      EXPECT_EQ(got[i].captures[c].bytes, want[i].captures[c].bytes) << commands[c];
      EXPECT_EQ(got[i].captures[c].digest, want[i].captures[c].digest) << commands[c];
    }
  }
  if (HasFailure()) ADD_FAILURE() << "current table:\n" << table;
}

}  // namespace
}  // namespace mantra::workload
