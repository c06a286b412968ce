// Pins what the monitoring cycle records, per target and per cycle, on a
// seeded faulty run. Seven FIXW-scenario targets (FIXW, ucsb-gw and five
// borders) are polled over FaultInjectingTransport at a 30 % command
// failure rate for 30 cycles, with `.marc` archives on a key-frame interval
// of 4, so most records are deltas against the previous cycle's tables.
// ucsb-gw takes a Fig 9 route injection and its revert while FIXW, the
// only router that learns the injected routes at once, is dark (every
// connect refused) for four cycles in a row: ucsb-gw's DVMRP table grows
// past every other recorded target's, and after the revert it shrinks
// below them again.
//
// The run is made twice, on the sequential path and on three workers (fewer
// workers than targets, so several targets run on each worker in turn).
// After every cycle, each target's results and route history (each
// result's time and route statistics) must match the FNV-1a digests
// recorded below; at the end so must each `.marc` file's length and digest.
//
// A change to how the cycle stores or reuses its per-target and per-worker
// state must leave the constants alone. Only a change that means to alter
// what the monitor records may regenerate them (the failure message prints
// the current table).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/mantra.hpp"
#include "core/transport.hpp"
#include "workload/scenario.hpp"

namespace mantra::core {
namespace {

constexpr int kCycles = 30;
constexpr int kTargets = 7;
constexpr int kInjected = 200;
constexpr const char* kDarkTarget = "fixw";
constexpr int kDarkFrom = 5;  ///< first dark cycle, 1-based
constexpr int kDarkTo = 8;    ///< last dark cycle

/// FNV-1a, fed field by field.
struct Fnv {
  std::uint64_t hash = 0xcbf29ce484222325ULL;

  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash ^= p[i];
      hash *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t value) { bytes(&value, sizeof value); }
  void f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }
};

struct TargetPin {
  std::uint64_t results;
  std::uint64_t history;
};

struct FilePin {
  const char* name;
  std::size_t bytes;
  std::uint64_t digest;
};

std::uint64_t digest_of(const std::vector<CycleResult>& results) {
  Fnv f;
  for (const CycleResult& r : results) {
    f.u64(static_cast<std::uint64_t>(r.t.total_ms()));
    f.u64(r.cycle_seq);
    const UsageStats& u = r.usage;
    f.u64(static_cast<std::uint64_t>(u.sessions));
    f.u64(static_cast<std::uint64_t>(u.participants));
    f.u64(static_cast<std::uint64_t>(u.active_sessions));
    f.u64(static_cast<std::uint64_t>(u.senders));
    f.u64(static_cast<std::uint64_t>(u.single_member_sessions));
    f.f64(u.avg_density);
    f.f64(u.bandwidth_kbps);
    f.f64(u.unicast_equivalent_kbps);
    f.f64(u.saved_multiple);
    f.f64(u.pct_sessions_active);
    f.f64(u.pct_participants_senders);
    f.u64(r.dvmrp_routes);
    f.u64(r.dvmrp_valid_routes);
    f.u64(r.route_changes);
    f.u64(r.sa_entries);
    f.u64(r.mbgp_routes);
    f.u64(r.parse_warnings);
    f.u64(r.route_spike ? 1 : 0);
    f.f64(r.route_spike_score);
    f.f64(r.density_single_fraction);
    f.f64(r.density_at_most_two_fraction);
    f.f64(r.density_top_share_80);
    f.u64(r.stale ? 1 : 0);
    f.u64(r.stale_tables);
    f.u64(r.collection_failures);
    f.u64(r.consecutive_failures);
    f.u64(r.capture_attempts);
    f.u64(static_cast<std::uint64_t>(r.collection_latency.total_ms()));
  }
  return f.hash;
}

/// The route history: derive_cycle's route statistics of every recorded
/// cycle, as its result stores them.
std::uint64_t route_history_digest(const std::vector<CycleResult>& results) {
  Fnv f;
  for (const CycleResult& r : results) {
    f.u64(static_cast<std::uint64_t>(r.t.total_ms()));
    f.u64(r.dvmrp_routes);
    f.u64(r.dvmrp_valid_routes);
    f.u64(r.route_changes);
  }
  return f.hash;
}

workload::ScenarioConfig pin_scenario() {
  workload::ScenarioConfig config;
  config.seed = 23;
  config.domains = kTargets - 1;
  config.hosts_per_domain = 2;
  config.dvmrp_prefixes_per_domain = 10;
  config.report_loss = 0.03;
  config.timer_scale = 40;
  config.generator.session_arrivals_per_hour = 20.0;
  config.generator.bursts_per_day = 0.0;
  config.generator.sparse_probability = 0.5;
  return config;
}

/// Per cycle, per target in name order.
const std::vector<TargetPin>& pinned_targets() {
  static const std::vector<TargetPin> pins = {
      {0x2d3655dca0b9c705ULL, 0x55dde17f5d530933ULL},  // cycle 1, bdr1
      {0x61cab0d846652d72ULL, 0x039b16d10db11513ULL},  // cycle 1, bdr2
      {0x096f733bb016b3f8ULL, 0x039b16d10db11513ULL},  // cycle 1, bdr3
      {0xcba9e5d561751471ULL, 0x039b16d10db11513ULL},  // cycle 1, bdr4
      {0x4b651be36681a434ULL, 0x039b16d10db11513ULL},  // cycle 1, bdr5
      {0xb308adc230fcfc3dULL, 0xeea2d88d713983f3ULL},  // cycle 1, fixw
      {0x6c29de3cf268dedfULL, 0x039b16d10db11513ULL},  // cycle 1, ucsb-gw
      {0xaa27622c6c93c3c2ULL, 0x572328c6c41b17f2ULL},  // cycle 2, bdr1
      {0xc3483dc2ea17a427ULL, 0x91ada4d1e44af22bULL},  // cycle 2, bdr2
      {0xf20708fb6aeea733ULL, 0xc9d385e5a4b248a5ULL},  // cycle 2, bdr3
      {0x605a44ce33c25fe4ULL, 0x91ada4d1e44af22bULL},  // cycle 2, bdr4
      {0x5edbe878d263ebe6ULL, 0xc9d385e5a4b248a5ULL},  // cycle 2, bdr5
      {0xb8fab7d6cf25bccbULL, 0x28afb3a80b91bd86ULL},  // cycle 2, fixw
      {0xf662938a1dbe2f73ULL, 0xc9d385e5a4b248a5ULL},  // cycle 2, ucsb-gw
      {0xa104c2d77aa730f1ULL, 0xb0eec7a0e2113ecdULL},  // cycle 3, bdr1
      {0xa4deeac46e6c9a3cULL, 0x73dae3571050ebd0ULL},  // cycle 3, bdr2
      {0xcc7a2f7a1dfea111ULL, 0x5b6db7f7ca880e0aULL},  // cycle 3, bdr3
      {0xd8ea3b5f3d6d6be2ULL, 0x73dae3571050ebd0ULL},  // cycle 3, bdr4
      {0x290184f48e543857ULL, 0x5b6db7f7ca880e0aULL},  // cycle 3, bdr5
      {0xc1ae4f2300e110eeULL, 0x1b090a51fd8f48a1ULL},  // cycle 3, fixw
      {0x7cb124d07bbbf152ULL, 0x5b6db7f7ca880e0aULL},  // cycle 3, ucsb-gw
      {0x2933625cf3100e06ULL, 0x1265afdae87c189bULL},  // cycle 4, bdr1
      {0xeb166a4c2490e697ULL, 0x552ef8e9c1275a4aULL},  // cycle 4, bdr2
      {0x099577ce2f67c869ULL, 0x4d4accea44e68274ULL},  // cycle 4, bdr3
      {0x83e8ec601b77798fULL, 0x552ef8e9c1275a4aULL},  // cycle 4, bdr4
      {0xe18fa1dbbd8b50c3ULL, 0x4d4accea44e68274ULL},  // cycle 4, bdr5
      {0x269f867c64579ff6ULL, 0xc1814afbb7f8b94fULL},  // cycle 4, fixw
      {0x5bed06404a137a03ULL, 0x4d4accea44e68274ULL},  // cycle 4, ucsb-gw
      {0x3211c63d7da908b5ULL, 0x77b6659e8420f540ULL},  // cycle 5, bdr1
      {0xa6eb3970c91e72c8ULL, 0xab6c66e59f90cfa1ULL},  // cycle 5, bdr2
      {0x310d0095813338cdULL, 0xa25e644494c48d3fULL},  // cycle 5, bdr3
      {0xbc48d2edd6ce3274ULL, 0xab6c66e59f90cfa1ULL},  // cycle 5, bdr4
      {0x5919169dc0ea02e6ULL, 0xa25e644494c48d3fULL},  // cycle 5, bdr5
      {0x269f867c64579ff6ULL, 0xc1814afbb7f8b94fULL},  // cycle 5, fixw
      {0x9c3b1c092465c989ULL, 0xa25e644494c48d3fULL},  // cycle 5, ucsb-gw
      {0xf9a26483ec38869fULL, 0x79032475facc996dULL},  // cycle 6, bdr1
      {0xb53bc48daefcc12aULL, 0x63b030f98302394cULL},  // cycle 6, bdr2
      {0x1aff922a382c3099ULL, 0xc56a42ad4f9da9a2ULL},  // cycle 6, bdr3
      {0xb2158acc1b2a3b5dULL, 0x63b030f98302394cULL},  // cycle 6, bdr4
      {0xf0804d9cfd9729a0ULL, 0xc56a42ad4f9da9a2ULL},  // cycle 6, bdr5
      {0x269f867c64579ff6ULL, 0xc1814afbb7f8b94fULL},  // cycle 6, fixw
      {0x587c1bab1d8b4315ULL, 0xa7e790bee6079b6aULL},  // cycle 6, ucsb-gw
      {0x5aaf0f32164ab364ULL, 0xda138be34468a7cfULL},  // cycle 7, bdr1
      {0xa70d64901b053aa6ULL, 0xaf7ad9e7ecfc51b6ULL},  // cycle 7, bdr2
      {0x36732ad136e14d97ULL, 0x8ea064b21ca0ac94ULL},  // cycle 7, bdr3
      {0xbbd13c94249a5ff9ULL, 0x38e1bb1661b9135aULL},  // cycle 7, bdr4
      {0xae63bbbf45125693ULL, 0x8ea064b21ca0ac94ULL},  // cycle 7, bdr5
      {0x269f867c64579ff6ULL, 0xc1814afbb7f8b94fULL},  // cycle 7, fixw
      {0x9c8bbc0fd80e93ffULL, 0x6407858d8c128ff4ULL},  // cycle 7, ucsb-gw
      {0x3ce1ecbd0c2adec5ULL, 0x6169cff4ec824636ULL},  // cycle 8, bdr1
      {0xfb3ef965faf3aad8ULL, 0x3f53563f2a0d9ce3ULL},  // cycle 8, bdr2
      {0x850445fea83e20a3ULL, 0xe034c66330fc2429ULL},  // cycle 8, bdr3
      {0x51edf7aefc3ab3edULL, 0x5998757bf294ade7ULL},  // cycle 8, bdr4
      {0xab95782401581dfbULL, 0xe034c66330fc2429ULL},  // cycle 8, bdr5
      {0x269f867c64579ff6ULL, 0xc1814afbb7f8b94fULL},  // cycle 8, fixw
      {0x05aa04eff4509577ULL, 0x19e669a8177c8c49ULL},  // cycle 8, ucsb-gw
      {0x33ee4f1a1c1e0c96ULL, 0x4275fbeab1a258a5ULL},  // cycle 9, bdr1
      {0xa490759ceb9312cbULL, 0x7a905f79fd209474ULL},  // cycle 9, bdr2
      {0xa746488c0d2e492dULL, 0xf8e9f667535aac26ULL},  // cycle 9, bdr3
      {0x25d9eb3752cd967eULL, 0xc2205ba2a5b493f0ULL},  // cycle 9, bdr4
      {0x9c0913cd622d279bULL, 0xf8e9f667535aac26ULL},  // cycle 9, bdr5
      {0x14a9188c2a97a75dULL, 0xfef2b5a942300274ULL},  // cycle 9, fixw
      {0x2628b8034a906cb7ULL, 0x7097e0dd1887dbc6ULL},  // cycle 9, ucsb-gw
      {0x74094edf35884a15ULL, 0xaab6b9eb6c06c12fULL},  // cycle 10, bdr1
      {0x4cd6e697e4a80ae5ULL, 0x5fd60b49f41f94c6ULL},  // cycle 10, bdr2
      {0x9809ca171ac98c9fULL, 0xb2b1bdb5bed4ef70ULL},  // cycle 10, bdr3
      {0x5595d22af7284950ULL, 0x322bd7d2d2a724c2ULL},  // cycle 10, bdr4
      {0xd2037a18daab7a17ULL, 0xb2b1bdb5bed4ef70ULL},  // cycle 10, bdr5
      {0x758b4f97f8368a3aULL, 0xc3ccc3f7571c5eaaULL},  // cycle 10, fixw
      {0xddc5420cf92a1a4dULL, 0xcbe6cc24eee09a90ULL},  // cycle 10, ucsb-gw
      {0x59227fa28f6eeda9ULL, 0x7f181083dbd4bcf4ULL},  // cycle 11, bdr1
      {0x358dd58ee1f34ae3ULL, 0x78bec49f22c98885ULL},  // cycle 11, bdr2
      {0x53fcc43d68954002ULL, 0x43fc5f35d2f925afULL},  // cycle 11, bdr3
      {0x77c145e52aa8849cULL, 0x1dbf5974c6a289c1ULL},  // cycle 11, bdr4
      {0x882b1f85593a44b1ULL, 0x43fc5f35d2f925afULL},  // cycle 11, bdr5
      {0xa3abcbe7f7e1b25bULL, 0x40227198a74476cdULL},  // cycle 11, fixw
      {0x5ce787ef43fc200bULL, 0xd36e1bba4e3f6c87ULL},  // cycle 11, ucsb-gw
      {0xe4c962c63978b290ULL, 0xc1366582dd1726e1ULL},  // cycle 12, bdr1
      {0xe0088239e3e78c02ULL, 0xb6fc14f454ce5c60ULL},  // cycle 12, bdr2
      {0x94d416e0fa23af5dULL, 0xc0717476ea0c1a2eULL},  // cycle 12, bdr3
      {0x0c25ecb2623dd612ULL, 0xb5eb60a5c3def37cULL},  // cycle 12, bdr4
      {0xa187f3a794216f87ULL, 0xc0717476ea0c1a2eULL},  // cycle 12, bdr5
      {0xccb005c22c831df2ULL, 0x848e7d2f10be1bc4ULL},  // cycle 12, fixw
      {0x0fdaff2bf8640cf2ULL, 0x9ac5bd7a23f0648eULL},  // cycle 12, ucsb-gw
      {0xd2fd84b670eb5967ULL, 0x4787c4b4e4a08ba3ULL},  // cycle 13, bdr1
      {0xa1a9efb45925545aULL, 0x29312da44d1f35bdULL},  // cycle 13, bdr2
      {0x8b48975f0ebefc13ULL, 0x46f9e8d5bb48e2c4ULL},  // cycle 13, bdr3
      {0x657358ad06b0fb12ULL, 0x65f29766f0f89731ULL},  // cycle 13, bdr4
      {0x460e4505d7223cafULL, 0x46f9e8d5bb48e2c4ULL},  // cycle 13, bdr5
      {0xd4e93fcd62487c57ULL, 0xf58f716f9f74a80aULL},  // cycle 13, fixw
      {0xc4e122f36213dedaULL, 0x13ad134df4193aacULL},  // cycle 13, ucsb-gw
      {0x5ed67aba1e069182ULL, 0x57296468b5101217ULL},  // cycle 14, bdr1
      {0x52c6facd5773b4b5ULL, 0xe1166ed46aa5f3ceULL},  // cycle 14, bdr2
      {0x06d191849151bbf1ULL, 0xb31f657b0805e258ULL},  // cycle 14, bdr3
      {0x707a22a00ddcd982ULL, 0x27d74722e26e4afaULL},  // cycle 14, bdr4
      {0x91da6e90d0fff4fbULL, 0xb31f657b0805e258ULL},  // cycle 14, bdr5
      {0x69dbb116fa85d0f5ULL, 0x2fb3b1a187084932ULL},  // cycle 14, fixw
      {0xf50e3959293e00c5ULL, 0xb2b9eb9bb9217370ULL},  // cycle 14, ucsb-gw
      {0x77efe83a9a34a5a1ULL, 0x64eae95784aad56cULL},  // cycle 15, bdr1
      {0x2efb9efe56b799ddULL, 0x65ae8e34b0c9b10aULL},  // cycle 15, bdr2
      {0x4ca2a0e76ca22e77ULL, 0xf160190c3297f6c3ULL},  // cycle 15, bdr3
      {0xf376aef37ebdf697ULL, 0x27c0ffc4d54e2446ULL},  // cycle 15, bdr4
      {0x3471e9bbe4161bfaULL, 0xf160190c3297f6c3ULL},  // cycle 15, bdr5
      {0xfdead224d046a90eULL, 0x02a824dee2067875ULL},  // cycle 15, fixw
      {0x837c90dc162aea6dULL, 0x9f24f4b2d851e65bULL},  // cycle 15, ucsb-gw
      {0xae35a334f9f4db18ULL, 0x38b21b9d2e0aa661ULL},  // cycle 16, bdr1
      {0x38aa73ff6e97fc6dULL, 0xa377f7348d63ee64ULL},  // cycle 16, bdr2
      {0x723dfcec4a24d976ULL, 0x3ace0350dadfc36eULL},  // cycle 16, bdr3
      {0x8df6ad260da43eddULL, 0xe907bb9c287c0a00ULL},  // cycle 16, bdr4
      {0xc83882ca0d70cd0cULL, 0x3ace0350dadfc36eULL},  // cycle 16, bdr5
      {0x5cafcfb52cea2ef5ULL, 0x80f9df63abcc36f4ULL},  // cycle 16, fixw
      {0xc6f6538cd8aea1ebULL, 0xbb1c3f81c5ee64e6ULL},  // cycle 16, ucsb-gw
      {0x37a616c54d704dccULL, 0x20417590cacc85e2ULL},  // cycle 17, bdr1
      {0x62c7a7d09ef39153ULL, 0x25b85b3f40243ebcULL},  // cycle 17, bdr2
      {0x065a84efa7c32beaULL, 0x2c63f164cb633cb5ULL},  // cycle 17, bdr3
      {0x1488780189976bfdULL, 0x425c8feab5696110ULL},  // cycle 17, bdr4
      {0x5c40b620737e0f6eULL, 0x2c63f164cb633cb5ULL},  // cycle 17, bdr5
      {0xba99a287518decbaULL, 0x0fe81b7d1ba7d7e3ULL},  // cycle 17, fixw
      {0x3d16f08dfd1b4a93ULL, 0xa2bb661bd760957dULL},  // cycle 17, ucsb-gw
      {0xd203949914bf5351ULL, 0xc72ca9e5226fcf42ULL},  // cycle 18, bdr1
      {0x23b1e4a72d78d5e0ULL, 0x3a375b612dbf63c3ULL},  // cycle 18, bdr2
      {0x4d472e6de949e67eULL, 0x52aedc1ea7d238b9ULL},  // cycle 18, bdr3
      {0xbfd08c133b04fcc8ULL, 0xf37f7ac854b4e7e7ULL},  // cycle 18, bdr4
      {0xdfdcd02a58b6facaULL, 0x52aedc1ea7d238b9ULL},  // cycle 18, bdr5
      {0x02b9a710cbffc139ULL, 0xccbab050d7827e17ULL},  // cycle 18, fixw
      {0xce38c6761febcd74ULL, 0x83049813c2f78d11ULL},  // cycle 18, ucsb-gw
      {0xee40eb899cc62d16ULL, 0x589fbf03062a6417ULL},  // cycle 19, bdr1
      {0x07186fbd484c16f5ULL, 0x737c78fe8b78d9b1ULL},  // cycle 19, bdr2
      {0x0ac2515c9176fc78ULL, 0xf978b0300f062de8ULL},  // cycle 19, bdr3
      {0x09fc9fd95b40a073ULL, 0xc1e27f0b31973bf5ULL},  // cycle 19, bdr4
      {0x58fa3acd53a8a093ULL, 0xf978b0300f062de8ULL},  // cycle 19, bdr5
      {0x3ac2bbaf89d26c45ULL, 0xc6294bc59662782eULL},  // cycle 19, fixw
      {0x64092634294601c7ULL, 0x75634e4e77ce4ab0ULL},  // cycle 19, ucsb-gw
      {0xb07facd0ad666640ULL, 0xa7a2396fdd15875cULL},  // cycle 20, bdr1
      {0x5943169c17c0b3c4ULL, 0xb74da37e1be87bf9ULL},  // cycle 20, bdr2
      {0x8ed52e3b070d26d3ULL, 0xc04cafb65459ed7fULL},  // cycle 20, bdr3
      {0xe72e4df22b75b315ULL, 0x2b8e34b011653e15ULL},  // cycle 20, bdr4
      {0xc60275765bb8e112ULL, 0xc04cafb65459ed7fULL},  // cycle 20, bdr5
      {0x39f3da835a312c3eULL, 0xbb9ab754ad9940c9ULL},  // cycle 20, fixw
      {0xa1be8797c8478718ULL, 0xa836efd776804ec7ULL},  // cycle 20, ucsb-gw
      {0x705a895647b50cc4ULL, 0xa9ee842aa32045b2ULL},  // cycle 21, bdr1
      {0xe947d401468e0f84ULL, 0xb2c0d2a6a8ca57c0ULL},  // cycle 21, bdr2
      {0x7b4b2d3f8d20d7c3ULL, 0x6ed809648a378a45ULL},  // cycle 21, bdr3
      {0xd86f7f25827bb2bfULL, 0xbf67249723535d44ULL},  // cycle 21, bdr4
      {0x7efb9ad7353a220eULL, 0x6ed809648a378a45ULL},  // cycle 21, bdr5
      {0x3e24ecb3db3d29d5ULL, 0xda6440e3723f85a7ULL},  // cycle 21, fixw
      {0x4c6d9a2856c0e7c4ULL, 0xd012e18c1a5a863dULL},  // cycle 21, ucsb-gw
      {0xc9000b46d57248a9ULL, 0x84b4efabd6a20f4aULL},  // cycle 22, bdr1
      {0xebe1a533df7259c7ULL, 0x7004e3e2362972d3ULL},  // cycle 22, bdr2
      {0x94bede26d86c339fULL, 0x76d61e4aaf423af1ULL},  // cycle 22, bdr3
      {0x1dc9b7cc4cbd44cfULL, 0xefb289acc5984157ULL},  // cycle 22, bdr4
      {0x75de770dd85b2899ULL, 0x76d61e4aaf423af1ULL},  // cycle 22, bdr5
      {0x55f13b5421678ee9ULL, 0x651b55f07a80d23fULL},  // cycle 22, fixw
      {0xfb6d2cf0c963acf1ULL, 0x2331123fcd043ea1ULL},  // cycle 22, ucsb-gw
      {0xf511921520b549d4ULL, 0xf865c87a1af83344ULL},  // cycle 23, bdr1
      {0xd36be68f1cae93bbULL, 0xa61918c99b7b8c96ULL},  // cycle 23, bdr2
      {0xd250dc6d0930ab22ULL, 0xeebce718bac01bc7ULL},  // cycle 23, bdr3
      {0x1dd3c2a3587b669fULL, 0xffd5be30b81f75faULL},  // cycle 23, bdr4
      {0xc3c144dae57acea1ULL, 0xeebce718bac01bc7ULL},  // cycle 23, bdr5
      {0x9e62d63dda4acb0dULL, 0xd52950a39370c6b9ULL},  // cycle 23, fixw
      {0x5be17a6ce9dec36fULL, 0xd8638eff6049f8dfULL},  // cycle 23, ucsb-gw
      {0xda0547272c5cc757ULL, 0x79d2c8080305e318ULL},  // cycle 24, bdr1
      {0xaf9c6fde26569e03ULL, 0x6645f4e0b8773df2ULL},  // cycle 24, bdr2
      {0x2bec87f2ecfb7d17ULL, 0x1756fd1d4bc4b36bULL},  // cycle 24, bdr3
      {0x11cf2cc4e24e263aULL, 0x972193f36057e2e5ULL},  // cycle 24, bdr4
      {0x5a14d1b11a211cdbULL, 0x1756fd1d4bc4b36bULL},  // cycle 24, bdr5
      {0xd8523be763922e12ULL, 0xa4292fc7271d4425ULL},  // cycle 24, fixw
      {0xd1bd1146e5da4516ULL, 0x5aefc08236091b3bULL},  // cycle 24, ucsb-gw
      {0xde649d666614b39fULL, 0x08c74f92a22778daULL},  // cycle 25, bdr1
      {0xd63dc9b8c9c8722bULL, 0x3c6b82272b7dfe60ULL},  // cycle 25, bdr2
      {0x59412cf8697a541dULL, 0xb8227525f361b131ULL},  // cycle 25, bdr3
      {0x9a8bcce3048836a5ULL, 0x093e5e05c470b0bfULL},  // cycle 25, bdr4
      {0x32924651d4156b9bULL, 0xb8227525f361b131ULL},  // cycle 25, bdr5
      {0x28f143f060e5b59fULL, 0x4c9ffd8274f3f6f7ULL},  // cycle 25, fixw
      {0x89d1eed2905364e4ULL, 0xed151f5fa6879c81ULL},  // cycle 25, ucsb-gw
      {0x022815d62398d3baULL, 0xf09f39133a926002ULL},  // cycle 26, bdr1
      {0x312d48ef0d4ac7d0ULL, 0x4912758887b6a734ULL},  // cycle 26, bdr2
      {0x82f9ff890f563b2cULL, 0x093184d4547240a9ULL},  // cycle 26, bdr3
      {0xe7b1f383c7ff6aedULL, 0x810673ed0e05bb9bULL},  // cycle 26, bdr4
      {0x543291f868a08591ULL, 0x093184d4547240a9ULL},  // cycle 26, bdr5
      {0x7371a25bd1994e48ULL, 0x6efa34d3881e2c93ULL},  // cycle 26, fixw
      {0x19b4480978409decULL, 0x99ef8c19a802bb39ULL},  // cycle 26, ucsb-gw
      {0x167404d9160245c5ULL, 0xb7846d4d3571d838ULL},  // cycle 27, bdr1
      {0xf188028fd4ce62afULL, 0xd3b89f027bc8841aULL},  // cycle 27, bdr2
      {0x1246429d516ba725ULL, 0x5824181bab8ce0c3ULL},  // cycle 27, bdr3
      {0x58c1c5744a64855aULL, 0x0bf5a43ac08f57a5ULL},  // cycle 27, bdr4
      {0x09cd5a3772d8a0c2ULL, 0x5824181bab8ce0c3ULL},  // cycle 27, bdr5
      {0xd8d17c47a3155a04ULL, 0x7bb6d83aa563d03dULL},  // cycle 27, fixw
      {0x99ddcc940452c90fULL, 0xed4f2213f01e4af3ULL},  // cycle 27, ucsb-gw
      {0xce9f2e6c9e37574aULL, 0xdd550e9d343e18a8ULL},  // cycle 28, bdr1
      {0x922b3f10ec65dee1ULL, 0x27307d4f93f6b4eeULL},  // cycle 28, bdr2
      {0x8bc05ff29a950bf9ULL, 0x73319cc0a109eb83ULL},  // cycle 28, bdr3
      {0xd9b60ec60228e5efULL, 0xb329ddab9c311cb9ULL},  // cycle 28, bdr4
      {0x10ccc65de491b8f2ULL, 0x73319cc0a109eb83ULL},  // cycle 28, bdr5
      {0xd4aa9cba00ffdf70ULL, 0x25b4d33420ec5dd1ULL},  // cycle 28, fixw
      {0xcb4f3e130786cc91ULL, 0xd60e68dd119ef333ULL},  // cycle 28, ucsb-gw
      {0x403fe5bee5321b84ULL, 0xe1ad507c1b7971f3ULL},  // cycle 29, bdr1
      {0xa888400454898b71ULL, 0x7c182e47d1f91c0dULL},  // cycle 29, bdr2
      {0x8ecdca2e1ffdba17ULL, 0xe1f4a0f8cf1f330cULL},  // cycle 29, bdr3
      {0x6b11f7553ad7bc01ULL, 0xf1543c559148980eULL},  // cycle 29, bdr4
      {0xd25433cd4c8d9d17ULL, 0xe1f4a0f8cf1f330cULL},  // cycle 29, bdr5
      {0xdde2567e8c7255ecULL, 0xb2d9f5d3664b9896ULL},  // cycle 29, fixw
      {0x8fca22529aff255bULL, 0xbaf1a52358da00bcULL},  // cycle 29, ucsb-gw
      {0xc9a5c77d738e4937ULL, 0x29c8cf1864c9fa17ULL},  // cycle 30, bdr1
      {0x86e24b3aa86c991aULL, 0xf60ddfe9e5e03f39ULL},  // cycle 30, bdr2
      {0xd514ac37063eba46ULL, 0xb108afb61f293e54ULL},  // cycle 30, bdr3
      {0x841a2158969c1f02ULL, 0xd6913d7b6be73656ULL},  // cycle 30, bdr4
      {0x7fdf731f6d1a6aa5ULL, 0xb108afb61f293e54ULL},  // cycle 30, bdr5
      {0x682db9d711be5bd5ULL, 0x5e0dd53c4eb8d3aeULL},  // cycle 30, fixw
      {0xff923c1b94c4eb21ULL, 0x6fe90eb6254886a4ULL},  // cycle 30, ucsb-gw
  };
  return pins;
}

const std::vector<FilePin>& pinned_archives() {
  static const std::vector<FilePin> pins = {
      {"bdr1", 67723, 0x2393cf00f1908fabULL},
      {"bdr2", 64421, 0xa5fb180f982fdbbdULL},
      {"bdr3", 60957, 0x1c90a0fcf7c19153ULL},
      {"bdr4", 61393, 0xd0fbdc2d3adeaa5cULL},
      {"bdr5", 58702, 0xcd9de4167650c6e6ULL},
      {"fixw", 53338, 0xb53bd61a71fe0300ULL},
      {"ucsb-gw", 61416, 0x4199acf8254832eeULL},
  };
  return pins;
}

struct PinnedRun {
  std::vector<std::string> names;
  std::vector<TargetPin> targets;  ///< per cycle, per target in name order
  struct Archive {
    std::string name;
    std::size_t bytes;
    std::uint64_t digest;
  };
  std::vector<Archive> archives;  ///< per target in name order
  /// DVMRP route counts per cycle, per target in name order (0 when the
  /// cycle recorded nothing or an empty table).
  std::vector<std::vector<std::size_t>> routes;
  std::size_t dark_target_results = 0;  ///< cycles the dark target recorded
  std::size_t longest_dark_spell = 0;
  std::size_t stale_results = 0;
};

PinnedRun run_pinned(std::size_t worker_threads) {
  const std::filesystem::path dir = std::filesystem::path(::testing::TempDir()) /
                                    ("cycle_pin_" + std::to_string(worker_threads));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  workload::FixwScenario scenario(pin_scenario());
  scenario.start();
  sim::Engine& engine = scenario.engine();
  engine.run_until(engine.now() + sim::Duration::hours(1));
  scenario.schedule_route_injection(engine.now() + sim::Duration::minutes(89), kInjected,
                                    sim::Duration::minutes(51));

  MantraConfig config;
  config.cycle = sim::Duration::minutes(15);
  config.worker_threads = worker_threads;
  config.retry.jitter_seed = 0xc1c1e;
  config.archive_dir = (dir / "marc").string();
  config.archive.keyframe_interval = 4;
  config.archive.fsync_on_keyframe = false;
  std::map<std::string, FaultInjectingTransport*> transports;
  auto monitor = std::make_unique<Mantra>(engine, config, [&transports](const std::string& name) {
    auto transport = std::make_unique<FaultInjectingTransport>(
        per_target_seed(0xc7c1e, name), FaultProfile::command_failure_rate(0.3));
    transports[name] = transport.get();
    return transport;
  });
  monitor->add_target(scenario.network().router(scenario.fixw_node()));
  for (const net::NodeId node : scenario.border_nodes()) {
    monitor->add_target(scenario.network().router(node));
  }

  PinnedRun run;
  run.names = monitor->target_names();
  FaultProfile dark;
  dark.connect_refused_p = 1.0;
  for (int c = 1; c <= kCycles; ++c) {
    if (c == kDarkFrom) transports.at(kDarkTarget)->set_profile(dark);
    if (c == kDarkTo + 1) {
      transports.at(kDarkTarget)->set_profile(FaultProfile::command_failure_rate(0.3));
    }
    engine.run_until(engine.now() + config.cycle);
    monitor->run_cycle_now();
    std::vector<std::size_t>& routes = run.routes.emplace_back();
    for (const std::string& name : run.names) {
      const Mantra::TargetView view = monitor->target_view(name);
      run.targets.push_back({digest_of(view.results()), route_history_digest(view.results())});
      const bool recorded = !view.results().empty() && view.results().back().t == engine.now();
      routes.push_back(recorded ? view.results().back().dvmrp_routes : 0);
    }
  }
  for (const std::string& name : run.names) {
    const Mantra::TargetView view = monitor->target_view(name);
    for (const CycleResult& result : view.results()) {
      run.longest_dark_spell = std::max(run.longest_dark_spell, result.consecutive_failures);
      if (result.stale) ++run.stale_results;
    }
    if (name == kDarkTarget) run.dark_target_results = view.results().size();
  }
  monitor.reset();  // closes the archives
  for (const std::string& name : run.names) {
    std::ifstream in(dir / "marc" / (name + ".marc"), std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    Fnv f;
    f.bytes(bytes.data(), bytes.size());
    run.archives.push_back({name, bytes.size(), f.hash});
  }
  return run;
}

std::string table_of(const PinnedRun& run) {
  std::string out = "current table:\n";
  char line[160];
  for (std::size_t i = 0; i < run.targets.size(); ++i) {
    const TargetPin& pin = run.targets[i];
    std::snprintf(line, sizeof line,
                  "      {0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL},  // cycle %zu, %s\n",
                  pin.results, pin.history, i / kTargets + 1, run.names[i % kTargets].c_str());
    out += line;
  }
  for (const PinnedRun::Archive& archive : run.archives) {
    std::snprintf(line, sizeof line, "      {\"%s\", %zu, 0x%016" PRIx64 "ULL},\n",
                  archive.name.c_str(), archive.bytes, archive.digest);
    out += line;
  }
  return out;
}

void expect_pinned(const PinnedRun& run) {
  ASSERT_EQ(run.names.size(), static_cast<std::size_t>(kTargets));
  ASSERT_EQ(run.targets.size(), pinned_targets().size()) << table_of(run);
  for (std::size_t i = 0; i < run.targets.size(); ++i) {
    const TargetPin& got = run.targets[i];
    const TargetPin& want = pinned_targets()[i];
    const std::string where =
        "cycle " + std::to_string(i / kTargets + 1) + ", " + run.names[i % kTargets];
    EXPECT_EQ(got.results, want.results) << where << ": results";
    EXPECT_EQ(got.history, want.history) << where << ": route history";
  }
  ASSERT_EQ(run.archives.size(), pinned_archives().size()) << table_of(run);
  for (std::size_t i = 0; i < run.archives.size(); ++i) {
    EXPECT_EQ(run.archives[i].name, pinned_archives()[i].name);
    EXPECT_EQ(run.archives[i].bytes, pinned_archives()[i].bytes) << run.archives[i].name;
    EXPECT_EQ(run.archives[i].digest, pinned_archives()[i].digest) << run.archives[i].name;
  }
  if (::testing::Test::HasFailure()) std::fputs(table_of(run).c_str(), stderr);
}

/// The schedule does what the header says.
void expect_schedule(const PinnedRun& run) {
  const auto index_of = [&run](std::string_view name) {
    return static_cast<std::size_t>(
        std::find(run.names.begin(), run.names.end(), name) - run.names.begin());
  };
  const std::size_t ucsb = index_of("ucsb-gw");
  ASSERT_LT(ucsb, run.names.size());
  ASSERT_LT(index_of(kDarkTarget), run.names.size());
  int grew_past = 0;
  int shrank_below = 0;
  for (int c = 0; c < kCycles; ++c) {
    const std::vector<std::size_t>& routes = run.routes[static_cast<std::size_t>(c)];
    std::size_t others_max = 0;
    std::size_t others_min = SIZE_MAX;
    for (std::size_t t = 0; t < routes.size(); ++t) {
      if (t == ucsb || routes[t] == 0) continue;
      others_max = std::max(others_max, routes[t]);
      others_min = std::min(others_min, routes[t]);
    }
    if (grew_past == 0 && routes[ucsb] > others_max) grew_past = c + 1;
    if (grew_past > 0 && shrank_below == 0 && routes[ucsb] != 0 &&
        routes[ucsb] < others_min) {
      shrank_below = c + 1;
    }
  }
  std::string counts = "DVMRP routes per cycle, targets in name order (0: none recorded):\n";
  for (const std::vector<std::size_t>& routes : run.routes) {
    for (const std::size_t n : routes) counts += " " + std::to_string(n);
    counts += "\n";
  }
  EXPECT_GT(grew_past, 0) << "ucsb-gw's table never grew past the others\n" << counts;
  EXPECT_GT(shrank_below, grew_past) << "ucsb-gw's table never shrank below the others\n"
                                     << counts;
  const auto dark_cycles = static_cast<std::size_t>(kDarkTo - kDarkFrom + 1);
  EXPECT_LE(run.dark_target_results, kCycles - dark_cycles);
  EXPECT_GE(run.longest_dark_spell, dark_cycles);
  EXPECT_GT(run.stale_results, 0u);
}

TEST(CyclePin, SequentialRunRecordsThePinnedResultsAndArchives) {
  const PinnedRun run = run_pinned(0);
  expect_schedule(run);
  expect_pinned(run);
}

TEST(CyclePin, ThreeWorkersForSevenTargetsRecordThePinnedResultsAndArchives) {
  const PinnedRun run = run_pinned(3);
  expect_schedule(run);
  expect_pinned(run);
}

}  // namespace
}  // namespace mantra::core
