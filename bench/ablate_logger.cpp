// Ablation of the Data Logger's two §III space optimisations:
//   * storing only deltas vs a full snapshot every cycle;
//   * deriving the participant/session tables vs storing them too.
// Replays a realistic day of monitoring (churning pair table, slowly
// changing route table) through all four configurations and reports the
// stored byte counts, matching the paper's claim that delta storage is "a
// very effective way of conserving storage space" for route tables. Exits
// non-zero when either claim fails: full snapshots not more than 5x the
// deltas, or storing the derived tables not costing more.
#include <cstdio>

#include "core/log.hpp"
#include "sim/random.hpp"

using namespace mantra;

namespace {

core::Snapshot make_base(sim::Rng& rng, int pairs, int routes) {
  core::Snapshot snapshot;
  snapshot.router_name = "fixw";
  for (int i = 0; i < pairs; ++i) {
    core::PairRow row;
    row.source = net::Ipv4Address(static_cast<std::uint32_t>(0x0A000000 + i));
    row.group = net::Ipv4Address(static_cast<std::uint32_t>(0xE0020000 + i % 200));
    row.current_kbps = rng.uniform(0.1, 200.0);
    snapshot.pairs.upsert(row);
  }
  for (int i = 0; i < routes; ++i) {
    core::RouteRow row;
    row.prefix = net::Prefix(
        net::Ipv4Address(10, static_cast<std::uint8_t>(i / 250),
                         static_cast<std::uint8_t>(i % 250), 0), 24);
    row.next_hop = net::Ipv4Address(192, 168, static_cast<std::uint8_t>(i % 14), 2);
    row.interface = "tunnel" + std::to_string(i % 14);
    row.metric = static_cast<int>(rng.uniform_int(2, 12));
    snapshot.routes.upsert(row);
  }
  return snapshot;
}

/// One day of cycles: 3% pair churn and 0.5% route flaps per 15 minutes.
void mutate(core::Snapshot& snapshot, sim::Rng& rng) {
  const auto pair_rows = snapshot.pairs.rows();
  for (const core::PairRow& row : pair_rows) {
    if (rng.bernoulli(0.015)) snapshot.pairs.erase(row.key());
  }
  for (int i = 0; i < static_cast<int>(pair_rows.size() * 0.015); ++i) {
    core::PairRow row;
    row.source = net::Ipv4Address(static_cast<std::uint32_t>(rng.uniform_int(0x0A000000, 0x0AFFFFFF)));
    row.group = net::Ipv4Address(static_cast<std::uint32_t>(0xE0020000 + rng.uniform_int(0, 250)));
    row.current_kbps = rng.uniform(0.1, 200.0);
    snapshot.pairs.upsert(row);
  }
  for (const core::RouteRow& row : snapshot.routes.rows()) {
    if (rng.bernoulli(0.005)) {
      core::RouteRow flapped = row;
      flapped.holddown = !flapped.holddown;
      snapshot.routes.upsert(flapped);
    }
  }
}

std::uint64_t replay(core::LoggerConfig config, int cycles) {
  sim::Rng rng(1234);
  core::DataLogger logger(config);
  core::Snapshot snapshot = make_base(rng, /*pairs=*/1500, /*routes=*/600);
  for (int cycle = 0; cycle < cycles; ++cycle) {
    snapshot.captured = sim::TimePoint::from_ms(cycle * 900'000LL);
    snapshot.participants = core::derive_participants(snapshot.pairs);
    snapshot.sessions = core::derive_sessions(snapshot.pairs);
    logger.record(snapshot);
    mutate(snapshot, rng);
    snapshot.pairs.advance_derived(sim::Duration::minutes(15));
    snapshot.routes.advance_derived(sim::Duration::minutes(15));
  }
  return logger.stored_bytes();
}

}  // namespace

int main() {
  constexpr int kCycles = 96;  // one day at 15-minute cycles

  core::LoggerConfig deltas_derived;                 // the paper's design
  core::LoggerConfig deltas_stored = deltas_derived;
  deltas_stored.derive_redundant = false;
  core::LoggerConfig full_derived = deltas_derived;
  full_derived.store_deltas = false;
  core::LoggerConfig full_stored = full_derived;
  full_stored.derive_redundant = false;

  const std::uint64_t a = replay(deltas_derived, kCycles);
  const std::uint64_t b = replay(deltas_stored, kCycles);
  const std::uint64_t c = replay(full_derived, kCycles);
  const std::uint64_t d = replay(full_stored, kCycles);

  std::printf("== Data Logger ablation: one day (96 cycles), 1500 pairs + 600 routes ==\n\n");
  std::printf("%-42s %12s %10s\n", "configuration", "stored bytes", "ratio");
  std::printf("%s\n", std::string(66, '-').c_str());
  std::printf("%-42s %12llu %9.2fx\n", "deltas + derived tables (paper design)",
              static_cast<unsigned long long>(a), 1.0);
  std::printf("%-42s %12llu %9.2fx\n", "deltas, derived tables stored too",
              static_cast<unsigned long long>(b), static_cast<double>(b) / a);
  std::printf("%-42s %12llu %9.2fx\n", "full snapshots + derived",
              static_cast<unsigned long long>(c), static_cast<double>(c) / a);
  std::printf("%-42s %12llu %9.2fx\n", "full snapshots, everything stored",
              static_cast<unsigned long long>(d), static_cast<double>(d) / a);

  const bool deltas_win = c > 5 * a;
  const bool redundancy_wins = d > c;
  std::printf("\n[%s] delta-storage-wins: full/delta = %.1fx (paper: 'very effective')\n",
              deltas_win ? "PASS" : "FAIL", static_cast<double>(c) / a);
  std::printf("[%s] redundancy-avoidance-wins: stored-derived adds %.0f%%\n",
              redundancy_wins ? "PASS" : "FAIL", 100.0 * (static_cast<double>(d) / c - 1.0));
  return deltas_win && redundancy_wins ? 0 : 1;
}
