#include <gtest/gtest.h>

#include <random>

#include "core/log.hpp"

namespace mantra::core {
namespace {

PairRow pair(std::uint32_t source, std::uint32_t group, double kbps) {
  PairRow row;
  row.source = net::Ipv4Address(source);
  row.group = net::Ipv4Address(0xE0020000u + group);  // 224.2.x.x
  row.current_kbps = kbps;
  return row;
}

RouteRow route(std::uint32_t net_index, int metric) {
  RouteRow row;
  row.prefix = net::Prefix(net::Ipv4Address(0x0A000000u + (net_index << 8)), 24);
  row.next_hop = net::Ipv4Address(0xC0A80002u);
  row.interface = "tunnel0";
  row.metric = metric;
  return row;
}

Snapshot snapshot_at(sim::TimePoint t) {
  Snapshot snapshot;
  snapshot.router_name = "fixw";
  snapshot.captured = t;
  return snapshot;
}

TEST(DataLogger, DeltaStorageBeatsNaiveOnSlowlyChangingTables) {
  DataLogger logger;
  Snapshot snapshot = snapshot_at(sim::TimePoint::start());
  for (std::uint32_t i = 0; i < 500; ++i) snapshot.routes.upsert(route(i, 3));
  for (std::uint32_t i = 0; i < 100; ++i) {
    snapshot.pairs.upsert(pair(0x0A010100u + i, i % 7, 5.0));
  }

  std::mt19937 rng(5);
  for (int cycle = 0; cycle < 50; ++cycle) {
    snapshot.captured = sim::TimePoint::start() + sim::Duration::minutes(15 * cycle);
    // A couple of route flaps per cycle, everything else stable.
    snapshot.routes.upsert(route(rng() % 500, 3 + static_cast<int>(rng() % 3)));
    logger.record(snapshot);
  }
  // The paper's claim: storing deltas is "a very effective way of
  // conserving storage space" for slowly changing tables.
  EXPECT_LT(logger.stored_bytes(), logger.naive_bytes() / 10);
}

TEST(DataLogger, AblationFullSnapshotsMatchNaiveCost) {
  LoggerConfig config;
  config.store_deltas = false;
  DataLogger logger(config);
  Snapshot snapshot = snapshot_at(sim::TimePoint::start());
  for (std::uint32_t i = 0; i < 100; ++i) snapshot.routes.upsert(route(i, 3));
  for (int cycle = 0; cycle < 10; ++cycle) {
    snapshot.captured = sim::TimePoint::start() + sim::Duration::minutes(15 * cycle);
    logger.record(snapshot);
  }
  EXPECT_EQ(logger.stored_bytes(), logger.naive_bytes());
}

TEST(DataLogger, CountingLedgersMatchSerializedByteLengths) {
  // The logger counts codec bytes without materializing them; the counting
  // sink must agree exactly with the string sink on real row data,
  // including awkward numeric widths (one-digit and three-digit octets,
  // %g-formatted rates, multi-digit millisecond fields).
  Snapshot snapshot = snapshot_at(sim::TimePoint::start() + sim::Duration::hours(7));
  for (std::uint32_t i = 0; i < 120; ++i) {
    PairRow row = pair(0x0A010100u + i, i % 9, 0.001 + 1234.5678 * i);
    row.packets = 1 + 99991ull * i;
    row.uptime = sim::Duration::seconds(17 * i);
    snapshot.pairs.upsert(row);
  }
  for (std::uint32_t i = 0; i < 120; ++i) snapshot.routes.upsert(route(i, 1 + i % 250));
  SaRow sa;
  sa.source = net::Ipv4Address(10, 200, 3, 254);
  sa.group = net::Ipv4Address(224, 2, 0, 5);
  sa.origin_rp = net::Ipv4Address(10, 0, 1, 1);
  sa.age = sim::Duration::minutes(90);
  snapshot.sa_cache.upsert(sa);
  MbgpRow mbgp;
  mbgp.prefix = *net::Prefix::parse("10.4.0.0/16");
  mbgp.next_hop = net::Ipv4Address(192, 168, 0, 2);
  snapshot.mbgp_routes.upsert(mbgp);
  snapshot.participants = derive_participants(snapshot.pairs);
  snapshot.sessions = derive_sessions(snapshot.pairs);

  // Key-frame-only logger: stored == naive == the real serialized size.
  LoggerConfig full;
  full.store_deltas = false;
  DataLogger keyframes(full);
  keyframes.record(snapshot);
  EXPECT_EQ(keyframes.naive_bytes(), serialize_snapshot(snapshot, false).size());
  EXPECT_EQ(keyframes.stored_bytes(), keyframes.naive_bytes());

  // Ablated logger stores derived tables too.
  LoggerConfig fat = full;
  fat.derive_redundant = false;
  DataLogger derived(fat);
  derived.record(snapshot);
  EXPECT_EQ(derived.stored_bytes(), serialize_snapshot(snapshot, true).size());
}

TEST(DataLogger, RedundancyAblationStoresDerivedTables) {
  Snapshot snapshot = snapshot_at(sim::TimePoint::start());
  for (std::uint32_t i = 0; i < 50; ++i) {
    snapshot.pairs.upsert(pair(0x0A010100u + i, i % 5, 5.0));
  }
  snapshot.participants = derive_participants(snapshot.pairs);
  snapshot.sessions = derive_sessions(snapshot.pairs);

  LoggerConfig lean;  // derive_redundant = true
  LoggerConfig fat;
  fat.derive_redundant = false;
  DataLogger lean_logger(lean), fat_logger(fat);
  lean_logger.record(snapshot);
  fat_logger.record(snapshot);
  EXPECT_LT(lean_logger.stored_bytes(), fat_logger.stored_bytes());
}

TEST(SerializeSnapshot, ContainsAllTables) {
  Snapshot snapshot = snapshot_at(sim::TimePoint::start());
  snapshot.pairs.upsert(pair(0x0A010102, 5, 10.0));
  snapshot.routes.upsert(route(1, 3));
  SaRow sa;
  sa.source = net::Ipv4Address(10, 1, 1, 2);
  sa.group = net::Ipv4Address(224, 2, 0, 5);
  sa.origin_rp = net::Ipv4Address(10, 0, 1, 1);
  snapshot.sa_cache.upsert(sa);
  MbgpRow mbgp;
  mbgp.prefix = *net::Prefix::parse("10.4.0.0/16");
  mbgp.next_hop = net::Ipv4Address(192, 168, 0, 2);
  mbgp.as_path = "3000 104";
  snapshot.mbgp_routes.upsert(mbgp);

  const std::string text = serialize_snapshot(snapshot, false);
  EXPECT_NE(text.find("# snapshot router=fixw"), std::string::npos);
  EXPECT_NE(text.find("\nP 10.1.1.2 224.2.0.5 "), std::string::npos);
  EXPECT_NE(text.find("\nR 10.0.1.0/24 "), std::string::npos);
  EXPECT_NE(text.find("\nA 10.1.1.2 224.2.0.5 10.0.1.1 "), std::string::npos);
  EXPECT_NE(text.find("\nB 10.4.0.0/16 192.168.0.2 3000 104"), std::string::npos);
}

}  // namespace
}  // namespace mantra::core
