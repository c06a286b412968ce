#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/archive.hpp"
#include "core/mantra.hpp"
#include "rederive_check.hpp"
#include "workload/scenario.hpp"

namespace mantra::core {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

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

SaRow sa(std::uint32_t source, std::uint32_t group) {
  SaRow row;
  row.source = net::Ipv4Address(source);
  row.group = net::Ipv4Address(0xE0020000u + group);
  row.origin_rp = net::Ipv4Address(10, 0, 1, 1);
  row.via_peer = net::Ipv4Address(10, 0, 2, 1);
  return row;
}

MbgpRow mbgp(std::uint32_t net_index) {
  MbgpRow row;
  row.prefix = net::Prefix(net::Ipv4Address(0x0A400000u + (net_index << 8)), 24);
  row.next_hop = net::Ipv4Address(192, 168, 0, 2);
  row.as_path = "3000 104";
  return row;
}

constexpr auto kCycle = sim::Duration::minutes(15);

/// A deterministic mutating table history whose derived fields follow the
/// reconstruction recurrence exactly (the router "reports" recurrence-
/// consistent uptimes), so reconstructed snapshots compare fully equal.
std::vector<Snapshot> synth_history(int cycles, std::uint32_t seed = 7) {
  std::mt19937 rng(seed);
  std::vector<Snapshot> history;
  Snapshot current;
  current.router_name = "fixw";
  for (std::uint32_t i = 0; i < 40; ++i) current.routes.upsert(route(i, 3));
  for (std::uint32_t i = 0; i < 12; ++i) {
    current.pairs.upsert(pair(0x0A010100u + i, i % 5, 4.0 + i));
  }
  for (std::uint32_t i = 0; i < 6; ++i) current.sa_cache.upsert(sa(0x0A010100u + i, i));
  for (std::uint32_t i = 0; i < 8; ++i) current.mbgp_routes.upsert(mbgp(i));

  for (int cycle = 0; cycle < cycles; ++cycle) {
    if (cycle > 0) {
      current.pairs.advance_derived(kCycle);
      current.routes.advance_derived(kCycle);
      current.sa_cache.advance_derived(kCycle);
      // Churn: a route flap, a rate change, an SA appearing or expiring.
      // Every upsert alters a *stable* field (the cycle number feeds it), so
      // the delta-vs-truth comparison is exact: a re-upserted row with only
      // changed derived fields would rightly be absent from the delta.
      current.routes.upsert(route(rng() % 40, 3 + cycle));
      current.pairs.upsert(pair(0x0A010100u + rng() % 12, rng() % 5,
                                static_cast<double>(cycle * 100) +
                                    static_cast<double>(rng() % 90)));
      if (rng() % 3 == 0) {
        current.sa_cache.erase(sa(0x0A010100u + rng() % 6, rng() % 6).key());
      } else {
        SaRow entry = sa(0x0A010100u + rng() % 6, rng() % 6);
        entry.via_peer =
            net::Ipv4Address(0x0A000300u + static_cast<std::uint32_t>(cycle));
        current.sa_cache.upsert(entry);
      }
      if (rng() % 4 == 0) current.mbgp_routes.upsert(mbgp(rng() % 8));
    }
    current.captured = sim::TimePoint::start() + kCycle * std::int64_t{cycle};
    history.push_back(current);
  }
  return history;
}

ArchiveCycleMeta meta_for(int cycle) {
  ArchiveCycleMeta meta;
  meta.stale = cycle % 3 == 0;
  meta.stale_tables = static_cast<std::uint32_t>(cycle % 4);
  meta.collection_failures = static_cast<std::uint32_t>(cycle % 2);
  meta.consecutive_failures = static_cast<std::uint32_t>(cycle % 5);
  meta.parse_warnings = static_cast<std::uint32_t>(cycle % 7);
  meta.capture_attempts = static_cast<std::uint64_t>(5 + cycle);
  meta.collection_latency = sim::Duration::seconds(cycle + 1);
  return meta;
}

void expect_tables_equal(const Snapshot& got, const Snapshot& want,
                         const std::string& label) {
  EXPECT_EQ(got.pairs, want.pairs) << label;
  EXPECT_EQ(got.routes, want.routes) << label;
  EXPECT_EQ(got.sa_cache, want.sa_cache) << label;
  EXPECT_EQ(got.mbgp_routes, want.mbgp_routes) << label;
}

TEST(Archive, WriteReadRoundTripAcrossKeyframesAndDeltas) {
  const std::string path = temp_path("roundtrip.marc");
  const std::vector<Snapshot> history = synth_history(13);
  ArchiveOptions options;
  options.keyframe_interval = 4;
  options.fsync_on_keyframe = false;
  {
    ArchiveWriter writer(path, options);
    for (int i = 0; i < static_cast<int>(history.size()); ++i) {
      writer.append(history[static_cast<std::size_t>(i)], meta_for(i));
    }
    EXPECT_EQ(writer.cycles_written(), history.size());
  }

  const ArchiveReader reader(path);
  EXPECT_TRUE(reader.recovery().clean);
  ASSERT_EQ(reader.size(), history.size());
  for (std::size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(reader.time_at(i), history[i].captured);
    EXPECT_EQ(reader.meta_at(i), meta_for(static_cast<int>(i)));
    const Snapshot rebuilt = reader.snapshot(i);
    expect_tables_equal(rebuilt, history[i], "cycle " + std::to_string(i));
    EXPECT_EQ(rebuilt.router_name, "fixw");
    EXPECT_EQ(rebuilt.captured, history[i].captured);
    // Derived tables are re-derived, never stored.
    EXPECT_EQ(rebuilt.participants, derive_participants(history[i].pairs));
    EXPECT_EQ(rebuilt.sessions, derive_sessions(history[i].pairs));
  }
  // Key-frames fall where the interval says.
  for (std::size_t i = 0; i < reader.size(); ++i) {
    EXPECT_EQ(reader.keyframe_at(i), i % 4 == 0) << "cycle " << i;
  }
}

TEST(Archive, StreamingIterationMatchesRandomAccess) {
  const std::string path = temp_path("foreach.marc");
  const std::vector<Snapshot> history = synth_history(9);
  ArchiveOptions options;
  options.keyframe_interval = 3;
  options.fsync_on_keyframe = false;
  {
    ArchiveWriter writer(path, options);
    for (int i = 0; i < 9; ++i) writer.append(history[static_cast<std::size_t>(i)], meta_for(i));
  }
  const ArchiveReader reader(path);
  std::size_t seen = 0;
  reader.for_each([&](std::size_t index, const Snapshot& snapshot,
                      const ArchiveCycleMeta& meta) {
    EXPECT_EQ(index, seen);
    expect_tables_equal(snapshot, history[index], "stream cycle " + std::to_string(index));
    EXPECT_EQ(meta, meta_for(static_cast<int>(index)));
    ++seen;
  });
  EXPECT_EQ(seen, 9u);
}

TEST(Archive, TruncationAtEveryByteOffsetRecoversAllCompleteCycles) {
  const std::string path = temp_path("truncate.marc");
  const std::vector<Snapshot> history = synth_history(8);
  ArchiveOptions options;
  options.keyframe_interval = 3;
  options.fsync_on_keyframe = false;

  // Record the record boundaries as we write.
  std::vector<std::uint64_t> boundaries;  // file size after header/record k
  {
    ArchiveWriter writer(path, options);
    boundaries.push_back(writer.bytes_written());  // header only
    for (int i = 0; i < 8; ++i) {
      writer.append(history[static_cast<std::size_t>(i)], meta_for(i));
      boundaries.push_back(writer.bytes_written());
    }
  }
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_EQ(bytes.size(), boundaries.back());

  const std::string truncated_path = temp_path("truncate.cut.marc");
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    {
      std::ofstream out(truncated_path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(cut));
    }
    // Complete cycles whose frame fully fits under the cut.
    std::size_t expected = 0;
    while (expected + 1 < boundaries.size() && boundaries[expected + 1] <= cut) {
      ++expected;
    }
    const ArchiveReader reader(truncated_path);
    ASSERT_EQ(reader.size(), expected) << "cut at byte " << cut;
    const bool on_boundary =
        cut == 0 || (cut >= boundaries.front() &&
                     std::find(boundaries.begin(), boundaries.end(), cut) !=
                         boundaries.end());
    EXPECT_EQ(reader.recovery().clean, on_boundary) << "cut at byte " << cut;
    if (!on_boundary) {
      EXPECT_FALSE(reader.recovery().reason.empty()) << "cut at byte " << cut;
      EXPECT_GT(reader.recovery().bytes_dropped, 0u) << "cut at byte " << cut;
    }
    // Every recovered cycle is intact, not just present.
    if (expected > 0) {
      expect_tables_equal(reader.snapshot(expected - 1), history[expected - 1],
                          "cut at byte " + std::to_string(cut));
    }
  }
  std::remove(truncated_path.c_str());
}

TEST(Archive, MidFileCorruptionDropsFromDamagePointOn) {
  const std::string path = temp_path("corrupt.marc");
  const std::vector<Snapshot> history = synth_history(6);
  ArchiveOptions options;
  options.keyframe_interval = 2;
  options.fsync_on_keyframe = false;
  std::vector<std::uint64_t> boundaries;
  {
    ArchiveWriter writer(path, options);
    boundaries.push_back(writer.bytes_written());
    for (int i = 0; i < 6; ++i) {
      writer.append(history[static_cast<std::size_t>(i)], meta_for(i));
      boundaries.push_back(writer.bytes_written());
    }
  }
  // Flip one byte inside record 3's payload.
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(static_cast<std::streamoff>(boundaries[3] + 12));
  char byte = 0;
  file.seekg(static_cast<std::streamoff>(boundaries[3] + 12));
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5A);
  file.seekp(static_cast<std::streamoff>(boundaries[3] + 12));
  file.write(&byte, 1);
  file.close();

  const ArchiveReader reader(path);
  EXPECT_EQ(reader.size(), 3u);
  EXPECT_FALSE(reader.recovery().clean);
  EXPECT_EQ(reader.recovery().reason, "crc mismatch");
  expect_tables_equal(reader.snapshot(2), history[2], "pre-damage cycle");
}

TEST(Archive, AblationFullSnapshotsReconstructIdenticallyToDeltas) {
  // Satellite: the store_deltas = false ablation (every record a key-frame)
  // must round-trip to exactly the tables the delta-encoded path yields.
  const std::vector<Snapshot> history = synth_history(11);
  const std::string delta_path = temp_path("ablate.delta.marc");
  const std::string full_path = temp_path("ablate.full.marc");
  ArchiveOptions delta_options;
  delta_options.keyframe_interval = 4;
  delta_options.fsync_on_keyframe = false;
  ArchiveOptions full_options = delta_options;
  full_options.store_deltas = false;
  {
    ArchiveWriter delta_writer(delta_path, delta_options);
    ArchiveWriter full_writer(full_path, full_options);
    for (int i = 0; i < 11; ++i) {
      delta_writer.append(history[static_cast<std::size_t>(i)], meta_for(i));
      full_writer.append(history[static_cast<std::size_t>(i)], meta_for(i));
    }
    // Deltas must actually be the smaller encoding on this churn profile.
    EXPECT_LT(delta_writer.bytes_written(), full_writer.bytes_written());
  }
  const ArchiveReader delta_reader(delta_path);
  const ArchiveReader full_reader(full_path);
  ASSERT_EQ(delta_reader.size(), full_reader.size());
  for (std::size_t i = 0; i < delta_reader.size(); ++i) {
    EXPECT_TRUE(full_reader.keyframe_at(i));
    const Snapshot from_delta = delta_reader.snapshot(i);
    const Snapshot from_full = full_reader.snapshot(i);
    expect_tables_equal(from_delta, from_full, "cycle " + std::to_string(i));
    expect_tables_equal(from_delta, history[i], "truth cycle " + std::to_string(i));
  }
}

TEST(Archive, SnapshotAtOnAndAdjacentToKeyframeBoundaries) {
  const std::string path = temp_path("boundary.marc");
  const std::vector<Snapshot> history = synth_history(12);
  ArchiveOptions options;
  options.keyframe_interval = 4;  // key-frames at cycles 0, 4, 8
  options.fsync_on_keyframe = false;
  {
    ArchiveWriter writer(path, options);
    for (const Snapshot& snapshot : history) writer.append(snapshot);
  }
  const ArchiveReader reader(path);

  // Index adjacency around each key-frame.
  for (const std::size_t keyframe : {std::size_t{4}, std::size_t{8}}) {
    ASSERT_TRUE(reader.keyframe_at(keyframe));
    expect_tables_equal(reader.snapshot(keyframe - 1), history[keyframe - 1],
                        "before key-frame");
    expect_tables_equal(reader.snapshot(keyframe), history[keyframe], "on key-frame");
    expect_tables_equal(reader.snapshot(keyframe + 1), history[keyframe + 1],
                        "after key-frame");
  }

  // Time lookup: exactly on a cycle instant, between cycles, before first.
  const sim::TimePoint on_keyframe = history[8].captured;
  expect_tables_equal(reader.snapshot_at(on_keyframe), history[8], "at instant");
  expect_tables_equal(reader.snapshot_at(on_keyframe + sim::Duration::minutes(1)),
                      history[8], "just after instant");
  expect_tables_equal(reader.snapshot_at(on_keyframe - sim::Duration::minutes(1)),
                      history[7], "just before instant");
  EXPECT_EQ(reader.index_at_or_before(history.back().captured), 11u);
  EXPECT_EQ(reader.index_at_or_before(sim::TimePoint::start()), 0u);
  EXPECT_FALSE(
      reader.index_at_or_before(sim::TimePoint::start() - sim::Duration::seconds(1))
          .has_value());
  EXPECT_THROW(
      reader.snapshot_at(sim::TimePoint::start() - sim::Duration::seconds(1)),
      std::out_of_range);
  EXPECT_EQ(reader.first_time(), history.front().captured);
  EXPECT_EQ(reader.last_time(), history.back().captured);
}

TEST(Archive, ExactKeyframeLookupDecodesExactlyOneRecord) {
  const std::string path = temp_path("boundary_decodes.marc");
  const std::vector<Snapshot> history = synth_history(12);
  ArchiveOptions options;
  options.keyframe_interval = 4;  // key-frames at cycles 0, 4, 8
  options.fsync_on_keyframe = false;
  {
    ArchiveWriter writer(path, options);
    for (const Snapshot& snapshot : history) writer.append(snapshot);
  }
  const ArchiveReader reader(path);

  // The O(1) back-pointer: every index resolves to its governing key-frame.
  for (std::size_t i = 0; i < reader.size(); ++i) {
    EXPECT_EQ(reader.keyframe_index_before(i), (i / 4) * 4) << "index " << i;
  }

  // A query landing exactly on a key-frame timestamp must decode that one
  // record — never the preceding delta run.
  for (const std::size_t keyframe : {std::size_t{0}, std::size_t{4}, std::size_t{8}}) {
    const std::uint64_t before = reader.records_decoded();
    expect_tables_equal(reader.snapshot_at(history[keyframe].captured),
                        history[keyframe], "exact key-frame instant");
    EXPECT_EQ(reader.records_decoded() - before, 1u)
        << "key-frame " << keyframe << " pulled in its delta run";
  }

  // One cycle past a key-frame costs exactly two decodes (frame + delta)...
  const std::uint64_t before_delta = reader.records_decoded();
  expect_tables_equal(reader.snapshot_at(history[5].captured), history[5],
                      "key-frame plus one delta");
  EXPECT_EQ(reader.records_decoded() - before_delta, 2u);

  // ...and the worst case is bounded by the interval, not the archive size.
  const std::uint64_t before_worst = reader.records_decoded();
  expect_tables_equal(reader.snapshot_at(history[11].captured), history[11],
                      "end of a delta run");
  EXPECT_EQ(reader.records_decoded() - before_worst, 4u);
}

TEST(Archive, CompactionRewritesKeyframesAndDropsHorizon) {
  const std::string path = temp_path("compact.in.marc");
  const std::string out_path = temp_path("compact.out.marc");
  const std::vector<Snapshot> history = synth_history(20);
  ArchiveOptions options;
  options.keyframe_interval = 2;
  options.fsync_on_keyframe = false;
  {
    ArchiveWriter writer(path, options);
    for (int i = 0; i < 20; ++i) writer.append(history[static_cast<std::size_t>(i)], meta_for(i));
  }

  CompactionOptions compaction;
  compaction.keyframe_interval = 8;
  compaction.drop_before = history[8].captured;
  const CompactionStats stats = compact_archive(path, out_path, compaction);
  EXPECT_EQ(stats.cycles_in, 20u);
  EXPECT_EQ(stats.cycles_dropped, 8u);
  EXPECT_EQ(stats.cycles_out, 12u);
  EXPECT_GT(stats.bytes_in, 0u);
  EXPECT_GT(stats.bytes_out, 0u);

  const ArchiveReader original(path);
  const ArchiveReader compacted(out_path);
  ASSERT_EQ(compacted.size(), 12u);
  for (std::size_t i = 0; i < compacted.size(); ++i) {
    EXPECT_EQ(compacted.time_at(i), history[i + 8].captured);
    EXPECT_EQ(compacted.meta_at(i), meta_for(static_cast<int>(i) + 8));
    EXPECT_EQ(compacted.keyframe_at(i), i % 8 == 0) << "cycle " << i;
    expect_tables_equal(compacted.snapshot(i), history[i + 8],
                        "compacted cycle " + std::to_string(i));
    // Stored results are copied through, never re-derived.
    EXPECT_EQ(compacted.result_at(i), original.result_at(i + 8)) << "cycle " << i;
  }
  // So the first kept cycle reports the route changes the live monitor saw
  // against the dropped cycle before it, not 0 from an empty history.
  EXPECT_GT(compacted.result_at(0).route_changes, 0u);
}

TEST(Archive, EmptyAndDamagedFiles) {
  // A freshly created archive with no cycles reads back empty and clean.
  const std::string path = temp_path("empty.marc");
  {
    ArchiveWriter writer(path);
  }
  const ArchiveReader empty(path);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.recovery().clean);
  EXPECT_THROW(static_cast<void>(empty.first_time()), std::out_of_range);
  EXPECT_THROW(static_cast<void>(empty.snapshot(0)), std::out_of_range);

  // Missing file: error.
  EXPECT_THROW({ ArchiveReader missing(temp_path("nonesuch.marc")); },
               std::runtime_error);

  // Wrong magic: error (not a torn tail — a different file format).
  const std::string garbage_path = temp_path("garbage.marc");
  {
    std::ofstream out(garbage_path, std::ios::binary);
    out << "this is not an archive";
  }
  EXPECT_THROW({ ArchiveReader garbage(garbage_path); }, std::runtime_error);

  // A file cut inside the 8-byte header holds zero recoverable cycles but
  // still opens.
  const std::string stub_path = temp_path("stub.marc");
  {
    std::ofstream out(stub_path, std::ios::binary);
    out << "MAR";
  }
  const ArchiveReader stub(stub_path);
  EXPECT_EQ(stub.size(), 0u);
  EXPECT_FALSE(stub.recovery().clean);
}

TEST(Archive, WriterRejectsBadOptionsAndClosedAppends) {
  EXPECT_THROW(
      {
        ArchiveOptions bad;
        bad.keyframe_interval = 0;
        ArchiveWriter writer(temp_path("bad.marc"), bad);
      },
      std::invalid_argument);
  ArchiveWriter writer(temp_path("closed.marc"));
  writer.close();
  EXPECT_THROW(writer.append(Snapshot{}), std::runtime_error);
}

TEST(Archive, DeltaAgainstAnyButTheLastAppendedSnapshotThrows) {
  // The result form keeps no copy of the previous cycle: the caller passes
  // it, and the writer checks that it is the snapshot appended last (time
  // and row counts) before encoding a delta against it.
  const std::string path = temp_path("delta_base.marc");
  const std::vector<Snapshot> history = synth_history(4);
  CycleCarry carry;
  std::vector<CycleResult> results;
  for (int i = 0; i < 4; ++i) {
    const Snapshot& previous = i == 0 ? Snapshot{} : history[static_cast<std::size_t>(i - 1)];
    results.push_back(
        derive_cycle(history[static_cast<std::size_t>(i)], previous, meta_for(i), carry));
  }
  ArchiveOptions options;
  options.fsync_on_keyframe = false;
  {
    ArchiveWriter writer(path, options);
    writer.append(history[0], Snapshot{}, results[0]);  // key-frame: base unread
    writer.append(history[1], history[0], results[1]);
    const std::uint64_t bytes = writer.bytes_written();

    // One cycle too old, the right time with a row too many, and the
    // snapshot being appended itself.
    Snapshot padded = history[1];
    padded.mbgp_routes.upsert(mbgp(99));
    const Snapshot* const wrong_bases[] = {&history[0], &padded, &history[2]};
    for (const Snapshot* wrong : wrong_bases) {
      EXPECT_THROW(writer.append(history[2], *wrong, results[2]), std::logic_error);
      EXPECT_EQ(writer.cycles_written(), 2u);
      EXPECT_EQ(writer.bytes_written(), bytes);
    }
    writer.append(history[2], history[1], results[2]);
    writer.append(history[3], history[2], results[3]);
  }
  const ArchiveReader reader(path);
  ASSERT_EQ(reader.size(), 4u);
  for (std::size_t i = 0; i < reader.size(); ++i) {
    EXPECT_EQ(reader.keyframe_at(i), i == 0) << "cycle " << i;
    expect_tables_equal(reader.snapshot(i), history[i], "cycle " + std::to_string(i));
    EXPECT_EQ(reader.result_at(i), results[i]) << "cycle " << i;
  }
}

// --- The acceptance run: live scenario vs offline replay -------------------

class ArchiveReplay : public ::testing::Test {
 protected:
  static workload::ScenarioConfig scenario_config() {
    workload::ScenarioConfig config;
    config.seed = 21;
    config.domains = 4;
    config.hosts_per_domain = 6;
    config.dvmrp_prefixes_per_domain = 6;
    config.report_loss = 0.02;
    config.timer_scale = 1;
    config.full_timers = true;
    config.generator.session_arrivals_per_hour = 40.0;
    config.generator.bursts_per_day = 0.0;
    return config;
  }
};

TEST_F(ArchiveReplay, FiveHundredCycleScenarioReplaysByteIdentically) {
  // Record a >= 500-cycle live run with the archive sink on, then rebuild
  // Fig 3 and Fig 7 purely from the file. The acceptance bar is byte-equal
  // to_csv output against the live series.
  workload::FixwScenario scenario(scenario_config());
  scenario.start();

  MantraConfig config;
  config.cycle = sim::Duration::minutes(1);
  config.archive_dir = temp_path("replay-archive");
  config.archive.keyframe_interval = 96;
  config.archive.fsync_on_keyframe = false;  // keep the test fast
  auto monitor = std::make_unique<Mantra>(scenario.engine(), config);
  monitor->add_target(scenario.network().router(scenario.fixw_node()));
  monitor->start();
  scenario.engine().run_until(sim::TimePoint::start() + sim::Duration::minutes(505));

  const std::vector<CycleResult> live = monitor->target_view("fixw").results();
  ASSERT_GE(live.size(), 500u);
  const ArchiveWriter* sink = monitor->target_view("fixw").archive();
  ASSERT_NE(sink, nullptr);
  EXPECT_EQ(sink->cycles_written(), live.size());
  const RouteMonitor& live_monitor = monitor->target_view("fixw").route_monitor();
  const std::uint64_t live_total_changes = live_monitor.total_changes();
  const std::size_t live_completed_routes = live_monitor.completed_route_count();
  const double live_mean_lifetime = live_monitor.mean_completed_lifetime_s();
  // Destroying the monitor closes (flushes + syncs) the archive sink; the
  // file must then be complete and clean.
  monitor.reset();

  const ArchiveReader reader(config.archive_dir + "/fixw.marc");
  EXPECT_TRUE(reader.recovery().clean);
  ASSERT_EQ(reader.size(), live.size());

  const std::uint64_t decoded_before_replay = reader.records_decoded();
  const ReplayRun replay = replay_archive(reader);
  ASSERT_EQ(replay.results.size(), live.size());
  // Replay reads the stored results; it decodes no table.
  EXPECT_EQ(reader.records_decoded(), decoded_before_replay);

  // Every field of every cycle result matches the live run exactly.
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(replay.results[i], live[i]) << "cycle " << i;
  }

  // The re-derivation check: derive_cycle with a fresh carry over every
  // record's decoded tables reproduces the stored values bit for bit.
  EXPECT_EQ(rederive::describe_differences(reader, rederive::results_of(reader)), "");

  // Fig 3 (usage counts) and Fig 7 (DVMRP routes): byte-identical CSV.
  const auto series_pair = [&](const char* name,
                               double (*extract)(const CycleResult&)) {
    const TimeSeries from_live = series_from(live, name, extract);
    const TimeSeries from_archive = series_from(replay.results, name, extract);
    EXPECT_EQ(from_live.to_csv(), from_archive.to_csv()) << name;
  };
  series_pair("sessions",
              [](const CycleResult& r) { return static_cast<double>(r.usage.sessions); });
  series_pair("participants", [](const CycleResult& r) {
    return static_cast<double>(r.usage.participants);
  });
  series_pair("active_sessions", [](const CycleResult& r) {
    return static_cast<double>(r.usage.active_sessions);
  });
  series_pair("senders",
              [](const CycleResult& r) { return static_cast<double>(r.usage.senders); });
  series_pair("dvmrp_routes", [](const CycleResult& r) {
    return static_cast<double>(r.dvmrp_valid_routes);
  });
  series_pair("route_changes", [](const CycleResult& r) {
    return static_cast<double>(r.route_changes);
  });

  // The route statistics the live monitor accumulated come back too: the
  // change total from the stored results, the lifetimes from walking the
  // archived route tables through a RouteMonitor.
  std::uint64_t replayed_changes = 0;
  for (const CycleResult& result : replay.results) replayed_changes += result.route_changes;
  EXPECT_EQ(replayed_changes, live_total_changes);
  RouteMonitor walked;
  reader.for_each([&](std::size_t, const Snapshot& tables, const ArchiveCycleMeta&) {
    walked.observe(tables.captured, tables.routes);
  });
  EXPECT_EQ(walked.total_changes(), live_total_changes);
  EXPECT_EQ(walked.completed_route_count(), live_completed_routes);
  EXPECT_DOUBLE_EQ(walked.mean_completed_lifetime_s(), live_mean_lifetime);
}

}  // namespace
}  // namespace mantra::core
