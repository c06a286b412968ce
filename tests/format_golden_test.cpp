// On-disk format goldens. The `.marc`, `.mroll` and `.mtel` bytes
// written for fixed inputs are pinned by the files under tests/golden/, and
// those files must keep decoding to the same inputs: an archive written by an
// older build stays readable, and a refactor of the framing, the record
// codecs or the sidecar envelope shows up here as a byte diff.
//
// The same files seed the damage tests of the one shared reader: every prefix
// of every golden log opens, recovers exactly the complete records under the
// cut, and reports the dropped bytes; every prefix and every single-byte flip
// of a sidecar loads as absent rather than as wrong buckets; and seeded
// random edits (flip, insert, erase, truncate, splice) never escape a reader
// or cost a record in front of the damage.
//
// Every golden `.marc` record's stored values are held to a re-derivation
// from its tables; integers out of their field's range end the log instead
// of narrowing; and seeded damage to each record, re-framed with a valid CRC
// so that it reaches the record decoder, never escapes the reader.
//
// Regenerate only for an intentional, versioned format change:
//   MANTRA_UPDATE_GOLDEN=1 ./tests/format_golden_test
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/archive.hpp"
#include "core/codec.hpp"
#include "core/query.hpp"
#include "core/teltrace.hpp"
#include "fuzz_mutate.hpp"
#include "rederive_check.hpp"

#ifndef MANTRA_GOLDEN_DIR
#error "MANTRA_GOLDEN_DIR must name tests/golden"
#endif

namespace mantra::core {
namespace {

namespace fs = std::filesystem;
using mantra::fuzz::mutate;

constexpr auto kCycle = sim::Duration::minutes(15);

fs::path golden(const std::string& name) { return fs::path(MANTRA_GOLDEN_DIR) / name; }

fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_bytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Compares a freshly written file with its golden, or refreshes the golden
/// when MANTRA_UPDATE_GOLDEN is set.
void expect_matches_golden(const fs::path& written, const std::string& name) {
  const std::string bytes = read_bytes(written);
  ASSERT_FALSE(bytes.empty()) << name;
  if (std::getenv("MANTRA_UPDATE_GOLDEN") != nullptr) {
    write_bytes(golden(name), bytes);
    return;
  }
  ASSERT_TRUE(fs::exists(golden(name))) << "missing golden " << name;
  EXPECT_EQ(bytes, read_bytes(golden(name))) << name << " bytes changed";
}

/// File offsets of the header end and of every frame end, read straight off
/// the `length:u32 crc32:u32 payload` framing shared by `.marc` and `.mtel`.
std::vector<std::uint64_t> frame_boundaries(const std::string& bytes) {
  std::vector<std::uint64_t> boundaries = {8};
  std::uint64_t pos = 8;
  while (pos + 8 <= bytes.size()) {
    std::uint32_t length = 0;
    for (int i = 0; i < 4; ++i) {
      length |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[pos + i]))
                << (8 * i);
    }
    pos += 8 + length;
    boundaries.push_back(pos);
  }
  return boundaries;
}

// --- Inputs ------------------------------------------------------------------

PairRow pair(std::uint32_t source, std::uint32_t group, double kbps) {
  PairRow row;
  row.source = net::Ipv4Address(source);
  row.group = net::Ipv4Address(0xE0020000u + group);
  row.current_kbps = kbps;
  row.average_kbps = kbps / 2;
  row.packets = source % 1000;
  return row;
}

RouteRow route(std::uint32_t net_index, int metric) {
  RouteRow row;
  row.prefix = net::Prefix(net::Ipv4Address(0x0A000000u + (net_index << 8)), 24);
  row.next_hop = net::Ipv4Address(0xC0A80002u);
  row.interface = net_index % 2 == 0 ? "tunnel0" : "Ethernet1/0";
  row.metric = metric;
  row.holddown = net_index % 5 == 0;
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
  row.prefix = net::Prefix(net::Ipv4Address(0x0A400000u + (net_index << 8)), 22);
  row.next_hop = net::Ipv4Address(192, 168, 0, 2);
  row.as_path = "3000 104 " + std::to_string(net_index);
  return row;
}

/// Ten cycles of a small router whose every table churns: adds, removals and
/// stable-field changes, with derived fields following the reconstruction
/// recurrence so decoded snapshots compare fully equal.
std::vector<Snapshot> marc_history() {
  std::vector<Snapshot> history;
  Snapshot current;
  current.router_name = "fixw";
  for (std::uint32_t i = 0; i < 12; ++i) current.routes.upsert(route(i, 3));
  for (std::uint32_t i = 0; i < 6; ++i) {
    current.pairs.upsert(pair(0x0A010100u + i, i % 3, 4.0 + i));
  }
  for (std::uint32_t i = 0; i < 4; ++i) current.sa_cache.upsert(sa(0x0A010100u + i, i));
  for (std::uint32_t i = 0; i < 3; ++i) current.mbgp_routes.upsert(mbgp(i));

  for (std::uint32_t cycle = 0; cycle < 10; ++cycle) {
    if (cycle > 0) {
      current.pairs.advance_derived(kCycle);
      current.routes.advance_derived(kCycle);
      current.sa_cache.advance_derived(kCycle);
      current.routes.upsert(route((cycle * 7) % 12, 3 + static_cast<int>(cycle)));
      current.pairs.upsert(pair(0x0A010100u + (cycle * 5) % 8, cycle % 3,
                                12.5 * cycle + 0.25));
      if (cycle % 3 == 0) {
        current.sa_cache.erase(sa(0x0A010100u + cycle % 4, cycle % 4).key());
      } else {
        SaRow entry = sa(0x0A010100u + cycle % 4, cycle % 4);
        entry.via_peer = net::Ipv4Address(0x0A000300u + cycle);
        current.sa_cache.upsert(entry);
      }
      if (cycle % 4 == 1) current.mbgp_routes.upsert(mbgp(3 + cycle));
      if (cycle == 6) current.routes.erase(route(11, 3).prefix);
    }
    current.captured = sim::TimePoint::start() + kCycle * std::int64_t{cycle};
    history.push_back(current);
  }
  return history;
}

ArchiveCycleMeta marc_meta(std::size_t cycle) {
  ArchiveCycleMeta meta;
  meta.stale = cycle % 4 == 3;
  meta.cycle_seq = cycle + 1;
  meta.stale_tables = static_cast<std::uint32_t>(cycle % 3);
  meta.collection_failures = static_cast<std::uint32_t>(cycle % 2);
  meta.consecutive_failures = static_cast<std::uint32_t>(cycle % 5);
  meta.parse_warnings = static_cast<std::uint32_t>(cycle % 7);
  meta.capture_attempts = 5 + cycle;
  meta.collection_latency =
      sim::Duration::milliseconds(1500 + 37 * static_cast<std::int64_t>(cycle));
  return meta;
}

/// Every `.mtel` codec path: a dictionary that grows mid-file, negative and
/// fractional gauges, a histogram, help upserts and removals, event tails.
TelemetrySample mtel_sample(int i) {
  TelemetrySample sample;
  sample.t_ms = static_cast<std::int64_t>(i) * 600'000;

  MetricsSnapshot& m = sample.metrics;
  m.counters.push_back({"c_total", "", static_cast<std::uint64_t>(i) * 3 + 1});
  if (i >= 5) {
    m.counters.push_back(
        {"c_total", "target=\"a b\"", static_cast<std::uint64_t>(i - 5) * 7});
  }
  m.gauges.push_back({"g", "", 0.5 * i - 7.25});
  MetricsSnapshot::HistogramSample h;
  h.name = "h";
  h.bounds = {1.0, 2.0};
  h.buckets = {static_cast<std::uint64_t>(i), static_cast<std::uint64_t>(i / 2),
               static_cast<std::uint64_t>(i / 3)};
  h.count = h.buckets[0] + h.buckets[1] + h.buckets[2];
  h.sum = 1.375 * i;
  m.histograms.push_back(std::move(h));
  m.help["c_total"] = i < 8 ? "first help text" : "upserted help text";
  if (i < 4) m.help["g"] = "transient help";

  if (i % 3 == 0) {
    TelemetryEvent event;
    event.level = EventLevel::warn;
    event.name = "tick";
    event.sim_ts_ms = sample.t_ms;
    event.seq = static_cast<std::uint64_t>(i);
    event.fields = {{"i", std::to_string(i)}, {"note", "quote \" here"}};
    sample.events.push_back(std::move(event));
  }
  return sample;
}

constexpr int kMtelSamples = 14;

/// Writes every golden file into `dir`.
void write_formats(const fs::path& dir) {
  const std::vector<Snapshot> history = marc_history();
  ArchiveOptions options;
  options.keyframe_interval = 4;
  options.fsync_on_keyframe = false;
  {
    ArchiveWriter writer((dir / "fixw.marc").string(), options);
    for (std::size_t i = 0; i < history.size(); ++i) writer.append(history[i], marc_meta(i));
  }
  CompactionOptions compaction;
  compaction.keyframe_interval = 3;
  compaction.drop_before = history[2].captured;
  compact_archive((dir / "fixw.marc").string(), (dir / "fixw_compacted.marc").string(),
                  compaction);

  TelemetryArchiveOptions telemetry_options;
  telemetry_options.keyframe_interval = 5;
  {
    TelemetryArchiveWriter writer((dir / "self.mtel").string(), telemetry_options);
    for (int i = 0; i < kMtelSamples; ++i) writer.append(mtel_sample(i));
  }
  // The same stream less its first two samples, re-keyed every 4: a file
  // whose first record is a key-frame taken mid-stream.
  telemetry_options.keyframe_interval = 4;
  {
    TelemetryArchiveWriter writer((dir / "self_compacted.mtel").string(), telemetry_options);
    for (int i = 2; i < kMtelSamples; ++i) writer.append(mtel_sample(i));
  }
}

void expect_tables_equal(const Snapshot& got, const Snapshot& want, const std::string& label) {
  EXPECT_EQ(got.pairs, want.pairs) << label;
  EXPECT_EQ(got.routes, want.routes) << label;
  EXPECT_EQ(got.sa_cache, want.sa_cache) << label;
  EXPECT_EQ(got.mbgp_routes, want.mbgp_routes) << label;
}

// --- Byte identity -----------------------------------------------------------

TEST(FormatGolden, WritersReproduceTheGoldenBytes) {
  const fs::path dir = scratch_dir("mantra_format_golden");
  write_formats(dir);
  if (std::getenv("MANTRA_UPDATE_GOLDEN") != nullptr) fs::create_directories(golden(""));
  for (const char* name : {"fixw.marc", "fixw_compacted.marc", "fixw_compacted.mroll",
                           "self.mtel", "self_compacted.mtel"}) {
    expect_matches_golden(dir / name, name);
  }
  fs::remove_all(dir);
}

// --- Old files still read ----------------------------------------------------

TEST(FormatGolden, GoldenArchivesDecodeToTheirInputs) {
  const std::vector<Snapshot> history = marc_history();
  const ArchiveReader raw(golden("fixw.marc").string());
  EXPECT_TRUE(raw.recovery().clean);
  ASSERT_EQ(raw.size(), history.size());
  for (std::size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(raw.keyframe_at(i), i % 4 == 0) << "cycle " << i;
    EXPECT_EQ(raw.meta_at(i), marc_meta(i)) << "cycle " << i;
    const Snapshot snapshot = raw.snapshot(i);
    expect_tables_equal(snapshot, history[i], "cycle " + std::to_string(i));
    EXPECT_EQ(snapshot.router_name, "fixw");
    EXPECT_EQ(snapshot.captured, history[i].captured);
  }

  const ArchiveReader compacted(golden("fixw_compacted.marc").string());
  EXPECT_TRUE(compacted.recovery().clean);
  ASSERT_EQ(compacted.size(), history.size() - 2);
  for (std::size_t i = 0; i < compacted.size(); ++i) {
    EXPECT_EQ(compacted.keyframe_at(i), i % 3 == 0) << "cycle " << i;
    expect_tables_equal(compacted.snapshot(i), history[i + 2],
                        "compacted cycle " + std::to_string(i));
  }

  // The golden sidecar is fresh for the golden archive next to it, holds
  // what a rebuild computes, and is what the engine serves coarse queries
  // from.
  const std::optional<RollupSidecar> sidecar =
      load_rollup_sidecar(golden("fixw_compacted.mroll").string());
  ASSERT_TRUE(sidecar.has_value());
  const RollupSidecar rebuilt = build_rollups(compacted);
  EXPECT_EQ(sidecar->source, fingerprint_of(compacted));
  EXPECT_EQ(sidecar->hourly, rebuilt.hourly);
  EXPECT_EQ(sidecar->daily, rebuilt.daily);
  QueryEngine engine;
  engine.add_archive("fixw", golden("fixw_compacted.marc").string());
  EXPECT_TRUE(engine.has_rollups("fixw"));
  Query query;
  query.target = "fixw";
  query.metric = QueryMetric::dvmrp_valid_routes;
  query.resolution = QueryResolution::hour;
  query.aggregate = QueryAggregate::mean;
  const QueryResult via_rollup = engine.run(query);
  EXPECT_TRUE(via_rollup.from_rollup);
  query.allow_rollup = false;
  const QueryResult via_raw = engine.run(query);
  ASSERT_EQ(via_rollup.points.size(), via_raw.points.size());
  for (std::size_t i = 0; i < via_raw.points.size(); ++i) {
    EXPECT_EQ(via_rollup.points[i].t, via_raw.points[i].t);
    EXPECT_EQ(via_rollup.points[i].value, via_raw.points[i].value);
    EXPECT_EQ(via_rollup.points[i].samples, via_raw.points[i].samples);
  }
}

TEST(FormatGolden, GoldenTelemetryDecodesToItsInputs) {
  const TelemetryArchiveReader raw(golden("self.mtel").string());
  EXPECT_TRUE(raw.recovery().clean);
  ASSERT_EQ(raw.size(), static_cast<std::size_t>(kMtelSamples));
  for (int i = 0; i < kMtelSamples; ++i) {
    EXPECT_EQ(raw.samples()[static_cast<std::size_t>(i)], mtel_sample(i)) << "sample " << i;
  }

  const TelemetryArchiveReader compacted(golden("self_compacted.mtel").string());
  EXPECT_TRUE(compacted.recovery().clean);
  ASSERT_EQ(compacted.size(), static_cast<std::size_t>(kMtelSamples - 2));
  for (std::size_t i = 0; i < compacted.size(); ++i) {
    EXPECT_EQ(compacted.samples()[i], mtel_sample(static_cast<int>(i) + 2));
  }
}

// --- Torn tails and damaged sidecars -----------------------------------------

/// Cuts `bytes` at every offset and checks what `open` recovers: exactly the
/// records whose frame fits under the cut, a clean flag only on a record
/// boundary, and the dropped byte count.
template <typename Open>
void sweep_truncations(const std::string& bytes, const fs::path& cut_path, Open open) {
  const std::vector<std::uint64_t> boundaries = frame_boundaries(bytes);
  ASSERT_EQ(boundaries.back(), bytes.size());
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    write_bytes(cut_path, bytes.substr(0, cut));
    std::size_t complete = 0;
    while (complete + 1 < boundaries.size() && boundaries[complete + 1] <= cut) ++complete;
    const bool on_boundary =
        cut == 0 || std::find(boundaries.begin(), boundaries.end(), cut) != boundaries.end();
    const auto [records, recovery, indexed_bytes] = open(cut_path.string());
    ASSERT_EQ(records, complete) << "cut at byte " << cut;
    EXPECT_EQ(recovery.clean, on_boundary) << "cut at byte " << cut;
    if (cut >= boundaries.front()) {
      EXPECT_EQ(indexed_bytes, boundaries[complete]) << "cut at byte " << cut;
      EXPECT_EQ(recovery.bytes_dropped, cut - boundaries[complete]) << "cut at byte " << cut;
    } else {
      EXPECT_EQ(recovery.bytes_dropped, cut) << "cut at byte " << cut;
    }
    EXPECT_EQ(recovery.reason.empty(), on_boundary) << "cut at byte " << cut;
  }
}

TEST(FormatGolden, EveryPrefixOfAGoldenLogRecoversItsCompleteRecords) {
  const fs::path dir = scratch_dir("mantra_format_truncate");
  sweep_truncations(read_bytes(golden("fixw.marc")), dir / "cut.marc",
                    [](const std::string& path) {
                      const ArchiveReader reader(path);
                      return std::make_tuple(reader.size(), reader.recovery(),
                                             reader.indexed_bytes());
                    });
  sweep_truncations(read_bytes(golden("self.mtel")), dir / "cut.mtel",
                    [](const std::string& path) {
                      const TelemetryArchiveReader reader(path);
                      return std::make_tuple(reader.size(), reader.recovery(),
                                             reader.indexed_bytes());
                    });
  fs::remove_all(dir);
}

std::string frame_of(const std::string& payload) {
  std::string frame;
  for (const std::uint32_t word :
       {static_cast<std::uint32_t>(payload.size()), crc32(payload.data(), payload.size())}) {
    for (int i = 0; i < 4; ++i) frame.push_back(static_cast<char>(word >> (8 * i)));
  }
  return frame + payload;
}

/// Damage the framing alone cannot see: a CRC-valid frame the record codec
/// rejects, a length field claiming 4 GiB, and a log whose first record is a
/// delta with nothing to apply it to. Each ends the log at the damaged frame
/// and names why; every record before it survives.
template <typename Open>
void expect_damage_reasons(const std::string& bytes, const fs::path& path, Open open) {
  const std::vector<std::uint64_t> boundaries = frame_boundaries(bytes);
  const std::size_t records = boundaries.size() - 1;
  const auto expect = [&](const std::string& damaged, std::size_t kept,
                          std::uint64_t indexed, const char* reason) {
    write_bytes(path, damaged);
    const auto [size, recovery, indexed_bytes] = open(path.string());
    EXPECT_EQ(size, kept) << reason;
    EXPECT_FALSE(recovery.clean) << reason;
    EXPECT_EQ(recovery.reason, reason);
    EXPECT_EQ(indexed_bytes, indexed) << reason;
    EXPECT_EQ(recovery.bytes_dropped, damaged.size() - indexed) << reason;
  };
  expect(bytes + frame_of(std::string("\x07garbage", 8)), records, bytes.size(),
         "undecodable record");
  expect(bytes + std::string(8, '\xff'), records, bytes.size(), "implausible record length");
  expect(bytes.substr(0, 8) + bytes.substr(boundaries[1]), 0, 8,
         "first record is not a key-frame");
}

TEST(FormatGolden, DamagedFramesEndTheLogWithAReason) {
  const fs::path dir = scratch_dir("mantra_format_reasons");
  expect_damage_reasons(read_bytes(golden("fixw.marc")), dir / "damaged.marc",
                        [](const std::string& path) {
                          const ArchiveReader reader(path);
                          return std::make_tuple(reader.size(), reader.recovery(),
                                                 reader.indexed_bytes());
                        });
  expect_damage_reasons(read_bytes(golden("self.mtel")), dir / "damaged.mtel",
                        [](const std::string& path) {
                          const TelemetryArchiveReader reader(path);
                          return std::make_tuple(reader.size(), reader.recovery(),
                                                 reader.indexed_bytes());
                        });
  fs::remove_all(dir);
}

/// Every strict prefix and every single-byte flip of a sidecar must load as
/// absent: the CRC frame covers the payload, the header pins magic, version
/// and length, and the file must end exactly on the frame.
template <typename Load>
void sweep_sidecar_damage(const std::string& bytes, const fs::path& path, Load load) {
  write_bytes(path, bytes);
  ASSERT_TRUE(load(path.string())) << "undamaged sidecar must load";
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    write_bytes(path, bytes.substr(0, cut));
    EXPECT_FALSE(load(path.string())) << "cut at byte " << cut;
  }
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    std::string flipped = bytes;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x41);
    write_bytes(path, flipped);
    EXPECT_FALSE(load(path.string())) << "flip at byte " << at;
  }
  write_bytes(path, bytes + '\0');
  EXPECT_FALSE(load(path.string())) << "trailing byte";
}

TEST(FormatGolden, DamagedGoldenSidecarsLoadAsAbsent) {
  const fs::path dir = scratch_dir("mantra_format_sidecar");
  sweep_sidecar_damage(read_bytes(golden("fixw_compacted.mroll")), dir / "s.mroll",
                       [](const std::string& path) {
                         return load_rollup_sidecar(path).has_value();
                       });
  fs::remove_all(dir);
}

// --- Stored values ---------------------------------------------------------------

TEST(FormatGolden, StoredValuesRederiveFromTheGoldenTables) {
  const ArchiveReader raw(golden("fixw.marc").string());
  ASSERT_EQ(raw.size(), 10u);
  EXPECT_EQ(rederive::describe_differences(raw, rederive::results_of(raw)), "");

  // Compaction copied the stored results through unchanged...
  const ArchiveReader compacted(golden("fixw_compacted.marc").string());
  ASSERT_EQ(compacted.size() + 2, raw.size());
  for (std::size_t i = 0; i < compacted.size(); ++i) {
    EXPECT_EQ(rederive::differing_fields(compacted.result_at(i), raw.result_at(i + 2)),
              std::vector<std::string>{})
        << "cycle " << i;
  }
  // ...so a fresh carry, which never saw the two dropped cycles, differs
  // only where that history counts: the first kept cycle's route changes,
  // and the spike verdicts whose baseline window held the dropped cycles.
  const std::vector<CycleResult> fresh = rederive::results_of(compacted);
  for (std::size_t i = 0; i < compacted.size(); ++i) {
    for (const std::string& field : rederive::differing_fields(compacted.result_at(i), fresh[i])) {
      EXPECT_TRUE(field == "route_spike" || field == "route_spike_score" ||
                  (i == 0 && field == "route_changes"))
          << "cycle " << i << ": " << field;
    }
  }
  EXPECT_EQ(fresh[0].route_changes, 0u);
  EXPECT_GT(compacted.result_at(0).route_changes, 0u);
  // A carry that saw the dropped cycles reproduces every field.
  CycleCarry warmed;
  Snapshot last_dropped;
  raw.for_each([&](std::size_t i, const Snapshot& tables, const ArchiveCycleMeta& meta) {
    if (i >= 2) return;
    (void)derive_cycle(tables, last_dropped, meta, warmed);
    last_dropped = tables;
  });
  EXPECT_EQ(rederive::describe_differences(
                compacted, rederive::results_of(compacted, warmed, last_dropped)),
            "");
}

TEST(FormatGolden, ArchivesOfAnotherVersionAreRejectedAtOpen) {
  const fs::path dir = scratch_dir("mantra_format_version");
  std::string bytes = read_bytes(golden("fixw.marc"));
  ASSERT_EQ(bytes[4], 3);  // the version, a little-endian u16 after the magic
  for (const char version : {1, 2, 4}) {
    bytes[4] = version;
    write_bytes(dir / "v.marc", bytes);
    try {
      const ArchiveReader reader((dir / "v.marc").string());
      ADD_FAILURE() << "version " << int{version} << " opened";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("unsupported .marc version"), std::string::npos)
          << error.what();
    }
  }
  fs::remove_all(dir);
}

/// Where one integer sits in a payload: offset and encoded length.
struct Field {
  std::size_t at = 0;
  std::size_t length = 0;
};

/// A CRC-valid record whose integer is out of its field's range is not
/// read as some other value. The metadata and stored values decode at open,
/// so the record ends the log with a reason; table rows decode on demand,
/// so reading that record's tables throws.
TEST(FormatGolden, OutOfRangeRecordIntegersAreRejectedNotNarrowed) {
  const std::string bytes = read_bytes(golden("fixw.marc"));
  const std::vector<std::uint64_t> boundaries = frame_boundaries(bytes);
  const std::size_t records = boundaries.size() - 1;
  // Record 0, a key-frame: walk it and note where the checked integers sit.
  const std::string payload = bytes.substr(boundaries[0] + 8, boundaries[1] - boundaries[0] - 8);
  codec::Cursor in{payload.data(), payload.size()};
  const auto field = [&](auto read) {
    const std::size_t at = in.pos;
    read();
    return Field{at, in.pos - at};
  };
  const auto varint = [&] { in.varint(); };
  const auto svarint = [&] { in.svarint(); };
  in.u8();  // kind
  in.svarint();  // time
  (void)in.string();  // router
  in.u8();  // stale
  in.varint();  // cycle_seq
  std::vector<std::pair<std::string, Field>> at_open;
  for (const char* name :
       {"stale_tables", "collection_failures", "consecutive_failures", "parse_warnings"}) {
    at_open.emplace_back(name, field(varint));
  }
  in.varint();  // capture_attempts
  in.svarint();  // collection_latency
  at_open.emplace_back("usage.sessions", field(varint));
  for (int i = 0; i < 9; ++i) in.varint();  // the other stored counts
  in.u8();  // spike flag
  for (int i = 0; i < 10; ++i) in.f64();  // the stored doubles
  const std::uint64_t pairs = in.varint();
  ASSERT_GT(pairs, 0u);
  const Field pair_source = field(svarint);
  in.svarint();  // group
  in.f64();
  in.f64();
  in.varint();  // packets
  in.svarint();  // uptime
  for (std::uint64_t i = 1; i < pairs; ++i) {
    for (int j = 0; j < 2; ++j) in.svarint();
    in.f64();
    in.f64();
    in.varint();
    in.svarint();
  }
  ASSERT_GT(in.varint(), 0u);  // route count
  in.svarint();  // prefix address
  in.u8();  // prefix length
  const Field next_hop = field(varint);

  const auto with = [&](const Field& f, const std::string& encoded) {
    return payload.substr(0, f.at) + encoded + payload.substr(f.at + f.length);
  };
  std::string two_to_32;
  codec::put_varint(two_to_32, std::uint64_t{1} << 32);
  std::string two_to_31;
  codec::put_varint(two_to_31, std::uint64_t{1} << 31);
  std::string signed_two_to_32;
  codec::put_svarint(signed_two_to_32, std::int64_t{1} << 32);

  const fs::path dir = scratch_dir("mantra_format_ranges");
  const fs::path path = dir / "ranges.marc";
  for (const auto& [name, f] : at_open) {
    // 2^32 overflows a 32-bit count; 2^31 overflows the int session count.
    write_bytes(path, bytes + frame_of(with(f, name == "usage.sessions" ? two_to_31 : two_to_32)));
    const ArchiveReader reader(path.string());
    EXPECT_EQ(reader.size(), records) << name;
    EXPECT_FALSE(reader.recovery().clean) << name;
    EXPECT_EQ(reader.recovery().reason, "undecodable record") << name;
    EXPECT_EQ(reader.indexed_bytes(), bytes.size()) << name;
  }
  for (const auto& [name, damaged] :
       {std::pair<std::string, std::string>{"pair source", with(pair_source, signed_two_to_32)},
        {"route next hop", with(next_hop, two_to_32)}}) {
    write_bytes(path, bytes + frame_of(damaged));
    const ArchiveReader reader(path.string());
    ASSERT_EQ(reader.size(), records + 1) << name;
    EXPECT_THROW((void)reader.snapshot(records), std::runtime_error) << name;
    expect_tables_equal(reader.snapshot(records - 1), marc_history().back(), name);
  }
  fs::remove_all(dir);
}

/// The framing's CRC is the zlib CRC-32: its check value, a chained
/// computation over a split buffer, and every length around the 8-byte
/// stride against the bit-at-a-time definition.
TEST(FormatGolden, Crc32IsTheZlibCrc) {
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
  std::string bytes;
  std::mt19937 rng(0x43524333u);
  for (int i = 0; i < 40; ++i) bytes.push_back(static_cast<char>(rng()));
  const auto reference = [](const std::string& data) {
    std::uint32_t crc = 0xFFFFFFFFu;
    for (const char byte : data) {
      crc ^= static_cast<unsigned char>(byte);
      for (int bit = 0; bit < 8; ++bit) crc = (crc & 1u) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
    }
    return crc ^ 0xFFFFFFFFu;
  };
  for (std::size_t length = 0; length <= bytes.size(); ++length) {
    const std::string data = bytes.substr(0, length);
    EXPECT_EQ(crc32(data.data(), data.size()), reference(data)) << "length " << length;
    EXPECT_EQ(crc32(data.data() + length / 3, length - length / 3,
                    crc32(data.data(), length / 3)),
              reference(data))
        << "chained at " << length / 3;
  }
}

/// A string length that runs past the payload is an overrun, never a wrap
/// of `pos + length` back inside it.
TEST(FormatGolden, CodecStringLengthPastThePayloadIsAnOverrun) {
  const auto expect_overrun = [](const std::string& payload) {
    codec::Cursor cursor{payload.data(), payload.size()};
    try {
      (void)cursor.string();
      ADD_FAILURE() << "no throw";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "codec payload overrun");
    }
  };
  const std::string tail = "abcdefgh";
  std::string huge;
  codec::put_varint(huge, ~std::uint64_t{0});
  std::string one_past;
  codec::put_varint(one_past, tail.size() + 1);
  expect_overrun(huge + tail);
  expect_overrun(one_past + tail);
  // The exact remainder still fits.
  std::string exact;
  codec::put_varint(exact, tail.size());
  exact += tail;
  codec::Cursor cursor{exact.data(), exact.size()};
  EXPECT_EQ(cursor.string(), tail);
  EXPECT_EQ(cursor.remaining(), 0u);
}

// --- Seeded mutations ----------------------------------------------------------

/// Seeded random damage to a golden log: opening it throws only when the
/// header itself was hit, every record wholly in front of the first edit is
/// recovered unchanged, and whatever else survives decodes without error.
template <typename Check>
void fuzz_log(const std::string& bytes, const fs::path& path, std::uint32_t seed, Check check) {
  const std::vector<std::uint64_t> boundaries = frame_boundaries(bytes);
  std::mt19937 rng(seed);
  for (int i = 0; i < 500; ++i) {
    const auto [damaged, first] = mutate(bytes, rng);
    write_bytes(path, damaged);
    std::size_t intact = 0;
    while (intact + 1 < boundaries.size() && boundaries[intact + 1] <= first) ++intact;
    try {
      check(path.string(), intact);
    } catch (const std::runtime_error&) {
      EXPECT_LT(first, boundaries.front()) << "iteration " << i << ": only a damaged header "
                                           << "may refuse the file";
    }
  }
}

TEST(FormatGolden, SeededMutationsNeverEscapeTheReaders) {
  const fs::path dir = scratch_dir("mantra_format_fuzz");
  const std::vector<Snapshot> history = marc_history();
  fuzz_log(read_bytes(golden("fixw.marc")), dir / "f.marc", 0x4d415243u,
           [&](const std::string& path, std::size_t intact) {
             const ArchiveReader reader(path);
             ASSERT_GE(reader.size(), intact);
             for (std::size_t i = 0; i < intact; ++i) {
               expect_tables_equal(reader.snapshot(i), history[i], "intact cycle");
               EXPECT_EQ(reader.meta_at(i), marc_meta(i));
             }
             EXPECT_NO_THROW(reader.for_each([](std::size_t, const Snapshot&,
                                                const ArchiveCycleMeta&) {}));
           });
  fuzz_log(read_bytes(golden("self.mtel")), dir / "f.mtel", 0x4d54454cu,
           [](const std::string& path, std::size_t intact) {
             const TelemetryArchiveReader reader(path);
             ASSERT_GE(reader.size(), intact);
             for (std::size_t i = 0; i < intact; ++i) {
               EXPECT_EQ(reader.samples()[i], mtel_sample(static_cast<int>(i)));
             }
           });

  // A sidecar is one CRC frame: any change at all makes it absent.
  std::mt19937 rng(0x4d524c4cu);
  const auto fuzz_sidecar = [&](const std::string& bytes, const fs::path& path,
                                const auto& load) {
    for (int i = 0; i < 500; ++i) {
      const std::string damaged = mutate(bytes, rng).first;
      write_bytes(path, damaged);
      EXPECT_EQ(load(path.string()), damaged == bytes) << "iteration " << i;
    }
  };
  fuzz_sidecar(read_bytes(golden("fixw_compacted.mroll")), dir / "f.mroll",
               [](const std::string& path) { return load_rollup_sidecar(path).has_value(); });
  fs::remove_all(dir);
}

/// Seeded damage to one record at a time, re-framed with a valid CRC so it
/// reaches the record decoder. Opening either drops the record with a reason
/// or indexes it; then the stored values, snapshot and for_each each return
/// or throw a std::exception, and every record in front of the damage reads
/// back as written.
TEST(FormatGolden, SeededRecordDamageNeverEscapesTheReader) {
  const fs::path dir = scratch_dir("mantra_format_record_fuzz");
  const fs::path path = dir / "record.marc";
  const std::string bytes = read_bytes(golden("fixw.marc"));
  const std::vector<std::uint64_t> boundaries = frame_boundaries(bytes);
  const std::vector<Snapshot> history = marc_history();
  const ArchiveReader golden_reader(golden("fixw.marc").string());
  std::mt19937 rng(0x50524a43u);
  std::size_t dropped = 0;
  std::size_t indexed = 0;
  std::size_t table_throws = 0;
  std::size_t tables_decoded = 0;
  for (std::size_t k = 0; k + 1 < boundaries.size(); ++k) {
    const std::string payload =
        bytes.substr(boundaries[k] + 8, boundaries[k + 1] - boundaries[k] - 8);
    for (int i = 0; i < 500; ++i) {
      write_bytes(path, bytes.substr(0, boundaries[k]) + frame_of(mutate(payload, rng).first));
      const std::string label = "record " + std::to_string(k) + " iteration " + std::to_string(i);
      std::optional<ArchiveReader> reader;
      try {
        reader.emplace(path.string());
      } catch (const std::exception& error) {
        ADD_FAILURE() << label << ": the header is intact, yet opening threw " << error.what();
        continue;
      }
      ASSERT_GE(reader->size(), k) << label;
      ASSERT_LE(reader->size(), k + 1) << label;
      if (reader->size() == k) {
        ++dropped;
        EXPECT_FALSE(reader->recovery().reason.empty()) << label;
        continue;
      }
      ++indexed;
      const ReplayRun run = replay_archive(*reader);
      ASSERT_EQ(run.results.size(), k + 1) << label;
      for (std::size_t j = 0; j < k; ++j) {
        EXPECT_EQ(run.results[j], golden_reader.result_at(j)) << label;
      }
      try {
        (void)reader->snapshot(k);
        ++tables_decoded;
      } catch (const std::exception&) {
        ++table_throws;
      }
      try {
        reader->for_each([](std::size_t, const Snapshot&, const ArchiveCycleMeta&) {});
      } catch (const std::exception&) {
      }
      if (k > 0) expect_tables_equal(reader->snapshot(k - 1), history[k - 1], label);
    }
  }
  // The corpus reached the decoder: some records were dropped at open, and
  // of those indexed, some tables decoded and some threw.
  EXPECT_GT(indexed, 1000u);
  EXPECT_GT(dropped, 100u);
  EXPECT_GT(tables_decoded, 100u);
  EXPECT_GT(table_throws, 100u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mantra::core
