#include "core/archive.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/codec.hpp"
#include "core/query.hpp"

namespace mantra::core {

namespace {

using codec::Cursor;
using codec::put_f64;
using codec::put_string;
using codec::put_svarint;
using codec::put_varint;

// "MARC" little-endian. Version 2 added ArchiveCycleMeta::cycle_seq (a
// varint after the stale byte); old readers reject v2 files cleanly via the
// header check.
constexpr FramedLogFormat kFormat{0x4352414Du, 2, ".marc"};

constexpr std::uint8_t kKindKeyframe = 1;
constexpr std::uint8_t kKindDelta = 2;

// --- Row codecs ------------------------------------------------------------
// Rows are visited in key order, so keys delta-encode against the previous
// row in the sequence (the paper's varint + delta trick applied at the byte
// level: consecutive sources/prefixes are numerically close).

std::int64_t delta_of(std::uint32_t value, std::uint32_t& prev) {
  const std::int64_t d = static_cast<std::int64_t>(value) - prev;
  prev = value;
  return d;
}

std::uint32_t undelta(std::int64_t d, std::uint32_t& prev) {
  // Unsigned, so a damaged difference wraps instead of overflowing; the low
  // 32 bits are the same either way.
  prev = static_cast<std::uint32_t>(prev + static_cast<std::uint64_t>(d));
  return prev;
}

struct KeyChain {
  std::uint32_t a = 0;  ///< source / prefix address
  std::uint32_t b = 0;  ///< group (pair-keyed rows only)
};

void encode_pair_key(std::string& out, const PairRow::Key& key, KeyChain& chain) {
  put_svarint(out, delta_of(key.first.value(), chain.a));
  put_svarint(out, delta_of(key.second.value(), chain.b));
}

PairRow::Key decode_pair_key(Cursor& in, KeyChain& chain) {
  const std::uint32_t source = undelta(in.svarint(), chain.a);
  const std::uint32_t group = undelta(in.svarint(), chain.b);
  return {net::Ipv4Address(source), net::Ipv4Address(group)};
}

void encode_prefix_key(std::string& out, const net::Prefix& key, KeyChain& chain) {
  put_svarint(out, delta_of(key.address().value(), chain.a));
  out.push_back(static_cast<char>(key.length()));
}

net::Prefix decode_prefix_key(Cursor& in, KeyChain& chain) {
  const std::uint32_t address = undelta(in.svarint(), chain.a);
  const int length = in.u8();
  if (length > 32) throw std::runtime_error("archive prefix length out of range");
  return net::Prefix(net::Ipv4Address(address), length);
}

void encode_row(std::string& out, const PairRow& row, KeyChain& chain) {
  encode_pair_key(out, row.key(), chain);
  put_f64(out, row.current_kbps);
  put_f64(out, row.average_kbps);
  put_varint(out, row.packets);
  put_svarint(out, row.uptime.total_ms());
}

PairRow decode_row_pair(Cursor& in, KeyChain& chain) {
  PairRow row;
  const PairRow::Key key = decode_pair_key(in, chain);
  row.source = key.first;
  row.group = key.second;
  row.current_kbps = in.f64();
  row.average_kbps = in.f64();
  row.packets = in.varint();
  row.uptime = sim::Duration::milliseconds(in.svarint());
  return row;
}

void encode_row(std::string& out, const RouteRow& row, KeyChain& chain) {
  encode_prefix_key(out, row.prefix, chain);
  put_varint(out, row.next_hop.value());
  put_string(out, row.interface);
  put_svarint(out, row.metric);
  put_svarint(out, row.uptime.total_ms());
  out.push_back(row.holddown ? 1 : 0);
}

RouteRow decode_row_route(Cursor& in, KeyChain& chain) {
  RouteRow row;
  row.prefix = decode_prefix_key(in, chain);
  row.next_hop = net::Ipv4Address(static_cast<std::uint32_t>(in.varint()));
  row.interface = in.string();
  row.metric = static_cast<int>(in.svarint());
  row.uptime = sim::Duration::milliseconds(in.svarint());
  row.holddown = in.u8() != 0;
  return row;
}

void encode_row(std::string& out, const SaRow& row, KeyChain& chain) {
  encode_pair_key(out, row.key(), chain);
  put_varint(out, row.origin_rp.value());
  put_varint(out, row.via_peer.value());
  put_svarint(out, row.age.total_ms());
}

SaRow decode_row_sa(Cursor& in, KeyChain& chain) {
  SaRow row;
  const SaRow::Key key = decode_pair_key(in, chain);
  row.source = key.first;
  row.group = key.second;
  row.origin_rp = net::Ipv4Address(static_cast<std::uint32_t>(in.varint()));
  row.via_peer = net::Ipv4Address(static_cast<std::uint32_t>(in.varint()));
  row.age = sim::Duration::milliseconds(in.svarint());
  return row;
}

void encode_row(std::string& out, const MbgpRow& row, KeyChain& chain) {
  encode_prefix_key(out, row.prefix, chain);
  put_varint(out, row.next_hop.value());
  put_string(out, row.as_path);
}

MbgpRow decode_row_mbgp(Cursor& in, KeyChain& chain) {
  MbgpRow row;
  row.prefix = decode_prefix_key(in, chain);
  row.next_hop = net::Ipv4Address(static_cast<std::uint32_t>(in.varint()));
  row.as_path = in.string();
  return row;
}

// --- Row skippers ----------------------------------------------------------
// A projected decode moves past the sections it was not asked for. Each
// skipper reads exactly the bytes its decoder reads, bounds-checked, and
// builds nothing, so every requested section starts where the full decode
// finds it. A skipper validates less than its decoder (prefix lengths are
// not range-checked), so damage in a skipped section may go unnoticed.

void skip_varints(Cursor& in, int count) {
  for (int i = 0; i < count; ++i) in.varint();
}

void skip_pair_key(Cursor& in) { skip_varints(in, 2); }

void skip_prefix_key(Cursor& in) {
  in.varint();
  in.skip(1);  // prefix length
}

void skip_row_pair(Cursor& in) {
  skip_pair_key(in);
  in.skip(16);          // current and average kbps
  skip_varints(in, 2);  // packets, uptime
}

void skip_row_route(Cursor& in) {
  skip_prefix_key(in);
  in.varint();          // next hop
  in.skip_string();     // interface
  skip_varints(in, 2);  // metric, uptime
  in.skip(1);           // holddown
}

void skip_row_sa(Cursor& in) {
  skip_pair_key(in);
  skip_varints(in, 3);  // origin RP, peer, age
}

void skip_row_mbgp(Cursor& in) {
  skip_prefix_key(in);
  in.varint();       // next hop
  in.skip_string();  // AS path
}

/// How one raw table's rows and keys are read, found by row type.
template <typename Row>
struct RowCodec;

template <>
struct RowCodec<PairRow> {
  static constexpr auto decode_row = decode_row_pair;
  static constexpr auto decode_key = decode_pair_key;
  static constexpr auto skip_row = skip_row_pair;
  static constexpr auto skip_key = skip_pair_key;
};

template <>
struct RowCodec<RouteRow> {
  static constexpr auto decode_row = decode_row_route;
  static constexpr auto decode_key = decode_prefix_key;
  static constexpr auto skip_row = skip_row_route;
  static constexpr auto skip_key = skip_prefix_key;
};

template <>
struct RowCodec<SaRow> {
  static constexpr auto decode_row = decode_row_sa;
  static constexpr auto decode_key = decode_pair_key;
  static constexpr auto skip_row = skip_row_sa;
  static constexpr auto skip_key = skip_pair_key;
};

template <>
struct RowCodec<MbgpRow> {
  static constexpr auto decode_row = decode_row_mbgp;
  static constexpr auto decode_key = decode_prefix_key;
  static constexpr auto skip_row = skip_row_mbgp;
  static constexpr auto skip_key = skip_prefix_key;
};

// --- Table / delta codecs --------------------------------------------------

template <typename Row>
void encode_table(std::string& out, const Table<Row>& table) {
  put_varint(out, table.size());
  KeyChain chain;
  table.visit([&](const Row& row) { encode_row(out, row, chain); });
}

template <typename Row, typename DecodeRow>
Table<Row> decode_table(Cursor& in, DecodeRow decode_row) {
  Table<Row> table;
  const std::uint64_t count = in.varint();
  KeyChain chain;
  for (std::uint64_t i = 0; i < count; ++i) table.upsert(decode_row(in, chain));
  return table;
}

template <typename Row, typename EncodeKey>
void encode_delta(std::string& out, const typename Table<Row>::Delta& delta,
                  EncodeKey encode_key) {
  put_varint(out, delta.upserts.size());
  KeyChain upsert_chain;
  for (const Row& row : delta.upserts) encode_row(out, row, upsert_chain);
  put_varint(out, delta.removals.size());
  KeyChain removal_chain;
  for (const auto& key : delta.removals) encode_key(out, key, removal_chain);
}

template <typename Row, typename DecodeRow, typename DecodeKey>
typename Table<Row>::Delta decode_delta(Cursor& in, DecodeRow decode_row,
                                        DecodeKey decode_key) {
  typename Table<Row>::Delta delta;
  // Every row takes at least one byte, so a damaged count cannot reserve
  // more than the payload holds.
  const std::uint64_t upserts = in.varint();
  KeyChain upsert_chain;
  delta.upserts.reserve(std::min<std::uint64_t>(upserts, in.remaining()));
  for (std::uint64_t i = 0; i < upserts; ++i) {
    delta.upserts.push_back(decode_row(in, upsert_chain));
  }
  const std::uint64_t removals = in.varint();
  KeyChain removal_chain;
  delta.removals.reserve(std::min<std::uint64_t>(removals, in.remaining()));
  for (std::uint64_t i = 0; i < removals; ++i) {
    delta.removals.push_back(decode_key(in, removal_chain));
  }
  return delta;
}

/// Reads a count and moves past that many rows (or keys).
void skip_rows(Cursor& in, void (*skip)(Cursor&)) {
  const std::uint64_t count = in.varint();
  for (std::uint64_t i = 0; i < count; ++i) skip(in);
}

/// One raw table's section of a record: a key-frame's whole table, or a
/// delta's upserts and removals. A `wanted` section replaces `table` (key-
/// frame) or rolls it forward by `dt` and applies the changes (delta); any
/// other section is skipped and `table` is left alone.
template <typename Row>
void read_section(Cursor& in, bool keyframe, bool wanted, Table<Row>& table,
                  sim::Duration dt) {
  using Codec = RowCodec<Row>;
  if (!wanted) {
    skip_rows(in, Codec::skip_row);
    if (!keyframe) skip_rows(in, Codec::skip_key);
  } else if (keyframe) {
    table = decode_table<Row>(in, Codec::decode_row);
  } else {
    // Derived fields (uptimes, averages, counters) roll forward by the
    // inter-cycle gap, then the delta overwrites the rows that actually
    // changed with exact values — the same recurrence core/log replays.
    table.advance_derived(dt);
    table.apply(decode_delta<Row>(in, Codec::decode_row, Codec::decode_key));
  }
}

// --- Record codec ----------------------------------------------------------

void encode_meta(std::string& out, const ArchiveCycleMeta& meta) {
  out.push_back(meta.stale ? 1 : 0);
  put_varint(out, meta.cycle_seq);
  put_varint(out, meta.stale_tables);
  put_varint(out, meta.collection_failures);
  put_varint(out, meta.consecutive_failures);
  put_varint(out, meta.parse_warnings);
  put_varint(out, meta.capture_attempts);
  put_svarint(out, meta.collection_latency.total_ms());
}

ArchiveCycleMeta decode_meta(Cursor& in) {
  ArchiveCycleMeta meta;
  meta.stale = in.u8() != 0;
  meta.cycle_seq = in.varint();
  meta.stale_tables = static_cast<std::uint32_t>(in.varint());
  meta.collection_failures = static_cast<std::uint32_t>(in.varint());
  meta.consecutive_failures = static_cast<std::uint32_t>(in.varint());
  meta.parse_warnings = static_cast<std::uint32_t>(in.varint());
  meta.capture_attempts = in.varint();
  meta.collection_latency = sim::Duration::milliseconds(in.svarint());
  return meta;
}

/// The fixed part every record starts with: kind, timestamp, router, meta.
struct RecordHeader {
  std::uint8_t kind = 0;
  std::int64_t t_ms = 0;
  std::string router_name;
  ArchiveCycleMeta meta;
};

RecordHeader decode_record_header(Cursor& in) {
  RecordHeader header;
  header.kind = in.u8();
  if (header.kind != kKindKeyframe && header.kind != kKindDelta) {
    throw std::runtime_error("archive record has unknown kind");
  }
  header.t_ms = in.svarint();
  header.router_name = in.string();
  header.meta = decode_meta(in);
  return header;
}

/// Validates before the writer's file is created, so bad options never
/// truncate an existing archive.
ArchiveOptions checked(ArchiveOptions options) {
  if (options.keyframe_interval < 1) {
    throw std::invalid_argument("ArchiveOptions.keyframe_interval must be >= 1");
  }
  return options;
}

}  // namespace

// --- ArchiveWriter ---------------------------------------------------------

ArchiveWriter::ArchiveWriter(std::string path, ArchiveOptions options)
    : options_(checked(options)), log_(std::move(path), kFormat) {}

ArchiveWriter::~ArchiveWriter() { close(); }

void ArchiveWriter::append(const Snapshot& snapshot, const ArchiveCycleMeta& meta) {
  const std::size_t cycle = log_.frames_written();
  const bool keyframe =
      !options_.store_deltas || !have_previous_ ||
      cycle % static_cast<std::size_t>(options_.keyframe_interval) == 0;

  std::string payload;
  payload.push_back(static_cast<char>(keyframe ? kKindKeyframe : kKindDelta));
  put_svarint(payload, snapshot.captured.total_ms());
  put_string(payload, snapshot.router_name);
  encode_meta(payload, meta);

  if (keyframe) {
    encode_table(payload, snapshot.pairs);
    encode_table(payload, snapshot.routes);
    encode_table(payload, snapshot.sa_cache);
    encode_table(payload, snapshot.mbgp_routes);
  } else {
    encode_delta<PairRow>(payload, PairTable::diff(previous_.pairs, snapshot.pairs),
                          encode_pair_key);
    encode_delta<RouteRow>(payload,
                           RouteTable::diff(previous_.routes, snapshot.routes),
                           encode_prefix_key);
    encode_delta<SaRow>(payload, SaTable::diff(previous_.sa_cache, snapshot.sa_cache),
                        encode_pair_key);
    encode_delta<MbgpRow>(
        payload, MbgpTable::diff(previous_.mbgp_routes, snapshot.mbgp_routes),
        encode_prefix_key);
  }

  const std::uint64_t frame_bytes = log_.append(payload);

  previous_.pairs = snapshot.pairs;
  previous_.routes = snapshot.routes;
  previous_.sa_cache = snapshot.sa_cache;
  previous_.mbgp_routes = snapshot.mbgp_routes;
  have_previous_ = true;

  if (telemetry_->enabled()) {
    MetricsRegistry& metrics = telemetry_->metrics();
    metrics
        .counter("mantra_archive_records_total",
                 {{"target", telemetry_label_},
                  {"kind", keyframe ? "keyframe" : "delta"}})
        .inc();
    metrics
        .counter("mantra_archive_bytes_total", {{"target", telemetry_label_}})
        .inc(frame_bytes);
    if (keyframe) {
      std::vector<std::pair<std::string, std::string>> fields = {
          {"target", telemetry_label_},
          {"cycle", std::to_string(cycle)},
          {"bytes", std::to_string(frame_bytes)}};
      if (stage_ != nullptr) {
        stage_->log(EventLevel::info, "archive_keyframe", snapshot.captured,
                    std::move(fields));
      } else {
        telemetry_->events().log(EventLevel::info, "archive_keyframe",
                                 snapshot.captured, std::move(fields));
      }
    }
  }

  if (keyframe && options_.fsync_on_keyframe) sync();
}

void ArchiveWriter::sync() {
  if (!log_.is_open()) return;
  const bool telemetry_on = telemetry_->enabled();
  const std::int64_t start_us =
      telemetry_on ? telemetry_->tracer().wall_now_us() : 0;
  log_.sync();
  if (telemetry_on) {
    MetricsRegistry& metrics = telemetry_->metrics();
    metrics.counter("mantra_archive_fsync_total", {{"target", telemetry_label_}})
        .inc();
    static const std::vector<double> fsync_buckets = {
        1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0,
    };
    metrics
        .histogram("mantra_archive_fsync_seconds", {{"target", telemetry_label_}},
                   fsync_buckets)
        .observe(static_cast<double>(telemetry_->tracer().wall_now_us() - start_us) /
                 1e6);
  }
}

void ArchiveWriter::close() {
  if (!log_.is_open()) return;
  sync();
  log_.close();
}

void ArchiveWriter::set_telemetry(Telemetry* telemetry, std::string label) {
  telemetry_ = telemetry;
  telemetry_label_ = std::move(label);
}

// --- ArchiveReader ---------------------------------------------------------

ArchiveReader::ArchiveReader(const std::string& path) {
  log_ = read_framed_log(
      path, kFormat, [this](std::string_view payload, std::uint64_t offset) -> const char* {
        Cursor cursor{payload.data(), payload.size()};
        const RecordHeader record = decode_record_header(cursor);
        const bool keyframe = record.kind == kKindKeyframe;
        // A hand-damaged file could start on a delta; there is nothing to
        // replay it against.
        if (index_.empty() && !keyframe) return "first record is not a key-frame";
        IndexEntry entry;
        entry.payload_offset = offset;
        entry.payload_size = static_cast<std::uint32_t>(payload.size());
        entry.t_ms = record.t_ms;
        entry.keyframe = keyframe;
        // Back-pointer to the governing key-frame, so random access is O(1)
        // instead of walking the delta run backwards.
        entry.last_keyframe = keyframe ? static_cast<std::uint32_t>(index_.size())
                                       : index_.back().last_keyframe;
        entry.meta = record.meta;
        index_.push_back(std::move(entry));
        return nullptr;
      });
}

sim::TimePoint ArchiveReader::time_at(std::size_t index) const {
  return sim::TimePoint::from_ms(index_.at(index).t_ms);
}

const ArchiveCycleMeta& ArchiveReader::meta_at(std::size_t index) const {
  return index_.at(index).meta;
}

bool ArchiveReader::keyframe_at(std::size_t index) const {
  return index_.at(index).keyframe;
}

sim::TimePoint ArchiveReader::first_time() const {
  if (index_.empty()) throw std::out_of_range("ArchiveReader: empty archive");
  return sim::TimePoint::from_ms(index_.front().t_ms);
}

sim::TimePoint ArchiveReader::last_time() const {
  if (index_.empty()) throw std::out_of_range("ArchiveReader: empty archive");
  return sim::TimePoint::from_ms(index_.back().t_ms);
}

std::optional<std::size_t> ArchiveReader::index_at_or_before(sim::TimePoint t) const {
  const std::int64_t t_ms = t.total_ms();
  const auto after = std::upper_bound(
      index_.begin(), index_.end(), t_ms,
      [](std::int64_t value, const IndexEntry& entry) { return value < entry.t_ms; });
  if (after == index_.begin()) return std::nullopt;
  return static_cast<std::size_t>(std::distance(index_.begin(), after)) - 1;
}

std::optional<std::size_t> ArchiveReader::index_at_or_after(sim::TimePoint t) const {
  const std::int64_t t_ms = t.total_ms();
  const auto at = std::lower_bound(
      index_.begin(), index_.end(), t_ms,
      [](const IndexEntry& entry, std::int64_t value) { return entry.t_ms < value; });
  if (at == index_.end()) return std::nullopt;
  return static_cast<std::size_t>(std::distance(index_.begin(), at));
}

std::size_t ArchiveReader::keyframe_index_before(std::size_t index) const {
  return index_.at(index).last_keyframe;
}

void ArchiveReader::apply_cycle(std::size_t index, Snapshot& state,
                                TableMask tables) const {
  if (index >= index_.size()) {
    throw std::out_of_range("ArchiveReader: cycle index out of range");
  }
  // A key-frame replaces state outright, so it needs no seed; a delta's
  // seed is the caller-provided previous cycle (the documented contract).
  bool seeded = !index_[index].keyframe;
  decode_into(index_[index], state, seeded, tables);
}

void ArchiveReader::decode_into(const IndexEntry& entry, Snapshot& state,
                                bool& seeded, TableMask tables) const {
  records_decoded_.fetch_add(1, std::memory_order_relaxed);
  Cursor cursor{log_.bytes.data() + entry.payload_offset, entry.payload_size};
  const RecordHeader header = decode_record_header(cursor);
  if (!entry.keyframe && !seeded) {
    throw std::runtime_error("archive delta before any key-frame");
  }
  const sim::Duration dt = entry.keyframe
                               ? sim::Duration{}
                               : sim::TimePoint::from_ms(header.t_ms) - state.captured;
  // Sections are stored in mask-bit order, so one past the highest
  // requested bit is never read.
  const auto section = [&](TableMask table, auto& rows) {
    if (tables < table) return;
    read_section(cursor, entry.keyframe, (tables & table) != 0, rows, dt);
  };
  section(kPairsTable, state.pairs);
  section(kRoutesTable, state.routes);
  section(kSaTable, state.sa_cache);
  section(kMbgpTable, state.mbgp_routes);
  state.router_name = header.router_name;
  state.captured = sim::TimePoint::from_ms(header.t_ms);
  seeded = true;
}

Snapshot ArchiveReader::snapshot(std::size_t index) const {
  if (index >= index_.size()) {
    throw std::out_of_range("ArchiveReader: cycle index out of range");
  }
  const std::size_t keyframe = index_[index].last_keyframe;

  Snapshot state;
  bool seeded = false;
  for (std::size_t i = keyframe; i <= index; ++i) {
    decode_into(index_[i], state, seeded);
  }
  state.participants = derive_participants(state.pairs);
  state.sessions = derive_sessions(state.pairs);
  return state;
}

Snapshot ArchiveReader::snapshot_at(sim::TimePoint t) const {
  const std::optional<std::size_t> index = index_at_or_before(t);
  if (!index) {
    throw std::out_of_range("ArchiveReader: time precedes the first archived cycle");
  }
  return snapshot(*index);
}

void ArchiveReader::for_each(
    const std::function<void(std::size_t, const Snapshot&, const ArchiveCycleMeta&)>&
        fn) const {
  Snapshot state;
  bool seeded = false;
  for (std::size_t i = 0; i < index_.size(); ++i) {
    decode_into(index_[i], state, seeded);
    fn(i, state, index_[i].meta);
  }
}

// --- Compaction ------------------------------------------------------------

CompactionStats compact_archive(const std::string& input_path,
                                const std::string& output_path,
                                CompactionOptions options) {
  const ArchiveReader reader(input_path);
  ArchiveOptions writer_options;
  writer_options.keyframe_interval = options.keyframe_interval;
  writer_options.store_deltas = options.store_deltas;
  writer_options.fsync_on_keyframe = false;  // one sync at the end is enough
  ArchiveWriter writer(output_path, writer_options);

  CompactionStats stats;
  stats.cycles_in = reader.size();
  stats.bytes_in = reader.indexed_bytes();
  RollupBuilder rollups(options.sender_threshold_kbps);
  SidecarFingerprint fingerprint;
  reader.for_each([&](std::size_t, const Snapshot& snapshot,
                      const ArchiveCycleMeta& meta) {
    if (options.drop_before && snapshot.captured < *options.drop_before) {
      ++stats.cycles_dropped;
      return;
    }
    writer.append(snapshot, meta);
    if (options.write_rollups) {
      // Rollups aggregate exactly the cycles that survive into the output,
      // so a bucket straddling drop_before is rebuilt from the kept tail.
      if (fingerprint.records == 0) fingerprint.first_ms = snapshot.captured.total_ms();
      fingerprint.last_ms = snapshot.captured.total_ms();
      ++fingerprint.records;
      rollups.observe(snapshot, meta);
    }
  });
  writer.close();
  stats.cycles_out = writer.cycles_written();
  stats.bytes_out = writer.bytes_written();
  if (options.write_rollups) {
    fingerprint.indexed_bytes = writer.bytes_written();
    const RollupSidecar sidecar = rollups.finish(fingerprint);
    stats.rollup_hour_buckets = sidecar.hourly.size();
    stats.rollup_day_buckets = sidecar.daily.size();
    stats.rollups_written =
        write_rollup_sidecar(rollup_path_for(output_path), sidecar);
  }
  return stats;
}

// --- Offline replay --------------------------------------------------------

ReplayPipeline::ReplayPipeline(ReplayOptions options)
    : options_(options),
      spike_detector_(options.spike_window, options.spike_k) {}

void ReplayPipeline::observe(const Snapshot& raw, const ArchiveCycleMeta& meta) {
  // Mirror the processing half of Mantra::run_target_cycle exactly — same
  // derivations, same statistics, same order — so a replayed CycleResult
  // is indistinguishable from the live one.
  Snapshot snapshot = raw;
  snapshot.participants =
      derive_participants(snapshot.pairs, options_.sender_threshold_kbps);
  snapshot.sessions =
      derive_sessions(snapshot.pairs, options_.sender_threshold_kbps);

  run_.route_monitor.observe(snapshot.captured, snapshot.routes);

  CycleResult result;
  result.t = snapshot.captured;
  result.usage = compute_usage(snapshot, options_.sender_threshold_kbps);
  result.dvmrp_routes = snapshot.routes.size();
  snapshot.routes.visit([&result](const RouteRow& route) {
    if (!route.holddown) ++result.dvmrp_valid_routes;
  });
  if (!run_.route_monitor.history().empty()) {
    result.route_changes = run_.route_monitor.history().back().changes;
  }
  result.sa_entries = snapshot.sa_cache.size();
  result.mbgp_routes = snapshot.mbgp_routes.size();
  result.parse_warnings = meta.parse_warnings;

  const SpikeDetector::Verdict verdict = spike_detector_.observe(
      static_cast<double>(result.dvmrp_valid_routes));
  result.route_spike = verdict.spike;
  result.route_spike_score = verdict.score;

  const DensityDistribution density =
      compute_density_distribution(snapshot.sessions);
  result.density_single_fraction = density.fraction_single_member;
  result.density_at_most_two_fraction = density.fraction_at_most_two;
  result.density_top_share_80 = density.top_session_share_for_80pct;

  result.cycle_seq = static_cast<std::size_t>(meta.cycle_seq);
  result.stale = meta.stale;
  result.stale_tables = meta.stale_tables;
  result.collection_failures = meta.collection_failures;
  result.consecutive_failures = meta.consecutive_failures;
  result.capture_attempts = meta.capture_attempts;
  result.collection_latency = meta.collection_latency;

  run_.results.push_back(result);
}

ReplayRun ReplayPipeline::finish() {
  run_.spike_regime_resets = spike_detector_.regime_resets();
  return std::move(run_);
}

ReplayRun replay_archive(const ArchiveReader& reader, ReplayOptions options) {
  ReplayPipeline pipeline(options);
  pipeline.reserve(reader.size());
  reader.for_each([&](std::size_t, const Snapshot& raw,
                      const ArchiveCycleMeta& meta) { pipeline.observe(raw, meta); });
  return pipeline.finish();
}

TimeSeries series_from(const std::vector<CycleResult>& results, std::string name,
                       const std::function<double(const CycleResult&)>& extract) {
  TimeSeries out(std::move(name));
  for (const CycleResult& result : results) out.add(result.t, extract(result));
  return out;
}

}  // namespace mantra::core
