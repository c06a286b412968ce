#include "core/archive.hpp"

#include <algorithm>
#include <limits>
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
// varint after the stale byte); version 3 stores each cycle's derived
// values after the metadata. The header check rejects every other version.
constexpr FramedLogFormat kFormat{0x4352414Du, 3, ".marc"};

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
  // A damaged difference would land outside 32 bits: reject it rather than
  // wrap it into some other address.
  if (d < -static_cast<std::int64_t>(prev) ||
      d > static_cast<std::int64_t>(std::numeric_limits<std::uint32_t>::max() - prev)) {
    throw std::runtime_error("archive address out of range");
  }
  prev = static_cast<std::uint32_t>(prev + d);
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
  row.next_hop = net::Ipv4Address(in.varint_as<std::uint32_t>());
  row.interface = in.string();
  row.metric = in.svarint_as<int>();
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
  row.origin_rp = net::Ipv4Address(in.varint_as<std::uint32_t>());
  row.via_peer = net::Ipv4Address(in.varint_as<std::uint32_t>());
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
  row.next_hop = net::Ipv4Address(in.varint_as<std::uint32_t>());
  row.as_path = in.string();
  return row;
}

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

/// One raw table's section of a record: a key-frame's whole table replaces
/// `table`; a delta rolls it forward by `dt` and applies the changes.
template <typename Row, typename DecodeRow, typename DecodeKey>
void read_section(Cursor& in, bool keyframe, Table<Row>& table, sim::Duration dt,
                  DecodeRow decode_row, DecodeKey decode_key) {
  if (keyframe) {
    table = decode_table<Row>(in, decode_row);
  } else {
    // Derived fields (uptimes, averages, counters) roll forward by the
    // inter-cycle gap, then the delta overwrites the rows that actually
    // changed with exact values.
    table.advance_derived(dt);
    table.apply(decode_delta<Row>(in, decode_row, decode_key));
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
  meta.stale_tables = in.varint_as<std::uint32_t>();
  meta.collection_failures = in.varint_as<std::uint32_t>();
  meta.consecutive_failures = in.varint_as<std::uint32_t>();
  meta.parse_warnings = in.varint_as<std::uint32_t>();
  meta.capture_attempts = in.varint();
  meta.collection_latency = sim::Duration::milliseconds(in.svarint());
  return meta;
}

/// The derived values of a CycleResult, after the metadata: counts as
/// varints, then the spike flag, then doubles as raw bits.
void encode_values(std::string& out, const CycleResult& result) {
  const UsageStats& u = result.usage;
  for (const int count : {u.sessions, u.participants, u.active_sessions, u.senders,
                          u.single_member_sessions}) {
    put_varint(out, static_cast<std::uint64_t>(count));
  }
  for (const std::size_t count : {result.dvmrp_routes, result.dvmrp_valid_routes,
                                  result.route_changes, result.sa_entries,
                                  result.mbgp_routes}) {
    put_varint(out, count);
  }
  out.push_back(result.route_spike ? 1 : 0);
  for (const double value :
       {u.avg_density, u.bandwidth_kbps, u.unicast_equivalent_kbps, u.saved_multiple,
        u.pct_sessions_active, u.pct_participants_senders, result.route_spike_score,
        result.density_single_fraction, result.density_at_most_two_fraction,
        result.density_top_share_80}) {
    put_f64(out, value);
  }
}

void decode_values(Cursor& in, CycleResult& result) {
  UsageStats& u = result.usage;
  for (int* count : {&u.sessions, &u.participants, &u.active_sessions, &u.senders,
                     &u.single_member_sessions}) {
    *count = in.varint_as<int>();
  }
  for (std::size_t* count : {&result.dvmrp_routes, &result.dvmrp_valid_routes,
                             &result.route_changes, &result.sa_entries,
                             &result.mbgp_routes}) {
    *count = in.varint_as<std::size_t>();
  }
  result.route_spike = in.u8() != 0;
  for (double* value :
       {&u.avg_density, &u.bandwidth_kbps, &u.unicast_equivalent_kbps, &u.saved_multiple,
        &u.pct_sessions_active, &u.pct_participants_senders, &result.route_spike_score,
        &result.density_single_fraction, &result.density_at_most_two_fraction,
        &result.density_top_share_80}) {
    *value = in.f64();
  }
}

/// What every record starts with: kind, capture time, router name.
struct RecordPrefix {
  bool keyframe = false;
  std::int64_t t_ms = 0;
  std::string router_name;
};

RecordPrefix decode_record_prefix(Cursor& in) {
  RecordPrefix prefix;
  const std::uint8_t kind = in.u8();
  if (kind != kKindKeyframe && kind != kKindDelta) {
    throw std::runtime_error("archive record has unknown kind");
  }
  prefix.keyframe = kind == kKindKeyframe;
  prefix.t_ms = in.svarint();
  prefix.router_name = in.string();
  return prefix;
}

/// Validates before the writer's file is created, so bad options never
/// truncate an existing archive.
ArchiveOptions checked(ArchiveOptions options) {
  if (options.keyframe_interval < 1) {
    throw std::invalid_argument("ArchiveOptions.keyframe_interval must be >= 1");
  }
  return options;
}

/// Copies what a delta is taken against: the time and the four raw tables
/// (the derived tables are never encoded).
void copy_raw_tables(const Snapshot& from, Snapshot& to) {
  to.captured = from.captured;
  to.pairs = from.pairs;
  to.routes = from.routes;
  to.sa_cache = from.sa_cache;
  to.mbgp_routes = from.mbgp_routes;
}

}  // namespace

// --- ArchiveWriter ---------------------------------------------------------

ArchiveWriter::RecordShape ArchiveWriter::RecordShape::of(const Snapshot& snapshot) {
  return {snapshot.captured, snapshot.pairs.size(), snapshot.routes.size(),
          snapshot.sa_cache.size(), snapshot.mbgp_routes.size()};
}

ArchiveWriter::ArchiveWriter(std::string path, ArchiveOptions options)
    : options_(checked(options)), log_(std::move(path), kFormat) {}

ArchiveWriter::~ArchiveWriter() { close(); }

void ArchiveWriter::append(const Snapshot& snapshot, const ArchiveCycleMeta& meta) {
  if (!self_derived_) self_derived_ = std::make_unique<SelfDerived>();
  SelfDerived& own = *self_derived_;
  append(snapshot, own.previous, derive_cycle(snapshot, own.previous, meta, own.carry));
  copy_raw_tables(snapshot, own.previous);
}

void ArchiveWriter::append(const Snapshot& snapshot, const Snapshot& previous,
                           const CycleResult& result) {
  const std::size_t cycle = log_.frames_written();
  const bool keyframe =
      !options_.store_deltas || !last_ ||
      cycle % static_cast<std::size_t>(options_.keyframe_interval) == 0;
  if (!keyframe && RecordShape::of(previous) != *last_) {
    throw std::logic_error(
        "ArchiveWriter::append: the delta base is not the last appended snapshot");
  }

  std::string payload;
  payload.push_back(static_cast<char>(keyframe ? kKindKeyframe : kKindDelta));
  put_svarint(payload, snapshot.captured.total_ms());
  put_string(payload, snapshot.router_name);
  encode_meta(payload, cycle_meta(result));
  encode_values(payload, result);

  if (keyframe) {
    encode_table(payload, snapshot.pairs);
    encode_table(payload, snapshot.routes);
    encode_table(payload, snapshot.sa_cache);
    encode_table(payload, snapshot.mbgp_routes);
  } else {
    encode_delta<PairRow>(payload, PairTable::diff(previous.pairs, snapshot.pairs),
                          encode_pair_key);
    encode_delta<RouteRow>(payload,
                           RouteTable::diff(previous.routes, snapshot.routes),
                           encode_prefix_key);
    encode_delta<SaRow>(payload, SaTable::diff(previous.sa_cache, snapshot.sa_cache),
                        encode_pair_key);
    encode_delta<MbgpRow>(
        payload, MbgpTable::diff(previous.mbgp_routes, snapshot.mbgp_routes),
        encode_prefix_key);
  }

  const std::uint64_t frame_bytes = log_.append(payload);
  last_ = RecordShape::of(snapshot);

  if (telemetry_->enabled()) {
    MetricsRegistry& metrics = telemetry_->metrics();
    cached(handles_.records[keyframe ? 0 : 1], [&] {
      return &metrics.counter("mantra_archive_records_total",
                              {{"target", telemetry_label_},
                               {"kind", keyframe ? "keyframe" : "delta"}});
    }).inc();
    cached(handles_.bytes, [&] {
      return &metrics.counter("mantra_archive_bytes_total",
                              {{"target", telemetry_label_}});
    }).inc(frame_bytes);
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
    cached(handles_.fsyncs, [&] {
      return &metrics.counter("mantra_archive_fsync_total",
                              {{"target", telemetry_label_}});
    }).inc();
    static const std::vector<double> fsync_buckets = {
        1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0,
    };
    cached(handles_.fsync_seconds, [&] {
      return &metrics.histogram("mantra_archive_fsync_seconds",
                                {{"target", telemetry_label_}}, fsync_buckets);
    }).observe(static_cast<double>(telemetry_->tracer().wall_now_us() - start_us) /
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
  handles_ = Handles{};
}

// --- ArchiveReader ---------------------------------------------------------

ArchiveReader::ArchiveReader(const std::string& path) {
  log_ = read_framed_log(
      path, kFormat, [this](std::string_view payload, std::uint64_t offset) -> const char* {
        Cursor cursor{payload.data(), payload.size()};
        const RecordPrefix prefix = decode_record_prefix(cursor);
        // A hand-damaged file could start on a delta; there is nothing to
        // replay it against.
        if (index_.empty() && !prefix.keyframe) return "first record is not a key-frame";
        IndexEntry entry;
        entry.payload_offset = offset;
        entry.payload_size = static_cast<std::uint32_t>(payload.size());
        entry.keyframe = prefix.keyframe;
        // Back-pointer to the governing key-frame, so random access is O(1)
        // instead of walking the delta run backwards.
        entry.last_keyframe = prefix.keyframe ? static_cast<std::uint32_t>(index_.size())
                                              : index_.back().last_keyframe;
        entry.result.t = sim::TimePoint::from_ms(prefix.t_ms);
        set_cycle_meta(entry.result, decode_meta(cursor));
        decode_values(cursor, entry.result);
        entry.tables_offset = static_cast<std::uint32_t>(cursor.pos);
        index_.push_back(std::move(entry));
        return nullptr;
      });
}

sim::TimePoint ArchiveReader::time_at(std::size_t index) const {
  return index_.at(index).result.t;
}

ArchiveCycleMeta ArchiveReader::meta_at(std::size_t index) const {
  return cycle_meta(index_.at(index).result);
}

const CycleResult& ArchiveReader::result_at(std::size_t index) const {
  return index_.at(index).result;
}

bool ArchiveReader::keyframe_at(std::size_t index) const {
  return index_.at(index).keyframe;
}

sim::TimePoint ArchiveReader::first_time() const {
  if (index_.empty()) throw std::out_of_range("ArchiveReader: empty archive");
  return index_.front().result.t;
}

sim::TimePoint ArchiveReader::last_time() const {
  if (index_.empty()) throw std::out_of_range("ArchiveReader: empty archive");
  return index_.back().result.t;
}

std::optional<std::size_t> ArchiveReader::index_at_or_before(sim::TimePoint t) const {
  const auto after = std::upper_bound(
      index_.begin(), index_.end(), t,
      [](sim::TimePoint value, const IndexEntry& entry) { return value < entry.result.t; });
  if (after == index_.begin()) return std::nullopt;
  return static_cast<std::size_t>(std::distance(index_.begin(), after)) - 1;
}

std::optional<std::size_t> ArchiveReader::index_at_or_after(sim::TimePoint t) const {
  const auto at = std::lower_bound(
      index_.begin(), index_.end(), t,
      [](const IndexEntry& entry, sim::TimePoint value) { return entry.result.t < value; });
  if (at == index_.end()) return std::nullopt;
  return static_cast<std::size_t>(std::distance(index_.begin(), at));
}

std::size_t ArchiveReader::keyframe_index_before(std::size_t index) const {
  return index_.at(index).last_keyframe;
}

void ArchiveReader::apply_cycle(std::size_t index, Snapshot& state) const {
  const IndexEntry& entry = index_.at(index);
  records_decoded_.fetch_add(1, std::memory_order_relaxed);
  Cursor cursor{log_.bytes.data() + entry.payload_offset, entry.payload_size};
  RecordPrefix prefix = decode_record_prefix(cursor);
  cursor.pos = entry.tables_offset;  // the metadata and values live in the index
  const sim::Duration dt = entry.keyframe ? sim::Duration{} : entry.result.t - state.captured;
  read_section(cursor, entry.keyframe, state.pairs, dt, decode_row_pair, decode_pair_key);
  read_section(cursor, entry.keyframe, state.routes, dt, decode_row_route, decode_prefix_key);
  read_section(cursor, entry.keyframe, state.sa_cache, dt, decode_row_sa, decode_pair_key);
  read_section(cursor, entry.keyframe, state.mbgp_routes, dt, decode_row_mbgp,
               decode_prefix_key);
  state.router_name = std::move(prefix.router_name);
  state.captured = entry.result.t;
}

Snapshot ArchiveReader::snapshot(std::size_t index) const {
  Snapshot state;
  for (std::size_t i = keyframe_index_before(index); i <= index; ++i) apply_cycle(i, state);
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
  for (std::size_t i = 0; i < index_.size(); ++i) {
    apply_cycle(i, state);
    fn(i, state, cycle_meta(index_[i].result));
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
  RollupBuilder rollups;
  SidecarFingerprint fingerprint;
  // The writer's delta base: for_each reuses its snapshot, so the last kept
  // cycle's tables need a copy of their own.
  Snapshot previous;
  reader.for_each([&](std::size_t index, const Snapshot& snapshot, const ArchiveCycleMeta&) {
    if (options.drop_before && snapshot.captured < *options.drop_before) {
      ++stats.cycles_dropped;
      return;
    }
    // The stored answer is copied through, never re-derived: the first kept
    // cycle keeps the route_changes and spike verdict the live monitor saw.
    const CycleResult& result = reader.result_at(index);
    writer.append(snapshot, previous, result);
    copy_raw_tables(snapshot, previous);
    if (options.write_rollups) {
      // Rollups aggregate exactly the cycles that survive into the output,
      // so a bucket straddling drop_before is rebuilt from the kept tail.
      if (fingerprint.records == 0) fingerprint.first_ms = snapshot.captured.total_ms();
      fingerprint.last_ms = snapshot.captured.total_ms();
      ++fingerprint.records;
      rollups.observe(result);
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

ReplayRun replay_archive(const ArchiveReader& reader) {
  ReplayRun run;
  run.results.reserve(reader.size());
  for (std::size_t i = 0; i < reader.size(); ++i) run.results.push_back(reader.result_at(i));
  return run;
}

TimeSeries series_from(const std::vector<CycleResult>& results, std::string name,
                       const std::function<double(const CycleResult&)>& extract) {
  TimeSeries out(std::move(name));
  for (const CycleResult& result : results) out.add(result.t, extract(result));
  return out;
}

}  // namespace mantra::core
