#include "core/log.hpp"

#include <charconv>

namespace mantra::core {

namespace {

// --- Text codec ---------------------------------------------------------
// One line per row, one-letter record tags:
//   P src grp cur avg pkts uptime_ms        (pair)
//   R prefix nh iface metric uptime_ms hd   (route)
//   A src grp rp via age_ms                 (SA)
//   B prefix nh as_path                     (MBGP)
// Deltas prefix the tag with '+' (upsert) or '-' (removal, key fields only).
//
// The codec is written once against a Sink concept and instantiated twice:
// StringSink appends the actual bytes (snapshot serialization), CountingSink
// only accumulates their length. DataLogger::record needs byte *counts* —
// the serialized text is never stored — so the per-cycle ledgers run on the
// counting instantiation and the hot path writes no codec bytes at all.
// Sharing one template keeps the two instantiations equal by construction.
//
// Numeric fields must keep the exact bytes the original ostream codec
// produced: integers via to_chars (same digits as operator<<), doubles via
// "%g" (operator<< on a default-formatted stream is specified as the %g
// conversion, precision 6).

struct StringSink {
  std::string& out;
  void text(std::string_view s) { out.append(s.data(), s.size()); }
  void ch(char c) { out += c; }
  void raw(const char* data, std::size_t size) { out.append(data, size); }
  void ip(net::Ipv4Address address) { address.append_to(out); }
  void prefix(const net::Prefix& value) { value.append_to(out); }
};

struct CountingSink {
  std::size_t size = 0;
  void text(std::string_view s) { size += s.size(); }
  void ch(char) { ++size; }
  void raw(const char*, std::size_t length) { size += length; }
  void ip(net::Ipv4Address address) {
    size += 3;  // the dots
    for (int i = 0; i < 4; ++i) {
      const std::uint8_t octet = address.octet(i);
      size += octet >= 100 ? 3 : octet >= 10 ? 2 : 1;
    }
  }
  void prefix(const net::Prefix& value) {
    ip(value.address());
    size += value.length() >= 10 ? 3 : 2;  // '/' + one or two digits
  }
};

template <typename Sink, typename Int>
void append_int(Sink& sink, Int value) {
  char buffer[24];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  sink.raw(buffer, static_cast<std::size_t>(result.ptr - buffer));
}

template <typename Sink>
void append_double(Sink& sink, double value) {
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value,
                                    std::chars_format::general, 6);
  sink.raw(buffer, static_cast<std::size_t>(result.ptr - buffer));
}

template <typename Sink>
void encode(Sink& sink, const PairRow& row) {
  sink.ip(row.source);
  sink.ch(' ');
  sink.ip(row.group);
  sink.ch(' ');
  append_double(sink, row.current_kbps);
  sink.ch(' ');
  append_double(sink, row.average_kbps);
  sink.ch(' ');
  append_int(sink, row.packets);
  sink.ch(' ');
  append_int(sink, row.uptime.total_ms());
  sink.ch('\n');
}

template <typename Sink>
void encode(Sink& sink, const RouteRow& row) {
  sink.prefix(row.prefix);
  sink.ch(' ');
  sink.ip(row.next_hop);
  sink.ch(' ');
  sink.text(row.interface.empty() ? std::string_view("-")
                                  : std::string_view(row.interface));
  sink.ch(' ');
  append_int(sink, row.metric);
  sink.ch(' ');
  append_int(sink, row.uptime.total_ms());
  sink.ch(' ');
  sink.ch(row.holddown ? '1' : '0');
  sink.ch('\n');
}

template <typename Sink>
void encode(Sink& sink, const SaRow& row) {
  sink.ip(row.source);
  sink.ch(' ');
  sink.ip(row.group);
  sink.ch(' ');
  sink.ip(row.origin_rp);
  sink.ch(' ');
  sink.ip(row.via_peer);
  sink.ch(' ');
  append_int(sink, row.age.total_ms());
  sink.ch('\n');
}

template <typename Sink>
void encode(Sink& sink, const MbgpRow& row) {
  sink.prefix(row.prefix);
  sink.ch(' ');
  sink.ip(row.next_hop);
  sink.ch(' ');
  sink.text(row.as_path.empty() ? std::string_view("i")
                                : std::string_view(row.as_path));
  sink.ch('\n');
}

template <typename Sink>
void encode(Sink& sink, const ParticipantRow& row) {
  sink.ip(row.host);
  sink.ch(' ');
  append_int(sink, row.group_count);
  sink.ch(' ');
  append_double(sink, row.total_kbps);
  sink.ch(' ');
  sink.ch(row.sender ? '1' : '0');
  sink.ch(' ');
  append_int(sink, row.known_for.total_ms());
  sink.ch('\n');
}

template <typename Sink>
void encode(Sink& sink, const SessionRow& row) {
  sink.ip(row.group);
  sink.ch(' ');
  append_int(sink, row.density);
  sink.ch(' ');
  append_int(sink, row.senders);
  sink.ch(' ');
  append_double(sink, row.total_kbps);
  sink.ch(' ');
  sink.ch(row.active ? '1' : '0');
  sink.ch(' ');
  append_int(sink, row.age.total_ms());
  sink.ch('\n');
}

template <typename Sink>
void encode_key(Sink& sink, const PairRow::Key& key) {
  sink.ip(key.first);
  sink.ch(' ');
  sink.ip(key.second);
}

template <typename Sink>
void encode_key(Sink& sink, const net::Prefix& key) {
  sink.prefix(key);
}

template <typename Row, typename Sink>
void append_delta(const typename Table<Row>::Delta& delta, char tag, Sink& sink) {
  for (const Row& row : delta.upserts) {
    sink.ch('+');
    sink.ch(tag);
    sink.ch(' ');
    encode(sink, row);
  }
  for (const auto& key : delta.removals) {
    sink.ch('-');
    sink.ch(tag);
    sink.ch(' ');
    encode_key(sink, key);
    sink.ch('\n');
  }
}

template <typename Sink>
void serialize_snapshot_to(const Snapshot& snapshot, bool include_derived,
                           Sink& sink) {
  sink.text("# snapshot router=");
  sink.text(snapshot.router_name);
  sink.text(" t=");
  append_int(sink, snapshot.captured.total_ms());
  sink.ch('\n');
  snapshot.pairs.visit([&](const PairRow& row) {
    sink.text("P ");
    encode(sink, row);
  });
  snapshot.routes.visit([&](const RouteRow& row) {
    sink.text("R ");
    encode(sink, row);
  });
  snapshot.sa_cache.visit([&](const SaRow& row) {
    sink.text("A ");
    encode(sink, row);
  });
  snapshot.mbgp_routes.visit([&](const MbgpRow& row) {
    sink.text("B ");
    encode(sink, row);
  });
  if (include_derived) {
    snapshot.participants.visit([&](const ParticipantRow& row) {
      sink.text("H ");
      encode(sink, row);
    });
    snapshot.sessions.visit([&](const SessionRow& row) {
      sink.text("G ");
      encode(sink, row);
    });
  }
}

}  // namespace

void serialize_snapshot_into(const Snapshot& snapshot, bool include_derived,
                             std::string& out) {
  StringSink sink{out};
  serialize_snapshot_to(snapshot, include_derived, sink);
}

std::string serialize_snapshot(const Snapshot& snapshot, bool include_derived) {
  std::string out;
  serialize_snapshot_into(snapshot, include_derived, out);
  return out;
}

void DataLogger::record(const Snapshot& snapshot) {
  const bool keyframe =
      !config_.store_deltas || cycle_count_ == 0 ||
      (config_.full_snapshot_every > 0 &&
       cycle_count_ % static_cast<std::size_t>(config_.full_snapshot_every) == 0);

  // One counting pass covers both ledgers: the naive ledger always counts a
  // full snapshot, and on key-frames the stored ledger counts the same bytes.
  CountingSink full;
  serialize_snapshot_to(snapshot, !config_.derive_redundant, full);
  naive_bytes_ += full.size;

  if (keyframe) {
    stored_bytes_ += full.size;
  } else {
    CountingSink deltas;
    append_delta<PairRow>(PairTable::diff(previous_.pairs, snapshot.pairs), 'P', deltas);
    append_delta<RouteRow>(RouteTable::diff(previous_.routes, snapshot.routes), 'R',
                           deltas);
    append_delta<SaRow>(SaTable::diff(previous_.sa_cache, snapshot.sa_cache), 'A', deltas);
    append_delta<MbgpRow>(MbgpTable::diff(previous_.mbgp_routes, snapshot.mbgp_routes),
                          'B', deltas);
    stored_bytes_ += deltas.size + 32;  // +32: record header line
  }

  ++cycle_count_;
  // Copy-assignment (not fresh construction) so the rolling tables reuse
  // their element storage cycle over cycle.
  previous_.pairs = snapshot.pairs;
  previous_.routes = snapshot.routes;
  previous_.sa_cache = snapshot.sa_cache;
  previous_.mbgp_routes = snapshot.mbgp_routes;
}

}  // namespace mantra::core
