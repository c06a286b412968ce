// Mantra's local data format (§III "Router-Table Processor"): the four
// table kinds the paper defines — Pair, Participant, Session and Route —
// plus a generic keyed Table container with delta computation used by the
// data logger.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "net/ipv4.hpp"
#include "net/prefix.hpp"
#include "sim/time.hpp"

namespace mantra::core {

/// Generic keyed table. Row types provide `Key`, `key()`, `operator==`,
/// plus the logger's split contract:
///   * `delta_equal(a, b)` — compares only *stable* fields. Time-derived
///     fields (uptime, age, cumulative counters) change every cycle; diffing
///     on them would make every delta a full snapshot.
///   * `advance_derived(dt)` — rolls the derived fields forward by one
///     cycle, the deterministic recurrence reconstruction uses for rows that
///     did not appear in a delta. Stable fields are always exact after
///     reconstruction; derived fields are exact whenever the underlying
///     quantity followed the recurrence (constant rate within a cycle) and
///     boundedly approximate otherwise.
///
/// Storage is a flat vector kept sorted by key (it was a std::map until the
/// hot-path overhaul). Iteration order is therefore still key order —
/// every serialization, diff and derivation that walked the map sees the
/// same sequence — but a table rebuild is now an append loop into reused
/// capacity instead of a node allocation per row, and `clear()` keeps the
/// vector's capacity for the next cycle. Parsers load rows in arrival order
/// with `append()` and restore key order once with `finish_append()`, so a
/// capture in any row order costs one pass plus, when it was out of order,
/// one sort.
template <typename Row>
class Table {
 public:
  using Key = typename Row::Key;
  using const_iterator = typename std::vector<Row>::const_iterator;

  /// Inserts or replaces by key. O(1) when rows arrive in ascending key
  /// order (the decoder case); O(n) insertion otherwise.
  void upsert(Row row) {
    if (rows_.empty() || rows_.back().key() < row.key()) {
      rows_.push_back(std::move(row));
      return;
    }
    const auto it = lower_bound(row.key());
    if (it != rows_.end() && it->key() == row.key()) {
      *it = std::move(row);
    } else {
      rows_.insert(it, std::move(row));
    }
  }

  /// Bulk load: appends a row built from `args` (none: a default row) in
  /// arrival order, without keeping key order, and returns it; the
  /// reference stays valid until the next append. The table may be read
  /// again only after `finish_append()`.
  template <typename... Args>
  Row& append(Args&&... args) {
    return rows_.emplace_back(std::forward<Args>(args)...);
  }

  /// Ends a run of `append()` calls. When any row arrived out of key order,
  /// sorts once (stably) and keeps the last row of each key: the table the
  /// same rows build through `upsert()`, in O(n log n) instead of O(n^2).
  void finish_append() {
    const auto key_less = [](const Row& a, const Row& b) { return a.key() < b.key(); };
    const auto not_ascending = [&](const Row& a, const Row& b) { return !key_less(a, b); };
    if (std::adjacent_find(rows_.begin(), rows_.end(), not_ascending) == rows_.end()) return;
    std::stable_sort(rows_.begin(), rows_.end(), key_less);
    auto out = rows_.begin();
    for (auto it = rows_.begin(); it != rows_.end(); ++it) {
      const auto next = std::next(it);
      if (next != rows_.end() && !key_less(*it, *next)) continue;  // a later row wins
      if (out != it) *out = std::move(*it);
      ++out;
    }
    rows_.erase(out, rows_.end());
  }

  bool erase(const Key& key) {
    const auto it = lower_bound(key);
    if (it == rows_.end() || !(it->key() == key)) return false;
    rows_.erase(it);
    return true;
  }

  /// Drops every row but keeps the allocated capacity (reserve-and-reuse).
  void clear() { rows_.clear(); }
  void reserve(std::size_t n) { rows_.reserve(n); }
  [[nodiscard]] std::size_t capacity() const { return rows_.capacity(); }

  [[nodiscard]] const Row* find(const Key& key) const {
    const auto it = lower_bound(key);
    return it == rows_.end() || !(it->key() == key) ? nullptr : &*it;
  }

  [[nodiscard]] std::size_t size() const { return rows_.size(); }
  [[nodiscard]] bool empty() const { return rows_.empty(); }

  /// Key-ordered iteration (rows are contiguous in memory).
  [[nodiscard]] const_iterator begin() const { return rows_.begin(); }
  [[nodiscard]] const_iterator end() const { return rows_.end(); }

  /// Visits rows in key order. Template (not std::function) so the hot path
  /// pays a direct call, not a type-erased indirect one.
  template <typename Fn>
  void visit(Fn&& fn) const {
    for (const Row& row : rows_) fn(row);
  }

  [[nodiscard]] std::vector<Row> rows() const { return rows_; }

  friend bool operator==(const Table& a, const Table& b) { return a.rows_ == b.rows_; }

  /// Changes needed to turn `from` into `to`. Both vectors are key-ordered.
  struct Delta {
    std::vector<Row> upserts;
    std::vector<Key> removals;
    [[nodiscard]] bool empty() const { return upserts.empty() && removals.empty(); }
    [[nodiscard]] std::size_t change_count() const {
      return upserts.size() + removals.size();
    }
  };

  /// Batched delta: one linear merge over the two sorted row vectors (the
  /// map version did a lookup per row). Output order is unchanged — upserts
  /// in `to` key order, removals in `from` key order.
  [[nodiscard]] static Delta diff(const Table& from, const Table& to) {
    Delta delta;
    auto f = from.rows_.begin();
    auto t = to.rows_.begin();
    while (f != from.rows_.end() && t != to.rows_.end()) {
      const Key fk = f->key();
      const Key tk = t->key();
      if (fk < tk) {
        delta.removals.push_back(fk);
        ++f;
      } else if (tk < fk) {
        delta.upserts.push_back(*t);
        ++t;
      } else {
        if (!Row::delta_equal(*f, *t)) delta.upserts.push_back(*t);
        ++f;
        ++t;
      }
    }
    for (; t != to.rows_.end(); ++t) delta.upserts.push_back(*t);
    for (; f != from.rows_.end(); ++f) delta.removals.push_back(f->key());
    return delta;
  }

  void apply(const Delta& delta) {
    for (const Key& key : delta.removals) erase(key);
    for (const Row& row : delta.upserts) upsert(row);
  }

  /// Rolls every row's derived fields forward by `dt` (reconstruction step
  /// for cycles whose delta did not mention the row).
  void advance_derived(sim::Duration dt) {
    for (Row& row : rows_) row.advance_derived(dt);
  }

 private:
  [[nodiscard]] typename std::vector<Row>::iterator lower_bound(const Key& key) {
    return std::lower_bound(
        rows_.begin(), rows_.end(), key,
        [](const Row& row, const Key& k) { return row.key() < k; });
  }
  [[nodiscard]] const_iterator lower_bound(const Key& key) const {
    return std::lower_bound(
        rows_.begin(), rows_.end(), key,
        [](const Row& row, const Key& k) { return row.key() < k; });
  }

  std::vector<Row> rows_;  ///< sorted by key()
};

/// One (source, group) forwarding pair — the atom of usage monitoring.
struct PairRow {
  using Key = std::pair<net::Ipv4Address, net::Ipv4Address>;  ///< (S, G)

  net::Ipv4Address source;
  net::Ipv4Address group;
  double current_kbps = 0.0;
  double average_kbps = 0.0;
  std::uint64_t packets = 0;
  sim::Duration uptime;

  [[nodiscard]] Key key() const { return {source, group}; }
  friend bool operator==(const PairRow&, const PairRow&) = default;

  [[nodiscard]] static bool delta_equal(const PairRow& a, const PairRow& b) {
    return a.source == b.source && a.group == b.group &&
           a.current_kbps == b.current_kbps;
  }
  void advance_derived(sim::Duration dt) {
    const double up_s = uptime.total_seconds();
    const double dt_s = dt.total_seconds();
    packets += static_cast<std::uint64_t>(current_kbps * 1000.0 / 8.0 * dt_s / 512.0);
    if (up_s + dt_s > 0.0) {
      average_kbps = (average_kbps * up_s + current_kbps * dt_s) / (up_s + dt_s);
    }
    uptime += dt;
  }
};

/// One participating host (derived from the pair table: redundancy
/// avoidance means the logger never stores this table).
struct ParticipantRow {
  using Key = net::Ipv4Address;

  net::Ipv4Address host;
  std::string hostname;       ///< reverse lookup when available
  int group_count = 0;        ///< sessions this host participates in
  double total_kbps = 0.0;    ///< aggregate send rate across groups
  bool sender = false;        ///< above the classification threshold
  sim::Duration known_for;    ///< longest uptime over its pairs

  [[nodiscard]] Key key() const { return host; }
  friend bool operator==(const ParticipantRow&, const ParticipantRow&) = default;
  [[nodiscard]] static bool delta_equal(const ParticipantRow& a,
                                        const ParticipantRow& b) {
    return a.host == b.host && a.group_count == b.group_count &&
           a.total_kbps == b.total_kbps && a.sender == b.sender;
  }
  void advance_derived(sim::Duration dt) { known_for += dt; }
};

/// One multicast session (also derived from the pair table).
struct SessionRow {
  using Key = net::Ipv4Address;

  net::Ipv4Address group;
  std::string name;           ///< SAP-announced name when available
  int density = 0;            ///< participant count
  int senders = 0;            ///< participants above threshold
  double total_kbps = 0.0;
  bool active = false;        ///< has at least one sender
  sim::Duration age;          ///< oldest pair uptime

  [[nodiscard]] Key key() const { return group; }
  friend bool operator==(const SessionRow&, const SessionRow&) = default;
  [[nodiscard]] static bool delta_equal(const SessionRow& a, const SessionRow& b) {
    return a.group == b.group && a.density == b.density && a.senders == b.senders &&
           a.total_kbps == b.total_kbps && a.active == b.active;
  }
  void advance_derived(sim::Duration dt) { age += dt; }
};

/// One DVMRP route (Figs 7-9).
struct RouteRow {
  using Key = net::Prefix;

  net::Prefix prefix;
  net::Ipv4Address next_hop;
  std::string interface;
  int metric = 0;
  sim::Duration uptime;
  bool holddown = false;

  [[nodiscard]] Key key() const { return prefix; }
  friend bool operator==(const RouteRow&, const RouteRow&) = default;
  [[nodiscard]] static bool delta_equal(const RouteRow& a, const RouteRow& b) {
    return a.prefix == b.prefix && a.next_hop == b.next_hop &&
           a.interface == b.interface && a.metric == b.metric &&
           a.holddown == b.holddown;
  }
  void advance_derived(sim::Duration dt) { uptime += dt; }
};

/// One MSDP Source-Active cache entry (the "next-generation protocol"
/// monitoring the paper's title promises; no MIB exists, so text scraping
/// is the only way to see this state).
struct SaRow {
  using Key = std::pair<net::Ipv4Address, net::Ipv4Address>;  ///< (S, G)

  net::Ipv4Address source;
  net::Ipv4Address group;
  net::Ipv4Address origin_rp;
  net::Ipv4Address via_peer;  ///< unspecified when locally originated
  sim::Duration age;

  [[nodiscard]] Key key() const { return {source, group}; }
  friend bool operator==(const SaRow&, const SaRow&) = default;
  [[nodiscard]] static bool delta_equal(const SaRow& a, const SaRow& b) {
    return a.source == b.source && a.group == b.group &&
           a.origin_rp == b.origin_rp && a.via_peer == b.via_peer;
  }
  void advance_derived(sim::Duration dt) { age += dt; }
};

/// One MBGP Loc-RIB route.
struct MbgpRow {
  using Key = net::Prefix;

  net::Prefix prefix;
  net::Ipv4Address next_hop;
  std::string as_path;

  [[nodiscard]] Key key() const { return prefix; }
  friend bool operator==(const MbgpRow&, const MbgpRow&) = default;
  [[nodiscard]] static bool delta_equal(const MbgpRow& a, const MbgpRow& b) {
    return a == b;
  }
  void advance_derived(sim::Duration) {}
};

using PairTable = Table<PairRow>;
using ParticipantTable = Table<ParticipantRow>;
using SessionTable = Table<SessionRow>;
using RouteTable = Table<RouteRow>;
using SaTable = Table<SaRow>;
using MbgpTable = Table<MbgpRow>;

/// Everything Mantra holds for one router after one monitoring cycle.
struct Snapshot {
  std::string router_name;
  sim::TimePoint captured;
  PairTable pairs;
  RouteTable routes;
  SaTable sa_cache;
  MbgpTable mbgp_routes;
  // Derived (never logged; reconstruct with derive_* below):
  ParticipantTable participants;
  SessionTable sessions;
};

/// The paper's sender-classification threshold (§IV-B): participants above
/// 4 kbps are senders, sessions with a sender are active.
inline constexpr double kSenderThresholdKbps = 4.0;

/// Derives the participant table from the pair table (redundancy
/// avoidance, §III "Data Logger").
[[nodiscard]] ParticipantTable derive_participants(
    const PairTable& pairs, double threshold_kbps = kSenderThresholdKbps);

/// Derives the session table from the pair table.
[[nodiscard]] SessionTable derive_sessions(
    const PairTable& pairs, double threshold_kbps = kSenderThresholdKbps);

/// Reserve-and-reuse variants: derive into a caller-owned table whose
/// capacity survives across cycles (out is cleared first). The hot path
/// (core/mantra's run_target_cycle) uses these so a steady-state cycle
/// allocates nothing for the derived tables.
void derive_participants_into(const PairTable& pairs, double threshold_kbps,
                              ParticipantTable& out);
void derive_sessions_into(const PairTable& pairs, double threshold_kbps,
                          SessionTable& out);

}  // namespace mantra::core
