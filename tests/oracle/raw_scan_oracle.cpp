// The raw-resolution scan of QueryEngine as it stood before records stored
// their derived values and before table projection: its metric extractors,
// `fetch_block` and `run_raw`, which derive every metric from the decoded
// tables. Test-only; the raw-scan tests hold the engine's index walk to
// exactly these points.
//
// Only the packaging changed: the two member functions live on a small
// OracleEngine that borrows a BlockCache and holds the sender threshold,
// `Source` carries just the id and the reader, full_decode_raw_scan does
// QueryEngine::run's window check before calling run_raw, and the key-frame
// cache is no longer counted in QueryResult. `apply_cycle(index, state)` is
// the reader's all-tables decode, which is the full decode this scan always
// did.
#include "oracle/raw_scan_oracle.hpp"

#include <memory>
#include <optional>
#include <utility>

namespace mantra::oracle {

using namespace core;

namespace {

double sum_pair_kbps(const PairTable& pairs) {
  double total = 0.0;
  pairs.visit([&](const PairRow& pair) { total += pair.current_kbps; });
  return total;
}

std::size_t count_active_sessions(const SessionTable& sessions) {
  std::size_t active = 0;
  sessions.visit([&](const SessionRow& session) {
    if (session.active) ++active;
  });
  return active;
}

double unicast_equivalent(const SessionTable& sessions) {
  double total = 0.0;
  sessions.visit([&](const SessionRow& session) {
    if (session.active) total += session.density * session.total_kbps;
  });
  return total;
}

std::size_t count_senders(const ParticipantTable& participants) {
  std::size_t senders = 0;
  participants.visit([&](const ParticipantRow& participant) {
    if (participant.sender) ++senders;
  });
  return senders;
}

std::size_t count_valid_routes(const RouteTable& routes) {
  std::size_t valid = 0;
  routes.visit([&](const RouteRow& route) {
    if (!route.holddown) ++valid;
  });
  return valid;
}

bool needs_sessions(QueryMetric metric) {
  return metric == QueryMetric::sessions ||
         metric == QueryMetric::active_sessions ||
         metric == QueryMetric::unicast_equivalent_kbps;
}

bool needs_participants(QueryMetric metric) {
  return metric == QueryMetric::participants || metric == QueryMetric::senders;
}

/// One metric for one cycle. `sessions`/`participants` are consulted only
/// for the metrics that need them (pass empty tables otherwise);
/// `route_changes` is the precomputed diff count against the previous cycle.
double metric_value(QueryMetric metric, const Snapshot& raw,
                    const ArchiveCycleMeta& meta, const SessionTable& sessions,
                    const ParticipantTable& participants,
                    std::size_t route_changes) {
  switch (metric) {
    case QueryMetric::sessions:
      return static_cast<double>(sessions.size());
    case QueryMetric::participants:
      return static_cast<double>(participants.size());
    case QueryMetric::active_sessions:
      return static_cast<double>(count_active_sessions(sessions));
    case QueryMetric::senders:
      return static_cast<double>(count_senders(participants));
    case QueryMetric::bandwidth_kbps:
      return sum_pair_kbps(raw.pairs);
    case QueryMetric::unicast_equivalent_kbps:
      return unicast_equivalent(sessions);
    case QueryMetric::dvmrp_routes:
      return static_cast<double>(raw.routes.size());
    case QueryMetric::dvmrp_valid_routes:
      return static_cast<double>(count_valid_routes(raw.routes));
    case QueryMetric::route_changes:
      return static_cast<double>(route_changes);
    case QueryMetric::sa_entries:
      return static_cast<double>(raw.sa_cache.size());
    case QueryMetric::mbgp_routes:
      return static_cast<double>(raw.mbgp_routes.size());
    case QueryMetric::parse_warnings:
      return static_cast<double>(meta.parse_warnings);
    case QueryMetric::stale:
      return meta.stale ? 1.0 : 0.0;
    case QueryMetric::collection_failures:
      return static_cast<double>(meta.collection_failures);
    case QueryMetric::collection_latency_ms:
      return static_cast<double>(meta.collection_latency.total_ms());
  }
  return 0.0;  // unreachable: the switch is exhaustive
}

/// The engine state the copied member functions read.
struct Source {
  std::uint32_t id = 0;
  const ArchiveReader* reader = nullptr;
};

class OracleEngine {
 public:
  OracleEngine(BlockCache& cache, double sender_threshold_kbps)
      : cache_(cache), sender_threshold_kbps_(sender_threshold_kbps) {}

  [[nodiscard]] QueryResult run_raw(const Source& source, const Query& query,
                                    const QueryWindow& window) const;

 private:
  void fetch_block(const Source& source, std::size_t index, Snapshot& state,
                   QueryResult& result) const;

  BlockCache& cache_;
  double sender_threshold_kbps_;
};

void OracleEngine::fetch_block(const Source& source, std::size_t index,
                               Snapshot& state, QueryResult& result) const {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(source.id) << 32) | index;
  if (std::shared_ptr<const Snapshot> cached = cache_.get(key)) {
    state = *cached;
    return;
  }
  source.reader->apply_cycle(index, state);
  ++result.records_decoded;
  // Cache the raw tables only: derived tables are re-derived per metric, and
  // stripping them keeps the byte budget honest.
  Snapshot block = state;
  block.participants.clear();
  block.sessions.clear();
  cache_.insert(key, std::move(block));
}

QueryResult OracleEngine::run_raw(const Source& source, const Query& query,
                                  const QueryWindow& window) const {
  const ArchiveReader& reader = *source.reader;
  QueryResult result;
  const std::optional<std::size_t> first =
      reader.index_at_or_after(sim::TimePoint::from_ms(window.from_ms));
  if (!first) return result;
  const std::optional<std::size_t> last =
      reader.index_at_or_before(sim::TimePoint::from_ms(window.to_ms));
  if (!last || *last < *first) return result;

  const bool track_routes = query.metric == QueryMetric::route_changes;
  // route_changes at cycle i diffs against cycle i-1, so the scan must have
  // materialized the predecessor: start one cycle early when it exists.
  const std::size_t first_needed =
      track_routes && *first > 0 ? *first - 1 : *first;
  const std::size_t start = reader.keyframe_index_before(first_needed);

  const bool want_sessions = needs_sessions(query.metric);
  const bool want_participants = needs_participants(query.metric);
  Snapshot state;
  SessionTable sessions;
  ParticipantTable participants;
  RouteTable previous_routes;
  bool have_previous = false;

  PointFolder points(window, query.aggregate, result.points);

  for (std::size_t i = start; i <= *last; ++i) {
    if (i == start) {
      fetch_block(source, i, state, result);  // always a key-frame
    } else {
      reader.apply_cycle(i, state);
      ++result.records_decoded;
    }
    std::size_t route_changes = 0;
    if (track_routes) {
      if (have_previous && i >= first_needed + 1) {
        route_changes =
            RouteTable::diff(previous_routes, state.routes).change_count();
      }
      if (i >= first_needed) {
        previous_routes = state.routes;
        have_previous = true;
      }
    }
    if (i < *first) continue;

    const ArchiveCycleMeta& meta = reader.meta_at(i);
    if (!query.include_stale && meta.stale) continue;
    if (!query.include_failed && meta.collection_failures > 0) continue;

    if (want_sessions) {
      derive_sessions_into(state.pairs, sender_threshold_kbps_, sessions);
    }
    if (want_participants) {
      derive_participants_into(state.pairs, sender_threshold_kbps_,
                               participants);
    }
    const double value = metric_value(query.metric, state, meta, sessions,
                                      participants, route_changes);
    if (query.min_value && value < *query.min_value) continue;
    if (query.max_value && value > *query.max_value) continue;
    points.add(state.captured.total_ms(), value);
  }
  points.finish();
  return result;
}

}  // namespace

QueryResult full_decode_raw_scan(const ArchiveReader& reader, BlockCache& cache,
                                 const Query& query, double sender_threshold_kbps) {
  const QueryWindow window = query_window(query.from, query.to, query.resolution);
  if (window.from_ms > window.to_ms) return {};
  const OracleEngine engine(cache, sender_threshold_kbps);
  return engine.run_raw(Source{0, &reader}, query, window);
}

}  // namespace mantra::oracle
