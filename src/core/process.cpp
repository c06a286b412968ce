#include "core/process.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mantra::core {

namespace {

UsageStats usage_of(const PairTable& pairs, const SessionTable& sessions,
                    const ParticipantTable& participants) {
  UsageStats stats;
  stats.sessions = static_cast<int>(sessions.size());
  stats.participants = static_cast<int>(participants.size());

  int total_density = 0;
  sessions.visit([&](const SessionRow& session) {
    total_density += session.density;
    if (session.active) {
      ++stats.active_sessions;
      // Unicast equivalent: every receiver would need its own copy of the
      // stream through this router (§IV-B's "density multiplied by the rate
      // of the stream").
      stats.unicast_equivalent_kbps += session.density * session.total_kbps;
    }
    if (session.density == 1) ++stats.single_member_sessions;
  });

  participants.visit([&](const ParticipantRow& participant) {
    if (participant.sender) ++stats.senders;
  });

  pairs.visit([&](const PairRow& pair) { stats.bandwidth_kbps += pair.current_kbps; });

  if (stats.sessions > 0) {
    stats.avg_density = static_cast<double>(total_density) / stats.sessions;
    stats.pct_sessions_active =
        100.0 * stats.active_sessions / static_cast<double>(stats.sessions);
  }
  if (stats.participants > 0) {
    stats.pct_participants_senders =
        100.0 * stats.senders / static_cast<double>(stats.participants);
  }
  if (stats.bandwidth_kbps > 0.0) {
    stats.saved_multiple = stats.unicast_equivalent_kbps / stats.bandwidth_kbps;
  }
  return stats;
}

}  // namespace

double TargetSummary::latency_quantile_s(double q) const {
  if (cycles == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(cycles - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, cycles - 1);
  // Merge-walk the two ascending runs to the lo-th and hi-th order
  // statistics.
  double v_lo = 0.0;
  double v_hi = 0.0;
  std::size_t seen = 0;
  auto a = latency_counts.begin();
  auto b = latency_recent.begin();
  while (a != latency_counts.end() || b != latency_recent.end()) {
    const bool from_a =
        b == latency_recent.end() || (a != latency_counts.end() && a->first < b->first);
    const auto& [ms, count] = from_a ? *a++ : *b++;
    const std::size_t next = seen + count;
    const double v = sim::Duration::milliseconds(ms).total_seconds();
    if (lo >= seen && lo < next) v_lo = v;
    if (hi >= seen && hi < next) {
      v_hi = v;
      break;
    }
    seen = next;
  }
  const double frac = pos - static_cast<double>(lo);
  return v_lo + (v_hi - v_lo) * frac;
}

UsageStats compute_usage(const Snapshot& snapshot, double threshold_kbps) {
  // Read the snapshot's derived tables in place; derive only when absent.
  SessionTable derived_sessions;
  ParticipantTable derived_participants;
  if (snapshot.sessions.empty()) {
    derive_sessions_into(snapshot.pairs, threshold_kbps, derived_sessions);
  }
  if (snapshot.participants.empty()) {
    derive_participants_into(snapshot.pairs, threshold_kbps, derived_participants);
  }
  return usage_of(snapshot.pairs,
                  snapshot.sessions.empty() ? derived_sessions : snapshot.sessions,
                  snapshot.participants.empty() ? derived_participants
                                                : snapshot.participants);
}

ArchiveCycleMeta cycle_meta(const CycleResult& result) {
  ArchiveCycleMeta meta;
  meta.stale = result.stale;
  meta.cycle_seq = static_cast<std::uint64_t>(result.cycle_seq);
  meta.stale_tables = static_cast<std::uint32_t>(result.stale_tables);
  meta.collection_failures = static_cast<std::uint32_t>(result.collection_failures);
  meta.consecutive_failures = static_cast<std::uint32_t>(result.consecutive_failures);
  meta.parse_warnings = static_cast<std::uint32_t>(result.parse_warnings);
  meta.capture_attempts = result.capture_attempts;
  meta.collection_latency = result.collection_latency;
  return meta;
}

void set_cycle_meta(CycleResult& result, const ArchiveCycleMeta& meta) {
  result.stale = meta.stale;
  result.cycle_seq = static_cast<std::size_t>(meta.cycle_seq);
  result.stale_tables = meta.stale_tables;
  result.collection_failures = meta.collection_failures;
  result.consecutive_failures = meta.consecutive_failures;
  result.parse_warnings = meta.parse_warnings;
  result.capture_attempts = meta.capture_attempts;
  result.collection_latency = meta.collection_latency;
}

CycleResult derive_cycle(const Snapshot& snapshot, const Snapshot& previous,
                         const ArchiveCycleMeta& meta, CycleCarry& carry) {
  // The route monitor's last CycleStats names the snapshot this carry
  // derived last by its time here and by its row count in observe(); both
  // checks throw before anything is recorded.
  const std::vector<RouteMonitor::CycleStats>& seen = carry.route_monitor.history();
  if (!seen.empty() && previous.captured != seen.back().t) {
    throw std::logic_error(
        "derive_cycle: `previous` is not the snapshot this carry derived last");
  }
  carry.route_monitor.observe(snapshot.captured, previous.routes, snapshot.routes);
  const RouteMonitor::CycleStats& routes = seen.back();
  derive_participants_into(snapshot.pairs, carry.sender_threshold_kbps, carry.participants);
  derive_sessions_into(snapshot.pairs, carry.sender_threshold_kbps, carry.sessions);

  CycleResult result;
  result.t = snapshot.captured;
  result.usage = usage_of(snapshot.pairs, carry.sessions, carry.participants);
  result.dvmrp_routes = routes.total;
  result.dvmrp_valid_routes = routes.valid;
  result.route_changes = routes.changes;
  result.sa_entries = snapshot.sa_cache.size();
  result.mbgp_routes = snapshot.mbgp_routes.size();

  const SpikeDetector::Verdict verdict =
      carry.spike_detector.observe(static_cast<double>(result.dvmrp_valid_routes));
  result.route_spike = verdict.spike;
  result.route_spike_score = verdict.score;

  const DensityDistribution density = compute_density_distribution(carry.sessions);
  result.density_single_fraction = density.fraction_single_member;
  result.density_at_most_two_fraction = density.fraction_at_most_two;
  result.density_top_share_80 = density.top_session_share_for_80pct;

  set_cycle_meta(result, meta);
  return result;
}

DensityDistribution compute_density_distribution(const SessionTable& sessions) {
  DensityDistribution dist;
  dist.sessions = sessions.size();
  if (dist.sessions == 0) return dist;

  std::vector<int> densities;
  densities.reserve(dist.sessions);
  std::uint64_t total_participants = 0;
  std::size_t singles = 0;
  std::size_t at_most_two = 0;
  sessions.visit([&](const SessionRow& session) {
    densities.push_back(session.density);
    total_participants += static_cast<std::uint64_t>(session.density);
    if (session.density <= 1) ++singles;
    if (session.density <= 2) ++at_most_two;
  });

  dist.fraction_single_member = static_cast<double>(singles) / dist.sessions;
  dist.fraction_at_most_two = static_cast<double>(at_most_two) / dist.sessions;

  // Sessions sorted by density descending: how few hold 80% of participants?
  std::sort(densities.begin(), densities.end(), std::greater<>());
  const double target = 0.8 * static_cast<double>(total_participants);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < densities.size(); ++i) {
    cumulative += static_cast<std::uint64_t>(densities[i]);
    if (static_cast<double>(cumulative) >= target) {
      dist.top_session_share_for_80pct =
          static_cast<double>(i + 1) / static_cast<double>(dist.sessions);
      break;
    }
  }
  return dist;
}

void RouteMonitor::observe(sim::TimePoint t, const RouteTable& routes) {
  observe(t, own_previous_, routes);
  own_previous_ = routes;
}

void RouteMonitor::observe(sim::TimePoint t, const RouteTable& previous,
                           const RouteTable& routes) {
  if (previous.size() != first_seen_.size()) {
    throw std::logic_error(
        "RouteMonitor::observe: `previous` is not the table observed last");
  }
  // One merge over the previous and current tables (both key-ordered):
  // counts upserts and removals exactly as RouteTable::diff would, carries
  // first-seen times forward aligned with the new table, and completes the
  // lifetimes of removed routes in key order.
  const bool have_previous = !history_.empty();
  CycleStats stats;
  stats.t = t;
  stats.total = routes.size();
  next_first_seen_.clear();
  auto prev = previous.begin();
  auto seen = first_seen_.begin();
  for (const RouteRow& route : routes) {
    if (!route.holddown) ++stats.valid;
    while (prev != previous.end() && prev->prefix < route.prefix) {
      completed_lifetimes_s_.push_back((t - *seen).total_seconds());
      ++stats.changes;
      ++prev;
      ++seen;
    }
    if (prev != previous.end() && prev->prefix == route.prefix) {
      next_first_seen_.push_back(*seen);
      if (!RouteRow::delta_equal(*prev, route)) ++stats.changes;
      ++prev;
      ++seen;
    } else {
      next_first_seen_.push_back(t);
      if (have_previous) ++stats.changes;
    }
  }
  for (; prev != previous.end(); ++prev, ++seen) {
    completed_lifetimes_s_.push_back((t - *seen).total_seconds());
    ++stats.changes;
  }
  total_changes_ += stats.changes;
  history_.push_back(stats);
  first_seen_.swap(next_first_seen_);
}

double RouteMonitor::mean_completed_lifetime_s() const {
  if (completed_lifetimes_s_.empty()) return 0.0;
  double total = 0.0;
  for (double lifetime : completed_lifetimes_s_) total += lifetime;
  return total / static_cast<double>(completed_lifetimes_s_.size());
}

ConsistencyStats compare_route_tables(const RouteTable& a, const RouteTable& b) {
  ConsistencyStats stats;
  a.visit([&](const RouteRow& route) {
    if (b.find(route.prefix) != nullptr) {
      ++stats.common;
    } else {
      ++stats.only_a;
    }
  });
  b.visit([&](const RouteRow& route) {
    if (a.find(route.prefix) == nullptr) ++stats.only_b;
  });
  const std::size_t unioned = stats.common + stats.only_a + stats.only_b;
  stats.jaccard = unioned == 0 ? 1.0 : static_cast<double>(stats.common) / unioned;
  return stats;
}

SpikeDetector::Verdict SpikeDetector::observe(double value) {
  ++samples_seen_;
  Verdict verdict;
  if (values_.size() >= min_baseline_) {  // need a minimal baseline
    std::vector<double> sorted(values_.begin(), values_.end());
    std::sort(sorted.begin(), sorted.end());
    const double median = sorted[sorted.size() / 2];
    std::vector<double> deviations;
    deviations.reserve(sorted.size());
    for (double v : sorted) deviations.push_back(std::abs(v - median));
    std::sort(deviations.begin(), deviations.end());
    const double mad = deviations[deviations.size() / 2];
    const double scale = std::max(mad, mad_floor_);
    verdict.median = median;
    verdict.score = std::abs(value - median) / scale;
    verdict.spike = verdict.score > k_;
  }
  if (verdict.spike) {
    ++consecutive_spikes_;
    if (consecutive_spikes_ >= regime_threshold_) {
      // The anomaly persisted long enough to be the new normal: accept it.
      values_.assign(1, value);
      consecutive_spikes_ = 0;
      ++regime_resets_;
    }
  } else {
    consecutive_spikes_ = 0;
    values_.push_back(value);
    while (values_.size() > window_) values_.pop_front();
  }
  return verdict;
}

}  // namespace mantra::core
