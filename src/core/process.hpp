// Data Processor (§III, §IV): turns snapshots into the statistics the
// paper plots — usage counts and classifications (Figs 3, 6), densities and
// their distribution (Fig 4, the §IV-B offline claims), bandwidth used and
// saved (Fig 5), DVMRP route statistics and stability (Figs 7-8),
// inter-router consistency, and the spike detector that flags the Fig 9
// unicast route injection.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "core/tables.hpp"

namespace mantra::core {

/// One cycle's usage-monitoring numbers (Figs 3-6 all read from this).
struct UsageStats {
  int sessions = 0;
  int participants = 0;
  int active_sessions = 0;   ///< sessions with >= 1 sender
  int senders = 0;           ///< participants above the threshold
  int single_member_sessions = 0;
  double avg_density = 0.0;  ///< participants per session
  double bandwidth_kbps = 0.0;        ///< multicast traffic through the router
  double unicast_equivalent_kbps = 0.0;  ///< sum density x rate (active sessions)
  double saved_multiple = 0.0;  ///< unicast-equivalent / multicast (Fig 5 right)
  double pct_sessions_active = 0.0;
  double pct_participants_senders = 0.0;

  friend bool operator==(const UsageStats&, const UsageStats&) = default;
};

[[nodiscard]] UsageStats compute_usage(const Snapshot& snapshot,
                                       double threshold_kbps = kSenderThresholdKbps);

/// One monitoring cycle's processed results for one router. Produced by the
/// live monitoring cycle (core/mantra) and reproduced verbatim by the
/// offline archive replay (core/archive).
struct CycleResult {
  sim::TimePoint t;
  /// 1-based monitor cycle number this result was produced in. Dark cycles
  /// record no result, so the sequence may have gaps — which is exactly why
  /// it is persisted (archive meta) rather than derived from the results
  /// index. Joins this result to its spans/events/alerts via
  /// `correlation_id(cycle_seq, target)`.
  std::size_t cycle_seq = 0;
  UsageStats usage;
  std::size_t dvmrp_routes = 0;
  std::size_t dvmrp_valid_routes = 0;
  std::size_t route_changes = 0;
  std::size_t sa_entries = 0;
  std::size_t mbgp_routes = 0;
  std::size_t parse_warnings = 0;
  bool route_spike = false;
  double route_spike_score = 0.0;
  /// Per-cycle density-distribution facts (the §IV-B off-line analysis).
  double density_single_fraction = 0.0;
  double density_at_most_two_fraction = 0.0;
  double density_top_share_80 = 1.0;
  // --- Collection-failure accounting ---
  bool stale = false;  ///< at least one table carried forward from the
                       ///< previous snapshot (never zero-valued on failure)
  std::size_t stale_tables = 0;        ///< tables carried forward this cycle
  std::size_t collection_failures = 0; ///< commands that did not capture ok
  /// Fully dark cycles skipped since the previous recorded result.
  std::size_t consecutive_failures = 0;
  std::size_t capture_attempts = 0;    ///< connect + command attempts
  sim::Duration collection_latency;    ///< simulated time incl. backoff

  friend bool operator==(const CycleResult&, const CycleResult&) = default;
};

/// Density-skew facts from the §IV-B off-line analysis.
struct DensityDistribution {
  std::size_t sessions = 0;
  double fraction_single_member = 0.0;  ///< ">85% single member" claim
  double fraction_at_most_two = 0.0;    ///< ">=65% of sessions <=2" claim
  /// Smallest fraction of sessions that together hold >= 80% of all
  /// participants ("<6% of sessions account for 80%").
  double top_session_share_for_80pct = 1.0;
};

[[nodiscard]] DensityDistribution compute_density_distribution(
    const SessionTable& sessions);

/// Per-router DVMRP route statistics accumulated across cycles (Figs 7-9).
class RouteMonitor {
 public:
  struct CycleStats {
    sim::TimePoint t;
    std::size_t total = 0;
    std::size_t valid = 0;      ///< excluding hold-down
    std::size_t changes = 0;    ///< upserts + removals vs previous cycle
  };

  void observe(sim::TimePoint t, const RouteTable& routes);

  [[nodiscard]] const std::vector<CycleStats>& history() const { return history_; }
  [[nodiscard]] std::uint64_t total_changes() const { return total_changes_; }

  /// Mean lifetime of routes that have appeared and disappeared, seconds.
  [[nodiscard]] double mean_completed_lifetime_s() const;
  [[nodiscard]] std::size_t completed_route_count() const {
    return completed_lifetimes_s_.size();
  }
  /// Lifetimes of removed routes, seconds: per cycle in prefix order.
  [[nodiscard]] const std::vector<double>& completed_lifetimes_s() const {
    return completed_lifetimes_s_;
  }

 private:
  std::vector<CycleStats> history_;
  RouteTable previous_;
  bool have_previous_ = false;
  /// First-seen time of each route in `previous_`, index-aligned with it.
  std::vector<sim::TimePoint> first_seen_;
  std::vector<sim::TimePoint> next_first_seen_;  ///< reused merge output
  std::vector<double> completed_lifetimes_s_;
  std::uint64_t total_changes_ = 0;
};

/// Inter-router route-table consistency (the paper: "ideally every DVMRP
/// router should have similar DVMRP tables"; Fig 7 shows they do not).
struct ConsistencyStats {
  std::size_t only_a = 0;
  std::size_t only_b = 0;
  std::size_t common = 0;
  double jaccard = 1.0;  ///< |A intersect B| / |A union B|
};

[[nodiscard]] ConsistencyStats compare_route_tables(const RouteTable& a,
                                                    const RouteTable& b);

/// Robust online spike detector: rolling median + median absolute
/// deviation; a point is a spike when |x - median| > k * max(MAD, floor).
/// Flags the Fig 9 route-injection jump without triggering on the normal
/// loss-driven route flaps.
class SpikeDetector {
 public:
  explicit SpikeDetector(std::size_t window = 48, double k = 10.0,
                         double mad_floor = 3.0)
      : window_(window),
        // The baseline gate must fit inside the window: the trim keeps at
        // most `window` samples, so a fixed gate of 8 would never open for
        // window < 8 and the detector would be permanently dead.
        min_baseline_(std::min<std::size_t>(window, 8)),
        k_(k),
        mad_floor_(mad_floor) {}

  struct Verdict {
    bool spike = false;
    double score = 0.0;   ///< |x - median| / max(MAD, floor)
    double median = 0.0;
  };

  /// Observes the next sample. Spikes are not added to the baseline window
  /// (a plateau right after a jump still reads as anomalous) — but after
  /// `regime_threshold` consecutive anomalous samples the detector accepts
  /// the new level as the operating regime and re-seeds its baseline, so a
  /// permanent shift (or start-up convergence) cannot wedge it into
  /// alarming forever.
  Verdict observe(double value);

  [[nodiscard]] std::size_t samples_seen() const { return samples_seen_; }
  [[nodiscard]] std::size_t regime_resets() const { return regime_resets_; }

 private:
  std::size_t window_;
  std::size_t min_baseline_;
  double k_;
  double mad_floor_;
  std::size_t regime_threshold_ = 12;
  std::deque<double> values_;
  std::size_t samples_seen_ = 0;
  std::size_t consecutive_spikes_ = 0;
  std::size_t regime_resets_ = 0;
};

}  // namespace mantra::core
