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
#include <utility>
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

/// The collection facts of one cycle that its tables cannot tell: how
/// collection went, and which monitor cycle it was. The live cycle
/// (core/mantra) records them, the archive (core/archive) stores them with
/// every cycle, and derive_cycle copies them into the cycle's CycleResult.
struct ArchiveCycleMeta {
  bool stale = false;
  /// 1-based monitor cycle number (CycleResult::cycle_seq). Persisted so the
  /// offline readers rebuild correlation ids exactly — dark cycles leave
  /// gaps the results index cannot recover.
  std::uint64_t cycle_seq = 0;
  std::uint32_t stale_tables = 0;
  std::uint32_t collection_failures = 0;
  std::uint32_t consecutive_failures = 0;
  std::uint32_t parse_warnings = 0;
  std::uint64_t capture_attempts = 0;
  sim::Duration collection_latency;

  friend bool operator==(const ArchiveCycleMeta&, const ArchiveCycleMeta&) = default;
};

/// One monitoring cycle's processed results for one router: what
/// derive_cycle returns. The live monitoring cycle (core/mantra) produces it
/// and the archive stores it, so every offline reader (core/archive,
/// core/query) returns it verbatim.
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

/// One fold over a target's recorded cycles: the per-target facts every
/// status surface shows (Mantra::status, the reports' collection-status
/// tables). Each recorded cycle is added once; the same cycles in any order
/// fold to the same facts. Collection latencies are whole sim milliseconds,
/// so an exact count per latency stays small (one entry per distinct value)
/// and its quantiles are sim::quantile's, bit for bit.
struct TargetSummary {
  using LatencyCount = std::pair<std::int64_t, std::size_t>;  ///< (ms, cycles)
  static constexpr std::size_t kRecentRun = 32;

  std::size_t cycles = 0;
  std::size_t stale_cycles = 0;
  std::size_t spikes = 0;
  sim::TimePoint last_t;       ///< the newest cycle's time
  sim::Duration last_latency;  ///< the newest cycle's collection latency
  /// Cycles per collection latency as two runs sorted by latency, each
  /// latency in at most one. A new latency enters `latency_recent`, which
  /// merges into `latency_counts` once it holds kRecentRun entries: an add
  /// moves at most that many entries plus an occasional merge, where one
  /// sorted vector would move O(distinct latencies) per new value, and a
  /// report folding a long run would pay that quadratically. Contiguous, so
  /// a quantile walks them without a cache miss per entry.
  std::vector<LatencyCount> latency_counts;
  std::vector<LatencyCount> latency_recent;

  void add(const CycleResult& result) {
    // Ties on t (never two cycles of one target) keep the larger latency,
    // so the fold does not depend on the order of adds.
    if (cycles == 0 || result.t > last_t ||
        (result.t == last_t && result.collection_latency > last_latency)) {
      last_t = result.t;
      last_latency = result.collection_latency;
    }
    ++cycles;
    if (result.stale) ++stale_cycles;
    if (result.route_spike) ++spikes;
    const LatencyCount key(result.collection_latency.total_ms(), 0);
    auto it = std::lower_bound(latency_counts.begin(), latency_counts.end(), key);
    if (it != latency_counts.end() && it->first == key.first) {
      ++it->second;
      return;
    }
    it = std::lower_bound(latency_recent.begin(), latency_recent.end(), key);
    if (it == latency_recent.end() || it->first != key.first) it = latency_recent.insert(it, key);
    ++it->second;
    if (latency_recent.size() < kRecentRun) return;
    const auto mid = latency_counts.insert(latency_counts.end(), latency_recent.begin(),
                                           latency_recent.end());
    std::inplace_merge(latency_counts.begin(), mid, latency_counts.end());
    latency_recent.clear();
  }

  /// sim::quantile over the latencies in seconds: the same two order
  /// statistics, interpolated with the same arithmetic. 0 with no cycles.
  [[nodiscard]] double latency_quantile_s(double q) const;
  [[nodiscard]] double latency_max_s() const {
    std::int64_t max_ms = 0;
    if (!latency_counts.empty()) max_ms = latency_counts.back().first;
    if (!latency_recent.empty()) max_ms = std::max(max_ms, latency_recent.back().first);
    return sim::Duration::milliseconds(max_ms).total_seconds();
  }
};

/// The collection facts of `result`, as the archive stores them (the counts
/// narrow to 32 bits).
[[nodiscard]] ArchiveCycleMeta cycle_meta(const CycleResult& result);

/// Copies the collection facts of `meta` into `result`.
void set_cycle_meta(CycleResult& result, const ArchiveCycleMeta& meta);

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

/// One cycle's DVMRP route statistics (Figs 7-9).
struct RouteCycleStats {
  sim::TimePoint t;
  std::size_t total = 0;
  std::size_t valid = 0;    ///< excluding hold-down
  std::size_t changes = 0;  ///< upserts + removals vs the previous cycle
};

/// One merge walk over `previous`, the route table of the cycle before
/// (null before the first cycle, which counts no changes), and `routes`,
/// both key-ordered: the cycle's route counts, with its changes counted
/// exactly as RouteTable::diff counts them. Keeps nothing.
[[nodiscard]] RouteCycleStats route_cycle_stats(sim::TimePoint t, const RouteTable* previous,
                                                const RouteTable& routes);

/// Adapter for perfbench's traced mirror, which keeps no previous table:
/// counts each observed table with route_cycle_stats against its own copy
/// of the last one, and keeps every cycle's stats. It leaves with the
/// mirror (ROADMAP item 3).
class RouteMonitor {
 public:
  void observe(sim::TimePoint t, const RouteTable& routes);

  [[nodiscard]] const std::vector<RouteCycleStats>& history() const { return history_; }

 private:
  std::vector<RouteCycleStats> history_;
  RouteTable previous_;
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

/// What derive_cycle carries from one cycle of a router to the next: the
/// last cycle's route statistics and the spike detector, the sender
/// threshold, and storage for the cycle's derived tables.
struct CycleCarry {
  CycleCarry() = default;
  CycleCarry(double threshold_kbps, std::size_t spike_window, double spike_k)
      : sender_threshold_kbps(threshold_kbps), spike_detector(spike_window, spike_k) {}

  double sender_threshold_kbps = kSenderThresholdKbps;
  /// The route statistics of the cycle derived last; empty before the first.
  std::optional<RouteCycleStats> last_route_stats;
  SpikeDetector spike_detector;
  /// The last derived cycle's participant and session tables, rebuilt in
  /// place (capacity kept) by every derive_cycle call.
  ParticipantTable participants;
  SessionTable sessions;
};

/// The processing half of one monitoring cycle, written once: derives the
/// participant and session tables from `snapshot.pairs` into `carry` (the
/// snapshot's own derived tables are not read), counts the routes with
/// route_cycle_stats, feeds the spike detector, and returns the cycle's
/// result with the collection facts of `meta`. The live cycle and the
/// archive writer are its callers; the archive stores the answer, so no
/// offline reader derives it again.
///
/// `previous` is the snapshot this carry derived last (any snapshot with
/// no routes before the first), whose route table the walk diffs against;
/// the carry keeps no copy. The carry's last route statistics name that
/// table by time and row count; a `previous` that disagrees throws
/// std::logic_error before the carry is touched.
[[nodiscard]] CycleResult derive_cycle(const Snapshot& snapshot, const Snapshot& previous,
                                       const ArchiveCycleMeta& meta, CycleCarry& carry);

}  // namespace mantra::core
