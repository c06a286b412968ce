#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/collect.hpp"
#include "core/process.hpp"
#include "sim/random.hpp"

namespace mantra::core {
namespace {

PairRow pair(std::uint32_t source, std::uint32_t group, double kbps) {
  PairRow row;
  row.source = net::Ipv4Address(0x0A000000u + source);
  row.group = net::Ipv4Address(0xE0020000u + group);
  row.current_kbps = kbps;
  return row;
}

RouteRow route(std::uint32_t net_index, int metric = 3, bool holddown = false) {
  RouteRow row;
  row.prefix = net::Prefix(net::Ipv4Address(0x0A000000u + (net_index << 8)), 24);
  row.next_hop = net::Ipv4Address(0xC0A80002u);
  row.metric = metric;
  row.holddown = holddown;
  return row;
}

Snapshot make_snapshot() {
  Snapshot snapshot;
  snapshot.router_name = "fixw";
  // Session 1: two participants, one sender (active).
  snapshot.pairs.upsert(pair(1, 1, 100.0));
  snapshot.pairs.upsert(pair(2, 1, 2.0));
  // Session 2: single passive member (inactive, single-member).
  snapshot.pairs.upsert(pair(3, 2, 1.0));
  // Session 3: three passive members.
  snapshot.pairs.upsert(pair(4, 3, 0.5));
  snapshot.pairs.upsert(pair(5, 3, 0.5));
  snapshot.pairs.upsert(pair(6, 3, 3.0));
  snapshot.participants = derive_participants(snapshot.pairs);
  snapshot.sessions = derive_sessions(snapshot.pairs);
  return snapshot;
}

TEST(ComputeUsage, CountsAndClassifications) {
  const UsageStats stats = compute_usage(make_snapshot());
  EXPECT_EQ(stats.sessions, 3);
  EXPECT_EQ(stats.participants, 6);
  EXPECT_EQ(stats.active_sessions, 1);
  EXPECT_EQ(stats.senders, 1);
  EXPECT_EQ(stats.single_member_sessions, 1);
  EXPECT_DOUBLE_EQ(stats.avg_density, 2.0);
  EXPECT_DOUBLE_EQ(stats.bandwidth_kbps, 107.0);
  EXPECT_NEAR(stats.pct_sessions_active, 33.33, 0.01);
  EXPECT_NEAR(stats.pct_participants_senders, 16.67, 0.01);
}

TEST(ComputeUsage, BandwidthSavedUsesDensityTimesRate) {
  const UsageStats stats = compute_usage(make_snapshot());
  // Active session 1: density 2, total 102 kbps -> unicast equivalent 204.
  EXPECT_DOUBLE_EQ(stats.unicast_equivalent_kbps, 204.0);
  EXPECT_NEAR(stats.saved_multiple, 204.0 / 107.0, 1e-9);
}

TEST(ComputeUsage, EmptySnapshotIsAllZero) {
  const UsageStats stats = compute_usage(Snapshot{});
  EXPECT_EQ(stats.sessions, 0);
  EXPECT_EQ(stats.participants, 0);
  EXPECT_DOUBLE_EQ(stats.saved_multiple, 0.0);
}

TEST(ComputeUsage, DerivesTablesWhenAbsent) {
  Snapshot snapshot;
  snapshot.pairs.upsert(pair(1, 1, 50.0));
  const UsageStats stats = compute_usage(snapshot);  // derived internally
  EXPECT_EQ(stats.sessions, 1);
  EXPECT_EQ(stats.senders, 1);
}

TEST(DensityDistribution, SkewFacts) {
  SessionTable sessions;
  // 8 single-member, 1 with two members, 1 with 40 members.
  for (int i = 0; i < 8; ++i) {
    SessionRow row;
    row.group = net::Ipv4Address(0xE0020000u + i);
    row.density = 1;
    sessions.upsert(row);
  }
  SessionRow two;
  two.group = net::Ipv4Address(0xE0020100u);
  two.density = 2;
  sessions.upsert(two);
  SessionRow big;
  big.group = net::Ipv4Address(0xE0020200u);
  big.density = 40;
  sessions.upsert(big);

  const DensityDistribution dist = compute_density_distribution(sessions);
  EXPECT_EQ(dist.sessions, 10u);
  EXPECT_DOUBLE_EQ(dist.fraction_single_member, 0.8);
  EXPECT_DOUBLE_EQ(dist.fraction_at_most_two, 0.9);
  // 50 participants total; the big session alone holds 80%: share = 1/10.
  EXPECT_DOUBLE_EQ(dist.top_session_share_for_80pct, 0.1);
}

TEST(DensityDistribution, EmptyTable) {
  const DensityDistribution dist = compute_density_distribution(SessionTable{});
  EXPECT_EQ(dist.sessions, 0u);
}

TEST(RouteMonitor, TracksCountsChangesAndLifetimes) {
  RouteMonitor monitor;
  RouteTable t0;
  t0.upsert(route(1));
  t0.upsert(route(2));
  monitor.observe(sim::TimePoint::start(), t0);

  RouteTable t1 = t0;
  t1.upsert(route(3));  // new route
  monitor.observe(sim::TimePoint::start() + sim::Duration::minutes(15), t1);

  RouteTable t2 = t1;
  t2.erase(route(2).key());  // route 2 lived 30 minutes
  monitor.observe(sim::TimePoint::start() + sim::Duration::minutes(30), t2);

  ASSERT_EQ(monitor.history().size(), 3u);
  EXPECT_EQ(monitor.history()[0].total, 2u);
  EXPECT_EQ(monitor.history()[1].changes, 1u);
  EXPECT_EQ(monitor.history()[2].changes, 1u);
  EXPECT_EQ(monitor.total_changes(), 2u);
  EXPECT_EQ(monitor.completed_route_count(), 1u);
  EXPECT_DOUBLE_EQ(monitor.mean_completed_lifetime_s(), 1800.0);
}

TEST(RouteMonitor, ValidCountExcludesHolddown) {
  RouteMonitor monitor;
  RouteTable table;
  table.upsert(route(1));
  table.upsert(route(2, 32, /*holddown=*/true));
  monitor.observe(sim::TimePoint::start(), table);
  EXPECT_EQ(monitor.history()[0].total, 2u);
  EXPECT_EQ(monitor.history()[0].valid, 1u);
}

/// RouteMonitor::observe as it was before the merge walk: a per-prefix
/// first-seen map and a RouteTable::diff. The equivalence test below holds
/// the production monitor to it.
class MapRouteMonitor {
 public:
  void observe(sim::TimePoint t, const RouteTable& routes) {
    RouteMonitor::CycleStats stats;
    stats.t = t;
    stats.total = routes.size();
    routes.visit([&](const RouteRow& route) {
      if (!route.holddown) ++stats.valid;
      if (first_seen_.find(route.prefix) == first_seen_.end()) {
        first_seen_[route.prefix] = t;
      }
    });
    if (have_previous_) {
      const RouteTable::Delta delta = RouteTable::diff(previous_, routes);
      stats.changes = delta.change_count();
      total_changes_ += stats.changes;
      for (const net::Prefix& removed : delta.removals) {
        const auto it = first_seen_.find(removed);
        if (it != first_seen_.end()) {
          completed_lifetimes_s_.push_back((t - it->second).total_seconds());
          first_seen_.erase(it);
        }
      }
    }
    history_.push_back(stats);
    previous_ = routes;
    have_previous_ = true;
  }

  std::vector<RouteMonitor::CycleStats> history_;
  RouteTable previous_;
  bool have_previous_ = false;
  std::map<net::Prefix, sim::TimePoint> first_seen_;
  std::vector<double> completed_lifetimes_s_;
  std::uint64_t total_changes_ = 0;
};

TEST(RouteMonitor, MergeWalkMatchesMapMonitor) {
  // Seeded churn over a 400-prefix universe: adds, removals, prefixes that
  // come back, hold-down flips and metric changes, identical repeats (a
  // stale table carried forward) and an empty table.
  std::mt19937 rng(0x524d4f4eu);
  std::map<std::uint32_t, RouteRow> live;
  for (std::uint32_t i = 0; i < 400; i += 2) live[i] = route(i);
  RouteMonitor monitor;
  MapRouteMonitor reference;
  // The same walk with the previous table held by the caller, as the live
  // cycle holds it in its latest snapshot.
  RouteMonitor by_previous;
  RouteTable previous;
  RouteTable table;
  for (int step = 0; step < 80; ++step) {
    if (step == 40) {
      live.clear();
    } else if (step % 10 != 7) {  // every tenth step repeats the last table
      for (int k = 0; k < 12; ++k) {
        const std::uint32_t i = rng() % 400;
        const auto it = live.find(i);
        switch (rng() % 4) {
          case 0:
            if (it != live.end()) live.erase(it);
            break;
          case 1:
            live[i] = route(i);
            break;
          case 2:
            if (it != live.end()) it->second.holddown = !it->second.holddown;
            break;
          default:
            if (it != live.end()) it->second.metric = 1 + static_cast<int>(rng() % 32);
            break;
        }
      }
    }
    table.clear();
    for (const auto& [index, row] : live) table.upsert(row);
    const sim::TimePoint t = sim::TimePoint::start() + sim::Duration::minutes(15) * std::int64_t{step};
    monitor.observe(t, table);
    reference.observe(t, table);
    by_previous.observe(t, previous, table);
    previous = table;

    ASSERT_EQ(monitor.history().size(), reference.history_.size());
    const RouteMonitor::CycleStats& got = monitor.history().back();
    const RouteMonitor::CycleStats& want = reference.history_.back();
    EXPECT_EQ(got.t, want.t) << "step " << step;
    EXPECT_EQ(got.total, want.total) << "step " << step;
    EXPECT_EQ(got.valid, want.valid) << "step " << step;
    EXPECT_EQ(got.changes, want.changes) << "step " << step;
    EXPECT_EQ(monitor.total_changes(), reference.total_changes_) << "step " << step;
    ASSERT_EQ(monitor.completed_lifetimes_s(), reference.completed_lifetimes_s_)
        << "step " << step;
    const RouteMonitor::CycleStats& held = by_previous.history().back();
    EXPECT_EQ(held.total, got.total) << "step " << step;
    EXPECT_EQ(held.valid, got.valid) << "step " << step;
    EXPECT_EQ(held.changes, got.changes) << "step " << step;
    ASSERT_EQ(by_previous.completed_lifetimes_s(), monitor.completed_lifetimes_s())
        << "step " << step;
  }
  EXPECT_GT(monitor.completed_route_count(), 200u);
  EXPECT_EQ(monitor.history()[40].total, 0u);
}

TEST(RouteMonitor, APreviousTableOfAnotherSizeThrowsAndRecordsNothing) {
  RouteMonitor monitor;
  RouteTable table;
  table.upsert(route(1));
  EXPECT_THROW(monitor.observe(sim::TimePoint::start(), table, table), std::logic_error);
  EXPECT_TRUE(monitor.history().empty());
  monitor.observe(sim::TimePoint::start(), RouteTable{}, table);
  EXPECT_THROW(monitor.observe(sim::TimePoint::start(), RouteTable{}, table), std::logic_error);
  EXPECT_EQ(monitor.history().size(), 1u);
}

TEST(DeriveCycle, APreviousSnapshotOtherThanTheLastDerivedThrowsAndRecordsNothing) {
  // derive_cycle diffs routes against the caller's `previous` and checks it
  // against the route monitor's last CycleStats (time and row count).
  std::vector<Snapshot> cycles(3);
  for (std::size_t i = 0; i < cycles.size(); ++i) {
    cycles[i].captured =
        sim::TimePoint::start() + sim::Duration::minutes(15) * static_cast<std::int64_t>(i);
    for (std::uint32_t r = 0; r < 4 + i; ++r) cycles[i].routes.upsert(route(r));
  }
  CycleCarry carry;
  // Before the first cycle, only a snapshot without routes is the previous.
  EXPECT_THROW((void)derive_cycle(cycles[0], cycles[1], {}, carry), std::logic_error);
  EXPECT_TRUE(carry.route_monitor.history().empty());
  (void)derive_cycle(cycles[0], Snapshot{}, {}, carry);
  (void)derive_cycle(cycles[1], cycles[0], {}, carry);

  // One cycle too old, the right time with a row too many, and the
  // snapshot being derived itself.
  Snapshot padded = cycles[1];
  padded.routes.upsert(route(99));
  for (const Snapshot* wrong : {&cycles[0], &padded, &cycles[2]}) {
    EXPECT_THROW((void)derive_cycle(cycles[2], *wrong, {}, carry), std::logic_error);
    EXPECT_EQ(carry.route_monitor.history().size(), 2u);
    EXPECT_EQ(carry.spike_detector.samples_seen(), 2u);
  }
  const CycleResult result = derive_cycle(cycles[2], cycles[1], {}, carry);
  EXPECT_EQ(result.dvmrp_routes, 6u);
  EXPECT_EQ(result.route_changes, 1u);
}

TEST(CompareRouteTables, ConsistencyStats) {
  RouteTable a, b;
  a.upsert(route(1));
  a.upsert(route(2));
  a.upsert(route(3));
  b.upsert(route(2));
  b.upsert(route(3));
  b.upsert(route(4));
  const ConsistencyStats stats = compare_route_tables(a, b);
  EXPECT_EQ(stats.common, 2u);
  EXPECT_EQ(stats.only_a, 1u);
  EXPECT_EQ(stats.only_b, 1u);
  EXPECT_DOUBLE_EQ(stats.jaccard, 0.5);
}

TEST(CompareRouteTables, IdenticalTablesAreConsistent) {
  RouteTable a;
  a.upsert(route(1));
  const ConsistencyStats stats = compare_route_tables(a, a);
  EXPECT_DOUBLE_EQ(stats.jaccard, 1.0);
  EXPECT_DOUBLE_EQ(compare_route_tables(RouteTable{}, RouteTable{}).jaccard, 1.0);
}

TEST(SpikeDetector, FlagsJumpAboveNoise) {
  SpikeDetector detector(48, 10.0, 3.0);
  std::mt19937 rng(3);
  // Baseline around 600 routes with small flaps.
  for (int i = 0; i < 48; ++i) {
    const auto verdict = detector.observe(600.0 + static_cast<double>(rng() % 11) - 5.0);
    EXPECT_FALSE(verdict.spike);
  }
  // Unicast injection: +1500 routes.
  const auto verdict = detector.observe(2100.0);
  EXPECT_TRUE(verdict.spike);
  EXPECT_GT(verdict.score, 10.0);
}

TEST(SpikeDetector, DoesNotFlagGradualDrift) {
  SpikeDetector detector(48, 10.0, 3.0);
  double value = 600.0;
  bool any_spike = false;
  for (int i = 0; i < 200; ++i) {
    value += 1.0;  // slow growth
    any_spike |= detector.observe(value).spike;
  }
  EXPECT_FALSE(any_spike);
}

TEST(SpikeDetector, SpikesExcludedFromBaseline) {
  SpikeDetector detector(16, 8.0, 3.0);
  for (int i = 0; i < 16; ++i) detector.observe(100.0);
  EXPECT_TRUE(detector.observe(5000.0).spike);
  // The plateau after the jump still reads anomalous (the spike did not
  // poison the baseline window).
  EXPECT_TRUE(detector.observe(5000.0).spike);
}

TEST(SpikeDetector, NeedsMinimalBaseline) {
  SpikeDetector detector;
  for (int i = 0; i < 7; ++i) {
    EXPECT_FALSE(detector.observe(1e9).spike);  // warming up
  }
}

TEST(SpikeDetector, SmallWindowStillDetects) {
  // Regression: the window trim keeps at most `window` samples, so a fixed
  // baseline gate of 8 left any spike_window < 8 permanently dead — the
  // detector accumulated 4 samples, never reached 8, and never activated.
  SpikeDetector detector(4, 10.0, 3.0);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(detector.observe(600.0).spike) << "sample " << i;
  }
  const auto verdict = detector.observe(2100.0);
  EXPECT_TRUE(verdict.spike);
  EXPECT_GT(verdict.score, 10.0);
}

TEST(SpikeDetector, PersistentShiftIsAcceptedAsNewRegime) {
  SpikeDetector detector(16, 8.0, 3.0);
  for (int i = 0; i < 16; ++i) detector.observe(100.0);

  // A level shift alarms for regime_threshold (12) consecutive cycles, then
  // the detector accepts the new level and re-seeds its baseline.
  for (int i = 0; i < 12; ++i) {
    EXPECT_TRUE(detector.observe(5000.0).spike) << "cycle " << i;
  }
  EXPECT_EQ(detector.regime_resets(), 1u);

  // The re-seeded baseline treats the new level as normal: once it has
  // warmed back up, steady samples at 5000 no longer alarm...
  bool post_reset_spike = false;
  for (int i = 0; i < 16; ++i) post_reset_spike |= detector.observe(5000.0).spike;
  EXPECT_FALSE(post_reset_spike);
  EXPECT_EQ(detector.regime_resets(), 1u);

  // ...and a fresh jump from the new regime is still caught.
  EXPECT_TRUE(detector.observe(20000.0).spike);
}

TEST(SpikeDetector, BriefPlateauDoesNotResetBaseline) {
  SpikeDetector detector(16, 8.0, 3.0);
  for (int i = 0; i < 16; ++i) detector.observe(100.0);

  // 11 consecutive anomalies — one short of the regime threshold — then a
  // return to the old level: no reset, and the old baseline still stands.
  for (int i = 0; i < 11; ++i) {
    EXPECT_TRUE(detector.observe(5000.0).spike);
  }
  EXPECT_FALSE(detector.observe(100.0).spike);
  EXPECT_EQ(detector.regime_resets(), 0u);
  EXPECT_TRUE(detector.observe(5000.0).spike);  // anomalous again
}

// --- TargetSummary: the status fold ------------------------------------------

CycleResult latency_cycle(std::int64_t minute, std::int64_t latency_ms, bool stale = false,
                          bool spike = false) {
  CycleResult result;
  result.t = sim::TimePoint::start() + sim::Duration::minutes(minute);
  result.collection_latency = sim::Duration::milliseconds(latency_ms);
  result.stale = stale;
  result.route_spike = spike;
  return result;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// The summary's latency counts as one run, ascending.
std::vector<TargetSummary::LatencyCount> distribution(const TargetSummary& summary) {
  std::vector<TargetSummary::LatencyCount> out = summary.latency_counts;
  out.insert(out.end(), summary.latency_recent.begin(), summary.latency_recent.end());
  std::sort(out.begin(), out.end());
  return out;
}

/// Named latency sets (ms): the degenerate ones, then seeded draws that are
/// heavy with duplicates or spread up to the default per-command deadline.
std::vector<std::pair<std::string, std::vector<std::int64_t>>> latency_sets() {
  std::vector<std::pair<std::string, std::vector<std::int64_t>>> sets = {
      {"empty", {}},
      {"one value", {2914}},
      {"zero ms", {0}},
      {"all equal", std::vector<std::int64_t>(37, 720)},
      {"zeros and one spike", {0, 0, 0, 0, 90600, 0, 0}},
      {"two values", {1594, 91629}},
  };
  // More distinct latencies than one recent run holds, in scrambled order,
  // so the fold merges its runs several times.
  std::vector<std::int64_t> scrambled;
  for (std::int64_t i = 0; i < 500; ++i) scrambled.push_back((i * 7919) % 1000 * 90);
  sets.emplace_back("scrambled, many merges", std::move(scrambled));
  const std::int64_t deadline_ms = RetryPolicy{}.command_deadline.total_ms();
  std::mt19937 rng(0x5a117u);
  for (int draw = 0; draw < 24; ++draw) {
    const std::size_t n = 1 + rng() % 400;
    std::vector<std::int64_t> values;
    if (draw % 2 == 0) {
      // Heavy duplicates: a handful of distinct latencies, 0 ms among them.
      std::vector<std::int64_t> pool = {0};
      for (int i = 0; i < 4; ++i) {
        pool.push_back(static_cast<std::int64_t>(rng() % (deadline_ms + 1)));
      }
      for (std::size_t i = 0; i < n; ++i) values.push_back(pool[rng() % pool.size()]);
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        values.push_back(static_cast<std::int64_t>(rng() % (deadline_ms + 1)));
      }
    }
    sets.emplace_back("seeded draw " + std::to_string(draw), std::move(values));
  }
  return sets;
}

TEST(TargetSummary, QuantilesEqualSimQuantileBitForBit) {
  for (const auto& [label, latencies] : latency_sets()) {
    TargetSummary summary;
    std::vector<double> seconds;
    double max_s = 0.0;
    for (std::size_t i = 0; i < latencies.size(); ++i) {
      summary.add(latency_cycle(static_cast<std::int64_t>(i) * 15, latencies[i]));
      seconds.push_back(sim::Duration::milliseconds(latencies[i]).total_seconds());
      max_s = std::max(max_s, seconds.back());
    }
    ASSERT_EQ(summary.cycles, latencies.size()) << label;
    std::vector<std::int64_t> distinct = latencies;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
    ASSERT_EQ(distribution(summary).size(), distinct.size()) << label;
    for (const double q : {0.0, 0.5, 0.95, 1.0}) {
      EXPECT_EQ(bits(summary.latency_quantile_s(q)), bits(sim::quantile(seconds, q)))
          << label << " q=" << q;
    }
    EXPECT_EQ(bits(summary.latency_max_s()), bits(max_s)) << label;
  }
}

TEST(TargetSummary, FoldingInAnyOrderGivesTheSameSummary) {
  std::vector<CycleResult> cycles;
  std::mt19937 rng(0x0fd3u);
  for (std::int64_t i = 0; i < 300; ++i) {
    const auto latency_ms = static_cast<std::int64_t>(rng() % 5) * 700 + 720;
    cycles.push_back(latency_cycle(i * 15, latency_ms, rng() % 4 == 0, rng() % 17 == 0));
  }
  TargetSummary in_order;
  for (const CycleResult& cycle : cycles) in_order.add(cycle);
  EXPECT_EQ(in_order.cycles, 300u);
  EXPECT_EQ(in_order.last_t, cycles.back().t);
  EXPECT_EQ(in_order.last_latency, cycles.back().collection_latency);

  for (int round = 0; round < 8; ++round) {
    std::shuffle(cycles.begin(), cycles.end(), rng);
    TargetSummary shuffled;
    for (const CycleResult& cycle : cycles) shuffled.add(cycle);
    EXPECT_EQ(shuffled.cycles, in_order.cycles) << "round " << round;
    EXPECT_EQ(shuffled.stale_cycles, in_order.stale_cycles) << "round " << round;
    EXPECT_EQ(shuffled.spikes, in_order.spikes) << "round " << round;
    EXPECT_EQ(shuffled.last_t, in_order.last_t) << "round " << round;
    EXPECT_EQ(shuffled.last_latency, in_order.last_latency) << "round " << round;
    EXPECT_EQ(distribution(shuffled), distribution(in_order)) << "round " << round;
  }
}

}  // namespace
}  // namespace mantra::core
