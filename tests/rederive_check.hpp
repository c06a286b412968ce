// The re-derivation check. Every `.marc` record stores the CycleResult its
// writer's derive_cycle returned, and every offline reader returns that
// stored answer. These helpers derive each record again from its decoded
// tables, so a test can hold the stored values to the tables bit for bit.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/archive.hpp"

namespace mantra::core::rederive {

/// derive_cycle over every record's decoded tables and collection facts, in
/// archive order, continuing from `carry` (a fresh one by default) and
/// `previous`, the tables that carry derived last (none by default). Each
/// record is derived against the previously decoded one.
inline std::vector<CycleResult> results_of(const ArchiveReader& reader, CycleCarry carry = {},
                                           Snapshot previous = {}) {
  std::vector<CycleResult> results;
  reader.for_each([&](std::size_t, const Snapshot& tables, const ArchiveCycleMeta& meta) {
    results.push_back(derive_cycle(tables, previous, meta, carry));
    previous = tables;
  });
  return results;
}

/// The fields where `got` and `want` differ; doubles compare by their bits.
inline std::vector<std::string> differing_fields(const CycleResult& got,
                                                 const CycleResult& want) {
  std::vector<std::string> fields;
  const auto check = [&](const char* name, bool same) {
    if (!same) fields.emplace_back(name);
  };
  const auto bits = [](double value) { return std::bit_cast<std::uint64_t>(value); };
  const UsageStats& g = got.usage;
  const UsageStats& w = want.usage;
  check("t", got.t == want.t);
  check("cycle_seq", got.cycle_seq == want.cycle_seq);
  check("usage.sessions", g.sessions == w.sessions);
  check("usage.participants", g.participants == w.participants);
  check("usage.active_sessions", g.active_sessions == w.active_sessions);
  check("usage.senders", g.senders == w.senders);
  check("usage.single_member_sessions", g.single_member_sessions == w.single_member_sessions);
  check("usage.avg_density", bits(g.avg_density) == bits(w.avg_density));
  check("usage.bandwidth_kbps", bits(g.bandwidth_kbps) == bits(w.bandwidth_kbps));
  check("usage.unicast_equivalent_kbps",
        bits(g.unicast_equivalent_kbps) == bits(w.unicast_equivalent_kbps));
  check("usage.saved_multiple", bits(g.saved_multiple) == bits(w.saved_multiple));
  check("usage.pct_sessions_active", bits(g.pct_sessions_active) == bits(w.pct_sessions_active));
  check("usage.pct_participants_senders",
        bits(g.pct_participants_senders) == bits(w.pct_participants_senders));
  check("dvmrp_routes", got.dvmrp_routes == want.dvmrp_routes);
  check("dvmrp_valid_routes", got.dvmrp_valid_routes == want.dvmrp_valid_routes);
  check("route_changes", got.route_changes == want.route_changes);
  check("sa_entries", got.sa_entries == want.sa_entries);
  check("mbgp_routes", got.mbgp_routes == want.mbgp_routes);
  check("parse_warnings", got.parse_warnings == want.parse_warnings);
  check("route_spike", got.route_spike == want.route_spike);
  check("route_spike_score", bits(got.route_spike_score) == bits(want.route_spike_score));
  check("density_single_fraction",
        bits(got.density_single_fraction) == bits(want.density_single_fraction));
  check("density_at_most_two_fraction",
        bits(got.density_at_most_two_fraction) == bits(want.density_at_most_two_fraction));
  check("density_top_share_80", bits(got.density_top_share_80) == bits(want.density_top_share_80));
  check("stale", got.stale == want.stale);
  check("stale_tables", got.stale_tables == want.stale_tables);
  check("collection_failures", got.collection_failures == want.collection_failures);
  check("consecutive_failures", got.consecutive_failures == want.consecutive_failures);
  check("capture_attempts", got.capture_attempts == want.capture_attempts);
  check("collection_latency", got.collection_latency == want.collection_latency);
  // A field added to CycleResult but not listed above still shows.
  if (fields.empty() && !(got == want)) fields.emplace_back("an unlisted field");
  return fields;
}

/// "cycle 12: route_changes route_spike_score" for every cycle where the
/// stored and re-derived results differ; empty when none does.
inline std::string describe_differences(const ArchiveReader& reader,
                                        const std::vector<CycleResult>& rederived) {
  std::string out;
  for (std::size_t i = 0; i < rederived.size(); ++i) {
    const std::vector<std::string> fields = differing_fields(reader.result_at(i), rederived[i]);
    if (fields.empty()) continue;
    out += "cycle " + std::to_string(i) + ":";
    for (const std::string& field : fields) out += " " + field;
    out += "\n";
  }
  return out;
}

}  // namespace mantra::core::rederive
