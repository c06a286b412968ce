// The DVMRP routing table: distance-vector routes to multicast-capable
// source networks. This is one of the two tables Mantra scrapes (the other
// is the multicast forwarding cache), and the subject of Figures 7-9.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <vector>

#include "net/ipv4.hpp"
#include "net/prefix.hpp"
#include "net/prefix_trie.hpp"
#include "net/topology.hpp"
#include "sim/time.hpp"

namespace mantra::dvmrp {

/// DVMRP metric infinity (RFC 1075). Metrics in [infinity, 2*infinity) on
/// the wire encode poison reverse: "I depend on you for this route".
inline constexpr int kInfinity = 32;

enum class RouteState : std::uint8_t {
  kValid,     ///< refreshed recently, usable for RPF
  kHolddown,  ///< expired; advertised with infinity until garbage-collected
};

struct Route {
  net::Prefix prefix;
  int metric = kInfinity;
  net::Ipv4Address upstream;     ///< advertising neighbor (0 if local origin)
  net::IfIndex ifindex = net::kInvalidIf;
  bool local = false;            ///< originated by this router
  RouteState state = RouteState::kValid;
  sim::TimePoint learned;        ///< when the route first appeared
  sim::TimePoint last_change;    ///< metric/upstream change or state flip
  sim::TimePoint last_refresh;   ///< last report that confirmed the route
  std::uint32_t flap_count = 0;  ///< changes since learned (stability stat)
  /// Downstream neighbors that poison-reversed this route (they depend on us
  /// to reach it); DVMRP's data plane uses this to know who to flood to.
  std::set<net::Ipv4Address> dependents;
};

class RouteTable {
 public:
  /// Inserts or updates; bumps last_change/flap_count only on real changes.
  /// Returns a reference valid until the next mutation.
  Route& upsert(const net::Prefix& prefix, int metric, net::Ipv4Address upstream,
                net::IfIndex ifindex, bool local, sim::TimePoint now);

  [[nodiscard]] const Route* find(const net::Prefix& prefix) const {
    return table_.find(prefix);
  }
  [[nodiscard]] Route* find(const net::Prefix& prefix) { return table_.find(prefix); }

  bool erase(const net::Prefix& prefix) { return table_.erase(prefix); }

  /// Longest-prefix match used for RPF lookups on source addresses: the most
  /// specific covering route in kValid state, found in one trie descent.
  [[nodiscard]] const Route* rpf_lookup(net::Ipv4Address source) const;

  /// Visits routes in address order; templated so the per-route call
  /// inlines (this runs once per monitored capture on the render hot path).
  template <typename Fn>
  void visit(Fn&& fn) const {
    table_.visit([&fn](const net::Prefix&, const Route& route) { fn(route); });
  }

  /// All routes in address order (copies; use visit() on hot paths).
  [[nodiscard]] std::vector<Route> routes() const;

  [[nodiscard]] std::size_t size() const { return table_.size(); }

  /// Number of routes in kValid state (what "reachable DVMRP networks"
  /// means in the paper's plots).
  [[nodiscard]] std::size_t valid_count() const;

 private:
  net::PrefixTrie<Route> table_;
};

}  // namespace mantra::dvmrp
