#include "dvmrp/route_table.hpp"

namespace mantra::dvmrp {

Route& RouteTable::upsert(const net::Prefix& prefix, int metric,
                          net::Ipv4Address upstream, net::IfIndex ifindex,
                          bool local, sim::TimePoint now) {
  Route* existing = table_.find(prefix);
  if (existing == nullptr) {
    Route fresh;
    fresh.prefix = prefix;
    fresh.metric = metric;
    fresh.upstream = upstream;
    fresh.ifindex = ifindex;
    fresh.local = local;
    fresh.state = RouteState::kValid;
    fresh.learned = now;
    fresh.last_change = now;
    fresh.last_refresh = now;
    table_.insert(prefix, std::move(fresh));
    return *table_.find(prefix);
  }
  const bool changed = existing->metric != metric ||
                       existing->upstream != upstream ||
                       existing->ifindex != ifindex ||
                       existing->state != RouteState::kValid;
  existing->metric = metric;
  existing->upstream = upstream;
  existing->ifindex = ifindex;
  existing->local = local;
  existing->state = RouteState::kValid;
  existing->last_refresh = now;
  if (changed) {
    existing->last_change = now;
    ++existing->flap_count;
  }
  return *existing;
}

const Route* RouteTable::rpf_lookup(net::Ipv4Address source) const {
  // Most specific *valid* covering route: a hold-down route does not shadow
  // a shorter valid one. Covering routes come shortest first.
  const Route* best = nullptr;
  table_.visit_matches(source, [&best](const net::Prefix&, const Route& route) {
    if (route.state == RouteState::kValid) best = &route;
  });
  return best;
}

std::vector<Route> RouteTable::routes() const {
  std::vector<Route> out;
  out.reserve(table_.size());
  visit([&out](const Route& route) { out.push_back(route); });
  return out;
}

std::size_t RouteTable::valid_count() const {
  std::size_t count = 0;
  visit([&count](const Route& route) {
    if (route.state == RouteState::kValid) ++count;
  });
  return count;
}

}  // namespace mantra::dvmrp
