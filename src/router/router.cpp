#include "router/router.hpp"

#include <algorithm>

namespace mantra::router {

namespace {

/// All enabled, linked interfaces of a node (the multicast VIF set).
std::vector<net::IfIndex> multicast_interfaces(const net::Node& node) {
  std::vector<net::IfIndex> out;
  for (const net::Interface& iface : node.interfaces) {
    if (iface.enabled && iface.link != net::kInvalidLink) {
      out.push_back(iface.ifindex);
    }
  }
  return out;
}

}  // namespace

MulticastRouter::MulticastRouter(RouterEnv& env, net::NodeId node_id,
                                 RouterConfig config)
    : env_(env),
      node_id_(node_id),
      config_(std::move(config)),
      igmp_(env.engine(), config_.igmp) {
  const net::Node& node = env_.topology().node(node_id_);
  router_id_ = node.primary_address();
  hostname_ = node.name;

  const std::vector<net::IfIndex> vifs = multicast_interfaces(node);

  if (config_.dvmrp_enabled) {
    if (config_.dvmrp.interfaces.empty()) {
      for (net::IfIndex ifindex : vifs) {
        config_.dvmrp.interfaces.push_back({ifindex, 1});
      }
    }
    // mrouted always originates its directly connected subnets.
    for (net::IfIndex ifindex : vifs) {
      const net::Interface* iface = node.interface(ifindex);
      config_.dvmrp.originated.push_back({iface->subnet, 1});
    }
    dvmrp_ = std::make_unique<dvmrp::Dvmrp>(env_.engine(), router_id_, config_.dvmrp);
  }
  if (config_.pim_enabled) {
    if (config_.pim.interfaces.empty()) config_.pim.interfaces = vifs;
    pim_ = std::make_unique<pim::Pim>(env_.engine(), router_id_, config_.pim);
  }
  if (config_.mbgp_enabled) {
    mbgp_ = std::make_unique<mbgp::Mbgp>(env_.engine(), router_id_, config_.mbgp);
  }
  if (config_.msdp_enabled) {
    msdp_ = std::make_unique<msdp::Msdp>(env_.engine(), router_id_, config_.msdp);
  }
  wire_protocols();
}

void MulticastRouter::wire_protocols() {
  igmp_.set_membership_change_handler(
      [this](net::IfIndex ifindex, net::Ipv4Address group, bool has_members) {
        on_membership_change(ifindex, group, has_members);
      });

  if (dvmrp_) {
    dvmrp_->set_send_report([this](net::IfIndex ifindex,
                                   const dvmrp::RouteReport& report) {
      env_.deliver_dvmrp_report(node_id_, ifindex, report);
    });
    dvmrp_->set_routes_changed(
        [this] { note_state_changed(net::Ipv4Address{}); });
  }

  if (pim_) {
    pim_->set_send_join_prune(
        [this](net::IfIndex ifindex, const pim::JoinPrune& message) {
          env_.deliver_join_prune(node_id_, ifindex, message);
        });
    pim_->set_send_register(
        [this](net::Ipv4Address rp, const pim::Register& message) {
          env_.deliver_register(node_id_, rp, message);
        });
    pim_->set_send_register_stop(
        [this](net::Ipv4Address dr, const pim::RegisterStop& message) {
          env_.deliver_register_stop(node_id_, dr, message);
        });
    pim_->set_rpf_lookup([this](net::Ipv4Address target) {
      return rpf_sparse(target);
    });
    pim_->set_is_local_address([this](net::Ipv4Address address) {
      if (address == router_id_) return true;
      for (const net::Interface& iface : env_.topology().node(node_id_).interfaces) {
        if (iface.address == address) return true;
      }
      return false;
    });
    pim_->set_state_changed([this](net::Ipv4Address group) {
      note_state_changed(group);
    });
    pim_->set_source_discovered(
        [this](net::Ipv4Address source, net::Ipv4Address group) {
          if (msdp_) msdp_->originate(source, group);
        });
  }

  if (mbgp_) {
    mbgp_->set_send_update([this](net::Ipv4Address peer, const mbgp::Update& update) {
      env_.deliver_mbgp(node_id_, peer, update);
    });
  }

  if (msdp_) {
    msdp_->set_send_sa(
        [this](net::Ipv4Address peer, const msdp::SourceActive& message) {
          env_.deliver_msdp(node_id_, peer, message);
        });
    msdp_->set_rpf_peer([this](net::Ipv4Address origin_rp) {
      // Peer-RPF: prefer the MSDP peer matching the MBGP best path towards
      // the originating RP; fall back to the lowest-address peer so a
      // deterministic flooding topology exists even without MBGP.
      if (mbgp_) {
        if (const mbgp::Path* path = mbgp_->rpf_lookup(origin_rp)) {
          for (const msdp::PeerConfig& peer : msdp_->config().peers) {
            if (peer.address == path->learned_from) return peer.address;
          }
        }
      }
      net::Ipv4Address best;
      for (const msdp::PeerConfig& peer : msdp_->config().peers) {
        if (best.is_unspecified() || peer.address < best) best = peer.address;
      }
      return best;
    });
    msdp_->set_sa_learned([this](net::Ipv4Address source, net::Ipv4Address group,
                                 net::Ipv4Address /*origin_rp*/) {
      if (pim_ == nullptr || !pim_->is_rp_for(group)) return;
      const pim::RouteEntry* star = pim_->find_star_g(group);
      if (star != nullptr && !star->oifs.empty()) {
        pim_->join_remote_source(source, group);
      }
    });
    msdp_->set_sa_expired([this](net::Ipv4Address source, net::Ipv4Address group) {
      if (pim_) pim_->remote_source_gone(source, group);
    });
  }
}

const std::string& MulticastRouter::interface_name(net::IfIndex ifindex) const {
  static const std::string kNull = "Null0";
  if (ifindex == net::kInvalidIf) return kNull;
  const net::Interface* iface = env_.topology().node(node_id_).interface(ifindex);
  return iface == nullptr ? kNull : iface->name;
}

void MulticastRouter::start() {
  if (dvmrp_) dvmrp_->start();
  if (pim_) pim_->start();
  if (mbgp_) mbgp_->start();
  if (msdp_) msdp_->start();
}

std::optional<pim::RpfResult> MulticastRouter::rpf_dense(
    net::Ipv4Address source) const {
  if (dvmrp_ == nullptr) return std::nullopt;
  const dvmrp::Route* route = dvmrp_->routes().rpf_lookup(source);
  if (route == nullptr) return std::nullopt;
  if (route->local) {
    // Directly connected source network: the RPF interface is the one whose
    // subnet contains the source, and there is no upstream neighbor.
    for (const net::Interface& iface : env_.topology().node(node_id_).interfaces) {
      if (iface.enabled && iface.subnet.contains(source)) {
        return pim::RpfResult{iface.ifindex, net::Ipv4Address{}};
      }
    }
    return std::nullopt;
  }
  return pim::RpfResult{route->ifindex, route->upstream};
}

std::optional<pim::RpfResult> MulticastRouter::rpf_sparse(
    net::Ipv4Address target) const {
  for (const net::Interface& iface : env_.topology().node(node_id_).interfaces) {
    if (iface.enabled && iface.subnet.contains(target)) {
      return pim::RpfResult{iface.ifindex, net::Ipv4Address{}};
    }
  }
  const UnicastRoute* route = rib_.lookup(target);
  if (route == nullptr) return std::nullopt;
  return pim::RpfResult{route->ifindex, route->next_hop};
}

bool MulticastRouter::is_dr(net::IfIndex ifindex) const {
  const net::Interface* mine = env_.topology().node(node_id_).interface(ifindex);
  if (mine == nullptr || !mine->enabled) return false;
  for (const net::Attachment& att : env_.router_neighbors(node_id_, ifindex)) {
    const net::Interface* iface = env_.topology().node(att.node).interface(att.ifindex);
    if (iface != nullptr && iface->address < mine->address) return false;
  }
  return true;
}

bool MulticastRouter::has_downstream_routers(net::IfIndex ifindex) const {
  return !env_.router_neighbors(node_id_, ifindex).empty();
}

void MulticastRouter::on_dvmrp_report(net::IfIndex ifindex, net::Ipv4Address from,
                                      const dvmrp::RouteReport& report) {
  if (dvmrp_) dvmrp_->on_report(ifindex, from, report);
}

void MulticastRouter::on_join_prune(net::IfIndex ifindex,
                                    const pim::JoinPrune& message) {
  if (pim_) pim_->on_join_prune(ifindex, message);
}

void MulticastRouter::on_register(const pim::Register& message) {
  if (pim_) pim_->on_register(message);
}

void MulticastRouter::on_register_stop(const pim::RegisterStop& message) {
  if (pim_) pim_->on_register_stop(message);
}

void MulticastRouter::on_mbgp_update(const mbgp::Update& update) {
  if (mbgp_) mbgp_->on_update(update);
}

void MulticastRouter::on_msdp_sa(const msdp::SourceActive& message) {
  if (msdp_) msdp_->on_source_active(message);
}

void MulticastRouter::on_igmp_report(net::IfIndex ifindex, net::Ipv4Address group,
                                     net::Ipv4Address reporter) {
  igmp_.on_report(ifindex, group, reporter);
}

void MulticastRouter::on_igmp_leave(net::IfIndex ifindex, net::Ipv4Address group,
                                    net::Ipv4Address reporter) {
  igmp_.on_leave(ifindex, group, reporter);
}

void MulticastRouter::on_membership_change(net::IfIndex ifindex,
                                           net::Ipv4Address group,
                                           bool has_members) {
  const MfcMode plane = env_.group_plane(group);

  if (plane == MfcMode::kSparse) {
    // PIM reacts only on the designated router for the LAN.
    if (pim_ && is_dr(ifindex)) {
      pim_->local_membership_changed(ifindex, group, has_members);
    }
    note_state_changed(group);
    return;
  }

  // Dense-mode entries for the group re-evaluate their oif sets; gaining
  // members on a pruned branch triggers a graft.
  bool dirty = false;
  mfc_.visit_group(group, [&](MfcEntry& entry) {
    if (entry.mode != MfcMode::kDense) return;
    if (refresh_dense_oifs(entry)) dirty = true;
    if (has_members && entry.upstream_pruned && !entry.oifs.empty()) {
      send_upstream_graft(entry);
      dirty = true;
    }
    if (!has_members && entry.oifs.empty() && !entry.upstream_pruned) {
      send_upstream_prune(entry);
      dirty = true;
    }
  });
  if (dirty) note_state_changed(group);
}

bool MulticastRouter::refresh_dense_oifs(MfcEntry& entry) {
  std::set<net::IfIndex> oifs;
  const net::Node& node = env_.topology().node(node_id_);
  for (net::IfIndex ifindex : multicast_interfaces(node)) {
    if (ifindex == entry.iif) continue;
    if (igmp_.has_members(ifindex, entry.group)) {
      oifs.insert(ifindex);
      continue;
    }
    // Forward towards downstream routers unless all of them pruned.
    bool any_router = false;
    bool all_pruned = true;
    const auto pruned = entry.prunes.find(ifindex);
    for (const net::Attachment& att : env_.router_neighbors(node_id_, ifindex)) {
      any_router = true;
      const net::Ipv4Address addr =
          env_.topology().node(att.node).interface(att.ifindex)->address;
      if (pruned == entry.prunes.end() ||
          pruned->second.find(addr) == pruned->second.end()) {
        all_pruned = false;
        break;
      }
    }
    if (any_router && !all_pruned) oifs.insert(ifindex);
  }
  const bool changed = oifs != entry.oifs;
  entry.oifs = std::move(oifs);
  return changed;
}

std::optional<std::set<net::IfIndex>> MulticastRouter::dense_accept(
    net::Ipv4Address source, net::Ipv4Address group, net::IfIndex iif) {
  const auto rpf = rpf_dense(source);
  if (!rpf || rpf->ifindex != iif) return std::nullopt;  // RPF failure: drop

  const bool existed = mfc_.find(source, group) != nullptr;
  MfcEntry& entry = mfc_.ensure(source, group, MfcMode::kDense, iif, env_.engine().now());
  if (entry.iif != iif) {
    entry.advance(env_.engine().now());
    entry.iif = iif;  // RPF interface moved (route change)
    refresh_dense_oifs(entry);
  } else if (!existed) {
    refresh_dense_oifs(entry);
  }
  // Existing entries keep their oif sets current through the prune/graft
  // and membership handlers; re-deriving them on every walk would dominate
  // trace-scale runs.
  if (entry.oifs.empty() && !entry.upstream_pruned &&
      !rpf->neighbor.is_unspecified()) {
    send_upstream_prune(entry);
  }
  return entry.oifs;
}

std::set<net::IfIndex> MulticastRouter::sparse_oifs(net::Ipv4Address source,
                                                    net::Ipv4Address group,
                                                    net::IfIndex iif) const {
  std::set<net::IfIndex> oifs;
  if (pim_ == nullptr) return oifs;
  if (const pim::RouteEntry* sg = pim_->find_sg(source, group)) {
    for (net::IfIndex ifindex : sg->oifs) {
      if (ifindex != iif) oifs.insert(ifindex);
    }
  }
  if (const pim::RouteEntry* star = pim_->find_star_g(group)) {
    for (net::IfIndex ifindex : star->oifs) {
      if (ifindex != iif) oifs.insert(ifindex);
    }
  }
  return oifs;
}

void MulticastRouter::on_prune(net::IfIndex ifindex, net::Ipv4Address from,
                               const dvmrp::Prune& prune) {
  MfcEntry* entry = mfc_.find(prune.source_network, prune.group);
  if (entry == nullptr || entry->mode != MfcMode::kDense) return;
  entry->prunes[ifindex].insert(from);
  refresh_dense_oifs(*entry);
  if (entry->oifs.empty() && !entry->upstream_pruned) {
    const auto rpf = rpf_dense(entry->source);
    if (rpf && !rpf->neighbor.is_unspecified()) send_upstream_prune(*entry);
  }
  // Prune state ages out and traffic refloods (mrouted behaviour); a zero
  // lifetime disables expiry for trace-scale runs.
  if (!config_.prune_lifetime.is_zero()) {
    const net::Ipv4Address source = entry->source;
    const net::Ipv4Address group = entry->group;
    env_.engine().schedule_after(config_.prune_lifetime, [this, source, group,
                                                          ifindex, from] {
      MfcEntry* aged = mfc_.find(source, group);
      if (aged == nullptr) return;
      const auto it = aged->prunes.find(ifindex);
      if (it == aged->prunes.end() || it->second.erase(from) == 0) return;
      if (it->second.empty()) aged->prunes.erase(it);
      refresh_dense_oifs(*aged);
      note_state_changed(group);
    });
  }
  note_state_changed(entry->group);
}

void MulticastRouter::on_graft(net::IfIndex ifindex, net::Ipv4Address from,
                               const dvmrp::Graft& graft) {
  MfcEntry* entry = mfc_.find(graft.source_network, graft.group);
  if (entry == nullptr || entry->mode != MfcMode::kDense) return;
  const auto it = entry->prunes.find(ifindex);
  if (it != entry->prunes.end()) {
    it->second.erase(from);
    if (it->second.empty()) entry->prunes.erase(it);
  }
  refresh_dense_oifs(*entry);
  if (entry->upstream_pruned && !entry->oifs.empty()) {
    send_upstream_graft(*entry);
  }
  note_state_changed(entry->group);
}

void MulticastRouter::send_upstream_prune(MfcEntry& entry) {
  const auto rpf = rpf_dense(entry.source);
  if (!rpf || rpf->neighbor.is_unspecified()) return;
  entry.upstream_pruned = true;
  env_.deliver_prune(node_id_, rpf->ifindex, rpf->neighbor,
                     dvmrp::Prune{entry.source, entry.group, config_.prune_lifetime});
}

void MulticastRouter::send_upstream_graft(MfcEntry& entry) {
  const auto rpf = rpf_dense(entry.source);
  if (!rpf || rpf->neighbor.is_unspecified()) return;
  entry.upstream_pruned = false;
  env_.deliver_graft(node_id_, rpf->ifindex, rpf->neighbor,
                     dvmrp::Graft{entry.source, entry.group});
}

void MulticastRouter::note_state_changed(net::Ipv4Address group) {
  env_.multicast_state_changed(node_id_, group);
}

}  // namespace mantra::router
