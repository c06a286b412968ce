#include "mbgp/mbgp.hpp"

#include <algorithm>

namespace mantra::mbgp {

Mbgp::Mbgp(sim::Engine& engine, net::Ipv4Address router_id, Config config)
    : engine_(engine), router_id_(router_id), config_(std::move(config)) {}

const PeerConfig* Mbgp::find_peer(net::Ipv4Address address) const {
  for (const PeerConfig& peer : config_.peers) {
    if (peer.address == address) return &peer;
  }
  return nullptr;
}

bool Mbgp::path_preferred(const Path& a, const Path& b) {
  if (a.local != b.local) return a.local;  // local routes win
  if (a.as_path_length() != b.as_path_length()) {
    return a.as_path_length() < b.as_path_length();
  }
  return a.learned_from < b.learned_from;
}

void Mbgp::start() {
  for (const PeerConfig& peer : config_.peers) sessions_up_.insert(peer.address);
  originate(config_.originated);
}

void Mbgp::originate(const std::vector<net::Prefix>& prefixes) {
  for (const net::Prefix& prefix : prefixes) {
    Path path;
    path.local = true;
    path.next_hop = router_id_;
    path.installed = engine_.now();
    rib_in_[prefix][net::Ipv4Address{}] = path;
    if (reselect(prefix)) {
      if (const Path* best = best_.find(prefix)) propagate_announce(prefix, *best);
    }
  }
  if (routes_changed_) routes_changed_();
}

void Mbgp::withdraw(const std::vector<net::Prefix>& prefixes) {
  for (const net::Prefix& prefix : prefixes) {
    const auto it = rib_in_.find(prefix);
    if (it == rib_in_.end()) continue;
    it->second.erase(net::Ipv4Address{});
    if (it->second.empty()) rib_in_.erase(it);
    if (reselect(prefix)) {
      if (const Path* best = best_.find(prefix)) {
        propagate_announce(prefix, *best);
      } else {
        propagate_withdraw(prefix);
      }
    }
  }
  if (routes_changed_) routes_changed_();
}

void Mbgp::on_update(const Update& update) {
  ++updates_received_;
  const PeerConfig* peer = find_peer(update.sender);
  if (peer == nullptr || sessions_up_.find(update.sender) == sessions_up_.end()) {
    return;  // not a configured/established peer
  }
  bool any_change = false;

  for (const net::Prefix& prefix : update.withdraw) {
    const auto it = rib_in_.find(prefix);
    if (it == rib_in_.end()) continue;
    if (it->second.erase(update.sender) == 0) continue;
    if (it->second.empty()) rib_in_.erase(it);
    if (reselect(prefix)) {
      any_change = true;
      if (const Path* best = best_.find(prefix)) {
        propagate_announce(prefix, *best);
      } else {
        propagate_withdraw(prefix);
      }
    }
  }

  for (const Advertisement& advert : update.announce) {
    // AS-path loop prevention.
    if (std::find(advert.as_path.begin(), advert.as_path.end(),
                  config_.local_as) != advert.as_path.end()) {
      continue;
    }
    Path path;
    path.as_path = advert.as_path;
    path.next_hop = advert.next_hop;
    path.learned_from = update.sender;
    path.installed = engine_.now();
    rib_in_[advert.prefix][update.sender] = std::move(path);
    if (reselect(advert.prefix)) {
      any_change = true;
      if (const Path* best = best_.find(advert.prefix)) {
        propagate_announce(advert.prefix, *best);
      }
    }
  }

  if (any_change && routes_changed_) routes_changed_();
}

bool Mbgp::reselect(const net::Prefix& prefix) {
  const Path* current = best_.find(prefix);
  const auto candidates = rib_in_.find(prefix);

  const Path* winner = nullptr;
  if (candidates != rib_in_.end()) {
    for (const auto& [from, path] : candidates->second) {
      if (winner == nullptr || path_preferred(path, *winner)) winner = &path;
    }
  }

  if (winner == nullptr) {
    if (current == nullptr) return false;
    best_.erase(prefix);
    ++best_path_changes_;
    return true;
  }
  if (current != nullptr && current->learned_from == winner->learned_from &&
      current->as_path == winner->as_path &&
      current->next_hop == winner->next_hop) {
    return false;  // unchanged
  }
  best_.insert(prefix, *winner);
  ++best_path_changes_;
  return true;
}

void Mbgp::propagate_announce(const net::Prefix& prefix, const Path& best) {
  if (!send_update_) return;
  for (const PeerConfig& peer : config_.peers) {
    if (sessions_up_.find(peer.address) == sessions_up_.end()) continue;
    if (peer.address == best.learned_from) continue;  // split horizon
    if (config_.export_policy && !config_.export_policy(prefix, peer)) continue;
    Update update;
    update.sender = router_id_;
    Advertisement advert;
    advert.prefix = prefix;
    advert.as_path.reserve(best.as_path.size() + 1);
    advert.as_path.push_back(config_.local_as);
    advert.as_path.insert(advert.as_path.end(), best.as_path.begin(),
                          best.as_path.end());
    advert.next_hop = router_id_;
    update.announce.push_back(std::move(advert));
    ++updates_sent_;
    send_update_(peer.address, update);
  }
}

void Mbgp::propagate_withdraw(const net::Prefix& prefix) {
  if (!send_update_) return;
  for (const PeerConfig& peer : config_.peers) {
    if (sessions_up_.find(peer.address) == sessions_up_.end()) continue;
    Update update;
    update.sender = router_id_;
    update.withdraw.push_back(prefix);
    ++updates_sent_;
    send_update_(peer.address, update);
  }
}

void Mbgp::peer_up(net::Ipv4Address peer) {
  if (find_peer(peer) == nullptr) return;
  if (!sessions_up_.insert(peer).second) return;
  // Re-advertise the full Loc-RIB to the new session.
  if (!send_update_) return;
  for (const auto& [prefix, best] : best_.entries()) {
    if (best.learned_from == peer) continue;
    if (config_.export_policy &&
        !config_.export_policy(prefix, *find_peer(peer))) {
      continue;
    }
    Update update;
    update.sender = router_id_;
    Advertisement advert;
    advert.prefix = prefix;
    advert.as_path.push_back(config_.local_as);
    advert.as_path.insert(advert.as_path.end(), best.as_path.begin(),
                          best.as_path.end());
    advert.next_hop = router_id_;
    update.announce.push_back(std::move(advert));
    ++updates_sent_;
    send_update_(peer, update);
  }
}

void Mbgp::peer_down(net::Ipv4Address peer) {
  if (sessions_up_.erase(peer) == 0) return;
  std::vector<net::Prefix> affected;
  for (auto it = rib_in_.begin(); it != rib_in_.end();) {
    if (it->second.erase(peer) > 0 && it->second.empty()) {
      affected.push_back(it->first);
      it = rib_in_.erase(it);
    } else {
      affected.push_back(it->first);
      ++it;
    }
  }
  bool any_change = false;
  for (const net::Prefix& prefix : affected) {
    if (reselect(prefix)) {
      any_change = true;
      if (const Path* best = best_.find(prefix)) {
        propagate_announce(prefix, *best);
      } else {
        propagate_withdraw(prefix);
      }
    }
  }
  if (any_change && routes_changed_) routes_changed_();
}

const Path* Mbgp::rpf_lookup(net::Ipv4Address address) const {
  const auto match = best_.longest_match(address);
  return match ? match->second : nullptr;
}

}  // namespace mantra::mbgp
