// MBGP (BGP4 multiprotocol extensions, SAFI 2): inter-domain exchange of
// multicast RPF routes. This is the "next-generation" interdomain routing
// substrate the paper's title refers to. In this simulator the Loc-RIB
// feeds `show ip mbgp` and MSDP peer-RPF (the peer that sent the best path
// towards an SA's originating RP); PIM-SM RPF does not consult it yet (it
// resolves through connected subnets and the unicast RIB, see
// MulticastRouter::rpf_sparse).
//
// Modelled as a per-router speaker with configured peers; session transport
// (TCP in reality) is abstracted to reliable in-order message delivery by
// the harness. Decision process: shortest AS-path, then lowest peer address.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "net/ipv4.hpp"
#include "net/prefix.hpp"
#include "net/prefix_trie.hpp"
#include "sim/engine.hpp"

namespace mantra::mbgp {

using AsNumber = std::uint32_t;

struct Advertisement {
  net::Prefix prefix;
  std::vector<AsNumber> as_path;  ///< leftmost = most recent AS
  net::Ipv4Address next_hop;
};

struct Update {
  net::Ipv4Address sender;  ///< filled in by the transport
  std::vector<Advertisement> announce;
  std::vector<net::Prefix> withdraw;
};

/// A path in the Loc-RIB / Adj-RIB-In.
struct Path {
  std::vector<AsNumber> as_path;
  net::Ipv4Address next_hop;
  net::Ipv4Address learned_from;  ///< peer address; unspecified for local
  sim::TimePoint installed;
  bool local = false;

  [[nodiscard]] std::size_t as_path_length() const { return as_path.size(); }
};

struct PeerConfig {
  net::Ipv4Address address;
  AsNumber remote_as = 0;
};

struct Config {
  AsNumber local_as = 0;
  std::vector<PeerConfig> peers;
  std::vector<net::Prefix> originated;
  /// Optional export policy: return false to suppress advertising `prefix`
  /// to `peer`.
  std::function<bool(const net::Prefix&, const PeerConfig&)> export_policy;
};

class Mbgp {
 public:
  using SendUpdate = std::function<void(net::Ipv4Address peer, const Update&)>;
  using RoutesChanged = std::function<void()>;

  Mbgp(sim::Engine& engine, net::Ipv4Address router_id, Config config);

  void set_send_update(SendUpdate fn) { send_update_ = std::move(fn); }
  void set_routes_changed(RoutesChanged fn) { routes_changed_ = std::move(fn); }

  /// Installs local routes and announces them to all configured peers.
  void start();

  void on_update(const Update& update);

  /// Session lifecycle: a peer going down flushes everything learned from it
  /// (and propagates the withdrawals).
  void peer_up(net::Ipv4Address peer);
  void peer_down(net::Ipv4Address peer);

  /// Originates (or withdraws) prefixes at runtime; used by migration
  /// scenarios where networks move from DVMRP to native/MBGP reachability.
  void originate(const std::vector<net::Prefix>& prefixes);
  void withdraw(const std::vector<net::Prefix>& prefixes);

  /// RPF lookup into the Loc-RIB: the best path of the longest prefix
  /// covering `address`, or null. The pointer is into the Loc-RIB and
  /// stays valid until the next change to this speaker's routes.
  [[nodiscard]] const Path* rpf_lookup(net::Ipv4Address address) const;

  /// Visits the Loc-RIB's best paths in address order, in place; `fn`
  /// takes (const net::Prefix&, const Path&) and must not change this
  /// speaker.
  template <typename Fn>
  void visit_loc_rib(Fn&& fn) const {
    best_.visit(fn);
  }
  [[nodiscard]] std::size_t route_count() const { return best_.size(); }
  [[nodiscard]] AsNumber local_as() const { return config_.local_as; }
  [[nodiscard]] net::Ipv4Address router_id() const { return router_id_; }
  [[nodiscard]] const Config& config() const { return config_; }

  [[nodiscard]] std::uint64_t updates_sent() const { return updates_sent_; }
  [[nodiscard]] std::uint64_t updates_received() const { return updates_received_; }
  [[nodiscard]] std::uint64_t best_path_changes() const { return best_path_changes_; }

 private:
  /// Recomputes the best path for a prefix from the Adj-RIBs-In; returns
  /// true if the Loc-RIB changed (triggering propagation).
  bool reselect(const net::Prefix& prefix);
  void propagate_announce(const net::Prefix& prefix, const Path& best);
  void propagate_withdraw(const net::Prefix& prefix);
  [[nodiscard]] const PeerConfig* find_peer(net::Ipv4Address address) const;
  [[nodiscard]] static bool path_preferred(const Path& a, const Path& b);

  sim::Engine& engine_;
  net::Ipv4Address router_id_;
  Config config_;
  SendUpdate send_update_;
  RoutesChanged routes_changed_;
  std::set<net::Ipv4Address> sessions_up_;
  /// Adj-RIB-In: per prefix, candidate paths keyed by learned_from peer.
  std::map<net::Prefix, std::map<net::Ipv4Address, Path>> rib_in_;
  net::PrefixTrie<Path> best_;
  std::uint64_t updates_sent_ = 0;
  std::uint64_t updates_received_ = 0;
  std::uint64_t best_path_changes_ = 0;
};

}  // namespace mantra::mbgp
