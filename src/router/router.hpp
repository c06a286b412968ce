// The integrated multicast router: IGMP + DVMRP + PIM-SM + MBGP + MSDP
// instances wired together over a shared unicast RIB and a multicast
// forwarding cache. This is the device Mantra logs into; cli.hpp renders
// its state tables as mrouted/IOS-style text.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "dvmrp/dvmrp.hpp"
#include "igmp/igmp.hpp"
#include "mbgp/mbgp.hpp"
#include "msdp/msdp.hpp"
#include "net/topology.hpp"
#include "pim/pim.hpp"
#include "router/mfc.hpp"
#include "router/unicast.hpp"
#include "sim/engine.hpp"

namespace mantra::router {

class MulticastRouter;

/// Services a router needs from the surrounding simulation; implemented by
/// Network. Keeping it abstract lets unit tests script a router in
/// isolation with a mock environment.
class RouterEnv {
 public:
  virtual ~RouterEnv() = default;

  virtual sim::Engine& engine() = 0;
  virtual const net::Topology& topology() const = 0;

  /// Cached router-only adjacency on a link (hot path: tree walks and
  /// dense-mode oif evaluation must not re-scan/allocate per call).
  virtual const std::vector<net::Attachment>& router_neighbors(
      net::NodeId node, net::IfIndex ifindex) const = 0;

  /// Which routing plane carries this group (per-group DVMRP vs native
  /// PIM-SM, as deployments of the era were configured). Routers use it to
  /// route membership changes to the right protocol machinery.
  virtual MfcMode group_plane(net::Ipv4Address group) const = 0;

  /// Link-local protocol delivery (subject to the link's delay and, for
  /// DVMRP reports, its loss model).
  virtual void deliver_dvmrp_report(net::NodeId from, net::IfIndex ifindex,
                                    const dvmrp::RouteReport& report) = 0;
  virtual void deliver_prune(net::NodeId from, net::IfIndex ifindex,
                             net::Ipv4Address to, const dvmrp::Prune& prune) = 0;
  virtual void deliver_graft(net::NodeId from, net::IfIndex ifindex,
                             net::Ipv4Address to, const dvmrp::Graft& graft) = 0;
  virtual void deliver_join_prune(net::NodeId from, net::IfIndex ifindex,
                                  const pim::JoinPrune& message) = 0;

  /// Unicast (multi-hop) control delivery: register tunnel and the
  /// TCP-based peerings (MBGP, MSDP).
  virtual void deliver_register(net::NodeId from, net::Ipv4Address rp,
                                const pim::Register& message) = 0;
  virtual void deliver_register_stop(net::NodeId from, net::Ipv4Address dr,
                                     const pim::RegisterStop& message) = 0;
  virtual void deliver_mbgp(net::NodeId from, net::Ipv4Address peer,
                            const mbgp::Update& update) = 0;
  virtual void deliver_msdp(net::NodeId from, net::Ipv4Address peer,
                            const msdp::SourceActive& message) = 0;

  /// Multicast tree state changed at `node` for `group` (unspecified group
  /// = recompute everything); the flow layer re-walks distribution trees.
  virtual void multicast_state_changed(net::NodeId node, net::Ipv4Address group) = 0;
};

struct RouterConfig {
  bool dvmrp_enabled = false;
  dvmrp::Config dvmrp;
  bool pim_enabled = false;
  pim::Config pim;
  bool mbgp_enabled = false;
  mbgp::Config mbgp;
  bool msdp_enabled = false;
  msdp::Config msdp;
  igmp::Config igmp;

  /// Dense-mode prune lifetime (mrouted default is 2 hours).
  sim::Duration prune_lifetime = sim::Duration::hours(2);
};

class MulticastRouter {
 public:
  MulticastRouter(RouterEnv& env, net::NodeId node_id, RouterConfig config);

  void start();

  // --- Identity / introspection ---
  [[nodiscard]] net::NodeId node_id() const { return node_id_; }
  [[nodiscard]] net::Ipv4Address router_id() const { return router_id_; }
  [[nodiscard]] const std::string& hostname() const { return hostname_; }

  /// Interface name from the topology ("eth0", "tunnel2"); "Null0" for
  /// kInvalidIf or an unknown index. The reference lives as long as the
  /// topology's interface.
  [[nodiscard]] const std::string& interface_name(net::IfIndex ifindex) const;
  [[nodiscard]] const RouterConfig& config() const { return config_; }

  [[nodiscard]] igmp::Igmp& igmp() { return igmp_; }
  [[nodiscard]] const igmp::Igmp& igmp() const { return igmp_; }
  [[nodiscard]] dvmrp::Dvmrp* dvmrp() { return dvmrp_.get(); }
  [[nodiscard]] const dvmrp::Dvmrp* dvmrp() const { return dvmrp_.get(); }
  [[nodiscard]] pim::Pim* pim() { return pim_.get(); }
  [[nodiscard]] const pim::Pim* pim() const { return pim_.get(); }
  [[nodiscard]] mbgp::Mbgp* mbgp() { return mbgp_.get(); }
  [[nodiscard]] const mbgp::Mbgp* mbgp() const { return mbgp_.get(); }
  [[nodiscard]] msdp::Msdp* msdp() { return msdp_.get(); }
  [[nodiscard]] const msdp::Msdp* msdp() const { return msdp_.get(); }
  [[nodiscard]] UnicastRib& rib() { return rib_; }
  [[nodiscard]] const UnicastRib& rib() const { return rib_; }
  [[nodiscard]] Mfc& mfc() { return mfc_; }
  [[nodiscard]] const Mfc& mfc() const { return mfc_; }

  // --- RPF ---
  /// RPF for dense-mode data (DVMRP routing table).
  [[nodiscard]] std::optional<pim::RpfResult> rpf_dense(net::Ipv4Address source) const;
  /// RPF for PIM-SM: a connected subnet first, then the unicast RIB. The
  /// MBGP Loc-RIB is not consulted.
  [[nodiscard]] std::optional<pim::RpfResult> rpf_sparse(net::Ipv4Address target) const;

  /// True if this router is the designated router on `ifindex` (lowest
  /// router address on the link wins, matching 1998-era PIM DR election).
  [[nodiscard]] bool is_dr(net::IfIndex ifindex) const;

  /// True if any other multicast router is attached on `ifindex`.
  [[nodiscard]] bool has_downstream_routers(net::IfIndex ifindex) const;

  // --- Message handlers (called by the environment) ---
  void on_dvmrp_report(net::IfIndex ifindex, net::Ipv4Address from,
                       const dvmrp::RouteReport& report);
  void on_prune(net::IfIndex ifindex, net::Ipv4Address from, const dvmrp::Prune& prune);
  void on_graft(net::IfIndex ifindex, net::Ipv4Address from, const dvmrp::Graft& graft);
  void on_join_prune(net::IfIndex ifindex, const pim::JoinPrune& message);
  void on_register(const pim::Register& message);
  void on_register_stop(const pim::RegisterStop& message);
  void on_mbgp_update(const mbgp::Update& update);
  void on_msdp_sa(const msdp::SourceActive& message);

  // --- Host-side events (from the LAN this router serves) ---
  void on_igmp_report(net::IfIndex ifindex, net::Ipv4Address group,
                      net::Ipv4Address reporter);
  void on_igmp_leave(net::IfIndex ifindex, net::Ipv4Address group,
                     net::Ipv4Address reporter);

  // --- Dense-mode data plane ---
  /// A dense flow (source, group) arrives on `iif`. Creates/refreshes the
  /// MFC entry and returns the interfaces to forward on; nullopt on RPF
  /// failure. May emit an upstream prune when nothing is downstream.
  std::optional<std::set<net::IfIndex>> dense_accept(net::Ipv4Address source,
                                                     net::Ipv4Address group,
                                                     net::IfIndex iif);

  /// Sparse-mode forwarding decision for (S,G) data arriving on `iif`:
  /// union of the PIM (S,G) and (*,G) oifs, minus the arrival interface.
  [[nodiscard]] std::set<net::IfIndex> sparse_oifs(net::Ipv4Address source,
                                                   net::Ipv4Address group,
                                                   net::IfIndex iif) const;

 private:
  void wire_protocols();
  void on_membership_change(net::IfIndex ifindex, net::Ipv4Address group,
                            bool has_members);
  /// Recomputes the oif set of a dense MFC entry from interfaces, prune and
  /// membership state; returns true if the set changed.
  bool refresh_dense_oifs(MfcEntry& entry);
  void send_upstream_prune(MfcEntry& entry);
  void send_upstream_graft(MfcEntry& entry);
  void note_state_changed(net::Ipv4Address group);

  RouterEnv& env_;
  net::NodeId node_id_;
  RouterConfig config_;
  net::Ipv4Address router_id_;
  std::string hostname_;
  igmp::Igmp igmp_;
  std::unique_ptr<dvmrp::Dvmrp> dvmrp_;
  std::unique_ptr<pim::Pim> pim_;
  std::unique_ptr<mbgp::Mbgp> mbgp_;
  std::unique_ptr<msdp::Msdp> msdp_;
  UnicastRib rib_;
  Mfc mfc_;
};

}  // namespace mantra::router
