#include "router/cli.hpp"

#include <charconv>
#include <cstdio>

#include "dvmrp/route_table.hpp"

namespace mantra::router::cli {

namespace {

// Integer append without std::to_string temporaries.
template <typename Int>
void append_int(std::string& out, Int value) {
  char buffer[24];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  out.append(buffer, static_cast<std::size_t>(result.ptr - buffer));
}

// Two decimal digits, zero-padded ("%02d" for values in [0, 99]).
void append_2d(std::string& out, int value) {
  out += static_cast<char>('0' + value / 10);
  out += static_cast<char>('0' + value % 10);
}

// Appends `d` in IOS uptime form directly (same bytes as uptime_string).
void append_uptime(std::string& out, sim::Duration d) {
  const std::int64_t total_s = d.total_ms() / 1000;
  if (total_s < 86400) {
    // Hours can exceed two digits only past a day, so %02d == append_2d here.
    append_2d(out, static_cast<int>(total_s / 3600));
    out += ':';
    append_2d(out, static_cast<int>((total_s / 60) % 60));
    out += ':';
    append_2d(out, static_cast<int>(total_s % 60));
  } else {
    append_int(out, total_s / 86400);
    out += 'd';
    append_2d(out, static_cast<int>((total_s / 3600) % 24));
    out += 'h';
  }
}

// Fixed-point double append: exact printf "%.*f" bytes via std::to_chars.
void append_fixed(std::string& out, double value, int precision) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value,
                                    std::chars_format::fixed, precision);
  out.append(buffer, static_cast<std::size_t>(result.ptr - buffer));
}

// Left-justifies the field appended since `field_start` to `width` columns
// (printf "%-Ns": pad with spaces, never truncate).
void pad_field(std::string& out, std::size_t field_start, std::size_t width) {
  const std::size_t written = out.size() - field_start;
  if (written < width) out.append(width - written, ' ');
}

}  // namespace

std::string uptime_string(sim::Duration d) {
  std::string out;
  append_uptime(out, d);
  return out;
}

void show_ip_dvmrp_route_into(const MulticastRouter& router, sim::TimePoint now,
                              std::string& out) {
  const dvmrp::Dvmrp* instance = router.dvmrp();
  if (instance == nullptr) {
    out += "% DVMRP not running\n";
    return;
  }
  out += "DVMRP Routing Table - ";
  append_int(out, instance->routes().size());
  out += " entries\n";
  instance->routes().visit([&](const dvmrp::Route& route) {
    route.prefix.append_to(out);
    out += " [0/";
    append_int(out, route.metric);
    out += "] uptime ";
    append_uptime(out, now - route.learned);
    out += ", expires ";
    if (route.state == dvmrp::RouteState::kHolddown) {
      out += "holddown";
    } else {
      append_uptime(out, now - route.last_refresh);
    }
    out += "\n    via ";
    if (route.local) {
      out += "0.0.0.0";
    } else {
      route.upstream.append_to(out);
    }
    out += ", ";
    if (route.ifindex == net::kInvalidIf) {
      out += "connected";
    } else {
      out += router.interface_name(route.ifindex);
    }
    out += "\n";
  });
}

void show_ip_mroute_into(const MulticastRouter& router, sim::TimePoint now,
                         std::string& out) {
  out +=
      "IP Multicast Routing Table\n"
      "Flags: D - Dense, S - Sparse, C - Connected, P - Pruned,\n"
      "       T - SPT-bit set, F - Register flag, J - Join SPT\n"
      "Timers: Uptime/Expires\n\n";

  // (*,G) entries first (PIM-SM shared trees).
  if (router.pim() != nullptr) {
    for (const pim::RouteEntry& entry : router.pim()->entries()) {
      if (!entry.wildcard) continue;
      out += "(*, ";
      entry.group.append_to(out);
      out += "), ";
      append_uptime(out, now - entry.created);
      out += "/00:03:30, RP ";
      entry.rp.append_to(out);
      out += ", flags: S\n  Incoming interface: ";
      if (entry.upstream_if == net::kInvalidIf) {
        out += "Null";
      } else {
        out += router.interface_name(entry.upstream_if);
      }
      out += ", RPF nbr ";
      entry.upstream_neighbor.append_to(out);
      out += "\n  Outgoing interface list:";
      if (entry.oifs.empty()) {
        out += " Null\n";
      } else {
        out += "\n";
        for (net::IfIndex oif : entry.oifs) {
          out += "    ";
          out += router.interface_name(oif);
          out += ", Forward/Sparse, ";
          append_uptime(out, now - entry.created);
          out += "/00:03:30\n";
        }
      }
      out += "\n";
    }
  }

  // (S,G) entries from the forwarding cache (both planes).
  router.mfc().visit([&](const MfcEntry& entry) {
    out += "(";
    entry.source.append_to(out);
    out += ", ";
    entry.group.append_to(out);
    out += "), ";
    append_uptime(out, entry.uptime(now));
    out += "/00:03:30, flags: ";
    out += entry.mode == MfcMode::kDense ? "D" : "ST";
    if (entry.upstream_pruned) out += "P";
    out += "\n  Incoming interface: ";
    out += router.interface_name(entry.iif);
    out += ", RPF nbr 0.0.0.0\n  Outgoing interface list:";
    if (entry.oifs.empty()) {
      out += " Null\n";
    } else {
      out += "\n";
      for (net::IfIndex oif : entry.oifs) {
        out += "    ";
        out += router.interface_name(oif);
        out += ", Forward/";
        out += entry.mode == MfcMode::kDense ? "Dense" : "Sparse";
        out += ", ";
        append_uptime(out, entry.uptime(now));
        out += "/00:03:30\n";
      }
    }
    out += "\n";
  });
}

void show_ip_mroute_count_into(const MulticastRouter& router, sim::TimePoint now,
                               std::string& out) {
  router.mfc().advance_all(now);
  out += "IP Multicast Statistics\n";
  append_int(out, router.mfc().size());
  out += " routes using ";
  append_int(out, router.mfc().size() * 328);
  out +=
      " bytes of memory\n"
      "Counts: Pkt Count/Pkts per second/Avg Pkt Size/Kilobits per second\n\n";

  // Group entries by group address, as IOS does.
  net::Ipv4Address current_group;
  bool first = true;
  router.mfc().visit([&](const MfcEntry& entry) {
    // Note: Mfc::visit iterates in (source, group) order; re-sorting by
    // group would need a copy. IOS groups by group; we emit a group header
    // whenever the group changes, which the parser treats identically.
    if (first || entry.group != current_group) {
      current_group = entry.group;
      first = false;
      out += "Group: ";
      entry.group.append_to(out);
      out += "\n";
    }
    out += "  Source: ";
    entry.source.append_to(out);
    out += "/32, Forwarding: ";
    append_int(out, entry.packets);
    out += '/';
    append_fixed(out,
                 entry.rate_kbps > 0.0
                     ? entry.rate_kbps * 1000.0 / 8.0 / kAveragePacketBytes
                     : 0.0,
                 0);
    out += '/';
    append_fixed(out, kAveragePacketBytes, 0);
    out += '/';
    append_fixed(out, entry.rate_kbps, 2);
    out += ", Other: ";
    append_int(out, entry.packets);
    out += "/0/0\n    Average: ";
    append_fixed(out, entry.average_rate_kbps(now), 2);
    out += " kbps, Uptime: ";
    append_uptime(out, entry.uptime(now));
    out += "\n";
  });
}

void show_ip_msdp_sa_cache_into(const MulticastRouter& router, sim::TimePoint now,
                                std::string& out) {
  const msdp::Msdp* instance = router.msdp();
  if (instance == nullptr) {
    out += "% MSDP not running\n";
    return;
  }
  out += "MSDP Source-Active Cache - ";
  append_int(out, instance->cache_size());
  out += " entries\n";
  for (const msdp::SaCacheEntry& entry : instance->sa_cache()) {
    out += "(";
    entry.source.append_to(out);
    out += ", ";
    entry.group.append_to(out);
    out += "), RP ";
    entry.origin_rp.append_to(out);
    out += ", ";
    if (entry.learned_from.is_unspecified()) {
      out += "local";
    } else {
      out += "via peer ";
      entry.learned_from.append_to(out);
    }
    out += ", ";
    append_uptime(out, now - entry.first_seen);
    out += "\n";
  }
}

void show_ip_mbgp_into(const MulticastRouter& router, sim::TimePoint /*now*/,
                       std::string& out) {
  const mbgp::Mbgp* instance = router.mbgp();
  if (instance == nullptr) {
    out += "% MBGP not running\n";
    return;
  }
  out += "MBGP table version is 1, local router ID is ";
  instance->router_id().append_to(out);
  out +=
      "\nStatus codes: * valid, > best\n"
      "   Network            Next Hop            Path\n";
  instance->visit_loc_rib([&out](const net::Prefix& prefix, const mbgp::Path& path) {
    out += "*> ";
    std::size_t field = out.size();
    prefix.append_to(out);
    pad_field(out, field, 18);
    out += " ";
    field = out.size();
    path.next_hop.append_to(out);
    pad_field(out, field, 19);
    out += " ";
    if (path.as_path.empty()) {
      out += "i";
    } else {
      bool first_as = true;
      for (mbgp::AsNumber as : path.as_path) {
        if (!first_as) out += " ";
        first_as = false;
        append_int(out, as);
      }
    }
    out += "\n";
  });
}

void show_ip_igmp_groups_into(const MulticastRouter& router, sim::TimePoint now,
                              std::string& out) {
  out +=
      "IGMP Connected Group Membership\n"
      "Group Address    Interface     Uptime    Last Reporter\n";
  (void)now;
  for (net::Ipv4Address group : router.igmp().all_groups()) {
    for (net::IfIndex ifindex : router.igmp().interfaces_with_members(group)) {
      const auto members = router.igmp().members(ifindex, group);
      std::size_t field = out.size();
      group.append_to(out);
      pad_field(out, field, 16);
      out += " ";
      field = out.size();
      out += router.interface_name(ifindex);
      pad_field(out, field, 13);
      out += " 00:00:00  ";  // "%-9s" of "00:00:00" == the 8 chars + 1 pad
      if (members.empty()) {
        out += "0.0.0.0";
      } else {
        members.back().append_to(out);
      }
      out += "\n";
    }
  }
}

bool is_invalid_command_output(std::string_view raw) {
  return raw.find(kInvalidInputMarker) != std::string_view::npos;
}

void execute_show_into(const MulticastRouter& router, std::string_view command,
                       sim::TimePoint now, std::string& out) {
  if (command == "show ip dvmrp route") {
    show_ip_dvmrp_route_into(router, now, out);
  } else if (command == "show ip mroute") {
    show_ip_mroute_into(router, now, out);
  } else if (command == "show ip mroute count") {
    show_ip_mroute_count_into(router, now, out);
  } else if (command == "show ip msdp sa-cache") {
    show_ip_msdp_sa_cache_into(router, now, out);
  } else if (command == "show ip mbgp") {
    show_ip_mbgp_into(router, now, out);
  } else if (command == "show ip igmp groups") {
    show_ip_igmp_groups_into(router, now, out);
  } else {
    out += "% Invalid input detected at '^' marker.\n";
  }
}

void telnet_capture_into(const MulticastRouter& router, std::string_view command,
                         sim::TimePoint now, std::string& out) {
  const std::string& hostname = router.hostname();
  out += "\r\nUser Access Verification\r\n\r\nPassword: \r\n";
  out += hostname;
  out += "> terminal length 0\r\n";
  out += hostname;
  out += "> ";
  out += command;
  out += "\r\n";
  execute_show_into(router, command, now, out);
  out += hostname;
  out += "> ";
}

std::string show_ip_dvmrp_route(const MulticastRouter& router, sim::TimePoint now) {
  std::string out;
  show_ip_dvmrp_route_into(router, now, out);
  return out;
}

std::string show_ip_mroute(const MulticastRouter& router, sim::TimePoint now) {
  std::string out;
  show_ip_mroute_into(router, now, out);
  return out;
}

std::string show_ip_mroute_count(const MulticastRouter& router, sim::TimePoint now) {
  std::string out;
  show_ip_mroute_count_into(router, now, out);
  return out;
}

std::string show_ip_msdp_sa_cache(const MulticastRouter& router, sim::TimePoint now) {
  std::string out;
  show_ip_msdp_sa_cache_into(router, now, out);
  return out;
}

std::string show_ip_mbgp(const MulticastRouter& router, sim::TimePoint now) {
  std::string out;
  show_ip_mbgp_into(router, now, out);
  return out;
}

std::string show_ip_igmp_groups(const MulticastRouter& router, sim::TimePoint now) {
  std::string out;
  show_ip_igmp_groups_into(router, now, out);
  return out;
}

std::string execute_show(const MulticastRouter& router, std::string_view command,
                         sim::TimePoint now) {
  std::string out;
  execute_show_into(router, command, now, out);
  return out;
}

std::string telnet_capture(const MulticastRouter& router, std::string_view command,
                           sim::TimePoint now) {
  std::string out;
  telnet_capture_into(router, command, now, out);
  return out;
}

}  // namespace mantra::router::cli
