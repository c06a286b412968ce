// The collection text path as it stood before the format-directed scanners:
// preprocess_into, parse_uptime, the four table parsers, and the
// from_chars address and prefix readers they called. Test-only; the
// differential test holds the production code to exactly these results.
//
// Verbatim apart from two changes: parse_uptime rejects day/hour counts
// whose milliseconds overflow int64_t (the production fix, applied here so
// the two agree on hostile text), and the parsers read addresses and
// prefixes through parse_address/parse_prefix below instead of
// net::Ipv4Address::parse/net::Prefix::parse. Rows go in through
// Table::upsert, as they did.
#include "oracle/parse_oracle.hpp"

#include <array>
#include <charconv>
#include <cstdint>
#include <limits>

namespace mantra::oracle {

using namespace core;

std::optional<net::Ipv4Address> parse_address(std::string_view text) {
  std::array<std::uint32_t, 4> octets{};
  const char* cursor = text.data();
  const char* end = text.data() + text.size();
  for (int i = 0; i < 4; ++i) {
    if (i > 0) {
      if (cursor == end || *cursor != '.') return std::nullopt;
      ++cursor;
    }
    auto [next, ec] = std::from_chars(cursor, end, octets[i]);
    if (ec != std::errc{} || next == cursor || octets[i] > 255) return std::nullopt;
    cursor = next;
  }
  if (cursor != end) return std::nullopt;
  return net::Ipv4Address(static_cast<std::uint8_t>(octets[0]),
                          static_cast<std::uint8_t>(octets[1]),
                          static_cast<std::uint8_t>(octets[2]),
                          static_cast<std::uint8_t>(octets[3]));
}

std::optional<net::Prefix> parse_prefix(std::string_view text) {
  const auto slash = text.find('/');
  if (slash == std::string_view::npos) {
    auto addr = parse_address(text);
    if (!addr) return std::nullopt;
    return net::Prefix(*addr, 32);
  }
  auto addr = parse_address(text.substr(0, slash));
  if (!addr) return std::nullopt;
  const std::string_view len_text = text.substr(slash + 1);
  int length = 0;
  auto [next, ec] =
      std::from_chars(len_text.data(), len_text.data() + len_text.size(), length);
  if (ec != std::errc{} || next != len_text.data() + len_text.size() ||
      length < 0 || length > 32) {
    return std::nullopt;
  }
  return net::Prefix(*addr, length);
}

namespace {

bool is_noise_line(std::string_view line) {
  if (line.find("User Access Verification") != std::string_view::npos) return true;
  if (line.find("Password:") != std::string_view::npos) return true;
  // Prompt / echo lines: first token is a hostname followed by '>'
  // ("fixw> show ip mroute"). Be careful not to match data lines that
  // merely contain '>' — MBGP best-path rows start with "*>".
  const auto first_non_space = line.find_first_not_of(' ');
  if (first_non_space == std::string_view::npos) return false;
  const auto token_end = line.find(' ', first_non_space);
  const std::string_view token =
      line.substr(first_non_space, token_end == std::string_view::npos
                                       ? std::string_view::npos
                                       : token_end - first_non_space);
  if (token.size() < 2 || token.back() != '>') return false;
  for (char c : token.substr(0, token.size() - 1)) {
    const bool hostname_char = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                               (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                               c == '.';
    if (!hostname_char) return false;
  }
  return true;
}

}  // namespace

void preprocess_into(std::string_view raw, std::string& out) {
  out.clear();
  out.reserve(raw.size());
  std::size_t start = 0;
  bool last_blank = true;  // swallow leading blank lines
  while (start <= raw.size()) {
    std::size_t end = raw.find('\n', start);
    if (end == std::string_view::npos) end = raw.size();
    std::string_view line = raw.substr(start, end - start);
    start = end + 1;

    // Strip CRs and trailing whitespace.
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ' ||
                             line.back() == '\t')) {
      line.remove_suffix(1);
    }
    if (is_noise_line(line)) continue;
    const bool blank = line.empty();
    if (blank && last_blank) continue;
    out.append(line);
    out.push_back('\n');
    last_blank = blank;
    if (end == raw.size()) break;
  }
  // Drop a trailing blank line.
  while (out.size() >= 2 && out[out.size() - 1] == '\n' && out[out.size() - 2] == '\n') {
    out.pop_back();
  }
}

namespace {

/// Calls `fn(line)` for each '\n'-separated line (no trailing-empty line).
/// Replaces the old split_lines() vector so parsing allocates nothing for
/// line structure.
template <typename Fn>
void for_each_line(std::string_view text, Fn&& fn) {
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    fn(text.substr(start, end - start));
    start = end + 1;
  }
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.remove_suffix(1);
  return s;
}

/// Splits on whitespace runs into a reused scratch vector.
void tokens_into(std::string_view s, std::vector<std::string_view>& out) {
  out.clear();
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
    std::size_t start = i;
    while (i < s.size() && s[i] != ' ' && s[i] != '\t') ++i;
    if (i > start) out.push_back(s.substr(start, i - start));
  }
}

bool consume_prefix(std::string_view& s, std::string_view prefix) {
  if (s.substr(0, prefix.size()) != prefix) return false;
  s.remove_prefix(prefix.size());
  return true;
}

std::optional<double> to_double(std::string_view s) {
  // from_chars for double is available in GCC 11+; keep it simple.
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return value;
}

std::optional<std::uint64_t> to_u64(std::string_view s) {
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return value;
}

/// Strips one trailing character if present.
std::string_view strip_suffix_char(std::string_view s, char c) {
  if (!s.empty() && s.back() == c) s.remove_suffix(1);
  return s;
}

/// One "%d"-style field: optional leading blanks and sign, then digits.
/// Mirrors the sscanf("%d") the old parse_uptime used, without the owned
/// string copy.
bool scan_int(std::string_view& s, int& value) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr == s.data()) return false;
  s.remove_prefix(static_cast<std::size_t>(ptr - s.data()));
  return true;
}

}  // namespace

std::optional<sim::Duration> parse_uptime(std::string_view text) {
  text = trim(text);
  // "XdYYh"
  const auto d_pos = text.find('d');
  if (d_pos != std::string_view::npos && !text.empty() && text.back() == 'h') {
    const auto days = to_u64(text.substr(0, d_pos));
    const auto hours = to_u64(text.substr(d_pos + 1, text.size() - d_pos - 2));
    if (!days || !hours) return std::nullopt;
    constexpr std::uint64_t kMaxMs = std::numeric_limits<std::int64_t>::max();
    if (*days > kMaxMs / 86'400'000 || *hours > kMaxMs / 3'600'000 ||
        *days * 86'400'000 > kMaxMs - *hours * 3'600'000) {
      return std::nullopt;
    }
    return sim::Duration::days(static_cast<std::int64_t>(*days)) +
           sim::Duration::hours(static_cast<std::int64_t>(*hours));
  }
  // "HH:MM:SS" — exactly three colon-separated fields, nothing after.
  int h = 0, m = 0, s = 0;
  std::string_view rest = text;
  if (scan_int(rest, h) && consume_prefix(rest, ":") && scan_int(rest, m) &&
      consume_prefix(rest, ":") && scan_int(rest, s) && rest.empty()) {
    return sim::Duration::hours(h) + sim::Duration::minutes(m) +
           sim::Duration::seconds(s);
  }
  return std::nullopt;
}

std::size_t parse_mroute_count(std::string_view text, PairTable& table,
                               std::vector<std::string>* warnings) {
  table.clear();
  net::Ipv4Address group;
  PairRow pending;
  bool have_pending = false;
  std::vector<std::string_view> toks;

  const auto warn = [&](std::string_view raw) {
    if (warnings != nullptr) warnings->emplace_back(raw);
  };
  const auto flush = [&] {
    if (have_pending) table.upsert(pending);
    have_pending = false;
  };

  for_each_line(text, [&](std::string_view raw) {
    std::string_view line = trim(raw);
    if (line.empty()) return;

    if (consume_prefix(line, "Group: ")) {
      flush();
      const auto parsed = parse_address(trim(line));
      if (!parsed) {
        warn(raw);
        return;
      }
      group = *parsed;
      return;
    }
    if (consume_prefix(line, "Source: ")) {
      flush();
      // "10.0.1.5/32, Forwarding: 123/4/512/3.20, Other: ..."
      const auto comma = line.find(',');
      if (comma == std::string_view::npos) {
        warn(raw);
        return;
      }
      std::string_view addr_text = line.substr(0, comma);
      const auto slash = addr_text.find('/');
      if (slash != std::string_view::npos) addr_text = addr_text.substr(0, slash);
      const auto source = parse_address(addr_text);
      const auto fwd_pos = line.find("Forwarding: ");
      if (!source || fwd_pos == std::string_view::npos || group.is_unspecified()) {
        warn(raw);
        return;
      }
      std::string_view counters = line.substr(fwd_pos + 12);
      const auto counters_end = counters.find(',');
      if (counters_end != std::string_view::npos) counters = counters.substr(0, counters_end);
      // pkt/pps/size/kbps
      std::string_view parts[5];
      std::size_t part_count = 0;
      std::size_t start = 0;
      while (start <= counters.size()) {
        std::size_t end = counters.find('/', start);
        if (end == std::string_view::npos) end = counters.size();
        if (part_count < 5) parts[part_count] = counters.substr(start, end - start);
        ++part_count;
        start = end + 1;
        if (end == counters.size()) break;
      }
      if (part_count != 4) {
        warn(raw);
        return;
      }
      const auto packets = to_u64(parts[0]);
      const auto kbps = to_double(parts[3]);
      if (!packets || !kbps) {
        warn(raw);
        return;
      }
      pending = PairRow{};
      pending.source = *source;
      pending.group = group;
      pending.packets = *packets;
      pending.current_kbps = *kbps;
      have_pending = true;
      return;
    }
    if (consume_prefix(line, "Average: ")) {
      // "2.75 kbps, Uptime: 00:15:00"
      if (!have_pending) {
        warn(raw);
        return;
      }
      tokens_into(line, toks);
      if (toks.size() >= 1) {
        if (const auto avg = to_double(toks[0])) pending.average_kbps = *avg;
      }
      const auto uptime_pos = line.find("Uptime: ");
      if (uptime_pos != std::string_view::npos) {
        if (const auto uptime = parse_uptime(line.substr(uptime_pos + 8))) {
          pending.uptime = *uptime;
        }
      }
      return;
    }
    // Known header/boilerplate lines pass silently; anything else is
    // transcript corruption (interleaved sessions, line noise) and must
    // surface as a warning — a garbled dump must never parse "cleanly".
    const bool boilerplate =
        line == "IP Multicast Statistics" ||
        consume_prefix(line, "Counts: ") ||
        (line.find("routes using") != std::string_view::npos &&
         line.find("bytes of memory") != std::string_view::npos);
    if (!boilerplate) warn(raw);
  });
  flush();
  return table.size();
}

std::size_t parse_dvmrp_route(std::string_view text, RouteTable& table,
                              std::vector<std::string>* warnings) {
  table.clear();
  RouteRow pending;
  bool have_pending = false;
  std::vector<std::string_view> toks;

  const auto warn = [&](std::string_view raw) {
    if (warnings != nullptr) warnings->emplace_back(raw);
  };
  const auto flush = [&] {
    if (have_pending) table.upsert(pending);
    have_pending = false;
  };

  for_each_line(text, [&](std::string_view raw) {
    std::string_view line = trim(raw);
    if (line.empty()) return;
    if (consume_prefix(line, "via ")) {
      // "via 192.168.3.2, tunnel0"
      if (!have_pending) {
        warn(raw);
        return;
      }
      const auto comma = line.find(',');
      const auto next_hop =
          parse_address(trim(line.substr(0, comma)));
      if (next_hop) pending.next_hop = *next_hop;
      if (comma != std::string_view::npos) {
        pending.interface = std::string(trim(line.substr(comma + 1)));
      }
      flush();
      return;
    }
    // "10.3.16.0/24 [0/3] uptime 01:23:45, expires 00:02:15"
    tokens_into(line, toks);
    if (toks.size() >= 5 && toks[1].front() == '[') {
      flush();
      const auto prefix = parse_prefix(toks[0]);
      if (!prefix) {
        if (line.find("Routing Table") == std::string_view::npos) {
          warn(raw);
        }
        return;
      }
      pending = RouteRow{};
      pending.prefix = *prefix;
      // "[0/3]" -> metric 3
      std::string_view bracket = toks[1];
      bracket.remove_prefix(1);
      bracket = strip_suffix_char(bracket, ']');
      const auto slash = bracket.find('/');
      if (slash != std::string_view::npos) {
        if (const auto metric = to_u64(bracket.substr(slash + 1))) {
          pending.metric = static_cast<int>(*metric);
        }
      }
      const auto uptime_pos = line.find("uptime ");
      if (uptime_pos != std::string_view::npos) {
        std::string_view rest = line.substr(uptime_pos + 7);
        const auto comma = rest.find(',');
        if (const auto uptime = parse_uptime(rest.substr(0, comma))) {
          pending.uptime = *uptime;
        }
      }
      pending.holddown = line.find("expires holddown") != std::string_view::npos;
      have_pending = true;
      return;
    }
    // Header lines ("DVMRP Routing Table - N entries", "% DVMRP not
    // running") are expected; any other unmatched non-empty line is
    // transcript corruption and gets a warning.
    const bool boilerplate = consume_prefix(line, "DVMRP Routing Table") ||
                             consume_prefix(line, "% DVMRP");
    if (!boilerplate) warn(raw);
  });
  flush();
  return table.size();
}

std::size_t parse_msdp_sa_cache(std::string_view text, SaTable& table,
                                std::vector<std::string>* warnings) {
  table.clear();
  const auto warn = [&](std::string_view raw) {
    if (warnings != nullptr) warnings->emplace_back(raw);
  };
  for_each_line(text, [&](std::string_view raw) {
    std::string_view line = trim(raw);
    if (line.empty() || line.front() != '(') return;
    // "(10.2.1.7, 224.2.3.4), RP 192.168.1.2, via peer 192.168.2.2, 00:05:00"
    const auto close = line.find(')');
    if (close == std::string_view::npos) {
      warn(raw);
      return;
    }
    std::string_view pair = line.substr(1, close - 1);
    const auto comma = pair.find(',');
    if (comma == std::string_view::npos) {
      warn(raw);
      return;
    }
    const auto source = parse_address(trim(pair.substr(0, comma)));
    const auto group = parse_address(trim(pair.substr(comma + 1)));
    if (!source || !group) {
      warn(raw);
      return;
    }
    SaRow row;
    row.source = *source;
    row.group = *group;
    const auto rp_pos = line.find("RP ");
    if (rp_pos != std::string_view::npos) {
      std::string_view rest = line.substr(rp_pos + 3);
      const auto end = rest.find(',');
      if (const auto rp = parse_address(trim(rest.substr(0, end)))) {
        row.origin_rp = *rp;
      }
    }
    const auto via_pos = line.find("via peer ");
    if (via_pos != std::string_view::npos) {
      std::string_view rest = line.substr(via_pos + 9);
      const auto end = rest.find(',');
      if (const auto via = parse_address(trim(rest.substr(0, end)))) {
        row.via_peer = *via;
      }
    }
    const auto last_comma = line.rfind(',');
    if (last_comma != std::string_view::npos) {
      if (const auto age = parse_uptime(line.substr(last_comma + 1))) row.age = *age;
    }
    table.upsert(row);
  });
  return table.size();
}

std::size_t parse_mbgp(std::string_view text, MbgpTable& table,
                       std::vector<std::string>* warnings) {
  table.clear();
  std::vector<std::string_view> toks;
  const auto warn = [&](std::string_view raw) {
    if (warnings != nullptr) warnings->emplace_back(raw);
  };
  for_each_line(text, [&](std::string_view raw) {
    std::string_view line = trim(raw);
    if (!consume_prefix(line, "*> ")) return;
    tokens_into(line, toks);
    if (toks.size() < 2) {
      warn(raw);
      return;
    }
    const auto prefix = parse_prefix(toks[0]);
    const auto next_hop = parse_address(toks[1]);
    if (!prefix || !next_hop) {
      warn(raw);
      return;
    }
    MbgpRow row;
    row.prefix = *prefix;
    row.next_hop = *next_hop;
    for (std::size_t i = 2; i < toks.size(); ++i) {
      if (!row.as_path.empty()) row.as_path.push_back(' ');
      row.as_path.append(toks[i]);
    }
    table.upsert(row);
  });
  return table.size();
}

}  // namespace mantra::oracle
