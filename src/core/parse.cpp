#include "core/parse.hpp"

#include <charconv>
#include <cstdint>
#include <cstring>
#include <limits>

namespace mantra::core {

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

bool is_blank(char c) { return c == ' ' || c == '\t'; }
bool is_digit(char c) { return c >= '0' && c <= '9'; }

std::string_view trim(std::string_view s) {
  while (!s.empty() && is_blank(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_blank(s.back())) s.remove_suffix(1);
  return s;
}

/// Splits on whitespace runs into a reused scratch vector.
void tokens_into(std::string_view s, std::vector<std::string_view>& out) {
  out.clear();
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && is_blank(s[i])) ++i;
    std::size_t start = i;
    while (i < s.size() && !is_blank(s[i])) ++i;
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

/// The whole of `s` as an unsigned decimal: one or more digits, no sign, no
/// overflow (what from_chars<uint64_t> accepted when it had to consume all).
std::optional<std::uint64_t> to_u64(std::string_view s) {
  if (s.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : s) {
    if (!is_digit(c)) return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return std::nullopt;
    }
    value = value * 10 + digit;
  }
  return value;
}

/// Strips one trailing character if present.
std::string_view strip_suffix_char(std::string_view s, char c) {
  if (!s.empty() && s.back() == c) s.remove_suffix(1);
  return s;
}

/// One "%d"-style field: optional leading blanks and '-', then one or more
/// digits that fit in an int.
bool scan_int(std::string_view& s, int& value) {
  while (!s.empty() && is_blank(s.front())) s.remove_prefix(1);
  std::size_t i = 0;
  const bool negative = i < s.size() && s[i] == '-';
  if (negative) ++i;
  const std::size_t digits = i;
  const std::int64_t limit =
      std::int64_t{std::numeric_limits<int>::max()} + (negative ? 1 : 0);
  std::int64_t magnitude = 0;
  for (; i < s.size() && is_digit(s[i]); ++i) {
    magnitude = magnitude * 10 + (s[i] - '0');
    if (magnitude > limit) return false;
  }
  if (i == digits) return false;
  value = static_cast<int>(negative ? -magnitude : magnitude);
  s.remove_prefix(i);
  return true;
}

/// Field cursor over one trimmed line in a command's canonical grammar.
/// Each step consumes one literal or field, or returns false; a parser
/// hands any line a step rejects to its tolerant handling, so the cursor
/// only has to agree with that handling on the lines it accepts. A field
/// is read in place and must give what the tolerant handling's reader
/// (to_u64, Ipv4Address::parse, Prefix::parse) gives for the same run of
/// characters.
class Cursor {
 public:
  explicit Cursor(std::string_view line) : line_(line) {}

  [[nodiscard]] bool at_end() const { return pos_ == line_.size(); }
  [[nodiscard]] std::string_view rest() const { return line_.substr(pos_); }

  bool literal(char c) {
    if (at_end() || line_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  bool literal(std::string_view text) {
    if (line_.size() - pos_ < text.size() ||
        std::memcmp(line_.data() + pos_, text.data(), text.size()) != 0) {
      return false;
    }
    pos_ += text.size();
    return true;
  }

  /// At least one blank.
  bool blanks() {
    const std::size_t start = pos_;
    while (pos_ < line_.size() && is_blank(line_[pos_])) ++pos_;
    return pos_ > start;
  }

  /// Everything up to (not including) `delim`, or the rest of the line.
  std::string_view take_until(char delim) {
    const std::size_t start = pos_;
    while (pos_ < line_.size() && line_[pos_] != delim) ++pos_;
    return line_.substr(start, pos_ - start);
  }

  /// The run of digits here, as to_u64 reads it.
  bool decimal(std::uint64_t& out) {
    const std::size_t start = pos_;
    while (pos_ < line_.size() && is_digit(line_[pos_])) ++pos_;
    const auto value = to_u64(line_.substr(start, pos_ - start));
    if (value) out = *value;
    return value.has_value();
  }

  /// "a.b.c.d": the run of digits and dots here must end after the quad.
  bool address(net::Ipv4Address& out) {
    std::uint32_t value = 0;
    if (!quad(value) || peek() == '.') return false;
    out = net::Ipv4Address(value);
    return true;
  }

  /// "a.b.c.d/len": the run of digits, dots and slashes here must end after
  /// the length. (A bare address, which Prefix::parse reads as a /32, is
  /// left to the tolerant handling.)
  bool prefix(net::Prefix& out) {
    std::uint32_t value = 0;
    std::uint64_t length = 0;
    if (!quad(value) || !literal('/') || !decimal(length) || length > 32 ||
        peek() == '.' || peek() == '/') {
      return false;
    }
    out = net::Prefix(net::Ipv4Address(value), static_cast<int>(length));
    return true;
  }

 private:
  [[nodiscard]] char peek() const { return at_end() ? '\0' : line_[pos_]; }

  /// Four dot-separated octets of one or more digits, each at most 255.
  /// Digits are read greedily, so no digit follows.
  bool quad(std::uint32_t& out) {
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      if (i > 0 && !literal('.')) return false;
      const std::size_t start = pos_;
      std::uint32_t octet = 0;
      for (; pos_ < line_.size() && is_digit(line_[pos_]); ++pos_) {
        octet = octet * 10 + static_cast<std::uint32_t>(line_[pos_] - '0');
        if (octet > 255) return false;
      }
      if (pos_ == start) return false;
      value = (value << 8) | octet;
    }
    out = value;
    return true;
  }

  std::string_view line_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<sim::Duration> parse_uptime(std::string_view text) {
  // The form routers print under a day, "HH:MM:SS" with two-digit fields,
  // read directly (the general path below gives the same value).
  if (text.size() == 8 && text[2] == ':' && text[5] == ':' && is_digit(text[0]) &&
      is_digit(text[1]) && is_digit(text[3]) && is_digit(text[4]) &&
      is_digit(text[6]) && is_digit(text[7])) {
    const auto two = [&](std::size_t i) { return (text[i] - '0') * 10 + (text[i + 1] - '0'); };
    return sim::Duration::hours(two(0)) + sim::Duration::minutes(two(3)) +
           sim::Duration::seconds(two(6));
  }
  text = trim(text);
  // "XdYYh"
  const auto d_pos = text.find('d');
  if (d_pos != std::string_view::npos && text.back() == 'h') {
    const auto days = to_u64(text.substr(0, d_pos));
    const auto hours = to_u64(text.substr(d_pos + 1, text.size() - d_pos - 2));
    if (!days || !hours) return std::nullopt;
    // Router text is untrusted: counts whose milliseconds overflow a
    // Duration are rejected, not wrapped.
    constexpr std::uint64_t kMaxMs = std::numeric_limits<std::int64_t>::max();
    constexpr std::uint64_t kDayMs = 86'400'000;
    constexpr std::uint64_t kHourMs = 3'600'000;
    if (*days > kMaxMs / kDayMs || *hours > kMaxMs / kHourMs ||
        *days * kDayMs > kMaxMs - *hours * kHourMs) {
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
  PairRow* pending = nullptr;  // the last row, until its group or source ends
  std::vector<std::string_view> toks;

  const auto warn = [&](std::string_view raw) {
    if (warnings != nullptr) warnings->emplace_back(raw);
  };

  // "Group: 224.2.0.5" / "Source: 10.1.1.2/32, Forwarding: 1200/12/512/48.25,
  // Other: ..." / "Average: 44.10 kbps, Uptime: 00:15:00".
  const auto scan = [&](std::string_view line) {
    Cursor c(line);
    if (c.literal("Group: ")) {
      net::Ipv4Address parsed;
      if (!c.address(parsed) || !c.at_end()) return false;
      pending = nullptr;
      group = parsed;
      return true;
    }
    if (c.literal("Source: ")) {
      net::Ipv4Address source;
      std::uint64_t packets = 0;
      std::uint64_t ignored = 0;
      if (group.is_unspecified() || !c.address(source) ||
          !c.literal("/32, Forwarding: ") || !c.decimal(packets) || !c.literal('/') ||
          !c.decimal(ignored) || !c.literal('/') || !c.decimal(ignored) ||
          !c.literal('/')) {
        return false;
      }
      const auto kbps = to_double(c.take_until(','));
      if (!kbps) return false;
      pending = &table.append();
      pending->source = source;
      pending->group = group;
      pending->packets = packets;
      pending->current_kbps = *kbps;
      return true;
    }
    if (pending != nullptr && c.literal("Average: ")) {
      const auto average = to_double(c.take_until(' '));
      if (!average || !c.literal(" kbps, Uptime: ")) return false;
      const auto uptime = parse_uptime(c.rest());
      if (!uptime) return false;
      pending->average_kbps = *average;
      pending->uptime = *uptime;
      return true;
    }
    return false;
  };

  const auto tolerant = [&](std::string_view raw, std::string_view line) {
    if (consume_prefix(line, "Group: ")) {
      pending = nullptr;
      const auto parsed = net::Ipv4Address::parse(trim(line));
      if (!parsed) {
        warn(raw);
        return;
      }
      group = *parsed;
      return;
    }
    if (consume_prefix(line, "Source: ")) {
      pending = nullptr;
      // "10.0.1.5/32, Forwarding: 123/4/512/3.20, Other: ..."
      const auto comma = line.find(',');
      if (comma == std::string_view::npos) {
        warn(raw);
        return;
      }
      std::string_view addr_text = line.substr(0, comma);
      const auto slash = addr_text.find('/');
      if (slash != std::string_view::npos) addr_text = addr_text.substr(0, slash);
      const auto source = net::Ipv4Address::parse(addr_text);
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
      pending = &table.append();
      pending->source = *source;
      pending->group = group;
      pending->packets = *packets;
      pending->current_kbps = *kbps;
      return;
    }
    if (consume_prefix(line, "Average: ")) {
      // "2.75 kbps, Uptime: 00:15:00"
      if (pending == nullptr) {
        warn(raw);
        return;
      }
      tokens_into(line, toks);
      if (toks.size() >= 1) {
        if (const auto avg = to_double(toks[0])) pending->average_kbps = *avg;
      }
      const auto uptime_pos = line.find("Uptime: ");
      if (uptime_pos != std::string_view::npos) {
        if (const auto uptime = parse_uptime(line.substr(uptime_pos + 8))) {
          pending->uptime = *uptime;
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
  };

  for_each_line(text, [&](std::string_view raw) {
    const std::string_view line = trim(raw);
    if (!line.empty() && !scan(line)) tolerant(raw, line);
  });
  table.finish_append();
  return table.size();
}

std::size_t parse_dvmrp_route(std::string_view text, RouteTable& table,
                              std::vector<std::string>* warnings) {
  table.clear();
  RouteRow* pending = nullptr;  // the last row, until its "via" line
  std::vector<std::string_view> toks;

  const auto warn = [&](std::string_view raw) {
    if (warnings != nullptr) warnings->emplace_back(raw);
  };

  // "10.3.16.0/24 [0/3] uptime 01:23:45, expires 00:02:15" (or "expires
  // holddown"), then "via 192.168.3.2, tunnel0".
  const auto scan = [&](std::string_view line) {
    Cursor c(line);
    if (c.literal("via ")) {
      net::Ipv4Address next_hop;
      if (pending == nullptr || !c.address(next_hop) || !c.literal(',')) return false;
      pending->next_hop = next_hop;
      pending->interface.assign(trim(c.rest()));
      pending = nullptr;
      return true;
    }
    net::Prefix prefix;
    std::uint64_t metric = 0;
    if (!c.prefix(prefix) || !c.literal(" [0/") || !c.decimal(metric) ||
        !c.literal("] uptime ")) {
      return false;
    }
    const auto uptime = parse_uptime(c.take_until(','));
    if (!uptime || !c.literal(", expires ")) return false;
    // The expiry is not recorded, but it must be an uptime so that
    // "expires holddown" cannot hide further along the line.
    const bool holddown = c.rest() == "holddown";
    if (!holddown && !parse_uptime(c.rest())) return false;
    pending = &table.append();
    pending->prefix = prefix;
    pending->metric = static_cast<int>(metric);
    pending->uptime = *uptime;
    pending->holddown = holddown;
    return true;
  };

  const auto tolerant = [&](std::string_view raw, std::string_view line) {
    if (consume_prefix(line, "via ")) {
      // "via 192.168.3.2, tunnel0"
      if (pending == nullptr) {
        warn(raw);
        return;
      }
      const auto comma = line.find(',');
      const auto next_hop =
          net::Ipv4Address::parse(trim(line.substr(0, comma)));
      if (next_hop) pending->next_hop = *next_hop;
      if (comma != std::string_view::npos) {
        pending->interface = std::string(trim(line.substr(comma + 1)));
      }
      pending = nullptr;
      return;
    }
    // "10.3.16.0/24 [0/3] uptime 01:23:45, expires 00:02:15"
    tokens_into(line, toks);
    if (toks.size() >= 5 && toks[1].front() == '[') {
      pending = nullptr;
      const auto prefix = net::Prefix::parse(toks[0]);
      if (!prefix) {
        if (line.find("Routing Table") == std::string_view::npos) {
          warn(raw);
        }
        return;
      }
      pending = &table.append();
      pending->prefix = *prefix;
      // "[0/3]" -> metric 3
      std::string_view bracket = toks[1];
      bracket.remove_prefix(1);
      bracket = strip_suffix_char(bracket, ']');
      const auto slash = bracket.find('/');
      if (slash != std::string_view::npos) {
        if (const auto metric = to_u64(bracket.substr(slash + 1))) {
          pending->metric = static_cast<int>(*metric);
        }
      }
      const auto uptime_pos = line.find("uptime ");
      if (uptime_pos != std::string_view::npos) {
        std::string_view rest = line.substr(uptime_pos + 7);
        const auto comma = rest.find(',');
        if (const auto uptime = parse_uptime(rest.substr(0, comma))) {
          pending->uptime = *uptime;
        }
      }
      pending->holddown = line.find("expires holddown") != std::string_view::npos;
      return;
    }
    // Header lines ("DVMRP Routing Table - N entries", "% DVMRP not
    // running") are expected; any other unmatched non-empty line is
    // transcript corruption and gets a warning.
    const bool boilerplate = consume_prefix(line, "DVMRP Routing Table") ||
                             consume_prefix(line, "% DVMRP");
    if (!boilerplate) warn(raw);
  };

  for_each_line(text, [&](std::string_view raw) {
    const std::string_view line = trim(raw);
    if (!line.empty() && !scan(line)) tolerant(raw, line);
  });
  table.finish_append();
  return table.size();
}

std::size_t parse_msdp_sa_cache(std::string_view text, SaTable& table,
                                std::vector<std::string>* warnings) {
  table.clear();
  const auto warn = [&](std::string_view raw) {
    if (warnings != nullptr) warnings->emplace_back(raw);
  };

  // "(10.2.1.7, 224.2.3.4), RP 192.168.1.2, via peer 192.168.2.2, 00:05:00"
  // or "..., RP 10.1.1.1, local, 00:07:21".
  const auto scan = [&](std::string_view line) {
    Cursor c(line);
    SaRow row;
    if (!c.literal('(') || !c.address(row.source) || !c.literal(", ") ||
        !c.address(row.group) || !c.literal("), RP ") || !c.address(row.origin_rp) ||
        !c.literal(", ")) {
      return false;
    }
    if (!c.literal("local, ") &&
        !(c.literal("via peer ") && c.address(row.via_peer) && c.literal(", "))) {
      return false;
    }
    const auto age = parse_uptime(c.rest());
    if (!age) return false;
    row.age = *age;
    table.append(row);
    return true;
  };

  const auto tolerant = [&](std::string_view raw, std::string_view line) {
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
    const auto source = net::Ipv4Address::parse(trim(pair.substr(0, comma)));
    const auto group = net::Ipv4Address::parse(trim(pair.substr(comma + 1)));
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
      if (const auto rp = net::Ipv4Address::parse(trim(rest.substr(0, end)))) {
        row.origin_rp = *rp;
      }
    }
    const auto via_pos = line.find("via peer ");
    if (via_pos != std::string_view::npos) {
      std::string_view rest = line.substr(via_pos + 9);
      const auto end = rest.find(',');
      if (const auto via = net::Ipv4Address::parse(trim(rest.substr(0, end)))) {
        row.via_peer = *via;
      }
    }
    const auto last_comma = line.rfind(',');
    if (last_comma != std::string_view::npos) {
      if (const auto age = parse_uptime(line.substr(last_comma + 1))) row.age = *age;
    }
    table.append(row);
  };

  for_each_line(text, [&](std::string_view raw) {
    const std::string_view line = trim(raw);
    if (line.empty() || line.front() != '(') return;
    if (!scan(line)) tolerant(raw, line);
  });
  table.finish_append();
  return table.size();
}

std::size_t parse_mbgp(std::string_view text, MbgpTable& table,
                       std::vector<std::string>* warnings) {
  table.clear();
  std::vector<std::string_view> toks;
  const auto warn = [&](std::string_view raw) {
    if (warnings != nullptr) warnings->emplace_back(raw);
  };

  // "10.3.0.0/16        192.168.3.2         3000 104" (after "*> "): the
  // path is kept as printed when its ASNs are single-space separated.
  const auto scan = [&](std::string_view line) {
    Cursor c(line);
    MbgpRow row;
    if (!c.prefix(row.prefix) || !c.blanks() || !c.address(row.next_hop)) return false;
    if (!c.at_end()) {
      if (!c.blanks()) return false;
      const std::string_view path = c.rest();
      if (path.find('\t') != std::string_view::npos ||
          path.find("  ") != std::string_view::npos) {
        return false;
      }
      row.as_path.assign(path);
    }
    table.append(std::move(row));
    return true;
  };

  const auto tolerant = [&](std::string_view raw, std::string_view line) {
    tokens_into(line, toks);
    if (toks.size() < 2) {
      warn(raw);
      return;
    }
    const auto prefix = net::Prefix::parse(toks[0]);
    const auto next_hop = net::Ipv4Address::parse(toks[1]);
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
    table.append(std::move(row));
  };

  for_each_line(text, [&](std::string_view raw) {
    std::string_view line = trim(raw);
    if (!consume_prefix(line, "*> ")) return;
    if (!scan(line)) tolerant(raw, line);
  });
  table.finish_append();
  return table.size();
}

}  // namespace mantra::core
