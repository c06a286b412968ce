#include "net/prefix.hpp"

#include <charconv>

namespace mantra::net {

std::optional<Prefix> Prefix::parse(std::string_view text) {
  const auto slash = text.find('/');
  const auto addr = Ipv4Address::parse(text.substr(0, slash));
  if (!addr) return std::nullopt;
  if (slash == std::string_view::npos) return Prefix(*addr, 32);
  // The length takes what from_chars<int> took: an optional '-' (so "-0"
  // reads as 0) and one or more digits, in [0, 32], nothing after.
  std::string_view len_text = text.substr(slash + 1);
  const bool negative = !len_text.empty() && len_text.front() == '-';
  if (negative) len_text.remove_prefix(1);
  if (len_text.empty()) return std::nullopt;
  int length = 0;
  for (const char c : len_text) {
    if (c < '0' || c > '9') return std::nullopt;
    length = length * 10 + (c - '0');
    if (length > 32) return std::nullopt;
  }
  if (negative && length != 0) return std::nullopt;
  return Prefix(*addr, length);
}

std::string Prefix::to_string() const {
  std::string out;
  out.reserve(18);
  append_to(out);
  return out;
}

void Prefix::append_to(std::string& out) const {
  address_.append_to(out);
  out.push_back('/');
  char buffer[4];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, length_);
  out.append(buffer, static_cast<std::size_t>(result.ptr - buffer));
}

std::string Prefix::netmask_string() const {
  return Ipv4Address(netmask()).to_string();
}

}  // namespace mantra::net
