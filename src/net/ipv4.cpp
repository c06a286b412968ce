#include "net/ipv4.hpp"

#include <charconv>

namespace mantra::net {

std::optional<Ipv4Address> Ipv4Address::parse(std::string_view text) {
  // Accepts exactly what four from_chars<uint32_t> octets did: one or more
  // decimal digits per octet (leading zeros allowed), value <= 255, '.'
  // between octets and nothing after the last.
  const char* cursor = text.data();
  const char* const end = cursor + text.size();
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    if (i > 0) {
      if (cursor == end || *cursor != '.') return std::nullopt;
      ++cursor;
    }
    const char* const digits = cursor;
    std::uint32_t octet = 0;
    while (cursor != end && *cursor >= '0' && *cursor <= '9') {
      octet = octet * 10 + static_cast<std::uint32_t>(*cursor - '0');
      if (octet > 255) return std::nullopt;
      ++cursor;
    }
    if (cursor == digits) return std::nullopt;
    value = (value << 8) | octet;
  }
  if (cursor != end) return std::nullopt;
  return Ipv4Address(value);
}

std::string Ipv4Address::to_string() const {
  std::string out;
  out.reserve(15);
  append_to(out);
  return out;
}

void Ipv4Address::append_to(std::string& out) const {
  char buffer[16];
  char* cursor = buffer;
  for (int i = 0; i < 4; ++i) {
    if (i > 0) *cursor++ = '.';
    cursor = std::to_chars(cursor, buffer + sizeof buffer, octet(i)).ptr;
  }
  out.append(buffer, static_cast<std::size_t>(cursor - buffer));
}

}  // namespace mantra::net
