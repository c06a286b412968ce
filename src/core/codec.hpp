// Byte-codec primitives shared by every on-disk format: the core/framed
// container and the `.marc`, `.mtel` and `.mroll` payload codecs.
// Little-endian fixed-width integers, LEB128 varints (signed values
// zigzag-encoded), doubles as raw IEEE-754 bits, length-prefixed strings —
// plus the bounds-checked decode Cursor whose overrun throws are how the
// readers convert payload damage into tail truncation (or an absent
// sidecar) instead of a crash.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

namespace mantra::core::codec {

inline void put_u32(std::string& out, std::uint32_t value) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<char>(value >> (8 * i));
  out.append(bytes, 4);
}

inline void put_varint(std::string& out, std::uint64_t value) {
  while (value >= 0x80u) {
    out.push_back(static_cast<char>(value | 0x80u));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

inline void put_svarint(std::string& out, std::int64_t value) {
  // ZigZag: small magnitudes (either sign) encode short.
  put_varint(out, (static_cast<std::uint64_t>(value) << 1) ^
                      static_cast<std::uint64_t>(value >> 63));
}

inline void put_f64(std::string& out, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(bits >> (8 * i));
  out.append(bytes, 8);
}

inline void put_string(std::string& out, const std::string& value) {
  put_varint(out, value.size());
  out.append(value);
}

/// Bounds-checked decode cursor over a payload. Overruns throw; readers
/// convert a throw into tail truncation, so a corrupt payload that somehow
/// passed CRC still cannot crash the process.
struct Cursor {
  const char* data;
  std::size_t size;
  std::size_t pos = 0;

  /// Throws unless `n` more bytes remain. Compared against the remainder,
  /// never as `pos + n`: a hostile varint length near 2^64 would wrap that
  /// sum and pass.
  void need(std::uint64_t n) const {
    if (n > size - pos) throw std::runtime_error("codec payload overrun");
  }
  [[nodiscard]] std::size_t remaining() const { return size - pos; }
  /// Moves past `n` bytes without reading them.
  void skip(std::uint64_t n) {
    need(n);
    pos += n;
  }
  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data[pos++]);
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(data[pos + i]))
               << (8 * i);
    }
    pos += 4;
    return value;
  }
  std::uint64_t varint() {
    std::uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const std::uint8_t byte = u8();
      value |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
      if ((byte & 0x80u) == 0) return value;
    }
    throw std::runtime_error("codec varint too long");
  }
  std::int64_t svarint() {
    const std::uint64_t raw = varint();
    return static_cast<std::int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
  }
  double f64() {
    need(8);
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(data[pos + i]))
              << (8 * i);
    }
    pos += 8;
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof value);
    return value;
  }
  std::string string() {
    const std::uint64_t length = varint();
    need(length);
    std::string out(data + pos, length);
    pos += length;
    return out;
  }
  /// Moves past a length-prefixed string without building it.
  void skip_string() { skip(varint()); }
};

}  // namespace mantra::core::codec
