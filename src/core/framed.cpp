#include "core/framed.hpp"

#include <array>
#include <stdexcept>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace mantra::core {

namespace {

using codec::Cursor;
using codec::put_svarint;
using codec::put_u32;
using codec::put_varint;

constexpr std::size_t kHeaderBytes = 8;  // magic:u32 version:u16 flags:u16
constexpr std::size_t kFrameBytes = 8;   // length:u32 crc:u32
/// Corruption guard: a garbage length field must not trigger a huge read.
constexpr std::uint32_t kMaxRecordBytes = 256u * 1024 * 1024;

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

/// The whole file, or nullopt when it cannot be opened. Throws
/// std::runtime_error when an opened file cannot be read.
std::optional<std::string> read_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return std::nullopt;
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  std::fseek(file, 0, SEEK_SET);
  std::string bytes(size > 0 ? static_cast<std::size_t>(size) : 0, '\0');
  const bool ok =
      bytes.empty() || std::fread(bytes.data(), 1, bytes.size(), file) == bytes.size();
  std::fclose(file);
  if (!ok) throw std::runtime_error("cannot read " + path);
  return bytes;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// --- FramedLogWriter ---------------------------------------------------------

FramedLogWriter::FramedLogWriter(std::string path, const FramedLogFormat& format)
    : path_(std::move(path)), name_(format.name) {
  file_ = std::fopen(path_.c_str(), "wb");
  if (file_ == nullptr) {
    throw std::runtime_error(std::string("cannot create ") + name_ + " file " + path_);
  }
  std::string header;
  put_u32(header, format.magic);
  header.push_back(static_cast<char>(format.version & 0xFF));
  header.push_back(static_cast<char>(format.version >> 8));
  header.append(2, '\0');  // flags
  std::fwrite(header.data(), 1, header.size(), file_);
  bytes_written_ = header.size();
}

FramedLogWriter::~FramedLogWriter() { close(); }

std::uint64_t FramedLogWriter::append(std::string_view payload) {
  if (file_ == nullptr) {
    throw std::runtime_error(std::string("append to closed ") + name_ + " file " + path_);
  }
  std::string frame;
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  put_u32(frame, crc32(payload.data(), payload.size()));
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size() ||
      std::fwrite(payload.data(), 1, payload.size(), file_) != payload.size()) {
    throw std::runtime_error(std::string("short write to ") + name_ + " file " + path_);
  }
  ++frames_written_;
  bytes_written_ += frame.size() + payload.size();
  return frame.size() + payload.size();
}

void FramedLogWriter::sync() {
  if (file_ == nullptr) return;
  std::fflush(file_);
#if defined(__unix__) || defined(__APPLE__)
  ::fsync(fileno(file_));
#endif
}

void FramedLogWriter::close() {
  if (file_ == nullptr) return;
  std::fflush(file_);
  std::fclose(file_);
  file_ = nullptr;
}

// --- read_framed_log -----------------------------------------------------------

FramedLog read_framed_log(const std::string& path, const FramedLogFormat& format,
                          const FrameDecoder& decode) {
  std::optional<std::string> bytes = read_file(path);
  if (!bytes) {
    throw std::runtime_error(std::string("cannot open ") + format.name + " file " + path);
  }
  FramedLog log;
  log.bytes = std::move(*bytes);
  const std::string& buffer = log.bytes;
  RecoveryInfo& recovery = log.recovery;

  if (buffer.size() < kHeaderBytes) {
    // A crash before the header completed: nothing recoverable, but not a
    // reason to refuse the file — it simply holds zero records.
    if (!buffer.empty()) {
      recovery.clean = false;
      recovery.bytes_dropped = buffer.size();
      recovery.reason = "truncated file header";
    }
    return log;
  }
  Cursor header{buffer.data(), kHeaderBytes};
  if (header.u32() != format.magic) {
    throw std::runtime_error(std::string("bad magic in ") + format.name + " file " + path);
  }
  const std::uint16_t version =
      static_cast<std::uint16_t>(header.u8()) |
      static_cast<std::uint16_t>(static_cast<std::uint16_t>(header.u8()) << 8);
  if (version != format.version) {
    throw std::runtime_error(std::string("unsupported ") + format.name +
                             " version in " + path);
  }

  std::size_t pos = kHeaderBytes;
  const auto drop_tail = [&](const char* reason) {
    recovery.clean = false;
    recovery.bytes_dropped = buffer.size() - pos;
    recovery.reason = reason;
  };
  while (pos < buffer.size()) {
    if (pos + kFrameBytes > buffer.size()) {
      drop_tail("short frame header");
      break;
    }
    Cursor frame{buffer.data() + pos, kFrameBytes};
    const std::uint32_t length = frame.u32();
    const std::uint32_t expected_crc = frame.u32();
    if (length > kMaxRecordBytes) {
      drop_tail("implausible record length");
      break;
    }
    if (pos + kFrameBytes + length > buffer.size()) {
      drop_tail("short record payload");
      break;
    }
    const std::string_view payload(buffer.data() + pos + kFrameBytes, length);
    if (crc32(payload.data(), payload.size()) != expected_crc) {
      drop_tail("crc mismatch");
      break;
    }
    const char* rejected = nullptr;
    try {
      rejected = decode(payload, pos + kFrameBytes);
    } catch (const std::exception&) {
      rejected = "undecodable record";
    }
    if (rejected != nullptr) {
      drop_tail(rejected);
      break;
    }
    pos += kFrameBytes + length;
  }
  log.indexed_bytes = pos;
  return log;
}

// --- Sidecars ------------------------------------------------------------------

std::string sidecar_path_for(const std::string& log_path, const SidecarFormat& format) {
  const std::size_t slash = log_path.find_last_of('/');
  const std::size_t dot = log_path.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return log_path + format.extension;
  }
  return log_path.substr(0, dot) + format.extension;
}

bool write_sidecar(const std::string& path, const SidecarFormat& format,
                   const SidecarFingerprint& source, std::string_view body) {
  std::string payload;
  put_varint(payload, source.records);
  put_svarint(payload, source.first_ms);
  put_svarint(payload, source.last_ms);
  put_varint(payload, source.indexed_bytes);
  payload.append(body);

  std::string file;
  file.reserve(4 * sizeof(std::uint32_t) + payload.size());
  put_u32(file, format.magic);
  put_u32(file, format.version);
  put_u32(file, static_cast<std::uint32_t>(payload.size()));
  put_u32(file, crc32(payload.data(), payload.size()));
  file.append(payload);

  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) return false;
  const bool ok = std::fwrite(file.data(), 1, file.size(), out) == file.size();
  return std::fclose(out) == 0 && ok;
}

bool load_sidecar(const std::string& path, const SidecarFormat& format,
                  SidecarFingerprint& source,
                  const std::function<void(Cursor&)>& decode_body) {
  try {
    const std::optional<std::string> contents = read_file(path);
    if (!contents) return false;
    Cursor envelope{contents->data(), contents->size()};
    if (envelope.u32() != format.magic || envelope.u32() != format.version) return false;
    const std::uint32_t length = envelope.u32();
    const std::uint32_t expected_crc = envelope.u32();
    // One frame, exactly: trailing bytes mean the file is not what the
    // writer produces, so treat it as damage.
    if (contents->size() != envelope.pos + length) return false;
    Cursor payload{contents->data() + envelope.pos, length};
    if (crc32(payload.data, payload.size) != expected_crc) return false;
    source.records = payload.varint();
    source.first_ms = payload.svarint();
    source.last_ms = payload.svarint();
    source.indexed_bytes = payload.varint();
    decode_body(payload);
    return payload.pos == payload.size;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace mantra::core
