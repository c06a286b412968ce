// The one container layer under every Mantra file format. The `.marc`
// snapshot archive (core/archive) and the `.mtel` self-telemetry archive
// (core/teltrace) are the same framed log with different record codecs:
//
//   file    := header frame*
//   header  := magic:u32 version:u16 flags:u16
//   frame   := length:u32 crc32:u32 payload[length]
//
// and the `.mroll` rollup sidecar (core/query) is one envelope around its
// bucket codec:
//
//   sidecar := magic:u32 version:u32 length:u32 crc32:u32 payload[length]
//   payload := fingerprint body
//
// All integers are little-endian. This module owns the container — header,
// framing, CRC, fsync, torn-tail recovery, the sidecar envelope, and the
// fingerprint that ties a sidecar to the exact log bytes it summarizes — so
// the format modules own only their payload codecs, and there is one reader
// to harden against damaged input rather than three.
//
// Crash safety: a frame is visible only once its length/CRC header and
// payload are complete, so a mid-write kill (or a file truncated at any byte)
// loses at most the final record. A reader recovers every complete record in
// front of the damage and reports the loss in RecoveryInfo; a torn tail never
// poisons the records before it.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "core/codec.hpp"

namespace mantra::core {

/// CRC-32 (IEEE 802.3 polynomial, the zlib convention) over a byte range.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size,
                                  std::uint32_t seed = 0);

// --- Framed logs -------------------------------------------------------------

/// Identity of one framed-log format.
struct FramedLogFormat {
  std::uint32_t magic = 0;
  std::uint16_t version = 0;
  const char* name = "";  ///< string literal for error messages, e.g. ".marc"
};

/// Append-only framed-log writer: creates (or truncates) the file and writes
/// the header on construction, then one CRC frame per append. When to fsync
/// is the owning format's policy (key-frames are its durability points).
class FramedLogWriter {
 public:
  /// Throws std::runtime_error if the file cannot be created.
  FramedLogWriter(std::string path, const FramedLogFormat& format);
  ~FramedLogWriter();

  FramedLogWriter(const FramedLogWriter&) = delete;
  FramedLogWriter& operator=(const FramedLogWriter&) = delete;

  /// Writes one frame around `payload` and returns its size in bytes.
  /// Throws std::runtime_error once closed or on a short write.
  std::uint64_t append(std::string_view payload);

  /// Flushes buffered data to the OS and (on POSIX) to stable storage.
  void sync();

  /// Flushes and closes the file; idempotent.
  void close();

  [[nodiscard]] bool is_open() const { return file_ != nullptr; }
  [[nodiscard]] std::size_t frames_written() const { return frames_written_; }
  /// File bytes so far, header included.
  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_written_; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  const char* name_;
  std::FILE* file_ = nullptr;
  std::size_t frames_written_ = 0;
  std::uint64_t bytes_written_ = 0;
};

/// What a reader found (and lost) while opening a framed log.
struct RecoveryInfo {
  bool clean = true;                ///< file ended exactly on a frame boundary
  std::uint64_t bytes_dropped = 0;  ///< trailing bytes discarded
  std::string reason;               ///< why the tail was dropped (empty if clean)
};

/// A framed log read whole into memory and scanned once.
struct FramedLog {
  std::string bytes;              ///< the entire file
  RecoveryInfo recovery;
  std::uint64_t indexed_bytes = 0;  ///< header + accepted frames
};

/// Decodes one frame's payload (at `offset` in the file). Returns nullptr to
/// accept it, or a reason to end the log at this frame; a thrown
/// std::exception ends it as "undecodable record".
using FrameDecoder =
    std::function<const char*(std::string_view payload, std::uint64_t offset)>;

/// Reads `path` and hands every intact frame, in order, to `decode`. The
/// first short, oversized, CRC-damaged or rejected frame ends the log: it and
/// everything after it become the dropped tail. A file cut inside the header
/// holds zero frames. Throws std::runtime_error on a missing or unreadable
/// file, a bad magic or an unsupported version — a different file, not a
/// torn one.
[[nodiscard]] FramedLog read_framed_log(const std::string& path,
                                        const FramedLogFormat& format,
                                        const FrameDecoder& decode);

// --- Sidecars ----------------------------------------------------------------

/// Identity of the framed log a sidecar was built from: record count,
/// first/last record time and indexed bytes. A sidecar whose fingerprint does
/// not match the log it sits next to is stale — compaction with a retention
/// horizon changes all four — and is ignored rather than served.
struct SidecarFingerprint {
  std::uint64_t records = 0;
  std::int64_t first_ms = 0;
  std::int64_t last_ms = 0;
  std::uint64_t indexed_bytes = 0;

  friend bool operator==(const SidecarFingerprint&, const SidecarFingerprint&) = default;
};

/// Identity of one sidecar format.
struct SidecarFormat {
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  const char* extension = "";  ///< string literal, e.g. ".mroll"
};

/// `<dir>/<stem><extension>` next to `<dir>/<stem>.<ext>`; a name without
/// an extension gains one.
[[nodiscard]] std::string sidecar_path_for(const std::string& log_path,
                                           const SidecarFormat& format);

/// Writes the envelope around `source` followed by `body`. False on I/O
/// failure; never throws.
bool write_sidecar(const std::string& path, const SidecarFormat& format,
                   const SidecarFingerprint& source, std::string_view body);

/// Loads a sidecar into `source` and, through `decode_body`, its body.
/// False on a missing file, a wrong magic, version or length, a CRC
/// mismatch, a body that throws or leaves bytes unread: a damaged sidecar is
/// simply absent, and the log stays the source of truth. Never throws.
[[nodiscard]] bool load_sidecar(const std::string& path, const SidecarFormat& format,
                                SidecarFingerprint& source,
                                const std::function<void(codec::Cursor&)>& decode_body);

/// Keeps a loaded sidecar only when it was built from exactly the log's
/// current bytes; a stale one is counted in `rejected` and dropped.
template <typename Sidecar>
[[nodiscard]] std::optional<Sidecar> keep_if_fresh(std::optional<Sidecar> sidecar,
                                                   const SidecarFingerprint& current,
                                                   std::size_t& rejected) {
  if (sidecar && sidecar->source != current) {
    ++rejected;
    return std::nullopt;
  }
  return sidecar;
}

}  // namespace mantra::core
