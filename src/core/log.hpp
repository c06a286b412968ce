// Data Logger (§III) byte ledger: what the paper's text log would occupy
// under its two space optimisations, without storing it:
//   * Storing only deltas — key-frame snapshots every N cycles, per-table
//     diffs in between (most effective on the slowly changing route table).
//   * Avoiding redundancy — the participant and session tables are never
//     stored; they are re-derived from the pair table on reconstruction.
//
// Byte accounting runs through the same text codec an on-disk log would
// use, so the ablation benchmark's compression ratios are real. The stored
// key-frame/delta log itself is core/archive's `.marc` (ArchiveWriter), and
// ArchiveReader::snapshot is the one reconstruction path.
#pragma once

#include <cstdint>
#include <string>

#include "core/tables.hpp"

namespace mantra::core {

struct LoggerConfig {
  bool store_deltas = true;      ///< ablation: false = full snapshot per cycle
  bool derive_redundant = true;  ///< ablation: false = store derived tables too
  int full_snapshot_every = 96;  ///< key-frame interval (in cycles)
};

/// Serializes a snapshot (pairs + routes + SA + MBGP tables) to the text
/// log format, appending to `out` (which keeps its capacity across calls).
/// Derived tables are included only when `include_derived`. The logger's
/// own byte ledgers run the same codec through a counting sink instead, so
/// the hot path never materializes this text.
void serialize_snapshot_into(const Snapshot& snapshot, bool include_derived,
                             std::string& out);

/// Value-returning convenience wrapper over `serialize_snapshot_into`.
[[nodiscard]] std::string serialize_snapshot(const Snapshot& snapshot,
                                             bool include_derived);

class DataLogger {
 public:
  explicit DataLogger(LoggerConfig config = {}) : config_(config) {}

  /// Counts one cycle into both ledgers. The snapshot's derived tables may
  /// be empty; they are not counted (unless the redundancy ablation asks
  /// for them). Nothing per cycle is kept beyond the tables the next delta
  /// is diffed against.
  void record(const Snapshot& snapshot);

  [[nodiscard]] std::size_t cycle_count() const { return cycle_count_; }

  /// Bytes this log occupies in the text codec.
  [[nodiscard]] std::uint64_t stored_bytes() const { return stored_bytes_; }
  /// Bytes a naive full-snapshot-per-cycle log would occupy.
  [[nodiscard]] std::uint64_t naive_bytes() const { return naive_bytes_; }

  [[nodiscard]] const LoggerConfig& config() const { return config_; }

 private:
  LoggerConfig config_;
  std::size_t cycle_count_ = 0;
  // The previous cycle's stored tables, for diffing against.
  Snapshot previous_;
  std::uint64_t stored_bytes_ = 0;
  std::uint64_t naive_bytes_ = 0;
};

}  // namespace mantra::core
