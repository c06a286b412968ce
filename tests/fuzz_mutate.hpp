// Seeded byte-level mutations shared by the fuzz tests: the on-disk format
// readers (format_golden_test) and the CLI text pipeline
// (parse_differential_test) damage their corpora with the same edits.
#pragma once

#include <algorithm>
#include <cstddef>
#include <random>
#include <string>
#include <utility>

namespace mantra::fuzz {

/// One to three seeded edits (flip, insert, erase, truncate, splice in a copy
/// of another range) and the offset of the first byte they may have changed.
inline std::pair<std::string, std::size_t> mutate(const std::string& bytes,
                                                  std::mt19937& rng) {
  std::string out = bytes;
  std::size_t first = out.size();
  const int edits = 1 + static_cast<int>(rng() % 3);
  for (int e = 0; e < edits && !out.empty(); ++e) {
    const std::size_t at = rng() % out.size();
    const std::size_t len = 1 + rng() % 64;
    switch (rng() % 5) {
      case 0: out[at] = static_cast<char>(out[at] ^ static_cast<char>(1 + rng() % 255)); break;
      case 1: out.insert(at, 1, static_cast<char>(rng())); break;
      case 2: out.erase(at, len); break;
      case 3: out.resize(at); break;
      default: out.insert(at, out.substr(rng() % out.size(), len)); break;
    }
    first = std::min(first, at);
  }
  return {out, first};
}

}  // namespace mantra::fuzz
