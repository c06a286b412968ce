// Test oracle: the `.mtel` writer as it was before it resolved dictionary
// ids by position (see mtel_writer_oracle.cpp). It interns every instance
// through the key map, twice per append. TelemetryArchiveWriter must write
// the same bytes for every sample sequence.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/framed.hpp"
#include "core/teltrace.hpp"

namespace mantra::oracle {

class MtelWriterOracle {
 public:
  /// Creates/truncates `path`.
  MtelWriterOracle(std::string path, int keyframe_interval = 96);

  void append(const core::TelemetrySample& sample);
  void close() { log_.close(); }

 private:
  struct DictEntry {
    std::uint8_t kind = 0;
    std::string name;
    std::string labels;
    std::vector<double> bounds;
    std::uint64_t counter = 0;
    std::uint64_t gauge_bits = 0;
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    std::uint64_t sum_bits = 0;
  };

  int keyframe_interval_;
  core::FramedLogWriter log_;
  std::vector<DictEntry> dict_;
  std::map<std::string, std::size_t> dict_index_;
  std::map<std::string, std::string> prev_help_;
};

}  // namespace mantra::oracle
