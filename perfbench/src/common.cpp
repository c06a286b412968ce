#include "common.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(position);
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + (values[upper] - values[lower]) * fraction;
}

double median(const std::vector<double>& values) { return quantile(values, 0.5); }

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

void warm_up_cpus(std::size_t threads, double ms) {
  std::vector<std::thread> spinners;
  std::atomic<std::uint64_t> sink{0};
  for (std::size_t t = 0; t < threads; ++t) {
    spinners.emplace_back([ms, &sink] {
      const auto start = Clock::now();
      std::uint64_t x = 1;
      while (ms_since(start) < ms) {
        for (int i = 0; i < 4096; ++i) x = x * 6364136223846793005ull + 1442695040888963407ull;
      }
      sink += x;
    });
  }
  for (std::thread& spinner : spinners) spinner.join();
}

void Outcome::fact(const std::string& key, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.6g", value);
  facts.emplace_back(key, buffer);
}

SpanLog::SpanLog(std::size_t lanes) : lanes_(lanes) {}

std::uint16_t SpanLog::name_id(const std::string& name) {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) return static_cast<std::uint16_t>(it - names_.begin());
  names_.push_back(name);
  return static_cast<std::uint16_t>(names_.size() - 1);
}

std::int32_t SpanLog::open(std::size_t lane, std::uint16_t name, std::uint32_t cycle) {
  Lane& l = lanes_[lane];
  Span span;
  span.name = name;
  span.parent = l.open.empty() ? -1 : l.open.back();
  span.cycle = cycle;
  span.start_ns = now_ns();
  l.spans.push_back(span);
  const auto index = static_cast<std::int32_t>(l.spans.size() - 1);
  l.open.push_back(index);
  return index;
}

void SpanLog::close(std::size_t lane, std::int32_t index) {
  Lane& l = lanes_[lane];
  l.spans[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!l.open.empty() && l.open.back() == index) l.open.pop_back();
}

std::map<std::string, SpanLog::Totals> SpanLog::totals(std::uint32_t min_cycle) const {
  std::map<std::string, Totals> out;
  for (const Lane& lane : lanes_) {
    // Children close inside their parent, so covered time is the plain sum
    // of direct children's durations.
    std::vector<double> covered(lane.spans.size(), 0.0);
    for (const Span& span : lane.spans) {
      if (span.parent >= 0) {
        covered[static_cast<std::size_t>(span.parent)] +=
            static_cast<double>(span.end_ns - span.start_ns);
      }
    }
    for (std::size_t i = 0; i < lane.spans.size(); ++i) {
      const Span& span = lane.spans[i];
      if (span.cycle < min_cycle) continue;
      Totals& t = out[names_[span.name]];
      const auto duration = static_cast<double>(span.end_ns - span.start_ns);
      ++t.count;
      t.total_ns += duration;
      t.self_ns += duration - covered[i];
    }
  }
  return out;
}

std::vector<double> SpanLog::durations_ms(const std::string& name,
                                          std::uint32_t min_cycle) const {
  std::vector<double> out;
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it == names_.end()) return out;
  const auto id = static_cast<std::uint16_t>(it - names_.begin());
  for (const Lane& lane : lanes_) {
    for (const Span& span : lane.spans) {
      if (span.name == id && span.cycle >= min_cycle) {
        out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
      }
    }
  }
  return out;
}

std::size_t SpanLog::span_count() const {
  std::size_t n = 0;
  for (const Lane& lane : lanes_) n += lane.spans.size();
  return n;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    for (const Span& span : lanes_[l].spans) {
      std::fprintf(file,
                   "{\"lane\":%zu,\"name\":\"%s\",\"cycle\":%u,\"parent\":%d,"
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   l, names_[span.name].c_str(), span.cycle, span.parent,
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns));
    }
  }
  return std::fclose(file) == 0;
}

std::vector<std::pair<std::string, std::string>> host_facts(const RunConfig& config) {
  return {
      {"nproc", std::to_string(std::max(1u, std::thread::hardware_concurrency()))},
      {"threads", std::to_string(config.threads)},
      {"compiler", PERFBENCH_COMPILER},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"flags", PERFBENCH_FLAGS},
  };
}

}  // namespace perfbench
