// Shared plumbing for the Mantra benchmark: wall-clock timing, sample
// statistics, the in-memory span recorder the traced runs use, the metric
// set every workload fills in, and host facts.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(const std::vector<double>& values);

/// Keeps `threads` cores busy for `ms` before anything is timed: a host that
/// was idle runs the first seconds of work measurably slower.
void warm_up_cpus(std::size_t threads, double ms);

/// Peak resident set size of this process (VmHWM), in MB.
[[nodiscard]] double peak_rss_mb();

/// Run parameters shared by every workload.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool smoke = false;       ///< reduced sizes: finishes in seconds
  std::size_t threads = 4;  ///< worker threads / query clients (<= nproc)
  std::string work_dir;     ///< scratch directory for archives and spans
};

/// What a workload hands back: metrics by name (value + unit), the
/// correctness verdict with the reasons it failed, and the operation count.
struct Outcome {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::vector<std::string> failures;  ///< empty = every check passed
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Extra facts printed before the result line (not part of the result).
  std::vector<std::pair<std::string, std::string>> facts;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  void fact(const std::string& key, const std::string& value) {
    facts.emplace_back(key, value);
  }
  void fact(const std::string& key, double value);
};

/// Span recorder for the traced runs: spans live in memory (one buffer per
/// lane so pool tasks never contend) and are written out when the run ends.
/// A span is (name, start, end, parent, cycle id); parent is the index of
/// the enclosing span in the same lane, or -1.
class SpanLog {
 public:
  struct Span {
    std::uint16_t name = 0;
    std::int32_t parent = -1;
    std::uint32_t cycle = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// `lanes` independent buffers; a lane must be used by one thread at a
  /// time (the traced runs give each target its own lane).
  explicit SpanLog(std::size_t lanes);

  /// Interns a span name. Call before any thread records spans.
  std::uint16_t name_id(const std::string& name);

  /// Opens a span in `lane` under the lane's currently open span.
  std::int32_t open(std::size_t lane, std::uint16_t name, std::uint32_t cycle);
  void close(std::size_t lane, std::int32_t index);

  /// RAII helper around open/close.
  class Scope {
   public:
    Scope(SpanLog& log, std::size_t lane, std::uint16_t name, std::uint32_t cycle)
        : log_(log), lane_(lane), index_(log.open(lane, name, cycle)) {}
    ~Scope() { log_.close(lane_, index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::size_t lane_;
    std::int32_t index_;
  };

  /// Per span name, over spans with cycle id >= `min_cycle`: how many spans,
  /// total duration and self time (duration minus the part of its interval
  /// covered by child spans), in ns.
  struct Totals {
    std::uint64_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };
  [[nodiscard]] std::map<std::string, Totals> totals(std::uint32_t min_cycle = 0) const;

  /// Durations (ms) of the spans named `name` with cycle id >= `min_cycle`,
  /// in recording order.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name,
                                                 std::uint32_t min_cycle = 0) const;

  [[nodiscard]] std::size_t span_count() const;

  /// Writes every span as one JSON object per line.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Lane {
    std::vector<Span> spans;
    std::vector<std::int32_t> open;  ///< stack of open span indices
  };
  std::vector<Lane> lanes_;
  std::vector<std::string> names_;
};

/// Compiler, build type and flags baked in at configure time.
[[nodiscard]] std::vector<std::pair<std::string, std::string>> host_facts(
    const RunConfig& config);

}  // namespace perfbench
