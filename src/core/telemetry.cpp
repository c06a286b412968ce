#include "core/telemetry.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <type_traits>

namespace mantra::core {

/// Prometheus text-exposition escaping for label *values*: backslash,
/// double quote and line feed are the spec's three special characters
/// (distinct from json_escape below — the exposition format is not JSON).
std::string prom_label_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

namespace {

/// Serializes labels sorted by key: `k1="v1",k2="v2"`. Empty for no labels.
/// Doubles as the instance key — the escape is injective, so escaped
/// strings collide exactly when the raw label sets do.
std::string label_string(MetricLabels labels) {
  std::sort(labels.begin(), labels.end());
  std::string out;
  for (const auto& [key, value] : labels) {
    if (!out.empty()) out.push_back(',');
    out += key;
    out += "=\"";
    out += prom_label_escape(value);
    out += '"';
  }
  return out;
}

/// JSON string escaping (quotes, backslashes, control bytes).
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string format_double(double value) {
  char buffer[64];
  // %g keeps integral values compact ("5" not "5.000000") and is stable.
  std::snprintf(buffer, sizeof buffer, "%.9g", value);
  return buffer;
}

void atomic_double_add(std::atomic<double>& target, double d) {
  double expected = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(expected, expected + d,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

// --- Histogram ---------------------------------------------------------------

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size()) {
  std::sort(bounds_.begin(), bounds_.end());
}

void Histogram::observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  if (it == bounds_.end()) {
    inf_bucket_.fetch_add(1, std::memory_order_relaxed);
  } else {
    buckets_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
        1, std::memory_order_relaxed);
  }
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_double_add(sum_, value);
}

double Histogram::sum() const { return sum_.load(std::memory_order_relaxed); }

double histogram_quantile(const std::vector<double>& bounds,
                          const std::vector<std::uint64_t>& buckets,
                          std::uint64_t total, double q) {
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < bounds.size() && b < buckets.size(); ++b) {
    const std::uint64_t in_bucket = buckets[b];
    if (static_cast<double>(cumulative + in_bucket) >= rank && in_bucket > 0) {
      const double lower = b == 0 ? 0.0 : bounds[b - 1];
      const double upper = bounds[b];
      const double fraction =
          (rank - static_cast<double>(cumulative)) / static_cast<double>(in_bucket);
      return lower + (upper - lower) * std::clamp(fraction, 0.0, 1.0);
    }
    cumulative += in_bucket;
  }
  // Rank falls in the +Inf bucket: the best estimate is the largest bound.
  return bounds.empty() ? 0.0 : bounds.back();
}

double Histogram::quantile(double q) const {
  std::vector<std::uint64_t> buckets(buckets_.size() + 1);
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    buckets[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  buckets.back() = inf_bucket_.load(std::memory_order_relaxed);
  return histogram_quantile(bounds_, buckets, count(), q);
}

const std::vector<double>& default_latency_buckets_s() {
  static const std::vector<double> buckets = {
      0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
      5.0,  10.0,  20.0, 30.0, 60.0, 120.0, 300.0,
  };
  return buckets;
}

// --- MetricsRegistry ---------------------------------------------------------

MetricsRegistry::MetricsRegistry(bool enabled)
    : enabled_(enabled),
      scratch_histogram_(std::make_unique<Histogram>(default_latency_buckets_s())) {}

Counter& MetricsRegistry::counter(std::string_view name, MetricLabels labels) {
  if (!enabled_) return scratch_counter_;
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[std::string(name)].instances[label_string(std::move(labels))];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(std::string_view name, MetricLabels labels) {
  if (!enabled_) return scratch_gauge_;
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[std::string(name)].instances[label_string(std::move(labels))];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(std::string_view name, MetricLabels labels,
                                      const std::vector<double>& upper_bounds) {
  if (!enabled_) return *scratch_histogram_;
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot =
      histograms_[std::string(name)].instances[label_string(std::move(labels))];
  if (!slot) slot = std::make_unique<Histogram>(upper_bounds);
  return *slot;
}

void MetricsRegistry::set_help(std::string_view name, std::string_view text) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  help_[std::string(name)] = std::string(text);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  snapshot_into(out);
  return out;
}

namespace {

/// Slot `i` of a snapshot section being refilled in order: the existing
/// entry (its strings and vectors keep their capacity) or a new one.
template <typename Sample>
Sample& refill_slot(std::vector<Sample>& samples, std::size_t i) {
  if (i == samples.size()) samples.emplace_back();
  return samples[i];
}

}  // namespace

void MetricsRegistry::snapshot_into(MetricsSnapshot& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& [name, family] : counters_) {
    for (const auto& [labels, counter] : family.instances) {
      MetricsSnapshot::CounterSample& sample = refill_slot(out.counters, n++);
      sample.name = name;
      sample.labels = labels;
      sample.value = counter->value();
    }
  }
  out.counters.resize(n);
  n = 0;
  for (const auto& [name, family] : gauges_) {
    for (const auto& [labels, gauge] : family.instances) {
      MetricsSnapshot::GaugeSample& sample = refill_slot(out.gauges, n++);
      sample.name = name;
      sample.labels = labels;
      sample.value = gauge->value();
    }
  }
  out.gauges.resize(n);
  n = 0;
  for (const auto& [name, family] : histograms_) {
    for (const auto& [labels, histogram] : family.instances) {
      MetricsSnapshot::HistogramSample& sample = refill_slot(out.histograms, n++);
      sample.name = name;
      sample.labels = labels;
      sample.bounds = histogram->upper_bounds();
      sample.buckets.resize(sample.bounds.size() + 1);
      std::uint64_t finite = 0;
      for (std::size_t b = 0; b < sample.bounds.size(); ++b) {
        sample.buckets[b] = histogram->buckets_[b].load(std::memory_order_relaxed);
        finite += sample.buckets[b];
      }
      // Under a racing observe() the bucket counts can momentarily lead the
      // total (bucket is bumped first); clamp so the +Inf bucket never
      // underflows — quiescent snapshots are exact.
      sample.count = std::max(histogram->count(), finite);
      sample.buckets.back() = sample.count - finite;  // +Inf bucket
      sample.sum = histogram->sum();
    }
  }
  out.histograms.resize(n);
  out.help = help_;
}

std::uint64_t MetricsRegistry::counter_total(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto family = counters_.find(std::string(name));
  if (family == counters_.end()) return 0;
  std::uint64_t total = 0;
  for (const auto& [labels, counter] : family->second.instances) {
    total += counter->value();
  }
  return total;
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name,
                                             const MetricLabels& labels) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto family = counters_.find(std::string(name));
  if (family == counters_.end()) return 0;
  const auto instance = family->second.instances.find(label_string(labels));
  return instance == family->second.instances.end() ? 0
                                                    : instance->second->value();
}

const Histogram* MetricsRegistry::find_histogram(std::string_view name,
                                                 const MetricLabels& labels) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto family = histograms_.find(std::string(name));
  if (family == histograms_.end()) return nullptr;
  const auto instance = family->second.instances.find(label_string(labels));
  return instance == family->second.instances.end() ? nullptr
                                                    : instance->second.get();
}

namespace {

/// # HELP text escaping: the exposition spec reserves backslash and line
/// feed in help lines (quotes stay literal there, unlike label values).
std::string prom_help_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

void append_family_header(std::string& out, const std::string& name,
                          const char* type, const MetricsSnapshot& snapshot) {
  const auto help = snapshot.help.find(name);
  if (help != snapshot.help.end()) {
    out += "# HELP " + name + " " + prom_help_escape(help->second) + "\n";
  }
  out += "# TYPE " + name + " ";
  out += type;
  out += "\n";
}

}  // namespace

std::string prometheus_text_from(const MetricsSnapshot& snapshot) {
  std::string out;
  char line[256];

  const std::string* open_family = nullptr;
  for (const MetricsSnapshot::CounterSample& sample : snapshot.counters) {
    if (open_family == nullptr || *open_family != sample.name) {
      append_family_header(out, sample.name, "counter", snapshot);
      open_family = &sample.name;
    }
    const std::string instance = sample.labels.empty()
                                     ? sample.name
                                     : sample.name + "{" + sample.labels + "}";
    std::snprintf(line, sizeof line, " %" PRIu64 "\n", sample.value);
    out += instance + line;
  }
  open_family = nullptr;
  for (const MetricsSnapshot::GaugeSample& sample : snapshot.gauges) {
    if (open_family == nullptr || *open_family != sample.name) {
      append_family_header(out, sample.name, "gauge", snapshot);
      open_family = &sample.name;
    }
    const std::string instance = sample.labels.empty()
                                     ? sample.name
                                     : sample.name + "{" + sample.labels + "}";
    out += instance + " " + format_double(sample.value) + "\n";
  }
  open_family = nullptr;
  for (const MetricsSnapshot::HistogramSample& sample : snapshot.histograms) {
    if (open_family == nullptr || *open_family != sample.name) {
      append_family_header(out, sample.name, "histogram", snapshot);
      open_family = &sample.name;
    }
    const std::string separator = sample.labels.empty() ? "" : ",";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < sample.bounds.size(); ++b) {
      cumulative += b < sample.buckets.size() ? sample.buckets[b] : 0;
      out += sample.name + "_bucket{" + sample.labels + separator + "le=\"" +
             format_double(sample.bounds[b]) + "\"}";
      std::snprintf(line, sizeof line, " %" PRIu64 "\n", cumulative);
      out += line;
    }
    out += sample.name + "_bucket{" + sample.labels + separator + "le=\"+Inf\"}";
    std::snprintf(line, sizeof line, " %" PRIu64 "\n", sample.count);
    out += line;
    const std::string brace_labels =
        sample.labels.empty() ? "" : "{" + sample.labels + "}";
    out += sample.name + "_sum" + brace_labels + " " + format_double(sample.sum) +
           "\n";
    std::snprintf(line, sizeof line, " %" PRIu64 "\n", sample.count);
    out += sample.name + "_count" + brace_labels + line;
  }
  return out;
}

std::string MetricsRegistry::prometheus_text() const {
  return prometheus_text_from(snapshot());
}

namespace {

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  const auto ok = [](char c, bool first) {
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
    const bool digit = c >= '0' && c <= '9';
    return alpha || c == '_' || c == ':' || (digit && !first);
  };
  for (std::size_t i = 0; i < name.size(); ++i) {
    if (!ok(name[i], i == 0)) return false;
  }
  return true;
}

bool valid_label_name(std::string_view name) {
  // Label names allow no colon (that is reserved for metric names).
  return valid_metric_name(name) && name.find(':') == std::string_view::npos;
}

/// One parsed sample line: name, raw label string, parsed labels, value.
struct LintSample {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;
  double value = 0.0;
  std::string error;  ///< non-empty = unusable line
};

LintSample parse_sample_line(std::string_view line) {
  LintSample out;
  std::size_t pos = line.find_first_of("{ ");
  if (pos == std::string_view::npos) {
    out.error = "sample line has no value";
    return out;
  }
  out.name = std::string(line.substr(0, pos));
  if (!valid_metric_name(out.name)) {
    out.error = "invalid metric name '" + out.name + "'";
    return out;
  }
  if (line[pos] == '{') {
    ++pos;
    while (pos < line.size() && line[pos] != '}') {
      const std::size_t eq = line.find('=', pos);
      if (eq == std::string_view::npos || eq + 1 >= line.size() ||
          line[eq + 1] != '"') {
        out.error = "malformed label pair in '" + out.name + "'";
        return out;
      }
      const std::string key(line.substr(pos, eq - pos));
      if (!valid_label_name(key)) {
        out.error = "invalid label name '" + key + "' in '" + out.name + "'";
        return out;
      }
      std::string value;
      std::size_t v = eq + 2;
      bool closed = false;
      while (v < line.size()) {
        const char c = line[v];
        if (c == '\\') {
          if (v + 1 >= line.size()) break;
          const char esc = line[v + 1];
          if (esc == '\\') value.push_back('\\');
          else if (esc == '"') value.push_back('"');
          else if (esc == 'n') value.push_back('\n');
          else {
            out.error = "invalid escape '\\" + std::string(1, esc) + "' in '" +
                        out.name + "'";
            return out;
          }
          v += 2;
          continue;
        }
        if (c == '"') {
          closed = true;
          ++v;
          break;
        }
        value.push_back(c);
        ++v;
      }
      if (!closed) {
        out.error = "unterminated label value in '" + out.name + "'";
        return out;
      }
      out.labels.emplace_back(key, std::move(value));
      pos = v;
      if (pos < line.size() && line[pos] == ',') ++pos;
    }
    if (pos >= line.size() || line[pos] != '}') {
      out.error = "unterminated label set in '" + out.name + "'";
      return out;
    }
    ++pos;
  }
  if (pos >= line.size() || line[pos] != ' ') {
    out.error = "missing value separator in '" + out.name + "'";
    return out;
  }
  const std::string value_text(line.substr(pos + 1));
  if (value_text == "+Inf") {
    out.value = std::numeric_limits<double>::infinity();
    return out;
  }
  char* end = nullptr;
  out.value = std::strtod(value_text.c_str(), &end);
  if (end == value_text.c_str() || *end != '\0') {
    out.error = "unparseable value '" + value_text + "' for '" + out.name + "'";
  }
  return out;
}

}  // namespace

std::vector<std::string> prometheus_lint(std::string_view exposition) {
  std::vector<std::string> errors;
  std::map<std::string, std::string> types;  // family -> declared type
  std::map<std::string, bool> family_sampled;

  /// Per histogram instance (family + labels sans `le`): running bucket
  /// consistency state, finalized once the whole text is consumed.
  struct HistogramState {
    bool has_inf = false;
    bool seen_bucket = false;
    double last_le = -std::numeric_limits<double>::infinity();
    std::uint64_t last_cumulative = 0;
    std::uint64_t inf_count = 0;
    bool has_sum = false;
    bool has_count = false;
    std::uint64_t count_value = 0;
  };
  std::map<std::string, HistogramState> histograms;

  // Resolves a histogram sample's family from its suffixed series name.
  const auto histogram_family = [&types](const std::string& name,
                                         const char* suffix) -> std::string {
    const std::string_view tail(suffix);
    if (name.size() <= tail.size() ||
        name.compare(name.size() - tail.size(), tail.size(), tail) != 0) {
      return {};
    }
    const std::string family = name.substr(0, name.size() - tail.size());
    const auto it = types.find(family);
    return it != types.end() && it->second == "histogram" ? family : std::string();
  };

  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start <= exposition.size()) {
    const std::size_t nl = exposition.find('\n', start);
    const std::string_view line = exposition.substr(
        start, nl == std::string_view::npos ? exposition.size() - start
                                            : nl - start);
    start = nl == std::string_view::npos ? exposition.size() + 1 : nl + 1;
    ++line_no;
    if (line.empty()) continue;
    const auto fail = [&errors, line_no](std::string message) {
      errors.push_back("line " + std::to_string(line_no) + ": " +
                       std::move(message));
    };

    if (line[0] == '#') {
      // `# HELP <name> <text>` / `# TYPE <name> <kind>`; other comments pass.
      if (line.rfind("# TYPE ", 0) == 0) {
        const std::string_view rest = line.substr(7);
        const std::size_t space = rest.find(' ');
        const std::string name(rest.substr(0, space));
        const std::string kind(
            space == std::string_view::npos ? "" : rest.substr(space + 1));
        if (!valid_metric_name(name)) {
          fail("invalid family name in TYPE line");
          continue;
        }
        if (kind != "counter" && kind != "gauge" && kind != "histogram" &&
            kind != "summary" && kind != "untyped") {
          fail("unknown type '" + kind + "' for family '" + name + "'");
          continue;
        }
        if (types.contains(name)) {
          fail("duplicate TYPE for family '" + name + "'");
          continue;
        }
        if (family_sampled[name]) {
          fail("TYPE for '" + name + "' appears after its samples");
        }
        types[name] = kind;
      } else if (line.rfind("# HELP ", 0) == 0) {
        const std::string_view rest = line.substr(7);
        const std::string name(rest.substr(0, rest.find(' ')));
        if (!valid_metric_name(name)) {
          fail("invalid family name in HELP line");
        }
      } else if (line.rfind("# TYPE", 0) == 0 || line.rfind("# HELP", 0) == 0) {
        fail("malformed comment directive");
      }
      continue;
    }

    LintSample sample = parse_sample_line(line);
    if (!sample.error.empty()) {
      fail(sample.error);
      continue;
    }

    // Find the owning family: exact name, or a histogram expansion.
    std::string family;
    const auto exact = types.find(sample.name);
    if (exact != types.end()) {
      if (exact->second == "histogram") {
        fail("bare sample for histogram family '" + sample.name + "'");
        continue;
      }
      family = sample.name;
    } else {
      for (const char* suffix : {"_bucket", "_sum", "_count"}) {
        family = histogram_family(sample.name, suffix);
        if (!family.empty()) break;
      }
      if (family.empty()) {
        fail("sample '" + sample.name + "' has no preceding TYPE");
        continue;
      }
    }
    family_sampled[family] = true;

    if (types[family] != "histogram") continue;

    // Histogram consistency: group by labels minus `le`, in text order. The
    // key re-escapes each value, so distinct label sets never share a key.
    std::string le_value;
    bool has_le = false;
    std::string instance_key = family + "|";
    for (const auto& [key, value] : sample.labels) {
      if (key == "le" &&
          sample.name.size() >= 7 &&
          sample.name.compare(sample.name.size() - 7, 7, "_bucket") == 0) {
        le_value = value;
        has_le = true;
        continue;
      }
      instance_key += key + "=\"" + prom_label_escape(value) + "\",";
    }
    HistogramState& state = histograms[instance_key];
    if (sample.name.compare(sample.name.size() -
                                std::min<std::size_t>(7, sample.name.size()),
                            7, "_bucket") == 0) {
      if (!has_le) {
        fail("histogram bucket for '" + family + "' lacks an le label");
        continue;
      }
      if (state.has_inf) {
        fail("histogram '" + family + "' has buckets after le=\"+Inf\"");
        continue;
      }
      const std::uint64_t cumulative =
          static_cast<std::uint64_t>(sample.value);
      if (state.seen_bucket && cumulative < state.last_cumulative) {
        fail("histogram '" + family + "' bucket counts are not cumulative");
      }
      if (le_value == "+Inf") {
        state.has_inf = true;
        state.inf_count = cumulative;
      } else {
        char* end = nullptr;
        const double le = std::strtod(le_value.c_str(), &end);
        if (end == le_value.c_str() || *end != '\0') {
          fail("histogram '" + family + "' has unparseable le '" + le_value +
               "'");
          continue;
        }
        if (state.seen_bucket && le <= state.last_le) {
          fail("histogram '" + family + "' le bounds are not ascending");
        }
        state.last_le = le;
      }
      state.seen_bucket = true;
      state.last_cumulative = cumulative;
    } else if (sample.name.compare(sample.name.size() - 4, 4, "_sum") == 0) {
      state.has_sum = true;
    } else {
      state.has_count = true;
      state.count_value = static_cast<std::uint64_t>(sample.value);
    }
  }

  for (const auto& [key, state] : histograms) {
    const std::string family = key.substr(0, key.find('|'));
    if (!state.has_inf) {
      errors.push_back("histogram '" + family +
                       "' bucket run does not end in le=\"+Inf\"");
    }
    if (!state.has_sum) {
      errors.push_back("histogram '" + family + "' is missing _sum");
    }
    if (!state.has_count) {
      errors.push_back("histogram '" + family + "' is missing _count");
    } else if (state.has_inf && state.inf_count != state.count_value) {
      errors.push_back("histogram '" + family +
                       "' +Inf bucket disagrees with _count");
    }
  }
  for (const auto& [family, kind] : types) {
    if (!family_sampled[family]) {
      errors.push_back("family '" + family + "' declares TYPE but has no samples");
    }
  }
  return errors;
}

// --- Spans -------------------------------------------------------------------

template <typename Sink>
SpanScope<Sink>::SpanScope(Sink* sink, const Tracer& clock, std::string_view name,
                           std::string_view category, sim::TimePoint sim_now)
    : sink_(sink) {
  if (sink_ == nullptr) return;
  wall_start_ = std::chrono::steady_clock::now();
  span_.name = std::string(name);
  span_.category = std::string(category);
  span_.sim_ts_ms = sim_now.total_ms();
  span_.wall_ts_us = std::chrono::duration_cast<std::chrono::microseconds>(
                         wall_start_ - clock.epoch_)
                         .count();
}

template <typename Sink>
SpanScope<Sink>::SpanScope(SpanScope&& other) noexcept
    : sink_(std::exchange(other.sink_, nullptr)),
      span_(std::move(other.span_)),
      command_(std::move(other.command_)),
      attempt_(other.attempt_),
      wall_start_(other.wall_start_) {}

template <typename Sink>
SpanScope<Sink>::~SpanScope() {
  if (sink_ == nullptr) return;
  const auto now = std::chrono::steady_clock::now();
  span_.wall_dur_us = std::chrono::duration_cast<std::chrono::microseconds>(
                          now - wall_start_)
                          .count();
  if constexpr (std::is_same_v<Sink, Tracer>) {
    sink_->record(std::move(span_));
  } else {
    sink_->record(std::move(span_), std::move(command_), attempt_);
  }
}

template <typename Sink>
void SpanScope<Sink>::arg(std::string key, std::string value) {
  if (sink_ == nullptr) return;
  span_.args.emplace_back(std::move(key), std::move(value));
}

template <typename Sink>
void SpanScope<Sink>::set_sim_interval(sim::TimePoint start, sim::Duration duration) {
  if (sink_ == nullptr) return;
  span_.sim_ts_ms = start.total_ms();
  span_.sim_dur_ms = duration.total_ms();
}

template class SpanScope<Tracer>;
template class SpanScope<TelemetryStage>;

// --- Tracer ------------------------------------------------------------------

Tracer::Tracer(bool enabled, std::size_t max_spans)
    : enabled_(enabled),
      max_spans_(std::max<std::size_t>(max_spans, 1)),
      epoch_(std::chrono::steady_clock::now()) {}

Tracer::Scope Tracer::span(std::string_view name, std::string_view category,
                           sim::TimePoint sim_now) {
  Scope scope(enabled_ ? this : nullptr, *this, name, category, sim_now);
  if (enabled_) scope.span_.tid = thread_id();
  return scope;
}

void Tracer::record(TraceSpan span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= max_spans_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  spans_.push_back(std::move(span));
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::vector<TraceSpan> Tracer::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::int64_t Tracer::wall_now_us() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::uint32_t Tracer::thread_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = thread_ids_.emplace(
      std::this_thread::get_id(),
      static_cast<std::uint32_t>(thread_ids_.size() + 1));
  return it->second;
}

void Tracer::set_thread_name(std::uint32_t tid, std::string name) {
  std::lock_guard<std::mutex> lock(mutex_);
  thread_names_[tid] = std::move(name);
}

std::string Tracer::chrome_trace_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  out +=
      "  {\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", "
      "\"args\": {\"name\": \"mantra\"}}";
  char buffer[160];
  // thread_name metadata next, in tid order (thread_names_ is an ordered
  // map), so Perfetto labels each lane before any span references it.
  for (const auto& [tid, name] : thread_names_) {
    std::snprintf(buffer, sizeof buffer,
                  "  {\"ph\": \"M\", \"pid\": 1, \"tid\": %u, "
                  "\"name\": \"thread_name\", \"args\": {\"name\": \"",
                  tid);
    out += ",\n";
    out += buffer;
    out += json_escape(name) + "\"}}";
  }
  for (const TraceSpan& span : spans_) {
    // ts/dur are *simulated* microseconds: the export must be a pure
    // function of the run, and wall intervals vary with host speed.
    std::snprintf(buffer, sizeof buffer,
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": %u, \"ts\": %" PRId64
                  ", \"dur\": %" PRId64,
                  span.tid, span.sim_ts_ms * 1000, span.sim_dur_ms * 1000);
    out += ",\n  {\"name\": \"" + json_escape(span.name) + "\", \"cat\": \"" +
           json_escape(span.category) + "\", " + buffer + ", \"args\": {";
    std::snprintf(buffer, sizeof buffer,
                  "\"sim_ts_ms\": %" PRId64 ", \"sim_dur_ms\": %" PRId64,
                  span.sim_ts_ms, span.sim_dur_ms);
    out += buffer;
    for (const auto& [key, value] : span.args) {
      out += ", \"" + json_escape(key) + "\": \"" + json_escape(value) + "\"";
    }
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

// --- EventLog ----------------------------------------------------------------

const char* to_string(EventLevel level) {
  switch (level) {
    case EventLevel::debug: return "debug";
    case EventLevel::info: return "info";
    case EventLevel::warn: return "warn";
    case EventLevel::error: return "error";
  }
  return "unknown";
}

EventLog::EventLog(bool enabled, std::size_t capacity)
    : enabled_(enabled), capacity_(std::max<std::size_t>(capacity, 1)) {}

void EventLog::log(EventLevel level, std::string_view name, sim::TimePoint t,
                   std::vector<std::pair<std::string, std::string>> fields) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  TelemetryEvent event;
  event.level = level;
  event.name = std::string(name);
  event.sim_ts_ms = t.total_ms();
  event.seq = total_.fetch_add(1, std::memory_order_relaxed);
  event.fields = std::move(fields);
  ring_.push_back(std::move(event));
  if (ring_.size() > capacity_) {
    ring_.pop_front();
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::size_t EventLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

std::vector<TelemetryEvent> EventLog::snapshot(std::uint64_t from_seq) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t first_seq = ring_.empty() ? 0 : ring_.front().seq;
  const std::size_t skip = from_seq <= first_seq
                               ? 0
                               : static_cast<std::size_t>(std::min<std::uint64_t>(
                                     from_seq - first_seq, ring_.size()));
  return {ring_.begin() + static_cast<std::ptrdiff_t>(skip), ring_.end()};
}

/// logfmt value: bare when simple, double-quoted with escapes otherwise.
/// Quoting triggers on anything that would make the bare form ambiguous —
/// whitespace, `=`, quotes, backslashes, and control bytes — and the
/// escaped form uses the conventional \" \\ \n \r \t sequences, so a
/// rendered line round-trips to exactly one (key, value) sequence.
std::string logfmt_value(const std::string& value) {
  const bool needs_quotes =
      value.empty() ||
      std::any_of(value.begin(), value.end(), [](char c) {
        return c == ' ' || c == '=' || c == '"' || c == '\\' ||
               static_cast<unsigned char>(c) < 0x20;
      });
  if (!needs_quotes) return value;
  std::string out = "\"";
  for (const char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

std::string EventLog::logfmt(std::size_t last_n) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t start = 0;
  if (last_n > 0 && last_n < ring_.size()) start = ring_.size() - last_n;
  std::string out;
  char buffer[64];
  for (std::size_t i = start; i < ring_.size(); ++i) {
    const TelemetryEvent& event = ring_[i];
    std::snprintf(buffer, sizeof buffer, "sim_ts=%" PRId64 " ", event.sim_ts_ms);
    out += buffer;
    out += "level=";
    out += to_string(event.level);
    out += " event=";
    out += logfmt_value(event.name);
    for (const auto& [key, value] : event.fields) {
      out += " " + key + "=" + logfmt_value(value);
    }
    out += "\n";
  }
  return out;
}

// --- Telemetry ---------------------------------------------------------------

Telemetry::Telemetry(TelemetryConfig config)
    : config_(config),
      metrics_(config.enabled),
      tracer_(config.enabled, config.max_spans),
      events_(config.enabled, config.max_events) {}

namespace {

bool write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

}  // namespace

bool Telemetry::write_metrics_prom(const std::string& path) const {
  return write_text_file(path, metrics_.prometheus_text());
}

bool Telemetry::write_trace_json(const std::string& path) const {
  return write_text_file(path, tracer_.chrome_trace_json());
}

Telemetry& Telemetry::noop() {
  static Telemetry instance;
  return instance;
}

// --- Correlation ids ---------------------------------------------------------

std::string correlation_id(std::size_t cycle_seq, std::string_view target) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "c%zu/", cycle_seq);
  std::string out = buffer;
  out += target;
  return out;
}

std::string correlation_id(std::size_t cycle_seq, std::string_view target,
                           std::string_view command, std::size_t attempt) {
  std::string out = correlation_id(cycle_seq, target);
  out.push_back('/');
  out += command;
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "/a%zu", attempt);
  out += buffer;
  return out;
}

// --- TelemetryStage ----------------------------------------------------------

TelemetryStage::Span TelemetryStage::span(std::string_view name,
                                          std::string_view category,
                                          sim::TimePoint sim_now) {
  return Span(enabled() ? this : nullptr, telemetry_->tracer(), name, category,
              sim_now);
}

void TelemetryStage::record(TraceSpan span, std::string command,
                            std::size_t attempt) {
  if (!enabled()) return;
  spans_.push_back({std::move(span), std::move(command), attempt});
}

void TelemetryStage::log(EventLevel level, std::string_view name,
                         sim::TimePoint t,
                         std::vector<std::pair<std::string, std::string>> fields,
                         std::string command, std::size_t attempt) {
  if (!enabled()) return;
  StagedEvent event;
  event.level = level;
  event.name = std::string(name);
  event.t = t;
  event.fields = std::move(fields);
  event.command = std::move(command);
  event.attempt = attempt;
  events_.push_back(std::move(event));
}

namespace {

using Fields = std::vector<std::pair<std::string, std::string>>;

/// `fields` behind a leading `corr` entry, in a list of exactly that size
/// (inserting at the front would grow a full list to twice its size).
Fields with_corr(std::size_t cycle_seq, std::string_view target,
                 const std::string& command, std::size_t attempt,
                 Fields& fields) {
  Fields out;
  out.reserve(fields.size() + 1);
  out.emplace_back("corr", command.empty()
                               ? correlation_id(cycle_seq, target)
                               : correlation_id(cycle_seq, target, command, attempt));
  std::move(fields.begin(), fields.end(), std::back_inserter(out));
  return out;
}

}  // namespace

void TelemetryStage::flush(std::size_t cycle_seq, std::string_view target,
                           std::uint32_t tid) {
  for (StagedSpan& staged : spans_) {
    staged.span.tid = tid;
    staged.span.args = with_corr(cycle_seq, target, staged.command,
                                 staged.attempt, staged.span.args);
    telemetry_->tracer().record(std::move(staged.span));
  }
  spans_.clear();
  for (StagedEvent& staged : events_) {
    telemetry_->events().log(staged.level, staged.name, staged.t,
                             with_corr(cycle_seq, target, staged.command,
                                       staged.attempt, staged.fields));
  }
  events_.clear();
}

}  // namespace mantra::core
