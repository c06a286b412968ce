#include "core/teltrace.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "core/codec.hpp"

namespace mantra::core {

namespace {

using codec::Cursor;
using codec::put_f64;
using codec::put_string;
using codec::put_svarint;
using codec::put_varint;

constexpr FramedLogFormat kFormat{0x4C45544Du, 1, ".mtel"};  // "MTEL"

constexpr std::uint8_t kRecordKeyframe = 1;
constexpr std::uint8_t kRecordDelta = 2;

constexpr std::uint8_t kKindCounter = 0;
constexpr std::uint8_t kKindGauge = 1;
constexpr std::uint8_t kKindHistogram = 2;

/// No position / no dictionary id.
constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);

std::uint64_t f64_bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

double bits_f64(std::uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof value);
  return value;
}

template <typename Sample>
const Sample* find_sample(const std::vector<Sample>& entries,
                          std::string_view name, std::string_view labels) {
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), std::make_pair(name, labels),
      [](const Sample& entry,
         const std::pair<std::string_view, std::string_view>& key) {
        if (entry.name != key.first) return entry.name < key.first;
        return entry.labels < key.second;
      });
  if (it != entries.end() && it->name == name && it->labels == labels) {
    return &*it;
  }
  return nullptr;
}

double zero_extract(const CycleResult&) { return 0.0; }

/// The one place a self-rule gains its `extract` placeholder: AlertEngine
/// requires a non-null extract for threshold rules even though the
/// self-monitoring path feeds values through observe_values directly.
std::vector<AlertRule> alert_rules_of(const std::vector<SelfRule>& rules) {
  std::vector<AlertRule> out;
  out.reserve(rules.size());
  for (const SelfRule& self : rules) {
    AlertRule rule = self.rule;
    if (!rule.extract) rule.extract = zero_extract;
    out.push_back(std::move(rule));
  }
  return out;
}

}  // namespace

// --- Snapshot lookups ------------------------------------------------------

const MetricsSnapshot::CounterSample* find_counter(const MetricsSnapshot& snapshot,
                                                   std::string_view name,
                                                   std::string_view labels) {
  return find_sample(snapshot.counters, name, labels);
}

const MetricsSnapshot::GaugeSample* find_gauge(const MetricsSnapshot& snapshot,
                                               std::string_view name,
                                               std::string_view labels) {
  return find_sample(snapshot.gauges, name, labels);
}

const MetricsSnapshot::HistogramSample* find_histogram(
    const MetricsSnapshot& snapshot, std::string_view name,
    std::string_view labels) {
  return find_sample(snapshot.histograms, name, labels);
}

// --- .mtel writer ----------------------------------------------------------

/// Per-metric codec state, shared by the writer and the reader: identity plus
/// the last value written or read, which the next delta record is relative
/// to. New entries start from zero baselines, so a metric appearing mid-file
/// still delta-encodes its first value.
struct TelemetryArchiveWriter::DictEntry {
  std::uint8_t kind = kKindCounter;
  std::string name;
  std::string labels;
  std::vector<double> bounds;  ///< histograms only
  std::uint64_t counter = 0;
  std::uint64_t gauge_bits = 0;
  std::vector<std::uint64_t> buckets;  ///< per-bound + trailing +Inf
  std::uint64_t count = 0;
  std::uint64_t sum_bits = 0;
};

namespace {

/// Validates before the writer's file is created.
TelemetryArchiveOptions checked(TelemetryArchiveOptions options) {
  if (options.keyframe_interval < 1) {
    throw std::runtime_error(
        "TelemetryArchiveWriter: keyframe_interval must be >= 1");
  }
  return options;
}

}  // namespace

TelemetryArchiveWriter::TelemetryArchiveWriter(std::string path,
                                               TelemetryArchiveOptions options)
    : options_(checked(options)), log_(std::move(path), kFormat) {}

TelemetryArchiveWriter::~TelemetryArchiveWriter() = default;

void TelemetryArchiveWriter::append(const TelemetrySample& sample) {
  const bool keyframe =
      log_.frames_written() %
          static_cast<std::size_t>(options_.keyframe_interval) ==
      0;
  const MetricsSnapshot& metrics = sample.metrics;

  // Resolve every instance's dictionary id in one pass, before encoding
  // begins: new entries take ids in (kind, name, labels) order, and
  // positions_ maps each id to its instance in this sample. The id the same
  // position resolved to last time is the first guess; the key map is the
  // fallback when a new or departed series shifted the position.
  std::vector<std::size_t> new_ids;
  positions_.assign(dict_.size(), kAbsent);
  const auto resolve = [&](std::uint8_t kind, std::size_t position,
                           const std::string& name, const std::string& labels,
                           const std::vector<double>* bounds) {
    std::vector<std::size_t>& guesses = position_ids_[kind];
    if (position < guesses.size()) {
      const DictEntry& guess = dict_[guesses[position]];
      if (guess.name == name && guess.labels == labels) {
        positions_[guesses[position]] = position;
        return guesses[position];
      }
    } else {
      guesses.push_back(kAbsent);
    }
    std::string key;
    key.reserve(name.size() + labels.size() + 2);
    key.push_back(static_cast<char>('0' + kind));
    key.append(name);
    key.push_back('\x1f');
    key.append(labels);
    const auto [it, inserted] = dict_index_.emplace(std::move(key), dict_.size());
    if (inserted) {
      DictEntry entry;
      entry.kind = kind;
      entry.name = name;
      entry.labels = labels;
      if (bounds != nullptr) {
        entry.bounds = *bounds;
        entry.buckets.assign(bounds->size() + 1, 0);
      }
      dict_.push_back(std::move(entry));
      positions_.push_back(kAbsent);
      new_ids.push_back(it->second);
    }
    guesses[position] = it->second;
    positions_[it->second] = position;
    return it->second;
  };
  for (std::size_t i = 0; i < metrics.counters.size(); ++i) {
    resolve(kKindCounter, i, metrics.counters[i].name, metrics.counters[i].labels,
            nullptr);
  }
  for (std::size_t i = 0; i < metrics.gauges.size(); ++i) {
    resolve(kKindGauge, i, metrics.gauges[i].name, metrics.gauges[i].labels,
            nullptr);
  }
  for (std::size_t i = 0; i < metrics.histograms.size(); ++i) {
    const MetricsSnapshot::HistogramSample& histogram = metrics.histograms[i];
    const std::size_t id = resolve(kKindHistogram, i, histogram.name,
                                   histogram.labels, &histogram.bounds);
    if (dict_[id].bounds != histogram.bounds ||
        histogram.buckets.size() != histogram.bounds.size() + 1) {
      throw std::runtime_error(
          "TelemetryArchiveWriter: histogram bounds changed for " +
          histogram.name);
    }
  }
  position_ids_[kKindCounter].resize(metrics.counters.size());
  position_ids_[kKindGauge].resize(metrics.gauges.size());
  position_ids_[kKindHistogram].resize(metrics.histograms.size());

  std::string& payload = payload_;
  payload.clear();
  payload.push_back(
      static_cast<char>(keyframe ? kRecordKeyframe : kRecordDelta));
  put_svarint(payload, sample.t_ms);

  // New dictionary entries (ids are implicit: sequential from the decoder's
  // current dictionary size).
  put_varint(payload, new_ids.size());
  for (const std::size_t id : new_ids) {
    const DictEntry& entry = dict_[id];
    payload.push_back(static_cast<char>(entry.kind));
    put_string(payload, entry.name);
    put_string(payload, entry.labels);
    if (entry.kind == kKindHistogram) {
      put_varint(payload, entry.bounds.size());
      for (const double bound : entry.bounds) put_f64(payload, bound);
    }
  }

  // Help text diffs: upserts then removals against the previous record.
  std::vector<std::pair<const std::string*, const std::string*>> upserts;
  for (const auto& [name, text] : sample.metrics.help) {
    const auto it = prev_help_.find(name);
    if (it == prev_help_.end() || it->second != text) {
      upserts.emplace_back(&name, &text);
    }
  }
  std::vector<const std::string*> removals;
  for (const auto& [name, text] : prev_help_) {
    if (sample.metrics.help.find(name) == sample.metrics.help.end()) {
      removals.push_back(&name);
    }
  }
  put_varint(payload, upserts.size());
  for (const auto& [name, text] : upserts) {
    put_string(payload, *name);
    put_string(payload, *text);
  }
  put_varint(payload, removals.size());
  for (const std::string* name : removals) put_string(payload, *name);
  if (!upserts.empty() || !removals.empty()) prev_help_ = sample.metrics.help;

  // One value per dictionary id, in id order; an id absent from this
  // sample (impossible with a MetricsRegistry, which never removes metrics,
  // but legal for hand-built samples) re-encodes its previous value.
  // Key-frames write absolute values; deltas write differences
  // (counters/buckets as zigzag varints of the unsigned difference, doubles
  // as varints of XORed IEEE-754 bits — both exactly invertible).
  for (DictEntry& entry : dict_) {
    const std::size_t position =
        positions_[static_cast<std::size_t>(&entry - dict_.data())];
    const bool present = position != kAbsent;
    switch (entry.kind) {
      case kKindCounter: {
        const std::uint64_t value =
            present ? metrics.counters[position].value : entry.counter;
        if (keyframe) {
          put_varint(payload, value);
        } else {
          put_svarint(payload,
                      static_cast<std::int64_t>(value - entry.counter));
        }
        entry.counter = value;
        break;
      }
      case kKindGauge: {
        const std::uint64_t bits =
            present ? f64_bits(metrics.gauges[position].value) : entry.gauge_bits;
        if (keyframe) {
          put_f64(payload, bits_f64(bits));
        } else {
          put_varint(payload, bits ^ entry.gauge_bits);
        }
        entry.gauge_bits = bits;
        break;
      }
      case kKindHistogram: {
        const MetricsSnapshot::HistogramSample* histogram =
            present ? &metrics.histograms[position] : nullptr;
        for (std::size_t b = 0; b < entry.buckets.size(); ++b) {
          const std::uint64_t value =
              histogram != nullptr ? histogram->buckets[b] : entry.buckets[b];
          if (keyframe) {
            put_varint(payload, value);
          } else {
            put_svarint(payload, static_cast<std::int64_t>(
                                     value - entry.buckets[b]));
          }
          entry.buckets[b] = value;
        }
        const std::uint64_t count =
            histogram != nullptr ? histogram->count : entry.count;
        const std::uint64_t sum_bits =
            histogram != nullptr ? f64_bits(histogram->sum) : entry.sum_bits;
        if (keyframe) {
          put_varint(payload, count);
          put_f64(payload, bits_f64(sum_bits));
        } else {
          put_svarint(payload,
                      static_cast<std::int64_t>(count - entry.count));
          put_varint(payload, sum_bits ^ entry.sum_bits);
        }
        entry.count = count;
        entry.sum_bits = sum_bits;
        break;
      }
      default:
        break;
    }
  }

  // The event tail, verbatim.
  put_varint(payload, sample.events.size());
  for (const TelemetryEvent& event : sample.events) {
    payload.push_back(static_cast<char>(event.level));
    put_string(payload, event.name);
    put_svarint(payload, event.sim_ts_ms);
    put_varint(payload, event.seq);
    put_varint(payload, event.fields.size());
    for (const auto& [key, value] : event.fields) {
      put_string(payload, key);
      put_string(payload, value);
    }
  }

  log_.append(payload);
  if (keyframe && options_.fsync_on_keyframe) sync();
}

void TelemetryArchiveWriter::sync() { log_.sync(); }

void TelemetryArchiveWriter::close() { log_.close(); }

// --- .mtel reader ----------------------------------------------------------

TelemetryArchiveReader::TelemetryArchiveReader(const std::string& path) {
  // Cumulative decoder state, mirroring the writer's dictionary.
  using DictEntry = TelemetryArchiveWriter::DictEntry;
  std::vector<DictEntry> dict;
  std::map<std::string, std::string> help;

  const auto decode = [&](std::string_view payload, std::uint64_t) -> const char* {
    Cursor cursor{payload.data(), payload.size()};
    const std::uint8_t record_kind = cursor.u8();
    if (record_kind != kRecordKeyframe && record_kind != kRecordDelta) {
      throw std::runtime_error("unknown record kind");
    }
    const bool keyframe = record_kind == kRecordKeyframe;
    if (samples_.empty() && !keyframe) return "first record is not a key-frame";
    TelemetrySample sample;
    sample.t_ms = cursor.svarint();

    const std::uint64_t new_entries = cursor.varint();
    for (std::uint64_t i = 0; i < new_entries; ++i) {
      DictEntry entry;
      entry.kind = cursor.u8();
      if (entry.kind > kKindHistogram) {
        throw std::runtime_error("unknown metric kind");
      }
      entry.name = cursor.string();
      entry.labels = cursor.string();
      if (entry.kind == kKindHistogram) {
        const std::uint64_t bound_count = cursor.varint();
        entry.bounds.reserve(bound_count);
        for (std::uint64_t b = 0; b < bound_count; ++b) {
          entry.bounds.push_back(cursor.f64());
        }
        entry.buckets.assign(entry.bounds.size() + 1, 0);
      }
      dict.push_back(std::move(entry));
    }

    const std::uint64_t upserts = cursor.varint();
    for (std::uint64_t i = 0; i < upserts; ++i) {
      std::string name = cursor.string();
      help[std::move(name)] = cursor.string();
    }
    const std::uint64_t removals = cursor.varint();
    for (std::uint64_t i = 0; i < removals; ++i) {
      help.erase(cursor.string());
    }

    for (DictEntry& entry : dict) {
      switch (entry.kind) {
        case kKindCounter:
          entry.counter = keyframe
                              ? cursor.varint()
                              : entry.counter +
                                    static_cast<std::uint64_t>(cursor.svarint());
          break;
        case kKindGauge:
          entry.gauge_bits = keyframe ? f64_bits(cursor.f64())
                                      : entry.gauge_bits ^ cursor.varint();
          break;
        case kKindHistogram: {
          for (std::uint64_t& bucket : entry.buckets) {
            bucket = keyframe
                         ? cursor.varint()
                         : bucket + static_cast<std::uint64_t>(cursor.svarint());
          }
          if (keyframe) {
            entry.count = cursor.varint();
            entry.sum_bits = f64_bits(cursor.f64());
          } else {
            entry.count += static_cast<std::uint64_t>(cursor.svarint());
            entry.sum_bits ^= cursor.varint();
          }
          break;
        }
        default:
          break;
      }
    }

    const std::uint64_t event_count = cursor.varint();
    sample.events.reserve(event_count);
    for (std::uint64_t i = 0; i < event_count; ++i) {
      TelemetryEvent event;
      const std::uint8_t level = cursor.u8();
      if (level > static_cast<std::uint8_t>(EventLevel::error)) {
        throw std::runtime_error("unknown event level");
      }
      event.level = static_cast<EventLevel>(level);
      event.name = cursor.string();
      event.sim_ts_ms = cursor.svarint();
      event.seq = cursor.varint();
      const std::uint64_t field_count = cursor.varint();
      event.fields.reserve(field_count);
      for (std::uint64_t f = 0; f < field_count; ++f) {
        std::string key = cursor.string();
        std::string value = cursor.string();
        event.fields.emplace_back(std::move(key), std::move(value));
      }
      sample.events.push_back(std::move(event));
    }
    if (cursor.pos != cursor.size) {
      throw std::runtime_error("trailing bytes in record");
    }

    // Materialize the snapshot in the registry's (name, labels) order.
    for (const DictEntry& entry : dict) {
      switch (entry.kind) {
        case kKindCounter:
          sample.metrics.counters.push_back(
              {entry.name, entry.labels, entry.counter});
          break;
        case kKindGauge:
          sample.metrics.gauges.push_back(
              {entry.name, entry.labels, bits_f64(entry.gauge_bits)});
          break;
        case kKindHistogram: {
          MetricsSnapshot::HistogramSample histogram;
          histogram.name = entry.name;
          histogram.labels = entry.labels;
          histogram.bounds = entry.bounds;
          histogram.buckets = entry.buckets;
          histogram.count = entry.count;
          histogram.sum = bits_f64(entry.sum_bits);
          sample.metrics.histograms.push_back(std::move(histogram));
          break;
        }
        default:
          break;
      }
    }
    const auto by_name_labels = [](const auto& a, const auto& b) {
      if (a.name != b.name) return a.name < b.name;
      return a.labels < b.labels;
    };
    std::sort(sample.metrics.counters.begin(), sample.metrics.counters.end(),
              by_name_labels);
    std::sort(sample.metrics.gauges.begin(), sample.metrics.gauges.end(),
              by_name_labels);
    std::sort(sample.metrics.histograms.begin(), sample.metrics.histograms.end(),
              by_name_labels);
    sample.metrics.help = help;
    samples_.push_back(std::move(sample));
    return nullptr;
  };

  FramedLog log = read_framed_log(path, kFormat, decode);
  recovery_ = std::move(log.recovery);
  indexed_bytes_ = log.indexed_bytes;
}

// --- Self-monitoring -------------------------------------------------------

namespace {

/// Per-cycle mean of the `mantra_cycle_duration_seconds` histogram between
/// two consecutive samples (prev null for the first) — with one
/// observation per cycle this is the exact recorded duration, not a bucket
/// estimate. 0 when the histogram is absent or no observation landed
/// between the samples.
double self_cycle_duration_s(const TelemetrySample* prev,
                             const TelemetrySample& cur) {
  const MetricsSnapshot::HistogramSample* current =
      find_histogram(cur.metrics, "mantra_cycle_duration_seconds");
  if (current == nullptr) return 0.0;
  double sum = current->sum;
  std::uint64_t count = current->count;
  if (prev != nullptr) {
    if (const MetricsSnapshot::HistogramSample* before =
            find_histogram(prev->metrics, "mantra_cycle_duration_seconds")) {
      sum -= before->sum;
      count -= before->count;
    }
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

/// The health figures of `cur`; `prev` is the sample before it (null for
/// the first), which the per-cycle duration is measured against.
HealthSample health_sample(const TelemetrySample* prev,
                           const TelemetrySample& cur) {
  HealthSample health;
  health.t_ms = cur.t_ms;
  health.cycle_s = self_cycle_duration_s(prev, cur);
  if (const auto* gauge = find_gauge(cur.metrics, "mantra_pool_queue_depth_peak")) {
    health.queue_depth_peak = gauge->value;
  }
  for (const std::string_view name :
       {"mantra_trace_spans_dropped_total", "mantra_events_dropped_total"}) {
    if (const auto* counter = find_counter(cur.metrics, name)) {
      health.drops += counter->value;
    }
  }
  return health;
}

}  // namespace

std::vector<SelfRule> default_self_rules() {
  std::vector<SelfRule> rules;

  // The cycle itself got slow: p95 of the per-cycle wall duration over the
  // last day's worth of 30-minute cycles.
  SelfRule cycle;
  cycle.rule.name = "cycle_duration_p95";
  cycle.rule.severity = AlertSeverity::warning;
  cycle.rule.kind = AlertRule::Kind::threshold;
  cycle.rule.aggregate = AlertRule::Aggregate::quantile;
  cycle.rule.quantile_q = 0.95;
  cycle.rule.window = 48;
  cycle.rule.fire_threshold = 5.0;
  cycle.rule.clear_threshold = 2.5;
  cycle.rule.for_cycles = 3;
  cycle.rule.clear_for_cycles = 6;
  cycle.value = self_cycle_duration_s;
  rules.push_back(std::move(cycle));

  // Collection fan-out is backing up: sustained per-cycle queue-depth peak
  // (targets waiting for a pool worker).
  SelfRule queue;
  queue.rule.name = "pool_queue_depth";
  queue.rule.severity = AlertSeverity::warning;
  queue.rule.kind = AlertRule::Kind::threshold;
  queue.rule.aggregate = AlertRule::Aggregate::mean;
  queue.rule.window = 12;
  queue.rule.fire_threshold = 64.0;
  queue.rule.clear_threshold = 32.0;
  queue.rule.for_cycles = 3;
  queue.rule.clear_for_cycles = 6;
  queue.value = [](const TelemetrySample*, const TelemetrySample& cur) {
    const auto* gauge = find_gauge(cur.metrics, "mantra_pool_queue_depth_peak");
    return gauge == nullptr ? 0.0 : gauge->value;
  };
  rules.push_back(std::move(queue));

  // Captures are failing across the board — the monitor is flying blind even
  // if no single target has tripped its own failure-streak rule yet.
  SelfRule failures;
  failures.rule.name = "capture_failure_rate";
  failures.rule.severity = AlertSeverity::critical;
  failures.rule.kind = AlertRule::Kind::threshold;
  failures.rule.aggregate = AlertRule::Aggregate::mean;
  failures.rule.window = 6;
  failures.rule.fire_threshold = 0.5;
  failures.rule.clear_threshold = 0.25;
  failures.rule.for_cycles = 2;
  failures.rule.clear_for_cycles = 4;
  failures.value = [](const TelemetrySample* prev, const TelemetrySample& cur) {
    const auto counts = [](const MetricsSnapshot& metrics) {
      std::uint64_t total = 0;
      std::uint64_t failed = 0;
      for (const MetricsSnapshot::CounterSample& counter : metrics.counters) {
        if (counter.name != "mantra_capture_status_total") continue;
        total += counter.value;
        if (counter.labels.find("status=\"ok\"") == std::string::npos) {
          failed += counter.value;
        }
      }
      return std::make_pair(total, failed);
    };
    auto [total, failed] = counts(cur.metrics);
    if (prev != nullptr) {
      const auto [prev_total, prev_failed] = counts(prev->metrics);
      total -= prev_total;
      failed -= prev_failed;
    }
    return total == 0 ? 0.0
                      : static_cast<double>(failed) / static_cast<double>(total);
  };
  rules.push_back(std::move(failures));

  // Durability is stalling: p95 of archive fsync wall time this cycle,
  // merged across every target's `.marc` writer.
  SelfRule fsync_latency;
  fsync_latency.rule.name = "archive_write_latency";
  fsync_latency.rule.severity = AlertSeverity::warning;
  fsync_latency.rule.kind = AlertRule::Kind::threshold;
  fsync_latency.rule.aggregate = AlertRule::Aggregate::quantile;
  fsync_latency.rule.quantile_q = 0.95;
  fsync_latency.rule.window = 48;
  fsync_latency.rule.fire_threshold = 1.0;
  fsync_latency.rule.clear_threshold = 0.5;
  fsync_latency.rule.for_cycles = 3;
  fsync_latency.rule.clear_for_cycles = 6;
  fsync_latency.value = [](const TelemetrySample* prev,
                           const TelemetrySample& cur) {
    const auto merged = [](const MetricsSnapshot& metrics,
                           std::vector<double>& bounds,
                           std::vector<std::uint64_t>& buckets,
                           std::uint64_t& count, std::int64_t sign) {
      for (const MetricsSnapshot::HistogramSample& histogram :
           metrics.histograms) {
        if (histogram.name != "mantra_archive_fsync_seconds") continue;
        if (bounds.empty()) {
          bounds = histogram.bounds;
          buckets.assign(histogram.buckets.size(), 0);
        }
        if (histogram.bounds != bounds) continue;
        for (std::size_t b = 0; b < buckets.size(); ++b) {
          buckets[b] += static_cast<std::uint64_t>(
              sign * static_cast<std::int64_t>(histogram.buckets[b]));
        }
        count += static_cast<std::uint64_t>(
            sign * static_cast<std::int64_t>(histogram.count));
      }
    };
    std::vector<double> bounds;
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    merged(cur.metrics, bounds, buckets, count, 1);
    if (prev != nullptr) merged(prev->metrics, bounds, buckets, count, -1);
    if (count == 0) return 0.0;
    return histogram_quantile(bounds, buckets, count, 0.95);
  };
  rules.push_back(std::move(fsync_latency));

  return rules;
}

void SelfMonitorConfig::validate() const {
  if (name.empty()) {
    throw std::invalid_argument("SelfMonitorConfig.name must be non-empty");
  }
  if (archive.keyframe_interval < 1) {
    throw std::invalid_argument(
        "SelfMonitorConfig.archive.keyframe_interval must be >= 1");
  }
  const std::vector<AlertRule> alert_rules = alert_rules_of(rules);
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (!rules[i].value) {
      throw std::invalid_argument("SelfRule '" + rules[i].rule.name +
                                  "' has no value extractor");
    }
    alert_rules[i].validate();
  }
}

SelfMonitor::SelfMonitor(SelfMonitorConfig config, Telemetry* telemetry)
    : config_(std::move(config)),
      telemetry_(telemetry),
      rules_(config_.rules.empty() ? default_self_rules() : config_.rules),
      alerts_(alert_rules_of(rules_)) {
  config_.validate();
  if (telemetry_ == nullptr) {
    throw std::invalid_argument("SelfMonitor: telemetry must not be null");
  }
  alerts_.set_telemetry(telemetry_);
  if (!config_.path.empty()) {
    const std::filesystem::path parent =
        std::filesystem::path(config_.path).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent);
    writer_ = std::make_unique<TelemetryArchiveWriter>(config_.path,
                                                       config_.archive);
  }
}

void SelfMonitor::sample(sim::TimePoint now) {
  // Last cycle's sample becomes `previous_`; this cycle's refills the
  // buffer the one before it used.
  std::swap(current_, previous_);
  TelemetrySample& sample = current_;
  sample.t_ms = now.total_ms();
  telemetry_->metrics().snapshot_into(sample.metrics);
  sample.events = telemetry_->events().snapshot(next_event_seq_);
  if (!sample.events.empty()) next_event_seq_ = sample.events.back().seq + 1;

  if (writer_) writer_->append(sample);

  const TelemetrySample* prev = health_.empty() ? nullptr : &previous_;
  health_.push_back(health_sample(prev, sample));
  events_.insert(events_.end(), sample.events.begin(), sample.events.end());
  std::vector<double> values;
  values.reserve(rules_.size());
  for (const SelfRule& self : rules_) values.push_back(self.value(prev, sample));
  alerts_.observe_values(config_.name, now, values);
}

void SelfMonitor::close() {
  if (writer_) {
    writer_->sync();
    writer_->close();
  }
}

MonitorHealthData monitor_health_from_samples(
    std::string name, const std::vector<TelemetrySample>& samples,
    const std::vector<SelfRule>& rules) {
  AlertEngine engine(alert_rules_of(rules));
  MonitorHealthData data;
  data.samples.reserve(samples.size());
  std::vector<double> values(rules.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const TelemetrySample* prev = i > 0 ? &samples[i - 1] : nullptr;
    data.samples.push_back(health_sample(prev, samples[i]));
    for (std::size_t r = 0; r < rules.size(); ++r) {
      values[r] = rules[r].value(prev, samples[i]);
    }
    engine.observe_values(name, sim::TimePoint::from_ms(samples[i].t_ms),
                          values);
  }

  data.name = std::move(name);
  data.alert_states = engine.status();
  data.alerts = engine.history();
  return data;
}

}  // namespace mantra::core
