// The `.mtel` writer's append as it was before positional id resolution,
// kept verbatim apart from namespaces and the options it reads: every
// instance is interned through the key map (a key string built per lookup)
// in a first pass that fixes the new entries, and again in a second pass
// that maps ids to this sample's instances.
#include "oracle/mtel_writer_oracle.hpp"

#include <cstring>
#include <stdexcept>
#include <utility>

#include "core/codec.hpp"

namespace mantra::oracle {

namespace {

using core::codec::put_f64;
using core::codec::put_string;
using core::codec::put_svarint;
using core::codec::put_varint;

constexpr core::FramedLogFormat kFormat{0x4C45544Du, 1, ".mtel"};  // "MTEL"

constexpr std::uint8_t kRecordKeyframe = 1;
constexpr std::uint8_t kRecordDelta = 2;

constexpr std::uint8_t kKindCounter = 0;
constexpr std::uint8_t kKindGauge = 1;
constexpr std::uint8_t kKindHistogram = 2;

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

}  // namespace

MtelWriterOracle::MtelWriterOracle(std::string path, int keyframe_interval)
    : keyframe_interval_(keyframe_interval), log_(std::move(path), kFormat) {}

void MtelWriterOracle::append(const core::TelemetrySample& sample) {
  const bool keyframe =
      log_.frames_written() %
          static_cast<std::size_t>(keyframe_interval_) ==
      0;

  // Intern every instance first so the dictionary (and therefore the value
  // section's id order) is fixed before encoding begins.
  std::vector<std::size_t> new_ids;
  const auto intern = [&](std::uint8_t kind, const std::string& name,
                          const std::string& labels,
                          const std::vector<double>* bounds) {
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
      new_ids.push_back(it->second);
    }
    return it->second;
  };

  for (const core::MetricsSnapshot::CounterSample& counter : sample.metrics.counters) {
    intern(kKindCounter, counter.name, counter.labels, nullptr);
  }
  for (const core::MetricsSnapshot::GaugeSample& gauge : sample.metrics.gauges) {
    intern(kKindGauge, gauge.name, gauge.labels, nullptr);
  }
  for (const core::MetricsSnapshot::HistogramSample& histogram :
       sample.metrics.histograms) {
    const std::size_t id = intern(kKindHistogram, histogram.name,
                                  histogram.labels, &histogram.bounds);
    if (dict_[id].bounds != histogram.bounds ||
        histogram.buckets.size() != histogram.bounds.size() + 1) {
      throw std::runtime_error(
          "TelemetryArchiveWriter: histogram bounds changed for " +
          histogram.name);
    }
  }

  // Current-sample instance per dictionary id; ids absent from this sample
  // (impossible with a MetricsRegistry, which never removes metrics, but
  // legal for hand-built samples) re-encode their previous value.
  std::vector<const core::MetricsSnapshot::CounterSample*> cur_counters(dict_.size(),
                                                                  nullptr);
  std::vector<const core::MetricsSnapshot::GaugeSample*> cur_gauges(dict_.size(),
                                                              nullptr);
  std::vector<const core::MetricsSnapshot::HistogramSample*> cur_histograms(
      dict_.size(), nullptr);
  for (const core::MetricsSnapshot::CounterSample& counter : sample.metrics.counters) {
    cur_counters[intern(kKindCounter, counter.name, counter.labels, nullptr)] =
        &counter;
  }
  for (const core::MetricsSnapshot::GaugeSample& gauge : sample.metrics.gauges) {
    cur_gauges[intern(kKindGauge, gauge.name, gauge.labels, nullptr)] = &gauge;
  }
  for (const core::MetricsSnapshot::HistogramSample& histogram :
       sample.metrics.histograms) {
    cur_histograms[intern(kKindHistogram, histogram.name, histogram.labels,
                          &histogram.bounds)] = &histogram;
  }

  std::string payload;
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
  prev_help_ = sample.metrics.help;

  // One value per dictionary id, in id order. Key-frames write absolute
  // values; deltas write differences (counters/buckets as zigzag varints of
  // the unsigned difference, doubles as varints of XORed IEEE-754 bits —
  // both exactly invertible).
  for (DictEntry& entry : dict_) {
    const std::size_t id = static_cast<std::size_t>(&entry - dict_.data());
    switch (entry.kind) {
      case kKindCounter: {
        const std::uint64_t value = cur_counters[id] != nullptr
                                        ? cur_counters[id]->value
                                        : entry.counter;
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
        const std::uint64_t bits = cur_gauges[id] != nullptr
                                       ? f64_bits(cur_gauges[id]->value)
                                       : entry.gauge_bits;
        if (keyframe) {
          put_f64(payload, bits_f64(bits));
        } else {
          put_varint(payload, bits ^ entry.gauge_bits);
        }
        entry.gauge_bits = bits;
        break;
      }
      case kKindHistogram: {
        const core::MetricsSnapshot::HistogramSample* histogram = cur_histograms[id];
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
  for (const core::TelemetryEvent& event : sample.events) {
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
}

}  // namespace mantra::oracle
