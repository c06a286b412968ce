#include "core/fleet.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <stdexcept>
#include <tuple>

namespace mantra::core {

SummaryTable FleetStatus::shard_table() const {
  SummaryTable table({"shard", "targets", "healthy", "degraded", "unreachable",
                      "cycles_run", "cycles_recorded", "stale_cycles",
                      "spikes", "alerts_firing"});
  for (const ShardRow& row : shards) {
    table.add_row({row.shard, std::to_string(row.targets),
                   std::to_string(row.healthy), std::to_string(row.degraded),
                   std::to_string(row.unreachable),
                   std::to_string(row.cycles_run),
                   std::to_string(row.cycles_recorded),
                   std::to_string(row.stale_cycles),
                   std::to_string(row.route_spikes),
                   std::to_string(row.alerts_firing)});
  }
  return table;
}

SummaryTable FleetStatus::to_table() const {
  std::vector<std::string> columns = {"shard"};
  columns.insert(columns.end(), std::begin(MonitorStatus::Target::kColumns),
                 std::end(MonitorStatus::Target::kColumns));
  SummaryTable table(std::move(columns));
  for (const TargetRow& row : targets) {
    std::vector<std::string> cells = row.target.cells();
    cells.insert(cells.begin(), row.shard);
    table.add_row(std::move(cells));
  }
  return table;
}

void FleetAggregator::add_shard(std::string name, const Mantra& monitor) {
  if (name.empty()) {
    throw std::invalid_argument("FleetAggregator: shard name must be non-empty");
  }
  if (shards_.contains(name)) {
    throw std::invalid_argument("FleetAggregator: duplicate shard name: " +
                                name);
  }
  shards_.emplace(std::move(name), &monitor);
}

std::size_t FleetAggregator::target_count() const {
  std::size_t total = 0;
  for (const auto& [name, monitor] : shards_) total += monitor->target_count();
  return total;
}

std::vector<std::string> FleetAggregator::shard_names() const {
  std::vector<std::string> out;
  out.reserve(shards_.size());
  for (const auto& [name, monitor] : shards_) out.push_back(name);
  return out;
}

const Mantra& FleetAggregator::shard(std::string_view name) const {
  const auto it = shards_.find(name);
  if (it == shards_.end()) {
    throw std::out_of_range("FleetAggregator: unknown shard: " +
                            std::string(name));
  }
  return *it->second;
}

FleetStatus FleetAggregator::status() const {
  FleetStatus fleet;
  for (const auto& [name, monitor] : shards_) {
    const MonitorStatus status = monitor->status();
    if (status.now > fleet.now) fleet.now = status.now;

    FleetStatus::ShardRow row;
    row.shard = name;
    row.targets = status.targets.size();
    row.cycles_run = status.cycles_run;
    row.alerts_firing = monitor->alerts().firing_count();
    for (const MonitorStatus::Target& target : status.targets) {
      switch (target.health) {
        case TargetHealth::Healthy: ++row.healthy; break;
        case TargetHealth::Degraded: ++row.degraded; break;
        case TargetHealth::Unreachable: ++row.unreachable; break;
      }
      row.cycles_recorded += target.cycles_recorded;
      row.stale_cycles += target.stale_cycles;
      row.route_spikes += target.route_spikes;
      fleet.targets.push_back({name, target});
    }
    fleet.shards.push_back(std::move(row));
  }
  return fleet;
}

FleetReportData fleet_report_data_from(const FleetAggregator& fleet) {
  FleetReportData data;
  data.shards.reserve(fleet.shard_count());
  for (const std::string& name : fleet.shard_names()) {
    data.shards.push_back({name, report_data_from(fleet.shard(name))});
  }
  return data;
}

namespace {

/// Inserts `shard="<shard>"` into a serialized sorted label string at its
/// key-ordered position. Pairs are scanned without unescaping — keys cannot
/// contain `=` and values are double-quoted with backslash escapes, so pair
/// boundaries are unambiguous — and the surviving pairs are reused verbatim,
/// keeping the result collatable with registry-produced label strings.
std::string with_shard_label(const std::string& labels,
                             const std::string& shard) {
  const std::string pair = "shard=\"" + prom_label_escape(shard) + "\"";
  if (labels.empty()) return pair;
  const std::string_view view(labels);
  std::vector<std::string_view> keys;
  std::vector<std::string_view> pairs;
  std::size_t i = 0;
  while (i < view.size()) {
    const std::size_t start = i;
    const std::size_t eq = view.find('=', i);
    if (eq == std::string_view::npos || eq + 1 >= view.size() ||
        view[eq + 1] != '"') {
      // Not a registry-produced label string; keep it intact and append.
      return labels + "," + pair;
    }
    std::size_t v = eq + 2;
    while (v < view.size() && view[v] != '"') v += (view[v] == '\\') ? 2 : 1;
    const std::size_t end = std::min(v + 1, view.size());
    keys.push_back(view.substr(start, eq - start));
    pairs.push_back(view.substr(start, end - start));
    i = end;
    if (i < view.size() && view[i] == ',') ++i;
  }
  std::string out;
  bool inserted = false;
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    if (!inserted && std::string_view("shard") < keys[k]) {
      if (!out.empty()) out.push_back(',');
      out += pair;
      inserted = true;
    }
    if (!out.empty()) out.push_back(',');
    out += pairs[k];
  }
  if (!inserted) {
    out.push_back(',');
    out += pair;
  }
  return out;
}

}  // namespace

MetricsSnapshot federated_metrics(const FleetAggregator& fleet) {
  // Shard snapshots, name-ordered (shard_names() walks the sorted map).
  std::vector<std::pair<std::string, MetricsSnapshot>> shards;
  for (const std::string& name : fleet.shard_names()) {
    shards.emplace_back(name,
                        fleet.shard(name).telemetry().metrics().snapshot());
  }

  MetricsSnapshot out;

  // Counters: one fleet-wide sample per (name, labels) instance, summed.
  // The map's pair ordering is exactly the (name, labels) output order.
  std::map<std::pair<std::string, std::string>, std::uint64_t> counters;
  for (const auto& [shard, snapshot] : shards) {
    for (const MetricsSnapshot::CounterSample& sample : snapshot.counters) {
      counters[{sample.name, sample.labels}] += sample.value;
    }
    // First shard defining a family keeps its # HELP text (insert is a
    // no-op on an existing key).
    out.help.insert(snapshot.help.begin(), snapshot.help.end());
  }
  out.counters.reserve(counters.size());
  for (const auto& [key, value] : counters) {
    out.counters.push_back({key.first, key.second, value});
  }

  // Gauges: summing (or averaging) point-in-time values would manufacture a
  // number no shard ever reported, so each shard keeps its own sample,
  // distinguished by a `shard` label.
  for (const auto& [shard, snapshot] : shards) {
    for (const MetricsSnapshot::GaugeSample& sample : snapshot.gauges) {
      out.gauges.push_back(
          {sample.name, with_shard_label(sample.labels, shard), sample.value});
    }
  }
  std::sort(out.gauges.begin(), out.gauges.end(),
            [](const auto& a, const auto& b) {
              return std::tie(a.name, a.labels) < std::tie(b.name, b.labels);
            });

  // Histograms: bucket-wise merge is exact when every shard shares the
  // bucket bounds (counts are additive); mismatched bounds fall back to
  // per-shard samples so no observation is ever re-binned.
  std::map<std::pair<std::string, std::string>,
           std::vector<const MetricsSnapshot::HistogramSample*>>
      histograms;
  std::map<std::pair<std::string, std::string>, std::vector<std::size_t>>
      histogram_shards;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    for (const MetricsSnapshot::HistogramSample& sample :
         shards[s].second.histograms) {
      histograms[{sample.name, sample.labels}].push_back(&sample);
      histogram_shards[{sample.name, sample.labels}].push_back(s);
    }
  }
  for (const auto& [key, samples] : histograms) {
    const bool mergeable = std::all_of(
        samples.begin(), samples.end(),
        [&](const auto* sample) { return sample->bounds == samples[0]->bounds; });
    if (mergeable) {
      MetricsSnapshot::HistogramSample merged = *samples[0];
      for (std::size_t i = 1; i < samples.size(); ++i) {
        for (std::size_t b = 0; b < merged.buckets.size(); ++b) {
          merged.buckets[b] += samples[i]->buckets[b];
        }
        merged.count += samples[i]->count;
        merged.sum += samples[i]->sum;
      }
      out.histograms.push_back(std::move(merged));
    } else {
      const std::vector<std::size_t>& owners = histogram_shards[key];
      for (std::size_t i = 0; i < samples.size(); ++i) {
        MetricsSnapshot::HistogramSample tagged = *samples[i];
        tagged.labels =
            with_shard_label(tagged.labels, shards[owners[i]].first);
        out.histograms.push_back(std::move(tagged));
      }
    }
  }
  std::sort(out.histograms.begin(), out.histograms.end(),
            [](const auto& a, const auto& b) {
              return std::tie(a.name, a.labels) < std::tie(b.name, b.labels);
            });
  return out;
}

std::string federated_prometheus_text(const FleetAggregator& fleet) {
  return prometheus_text_from(federated_metrics(fleet));
}

std::string federated_events_logfmt(const FleetAggregator& fleet) {
  // (sim_ts, shard, seq) is a total order: seq is unique within a shard.
  struct Row {
    std::int64_t sim_ts_ms;
    const std::string* shard;
    TelemetryEvent event;
  };
  std::vector<Row> rows;
  const std::vector<std::string> names = fleet.shard_names();
  std::vector<std::vector<TelemetryEvent>> snapshots;
  snapshots.reserve(names.size());
  for (const std::string& name : names) {
    snapshots.push_back(fleet.shard(name).telemetry().events().snapshot());
  }
  for (std::size_t s = 0; s < names.size(); ++s) {
    for (TelemetryEvent& event : snapshots[s]) {
      rows.push_back({event.sim_ts_ms, &names[s], std::move(event)});
    }
  }
  std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return std::tie(a.sim_ts_ms, *a.shard, a.event.seq) <
           std::tie(b.sim_ts_ms, *b.shard, b.event.seq);
  });
  std::string out;
  char buffer[64];
  for (const Row& row : rows) {
    std::snprintf(buffer, sizeof buffer, "sim_ts=%" PRId64 " ",
                  row.event.sim_ts_ms);
    out += buffer;
    out += "shard=" + logfmt_value(*row.shard);
    out += " level=";
    out += to_string(row.event.level);
    out += " event=";
    out += logfmt_value(row.event.name);
    for (const auto& [key, value] : row.event.fields) {
      out += " " + key + "=" + logfmt_value(value);
    }
    out += "\n";
  }
  return out;
}

}  // namespace mantra::core
