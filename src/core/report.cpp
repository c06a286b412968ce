#include "core/report.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <span>
#include <string_view>
#include <tuple>
#include <utility>

#include "core/archive.hpp"
#include "core/mantra.hpp"

namespace mantra::core {

namespace {

// --- deterministic formatting ------------------------------------------------

std::string fnum(double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof buffer, "%.6g", value);
  return buffer;
}

std::string f1(double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof buffer, "%.1f", value);
  return buffer;
}

std::string f2(double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof buffer, "%.2f", value);
  return buffer;
}

/// SVG coordinate: two decimals is sub-pixel and keeps the file compact.
std::string coord(double value) { return f2(value); }

std::string html_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&#39;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

/// Renders a SummaryTable as an HTML table, every cell escaped.
std::string html_table(const SummaryTable& table) {
  std::string out = "<table>\n<thead><tr>";
  for (const std::string& column : table.columns()) {
    out += "<th>" + html_escape(column) + "</th>";
  }
  out += "</tr></thead>\n<tbody>\n";
  for (const auto& row : table.rows()) {
    out += "<tr>";
    for (const std::string& cell : row) {
      out += "<td>" + html_escape(cell) + "</td>";
    }
    out += "</tr>\n";
  }
  out += "</tbody></table>\n";
  return out;
}

// --- SVG time-series plot ----------------------------------------------------

constexpr const char* kSeriesColors[] = {"#2563eb", "#ea580c", "#16a34a",
                                         "#9333ea"};

struct PlotSeries {
  std::string label;
  std::vector<SeriesPoint> points;
};

struct PlotSpan {
  std::int64_t from_ms = 0;
  std::int64_t to_ms = 0;
  std::string label;  ///< tooltip (<title>)
};

struct PlotMarker {
  std::int64_t t_ms = 0;
  std::string label;
};

/// One panel: polylines over a shared [t0, t1] x-domain with shaded spans
/// (firing alerts) and vertical markers (spike cycles). Pure function of
/// its inputs — deterministic text out.
std::string render_plot(const std::string& title,
                        const std::vector<PlotSeries>& series,
                        const std::vector<PlotSpan>& spans,
                        const std::vector<PlotMarker>& markers,
                        std::int64_t t0_ms, std::int64_t t1_ms,
                        const ReportOptions& options) {
  const double left = 56.0, right = 12.0, top = 20.0, bottom = 30.0;
  const double width = static_cast<double>(options.plot_width);
  const double height = static_cast<double>(options.plot_height);
  const double inner_w = width - left - right;
  const double inner_h = height - top - bottom;
  const double span_ms =
      std::max<double>(1.0, static_cast<double>(t1_ms - t0_ms));

  double y_max = 0.0;
  for (const PlotSeries& s : series) {
    for (const SeriesPoint& p : s.points) y_max = std::max(y_max, p.value);
  }
  if (y_max <= 0.0) y_max = 1.0;
  y_max *= 1.08;  // headroom so the peak is not clipped by the frame

  const auto x_of = [&](std::int64_t t_ms) {
    return left + inner_w * static_cast<double>(t_ms - t0_ms) / span_ms;
  };
  const auto y_of = [&](double v) { return top + inner_h * (1.0 - v / y_max); };

  std::string out = "<svg class=\"plot\" viewBox=\"0 0 " + fnum(width) + " " +
                    fnum(height) + "\" width=\"" + fnum(width) +
                    "\" height=\"" + fnum(height) +
                    "\" xmlns=\"http://www.w3.org/2000/svg\" role=\"img\">\n";
  out += "<text class=\"plot-title\" x=\"" + coord(left) + "\" y=\"13\">" +
         html_escape(title) + "</text>\n";

  // Shaded firing-alert spans first, under everything else.
  for (const PlotSpan& span : spans) {
    const double x_from = x_of(std::clamp(span.from_ms, t0_ms, t1_ms));
    const double x_to = x_of(std::clamp(span.to_ms, t0_ms, t1_ms));
    out += "<rect class=\"alert-span\" x=\"" + coord(x_from) + "\" y=\"" +
           coord(top) + "\" width=\"" +
           coord(std::max(1.0, x_to - x_from)) + "\" height=\"" +
           coord(inner_h) + "\"><title>" + html_escape(span.label) +
           "</title></rect>\n";
  }

  // Frame + y grid/ticks (0, mid, max).
  out += "<rect class=\"frame\" x=\"" + coord(left) + "\" y=\"" + coord(top) +
         "\" width=\"" + coord(inner_w) + "\" height=\"" + coord(inner_h) +
         "\"/>\n";
  for (const double frac : {0.0, 0.5, 1.0}) {
    const double v = y_max * frac;
    const double y = y_of(v);
    if (frac > 0.0 && frac < 1.0) {
      out += "<line class=\"grid\" x1=\"" + coord(left) + "\" y1=\"" +
             coord(y) + "\" x2=\"" + coord(left + inner_w) + "\" y2=\"" +
             coord(y) + "\"/>\n";
    }
    out += "<text class=\"tick\" text-anchor=\"end\" x=\"" + coord(left - 6) +
           "\" y=\"" + coord(y + 4) + "\">" + fnum(v) + "</text>\n";
  }
  // x ticks at thirds of the window, labeled in sim time.
  for (const double frac : {0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0}) {
    const std::int64_t t_ms =
        t0_ms + static_cast<std::int64_t>(span_ms * frac);
    const double x = x_of(t_ms);
    out += "<line class=\"tick-mark\" x1=\"" + coord(x) + "\" y1=\"" +
           coord(top + inner_h) + "\" x2=\"" + coord(x) + "\" y2=\"" +
           coord(top + inner_h + 4) + "\"/>\n";
    out += "<text class=\"tick\" text-anchor=\"middle\" x=\"" + coord(x) +
           "\" y=\"" + coord(top + inner_h + 16) + "\">" +
           html_escape(sim::TimePoint::from_ms(t_ms).to_string()) +
           "</text>\n";
  }

  // Spike markers: vertical amber lines through the plot area.
  for (const PlotMarker& marker : markers) {
    const double x = x_of(std::clamp(marker.t_ms, t0_ms, t1_ms));
    out += "<line class=\"spike\" x1=\"" + coord(x) + "\" y1=\"" + coord(top) +
           "\" x2=\"" + coord(x) + "\" y2=\"" + coord(top + inner_h) +
           "\"><title>" + html_escape(marker.label) + "</title></line>\n";
  }

  // The series polylines (points for degenerate one-sample series).
  for (std::size_t i = 0; i < series.size(); ++i) {
    const char* color = kSeriesColors[i % (sizeof kSeriesColors /
                                           sizeof kSeriesColors[0])];
    const PlotSeries& s = series[i];
    if (s.points.size() >= 2) {
      std::string points;
      for (const SeriesPoint& p : s.points) {
        if (!points.empty()) points.push_back(' ');
        points += coord(x_of(p.t.total_ms())) + "," + coord(y_of(p.value));
      }
      out += "<polyline class=\"series\" stroke=\"" + std::string(color) +
             "\" points=\"" + points + "\"><title>" + html_escape(s.label) +
             "</title></polyline>\n";
    } else {
      for (const SeriesPoint& p : s.points) {
        out += "<circle class=\"dot\" fill=\"" + std::string(color) +
               "\" cx=\"" + coord(x_of(p.t.total_ms())) + "\" cy=\"" +
               coord(y_of(p.value)) + "\" r=\"2.5\"/>\n";
      }
    }
    // Legend swatch + label along the top edge.
    const double lx = left + 120.0 * static_cast<double>(i) + 90.0;
    out += "<rect class=\"swatch\" fill=\"" + std::string(color) + "\" x=\"" +
           coord(lx) + "\" y=\"6\" width=\"10\" height=\"10\"/>\n";
    out += "<text class=\"legend\" x=\"" + coord(lx + 14) + "\" y=\"14\">" +
           html_escape(s.label) + "</text>\n";
  }

  out += "</svg>\n";
  return out;
}

// --- replay-derivable tables -------------------------------------------------

/// Health as derivable from the recorded stream alone (a still-dark
/// target's live Unreachable state is a live-only fact; see DESIGN §9).
const char* derived_health(const ReportTargetData& target) {
  if (target.results.empty()) return "no data";
  const CycleResult& last = target.results.back();
  return (last.stale || last.collection_failures > 0) ? "degraded" : "healthy";
}

SummaryTable overview_table(const ReportData& data) {
  SummaryTable table({"router", "health", "sessions", "participants", "active",
                      "senders", "kbps", "dvmrp_routes", "sa_entries",
                      "mbgp_routes", "stale", "last_cycle"});
  for (const ReportTargetData& target : data.targets) {
    if (target.results.empty()) {
      table.add_row({target.name, derived_health(target), "", "", "", "", "",
                     "", "", "", "", "never"});
      continue;
    }
    const CycleResult& last = target.results.back();
    table.add_row({target.name, derived_health(target),
                   std::to_string(last.usage.sessions),
                   std::to_string(last.usage.participants),
                   std::to_string(last.usage.active_sessions),
                   std::to_string(last.usage.senders),
                   f1(last.usage.bandwidth_kbps),
                   std::to_string(last.dvmrp_routes),
                   std::to_string(last.sa_entries),
                   std::to_string(last.mbgp_routes), last.stale ? "yes" : "no",
                   last.t.to_string()});
  }
  return table;
}

// --- notable-event synthesis -------------------------------------------------

/// A deterministic event stream rebuilt from the replay-derivable facts
/// (recorded results + alert transitions). The live telemetry EventLog sees
/// more (transport-level events), which is exactly why the report does not
/// embed it: those facts do not survive into the archive.
struct NotableEvent {
  std::int64_t t_ms = 0;
  int rank = 0;  ///< tie-break for same-instant events
  std::string target;
  std::string level;
  std::string name;
  std::string detail;
};

std::vector<NotableEvent> notable_events(const ReportData& data,
                                         std::size_t tail) {
  std::vector<NotableEvent> events;
  for (const ReportTargetData& target : data.targets) {
    for (const CycleResult& result : target.results) {
      if (result.consecutive_failures > 0) {
        events.push_back({result.t.total_ms(), 0, target.name, "info",
                          "target_recovered",
                          "dark_cycles=" +
                              std::to_string(result.consecutive_failures)});
      }
      if (result.route_spike) {
        events.push_back(
            {result.t.total_ms(), 1, target.name, "warn", "spike_detected",
             "score=" + f2(result.route_spike_score) + " valid_routes=" +
                 std::to_string(result.dvmrp_valid_routes)});
      }
      if (result.parse_warnings > 0) {
        events.push_back({result.t.total_ms(), 2, target.name, "warn",
                          "parse_warning",
                          "warnings=" + std::to_string(result.parse_warnings)});
      }
    }
  }
  for (const AlertRecord& record : data.alerts) {
    events.push_back(
        {record.fired_at.total_ms(), 3, record.target,
         record.severity == AlertSeverity::critical ? "error" : "warn",
         "alert_firing", "rule=" + record.rule});
    if (record.resolved_at) {
      events.push_back({record.resolved_at->total_ms(), 4, record.target,
                        "info", "alert_resolved",
                        "rule=" + record.rule + " cycles=" +
                            std::to_string(record.cycles_firing)});
    }
  }
  std::sort(events.begin(), events.end(),
            [](const NotableEvent& a, const NotableEvent& b) {
              if (a.t_ms != b.t_ms) return a.t_ms < b.t_ms;
              if (a.rank != b.rank) return a.rank < b.rank;
              if (a.target != b.target) return a.target < b.target;
              return a.detail < b.detail;
            });
  if (events.size() > tail) {
    events.erase(events.begin(),
                 events.end() - static_cast<std::ptrdiff_t>(tail));
  }
  return events;
}

std::string stat_tile(const std::string& value, const std::string& label) {
  return "<div class=\"tile\"><div class=\"tile-value\">" +
         html_escape(value) + "</div><div class=\"tile-label\">" +
         html_escape(label) + "</div></div>\n";
}

// --- "Monitor health" section (core/teltrace self-telemetry) -----------------

/// Pure function of MonitorHealthData, which itself is a pure function of
/// the recorded `.mtel` samples — so the section renders byte-identically
/// from the live SelfMonitor's health samples or from a decoded archive.
/// The cycle-duration values are wall-clock (non-deterministic across
/// runs), but within one run both paths read the same recorded numbers.
std::string render_monitor_health(const MonitorHealthData& health,
                                  const ReportOptions& options) {
  std::string out;
  if (health.samples.empty()) {
    out += "<p class=\"muted\">self-telemetry recorded no samples.</p>\n";
    return out;
  }
  const std::int64_t first = health.samples.front().t_ms;
  const std::int64_t last = health.samples.back().t_ms;

  std::vector<PlotSpan> spans;
  for (const AlertRecord& record : health.alerts) {
    spans.push_back({record.fired_at.total_ms(),
                     record.resolved_at ? record.resolved_at->total_ms() : last,
                     record.rule + " (" + to_string(record.severity) + ")"});
  }

  PlotSeries cycle;
  cycle.label = "cycle_duration_s";
  PlotSeries queue;
  queue.label = "queue_depth_peak";
  for (const HealthSample& sample : health.samples) {
    const sim::TimePoint t = sim::TimePoint::from_ms(sample.t_ms);
    cycle.points.push_back({t, sample.cycle_s});
    queue.points.push_back({t, sample.queue_depth_peak});
  }

  const std::uint64_t drops = health.samples.back().drops;
  std::size_t firing_now = 0;
  for (const AlertStatus& status : health.alert_states) {
    if (status.state == AlertState::firing) ++firing_now;
  }

  out += "<div class=\"tiles\">\n";
  out += stat_tile(std::to_string(health.samples.size()), "telemetry samples");
  out += stat_tile(std::to_string(health.alerts.size()), "self-alerts fired");
  out += stat_tile(std::to_string(firing_now), "firing now");
  out += stat_tile(std::to_string(drops), "dropped spans/events");
  out += "</div>\n";

  out += render_plot("monitor cycle duration (s, wall clock)", {cycle}, spans,
                     {}, first, last, options);
  out += render_plot("worker-pool queue depth (per-cycle peak)", {queue}, spans,
                     {}, first, last, options);

  if (health.alerts.empty()) {
    out += "<p class=\"muted\">no self-alert fired; the monitor stayed within "
           "its own budgets.</p>\n";
  } else {
    SummaryTable table({"rule", "severity", "pending_at", "fired_at",
                        "resolved_at", "peak", "cycles"});
    for (const AlertRecord& record : health.alerts) {
      table.add_row({record.rule, to_string(record.severity),
                     record.pending_at.to_string(), record.fired_at.to_string(),
                     record.resolved_at ? record.resolved_at->to_string()
                                        : "still firing",
                     fnum(record.peak_value),
                     std::to_string(record.cycles_firing)});
    }
    out += html_table(table);
  }
  return out;
}

// --- "Alert drill-down" section (core/provenance) ----------------------------

/// Sparkline of the rule's evaluation trail: the aggregated value per
/// recorded evaluation, fire threshold dashed, over-threshold evaluations
/// dotted red. Index-spaced x — a sparkline, not a time axis; the window
/// table below carries the timestamps.
std::string render_provenance_sparkline(const ProvenanceRecord& record) {
  const double width = 260.0, height = 48.0, pad = 5.0;
  double lo = record.fire_threshold, hi = record.fire_threshold;
  for (const ProvenanceWindowPoint& point : record.points) {
    lo = std::min(lo, point.value);
    hi = std::max(hi, point.value);
  }
  if (hi - lo < 1e-12) hi = lo + 1.0;
  const double n = static_cast<double>(record.points.size());
  const auto x_of = [&](std::size_t i) {
    return n <= 1.0 ? width / 2.0
                    : pad + (width - 2.0 * pad) * static_cast<double>(i) /
                          (n - 1.0);
  };
  const auto y_of = [&](double v) {
    return pad + (height - 2.0 * pad) * (1.0 - (v - lo) / (hi - lo));
  };

  std::string out = "<svg class=\"spark\" viewBox=\"0 0 " + fnum(width) + " " +
                    fnum(height) + "\" width=\"" + fnum(width) +
                    "\" height=\"" + fnum(height) +
                    "\" xmlns=\"http://www.w3.org/2000/svg\" role=\"img\">\n";
  const double ty = y_of(record.fire_threshold);
  out += "<line class=\"threshold\" x1=\"" + coord(pad) + "\" y1=\"" +
         coord(ty) + "\" x2=\"" + coord(width - pad) + "\" y2=\"" + coord(ty) +
         "\"><title>fire_threshold " + fnum(record.fire_threshold) +
         "</title></line>\n";
  if (record.points.size() >= 2) {
    std::string points;
    for (std::size_t i = 0; i < record.points.size(); ++i) {
      if (!points.empty()) points.push_back(' ');
      points += coord(x_of(i)) + "," + coord(y_of(record.points[i].value));
    }
    out += "<polyline class=\"value\" points=\"" + points + "\"/>\n";
  }
  for (std::size_t i = 0; i < record.points.size(); ++i) {
    const ProvenanceWindowPoint& point = record.points[i];
    out += "<circle class=\"" + std::string(point.over ? "over" : "under") +
           "\" cx=\"" + coord(x_of(i)) + "\" cy=\"" + coord(y_of(point.value)) +
           "\" r=\"2\"><title>seq " + std::to_string(point.cycle_seq) +
           ": " + fnum(point.value) + "</title></circle>\n";
  }
  out += "</svg>\n";
  return out;
}

/// Collection-latency waterfall over the same trail: one bar per recorded
/// cycle (retry/backoff waits included — CycleResult.collection_latency),
/// the worst cycle highlighted. The replay-derivable stand-in for a live
/// span waterfall: the spans themselves live only in the trace ring, but
/// their deciding per-cycle durations are archived, so this renders
/// byte-identically live and from replay.
std::string render_provenance_waterfall(const ProvenanceRecord& record) {
  const double label_w = 150.0, right = 8.0, width = 560.0;
  const double row_h = 14.0, bar_h = 9.0;
  const double height = row_h * static_cast<double>(record.points.size()) + 6.0;

  std::int64_t max_ms = 1;
  std::size_t worst = 0;
  for (std::size_t i = 0; i < record.points.size(); ++i) {
    const std::int64_t ms = record.points[i].facts.collection_latency.total_ms();
    if (ms > max_ms) {
      max_ms = ms;
      worst = i;
    }
  }

  std::string out = "<svg class=\"wf\" viewBox=\"0 0 " + fnum(width) + " " +
                    fnum(height) + "\" width=\"" + fnum(width) +
                    "\" height=\"" + fnum(height) +
                    "\" xmlns=\"http://www.w3.org/2000/svg\" role=\"img\">\n";
  for (std::size_t i = 0; i < record.points.size(); ++i) {
    const ProvenanceWindowPoint& point = record.points[i];
    const std::int64_t ms = point.facts.collection_latency.total_ms();
    const double y = 3.0 + row_h * static_cast<double>(i);
    out += "<text class=\"wf-label\" x=\"" + coord(label_w - 6.0) +
           "\" y=\"" + coord(y + bar_h - 1.0) +
           "\" text-anchor=\"end\">c" + std::to_string(point.cycle_seq) +
           " · " + std::to_string(ms) + "ms</text>\n";
    const double bar_w = (width - label_w - right) *
                         static_cast<double>(ms) /
                         static_cast<double>(max_ms);
    out += "<rect class=\"" +
           std::string(i == worst ? "bar-worst" : "bar") + "\" x=\"" +
           coord(label_w) + "\" y=\"" + coord(y) + "\" width=\"" +
           coord(std::max(1.0, bar_w)) + "\" height=\"" + coord(bar_h) +
           "\"><title>cycle " + std::to_string(point.cycle_seq) +
           " collection latency " + std::to_string(ms) + "ms" +
           (i == worst ? " (worst in window)" : "") + "</title></rect>\n";
  }
  out += "</svg>\n";
  return out;
}

/// One alert's drill-down card: identity + correlation id, the rendered
/// threshold math, the evaluation-window sparkline and table, the latency
/// waterfall, and the correlated event tail (logfmt). Every fact is
/// replay-derivable; the tail comes from the lossless `.mtel` stream.
std::string render_provenance_drilldown(const ProvenanceRecord& record,
                                        const std::string* shard) {
  std::string out = "<div class=\"drill\">\n<h3>";
  if (shard != nullptr) out += html_escape(*shard) + " / ";
  out += html_escape(record.rule) + " : " + html_escape(record.target) + " (" +
         html_escape(record.severity) + ")</h3>\n";
  out += "<p class=\"corr\">";
  if (!record.corr.empty()) out += "corr=" + html_escape(record.corr) + " · ";
  out += "pending " + html_escape(record.pending_at.to_string()) + " · fired " +
         html_escape(record.fired_at.to_string()) + " · cycle " +
         std::to_string(record.fire_cycle_seq) + " · value " +
         fnum(record.value_at_fire) + "</p>\n";
  out += "<p class=\"math\">" + html_escape(record.math) + "</p>\n";
  if (!record.points.empty()) {
    out += render_provenance_sparkline(record);
    SummaryTable table({"cycle", "t", "raw", "value", "over", "stale",
                        "stale_tables", "fails", "streak", "attempts",
                        "latency_ms"});
    for (const ProvenanceWindowPoint& point : record.points) {
      table.add_row({std::to_string(point.cycle_seq), point.t.to_string(),
                     fnum(point.raw), fnum(point.value),
                     point.over ? "yes" : "no",
                     point.facts.stale ? "yes" : "no",
                     std::to_string(point.facts.stale_tables),
                     std::to_string(point.facts.collection_failures),
                     std::to_string(point.facts.consecutive_failures),
                     std::to_string(point.facts.capture_attempts),
                     std::to_string(
                         point.facts.collection_latency.total_ms())});
    }
    out += html_table(table);
    out += render_provenance_waterfall(record);
  }
  if (!record.events.empty()) {
    out += "<pre class=\"events\">";
    char buffer[64];
    for (const TelemetryEvent& event : record.events) {
      std::snprintf(buffer, sizeof buffer, "sim_ts=%" PRId64 " level=%s",
                    event.sim_ts_ms, to_string(event.level));
      std::string line = buffer;
      line += " event=" + logfmt_value(event.name);
      for (const auto& [key, value] : event.fields) {
        line += " " + key + "=" + logfmt_value(value);
      }
      out += html_escape(line) + "\n";
    }
    out += "</pre>\n";
  }
  out += "</div>\n";
  return out;
}

constexpr const char* kStyle = R"css(
  :root { color-scheme: light; }
  body { font-family: -apple-system, "Segoe UI", Roboto, Helvetica, Arial,
         sans-serif; margin: 24px auto; max-width: 960px; color: #1f2430;
         background: #fdfdfc; }
  h1 { font-size: 22px; margin-bottom: 2px; }
  h2 { font-size: 16px; margin: 28px 0 8px; border-bottom: 1px solid #e3e3de;
       padding-bottom: 4px; }
  h3 { font-size: 14px; margin: 18px 0 6px; }
  .subtitle { color: #6b7280; font-size: 13px; margin-top: 0; }
  .tiles { display: flex; gap: 12px; flex-wrap: wrap; margin: 16px 0; }
  .tile { border: 1px solid #e3e3de; border-radius: 8px; padding: 10px 16px;
          background: #ffffff; min-width: 96px; }
  .tile-value { font-size: 20px; font-weight: 600; }
  .tile-label { font-size: 12px; color: #6b7280; }
  table { border-collapse: collapse; font-size: 12.5px; margin: 8px 0;
          background: #ffffff; }
  th, td { border: 1px solid #e3e3de; padding: 4px 8px; text-align: left; }
  th { background: #f4f4f1; font-weight: 600; }
  .muted { color: #6b7280; font-size: 13px; }
  .firing { color: #b91c1c; font-weight: 600; }
  svg.plot { display: block; margin: 10px 0 18px; background: #ffffff;
             border: 1px solid #e3e3de; border-radius: 6px; }
  svg .frame { fill: none; stroke: #c9c9c2; stroke-width: 1; }
  svg .grid { stroke: #ecece7; stroke-width: 1; }
  svg .tick-mark { stroke: #c9c9c2; stroke-width: 1; }
  svg .tick, svg .legend { font-size: 10px; fill: #6b7280; }
  svg .plot-title { font-size: 12px; font-weight: 600; fill: #1f2430; }
  svg .series { fill: none; stroke-width: 1.5; }
  svg .alert-span { fill: #dc2626; fill-opacity: 0.10; }
  svg .spike { stroke: #d97706; stroke-width: 1.2; stroke-dasharray: 3 2; }
  .drill { border: 1px solid #e3e3de; border-radius: 8px; padding: 12px 16px;
           margin: 12px 0; background: #ffffff; }
  .drill h3 { margin: 0 0 4px; }
  .corr { font-family: ui-monospace, SFMono-Regular, Menlo, Consolas,
          monospace; color: #6b7280; font-size: 12px; margin: 2px 0 6px; }
  .math { font-family: ui-monospace, SFMono-Regular, Menlo, Consolas,
          monospace; font-size: 12px; background: #f4f4f1; padding: 6px 8px;
          border-radius: 4px; display: inline-block; margin: 4px 0; }
  pre.events { font-size: 11.5px; background: #f8f8f6; padding: 8px;
               border: 1px solid #ecece7; border-radius: 4px;
               overflow-x: auto; }
  svg.spark { display: block; margin: 6px 0; }
  svg.spark .value { fill: none; stroke: #2563eb; stroke-width: 1.5; }
  svg.spark .threshold { stroke: #dc2626; stroke-width: 1;
                         stroke-dasharray: 4 3; }
  svg.spark .over { fill: #dc2626; }
  svg.spark .under { fill: #2563eb; }
  svg.wf { display: block; margin: 6px 0; }
  svg.wf .bar { fill: #93c5fd; }
  svg.wf .bar-worst { fill: #dc2626; }
  svg.wf .wf-label { font-size: 10px; fill: #6b7280;
                     font-family: ui-monospace, SFMono-Regular, Menlo,
                     Consolas, monospace; }
  footer { margin-top: 32px; color: #9ca3af; font-size: 11px; }
)css";

// --- sections both reports share ---------------------------------------------
//
// The single report renders one monitor, the fleet report one monitor per
// shard. Both read every shared section through a ReportView; the fleet's
// view is sharded, which leads each table with a shard column and heads each
// monitor-health block with its shard. Nothing else differs.

struct ReportView {
  struct Monitor {
    const std::string* shard = nullptr;  ///< null in the single report
    const ReportData* data = nullptr;
    std::vector<TargetSummary> summaries;  ///< data->targets' results, folded
  };

  bool sharded = false;
  std::vector<Monitor> monitors;
  // The headline over every monitor: the recorded window (ms) and counts.
  std::optional<std::pair<std::int64_t, std::int64_t>> window;
  std::size_t targets = 0, cycles = 0, spikes = 0, alerts = 0, firing_now = 0;

  void add(const std::string* shard, const ReportData& data) {
    Monitor& monitor = monitors.emplace_back(Monitor{shard, &data, {}});
    targets += data.targets.size();
    alerts += data.alerts.size();
    for (const AlertStatus& status : data.alert_states) {
      if (status.state == AlertState::firing) ++firing_now;
    }
    for (const ReportTargetData& target : data.targets) {
      TargetSummary& summary = monitor.summaries.emplace_back();
      for (const CycleResult& result : target.results) summary.add(result);
      cycles += summary.cycles;
      spikes += summary.spikes;
      if (target.results.empty()) continue;
      const std::int64_t first = target.results.front().t.total_ms();
      const std::int64_t last = target.results.back().t.total_ms();
      window = window ? std::pair(std::min(window->first, first),
                                  std::max(window->second, last))
                      : std::pair(first, last);
    }
  }

  /// A table with `columns`, led by a shard column when sharded.
  [[nodiscard]] SummaryTable table(std::vector<std::string> columns) const {
    if (sharded) columns.insert(columns.begin(), "shard");
    return SummaryTable(std::move(columns));
  }

  /// Adds `cells` to `table`, led by the monitor's shard when sharded.
  static void add_row(SummaryTable& table, const Monitor& monitor,
                      std::vector<std::string> cells) {
    if (monitor.shard != nullptr) cells.insert(cells.begin(), *monitor.shard);
    table.add_row(std::move(cells));
  }
};

/// The page from the doctype to the window subtitle.
std::string page_head(const std::string& title, const ReportView& view) {
  std::string out = "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
                    "<meta charset=\"utf-8\">\n<title>" +
                    html_escape(title) + "</title>\n<style>" + kStyle +
                    "</style>\n</head>\n<body>\n";
  out += "<h1>" + html_escape(title) + "</h1>\n<p class=\"subtitle\">";
  if (view.window) {
    out += html_escape(sim::TimePoint::from_ms(view.window->first).to_string()) +
           " — " +
           html_escape(sim::TimePoint::from_ms(view.window->second).to_string()) +
           " (simulated)";
  } else {
    out += "no recorded cycles";
  }
  return out + "</p>\n";
}

std::string page_foot(const std::string& footer) {
  return "<footer>" + footer + "</footer>\n</body>\n</html>\n";
}

/// Every pending or firing (rule, target), monitor by monitor.
SummaryTable active_alert_table(const ReportView& view) {
  SummaryTable table =
      view.table({"rule", "target", "severity", "state", "value", "since"});
  for (const ReportView::Monitor& monitor : view.monitors) {
    for (const AlertStatus& status : monitor.data->alert_states) {
      if (status.state == AlertState::inactive) continue;
      const auto& since = status.state == AlertState::firing
                              ? status.firing_since
                              : status.pending_since;
      ReportView::add_row(table, monitor,
                          {status.rule, status.target, to_string(status.severity),
                           to_string(status.state), fnum(status.value),
                           since ? since->to_string() : ""});
    }
  }
  return table;
}

/// Alert or provenance records in report order, with their shards when the
/// report is sharded (`shards` parallel to `records`, else empty).
template <typename Record>
struct RecordRows {
  std::vector<const Record*> records;
  std::vector<const std::string*> shards;
};

/// One monitor's records in its own (capture) order.
template <typename Record>
RecordRows<Record> in_order(const std::vector<Record>& records) {
  RecordRows<Record> rows;
  rows.records.reserve(records.size());
  for (const Record& record : records) rows.records.push_back(&record);
  return rows;
}

/// Every shard's records merged in (fired_at, shard, rule, target) order — a
/// total order for real histories (one (rule, target) pair cannot fire twice
/// at one instant), made unconditionally total by the pending_at tiebreak.
/// No wall clock, no hash order: the same shard data merges to the same
/// sequence however the shards were collected. Alert and provenance records
/// merge alike, so the Nth drill-down explains the Nth merged history row.
template <typename Record>
RecordRows<Record> fleet_order(const FleetReportData& data,
                               const std::vector<Record> ReportData::*member) {
  std::vector<std::pair<const std::string*, const Record*>> merged;
  for (const FleetShardData& shard : data.shards) {
    for (const Record& record : shard.data.*member) {
      merged.emplace_back(&shard.shard, &record);
    }
  }
  std::sort(merged.begin(), merged.end(), [](const auto& a, const auto& b) {
    return std::tie(a.second->fired_at, *a.first, a.second->rule,
                    a.second->target, a.second->pending_at) <
           std::tie(b.second->fired_at, *b.first, b.second->rule,
                    b.second->target, b.second->pending_at);
  });
  RecordRows<Record> rows;
  for (const auto& [shard, record] : merged) {
    rows.shards.push_back(shard);
    rows.records.push_back(record);
  }
  return rows;
}

/// The first of the newest `cap` of `size` rows; notes a cut in `out`.
std::size_t keep_newest(std::size_t size, std::size_t cap, const char* noun,
                        std::string& out) {
  if (size <= cap) return 0;
  out += "<p class=\"muted\">showing the newest " + std::to_string(cap) +
         " of " + std::to_string(size) + " " + noun + ".</p>\n";
  return size - cap;
}

/// The alert history, newest `max_rows` kept.
std::string history_section(const RecordRows<AlertRecord>& rows,
                            std::size_t max_rows) {
  if (rows.records.empty()) {
    return "<p class=\"muted\">no alert fired during the run.</p>\n";
  }
  std::string out = "<h3>History</h3>\n";
  const std::size_t start =
      keep_newest(rows.records.size(), max_rows, "alerts", out);
  const std::span<const std::string* const> shards(rows.shards);
  out += html_table(alert_history_table(
      std::span(rows.records).subspan(start),
      shards.empty() ? shards : shards.subspan(start)));
  return out;
}

/// One drill-down card per firing episode, newest `max_shown` kept.
std::string drilldown_section(const RecordRows<ProvenanceRecord>& rows,
                              std::size_t max_shown) {
  if (rows.records.empty()) return "";
  std::string out = "<h2>Alert drill-down</h2>\n";
  const std::size_t start =
      keep_newest(rows.records.size(), max_shown, "explanations", out);
  for (std::size_t i = start; i < rows.records.size(); ++i) {
    out += render_provenance_drilldown(
        *rows.records[i], rows.shards.empty() ? nullptr : rows.shards[i]);
  }
  return out;
}

/// Per-target collection status, read from the folds. Each monitor's
/// history is counted once for the alerts_fired column.
SummaryTable collection_status_table(const ReportView& view) {
  SummaryTable table = view.table(
      {"router", "cycles", "stale_cycles", "stale_fraction", "spikes",
       "alerts_fired", "lat_p50_s", "lat_p95_s", "lat_max_s", "last_cycle"});
  for (const ReportView::Monitor& monitor : view.monitors) {
    std::map<std::string_view, std::size_t> fired;
    for (const AlertRecord& record : monitor.data->alerts) ++fired[record.target];
    for (std::size_t i = 0; i < monitor.summaries.size(); ++i) {
      const std::string& name = monitor.data->targets[i].name;
      const TargetSummary& summary = monitor.summaries[i];
      const double fraction = summary.cycles == 0
                                  ? 0.0
                                  : static_cast<double>(summary.stale_cycles) /
                                        static_cast<double>(summary.cycles);
      const auto alerts = fired.find(name);
      ReportView::add_row(
          table, monitor,
          {name, std::to_string(summary.cycles),
           std::to_string(summary.stale_cycles), f2(fraction),
           std::to_string(summary.spikes),
           std::to_string(alerts == fired.end() ? 0 : alerts->second),
           f2(summary.latency_quantile_s(0.5)),
           f2(summary.latency_quantile_s(0.95)), f2(summary.latency_max_s()),
           summary.cycles == 0 ? "never" : summary.last_t.to_string()});
    }
  }
  return table;
}

/// Every monitor's self-telemetry health; empty when none recorded any.
std::string monitor_health_section(const ReportView& view,
                                   const ReportOptions& options) {
  std::string out;
  for (const ReportView::Monitor& monitor : view.monitors) {
    if (!monitor.data->health) continue;
    if (out.empty()) out = "<h2>Monitor health</h2>\n";
    if (monitor.shard != nullptr) {
      out += "<h3>" + html_escape(*monitor.shard) + "</h3>\n";
    }
    out += render_monitor_health(*monitor.data->health, options);
  }
  return out;
}

}  // namespace

ReportData report_data_from(const Mantra& monitor) {
  ReportData data;
  for (const std::string& name : monitor.target_names()) {
    data.targets.push_back({name, monitor.target_view(name).results()});
  }
  data.alerts = monitor.alerts().history();
  data.alert_states = monitor.alerts().status();
  data.provenance = monitor.alerts().provenance();
  if (const SelfMonitor* self = monitor.self_monitor()) {
    data.health = MonitorHealthData{self->config().name, self->samples(),
                                    self->alerts().status(),
                                    self->alerts().history()};
    attach_provenance_events(data.provenance, self->events());
  }
  return data;
}

ReportData report_data_from_replay(std::vector<ReportTargetData> targets,
                                   const std::vector<AlertRule>& rules,
                                   const std::vector<TelemetrySample>* samples) {
  std::sort(targets.begin(), targets.end(),
            [](const ReportTargetData& a, const ReportTargetData& b) {
              return a.name < b.name;
            });
  AlertEngine engine{std::vector<AlertRule>(rules.begin(), rules.end())};

  std::vector<std::pair<std::string, const std::vector<CycleResult>*>> streams;
  streams.reserve(targets.size());
  for (const ReportTargetData& target : targets) {
    streams.emplace_back(target.name, &target.results);
  }
  evaluate_history(engine, streams);

  ReportData data;
  data.targets = std::move(targets);
  data.alerts = engine.history();
  data.alert_states = engine.status();
  data.provenance = engine.provenance();
  if (samples != nullptr) {
    attach_provenance_events(data.provenance, *samples);
  }
  return data;
}

std::string render_html_report(const ReportData& data,
                               const ReportOptions& options) {
  ReportView view;
  view.add(nullptr, data);

  std::string out = page_head(options.title, view);
  out += "<div class=\"tiles\">\n";
  out += stat_tile(std::to_string(view.targets), "targets");
  out += stat_tile(std::to_string(view.cycles), "recorded cycles");
  out += stat_tile(std::to_string(view.spikes), "route spikes");
  out += stat_tile(std::to_string(view.alerts), "alerts fired");
  out += stat_tile(std::to_string(view.firing_now), "firing now");
  out += "</div>\n";

  // --- alerts ---
  out += "<h2>Alerts</h2>\n";
  const SummaryTable active = active_alert_table(view);
  out += active.row_count() == 0
             ? "<p class=\"muted\">no alert is pending or firing.</p>\n"
             : html_table(active);
  out += history_section(in_order(data.alerts), options.max_alert_rows);
  out += drilldown_section(in_order(data.provenance), options.max_explained);

  // --- per-target plots ---
  for (const ReportTargetData& target : data.targets) {
    out += "<h2>" + html_escape(target.name) + "</h2>\n";
    if (target.results.empty()) {
      out += "<p class=\"muted\">no recorded cycles (the target never "
             "produced a usable capture).</p>\n";
      continue;
    }
    const std::int64_t first = target.results.front().t.total_ms();
    const std::int64_t last = target.results.back().t.total_ms();

    // Firing-alert spans and spike markers for this target.
    std::vector<PlotSpan> spans;
    for (const AlertRecord& record : data.alerts) {
      if (record.target != target.name) continue;
      spans.push_back({record.fired_at.total_ms(),
                       record.resolved_at ? record.resolved_at->total_ms()
                                          : last,
                       record.rule + " (" + to_string(record.severity) + ")"});
    }
    std::vector<PlotMarker> spikes;
    for (const CycleResult& result : target.results) {
      if (result.route_spike) {
        spikes.push_back({result.t.total_ms(),
                          "route spike, score " +
                              f2(result.route_spike_score)});
      }
    }

    const auto extract_series =
        [&target](const std::string& label,
                  double (*extract)(const CycleResult&)) {
          PlotSeries series;
          series.label = label;
          series.points.reserve(target.results.size());
          for (const CycleResult& result : target.results) {
            series.points.push_back({result.t, extract(result)});
          }
          return series;
        };

    std::vector<PlotSeries> usage;
    usage.push_back(extract_series("sessions", [](const CycleResult& r) {
      return static_cast<double>(r.usage.sessions);
    }));
    usage.push_back(extract_series("participants", [](const CycleResult& r) {
      return static_cast<double>(r.usage.participants);
    }));
    out += render_plot("multicast groups: sessions / participants", usage,
                       spans, {}, first, last, options);

    std::vector<PlotSeries> bandwidth;
    bandwidth.push_back(
        extract_series("bandwidth_kbps", [](const CycleResult& r) {
          return r.usage.bandwidth_kbps;
        }));
    out += render_plot("bandwidth through the router (kbps)", bandwidth, spans,
                       {}, first, last, options);

    std::vector<PlotSeries> routes;
    routes.push_back(
        extract_series("dvmrp_valid_routes", [](const CycleResult& r) {
          return static_cast<double>(r.dvmrp_valid_routes);
        }));
    out += render_plot("DVMRP valid routes (spikes marked)", routes, spans,
                       spikes, first, last, options);
  }

  // --- tables ---
  out += "<h2>Overview</h2>\n" + html_table(overview_table(data));
  out += "<h2>Collection status</h2>\n" +
         html_table(collection_status_table(view));
  out += monitor_health_section(view, options);

  out += "<h2>Notable events</h2>\n";
  const std::vector<NotableEvent> events =
      notable_events(data, options.event_tail);
  if (events.empty()) {
    out += "<p class=\"muted\">nothing notable happened.</p>\n";
  } else {
    SummaryTable table({"time", "level", "event", "target", "detail"});
    for (const NotableEvent& event : events) {
      table.add_row({sim::TimePoint::from_ms(event.t_ms).to_string(),
                     event.level, event.name, event.target, event.detail});
    }
    out += html_table(table);
  }

  out += page_foot(
      "mantra core/report — self-contained HTML+SVG, rendered "
      "deterministically from recorded monitoring results; identical bytes "
      "live or from archive replay.");
  return out;
}

bool write_html_report(const std::string& path, const ReportData& data,
                       const ReportOptions& options) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << render_html_report(data, options);
  return static_cast<bool>(out);
}

// --- Fleet report (core/fleet aggregation tier) ------------------------------

namespace {

/// Top-K targets by last-cycle bandwidth, ties broken (shard, name) — a
/// fixed order even when many idle targets report 0.0 kbps.
SummaryTable busiest_targets_table(const FleetReportData& data,
                                   std::size_t top_k) {
  struct Row {
    const std::string* shard;
    const ReportTargetData* target;
    double kbps;
  };
  std::vector<Row> rows;
  for (const FleetShardData& shard : data.shards) {
    for (const ReportTargetData& target : shard.data.targets) {
      if (target.results.empty()) continue;
      rows.push_back({&shard.shard, &target,
                      target.results.back().usage.bandwidth_kbps});
    }
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.kbps != b.kbps) return a.kbps > b.kbps;
    if (*a.shard != *b.shard) return *a.shard < *b.shard;
    return a.target->name < b.target->name;
  });
  if (rows.size() > top_k) rows.resize(top_k);

  SummaryTable table({"shard", "router", "health", "kbps", "sessions",
                      "participants", "senders", "dvmrp_routes",
                      "last_cycle"});
  for (const Row& row : rows) {
    const CycleResult& last = row.target->results.back();
    table.add_row({*row.shard, row.target->name, derived_health(*row.target),
                   f1(row.kbps), std::to_string(last.usage.sessions),
                   std::to_string(last.usage.participants),
                   std::to_string(last.usage.senders),
                   std::to_string(last.dvmrp_routes), last.t.to_string()});
  }
  return table;
}

}  // namespace

FleetReportData fleet_report_data_from_replay(
    std::vector<FleetShardReplay> shards) {
  std::sort(shards.begin(), shards.end(),
            [](const FleetShardReplay& a, const FleetShardReplay& b) {
              return a.shard < b.shard;
            });
  FleetReportData data;
  data.shards.reserve(shards.size());
  for (FleetShardReplay& shard : shards) {
    ReportData report = report_data_from_replay(std::move(shard.targets),
                                                shard.rules, &shard.samples);
    report.health = std::move(shard.health);
    data.shards.push_back({std::move(shard.shard), std::move(report)});
  }
  return data;
}

FleetProvenance fleet_provenance_from(const FleetReportData& data) {
  const RecordRows<ProvenanceRecord> rows =
      fleet_order(data, &ReportData::provenance);
  FleetProvenance merged;
  merged.records.reserve(rows.records.size());
  merged.shards.reserve(rows.records.size());
  for (std::size_t i = 0; i < rows.records.size(); ++i) {
    merged.records.push_back(*rows.records[i]);
    merged.shards.push_back(*rows.shards[i]);
  }
  return merged;
}

std::string render_fleet_html_report(const FleetReportData& data,
                                     const FleetReportOptions& options) {
  ReportView view;
  view.sharded = true;
  for (const FleetShardData& shard : data.shards) view.add(&shard.shard, shard.data);

  std::string out = page_head(options.title, view);
  out += "<div class=\"tiles\">\n";
  out += stat_tile(std::to_string(data.shards.size()), "shards");
  out += stat_tile(std::to_string(view.targets), "targets");
  out += stat_tile(std::to_string(view.cycles), "recorded cycles");
  out += stat_tile(std::to_string(view.spikes), "route spikes");
  out += stat_tile(std::to_string(view.alerts), "alerts fired");
  out += stat_tile(std::to_string(view.firing_now), "firing now");
  out += "</div>\n";

  // --- per-shard health tiles ---
  out += "<h2>Shard health</h2>\n<div class=\"tiles\">\n";
  for (const FleetShardData& shard : data.shards) {
    std::size_t healthy = 0;
    for (const ReportTargetData& target : shard.data.targets) {
      if (std::string_view(derived_health(target)) == "healthy") ++healthy;
    }
    out += stat_tile(std::to_string(healthy) + "/" +
                         std::to_string(shard.data.targets.size()),
                     shard.shard + " healthy");
  }
  out += "</div>\n";

  // --- fleet-wide alerts ---
  out += "<h2>Fleet alerts</h2>\n";
  const SummaryTable active = active_alert_table(view);
  out += active.row_count() == 0
             ? "<p class=\"muted\">no alert is pending or firing anywhere in "
               "the fleet.</p>\n"
             : html_table(active);
  out += history_section(fleet_order(data, &ReportData::alerts),
                         options.max_alert_rows);
  out += drilldown_section(fleet_order(data, &ReportData::provenance),
                           options.max_explained);

  // --- top-K busiest targets ---
  out += "<h2>Busiest targets</h2>\n";
  const SummaryTable busiest = busiest_targets_table(data, options.top_k);
  if (busiest.row_count() == 0) {
    out += "<p class=\"muted\">no target recorded a cycle.</p>\n";
  } else {
    out += html_table(busiest);
  }

  out += "<h2>Collection status</h2>\n" +
         html_table(collection_status_table(view));
  out += monitor_health_section(view, ReportOptions{});  // default plot geometry

  out += page_foot(
      "mantra core/report — fleet view over sharded monitors, rendered "
      "deterministically from recorded monitoring results; identical bytes "
      "live or from archive replay.");
  return out;
}

}  // namespace mantra::core
