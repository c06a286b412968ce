#include "core/collect.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "router/cli.hpp"

namespace mantra::core {

const char* to_string(CaptureStatus status) {
  switch (status) {
    case CaptureStatus::ok: return "ok";
    case CaptureStatus::truncated: return "truncated";
    case CaptureStatus::failed: return "failed";
    case CaptureStatus::invalid_command: return "invalid-command";
  }
  return "unknown";
}

const char* to_string(DeadlinePhase phase) {
  switch (phase) {
    case DeadlinePhase::none: return "none";
    case DeadlinePhase::in_flight: return "in-flight";
    case DeadlinePhase::backoff: return "backoff";
  }
  return "unknown";
}

bool CaptureReport::all_ok() const {
  return connected &&
         std::all_of(captures.begin(), captures.end(),
                     [](const RawCapture& c) { return c.ok(); });
}

std::size_t CaptureReport::ok_count() const {
  return static_cast<std::size_t>(
      std::count_if(captures.begin(), captures.end(),
                    [](const RawCapture& c) { return c.ok(); }));
}

std::size_t CaptureReport::failure_count() const {
  return captures.size() - ok_count();
}

const RawCapture* CaptureReport::find(std::string_view command) const {
  for (const RawCapture& capture : captures) {
    if (capture.command == command) return &capture;
  }
  return nullptr;
}

std::uint64_t per_target_seed(std::uint64_t base_seed,
                              std::string_view target_name) {
  // FNV-1a over the name, then splitmix64 to decorrelate nearby names and
  // nearby base seeds.
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : target_name) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  std::uint64_t z = base_seed ^ hash;
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

sim::Duration RetryPolicy::backoff_before(std::size_t retry, sim::Rng& rng) const {
  double delay = initial_backoff.total_seconds() *
                 std::pow(backoff_multiplier, static_cast<double>(retry - 1));
  if (jitter > 0.0) delay *= 1.0 + rng.uniform(-jitter, jitter);
  return sim::Duration::from_seconds(std::max(delay, 0.0));
}

const std::vector<std::string>& default_command_set() {
  static const std::vector<std::string> commands = {
      "show ip mroute count", "show ip dvmrp route", "show ip msdp sa-cache",
      "show ip mbgp",         "show ip igmp groups",
  };
  return commands;
}

namespace {

constexpr std::string_view kBanner = "User Access Verification";
constexpr std::string_view kPassword = "Password:";

/// Prompt / echo lines: the first token is a hostname followed by '>'
/// ("fixw> show ip mroute"). Data lines that merely contain '>' are kept —
/// MBGP best-path rows start with "*>".
bool is_prompt_line(std::string_view line) {
  const auto first_non_space = line.find_first_not_of(' ');
  if (first_non_space == std::string_view::npos) return false;
  const auto token_end = line.find(' ', first_non_space);
  const std::string_view token =
      line.substr(first_non_space, token_end == std::string_view::npos
                                       ? std::string_view::npos
                                       : token_end - first_non_space);
  if (token.size() < 2 || token.back() != '>') return false;
  for (char c : token.substr(0, token.size() - 1)) {
    const bool hostname_char = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                               (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                               c == '.';
    if (!hostname_char) return false;
  }
  return true;
}

/// Strips CRs and trailing whitespace.
std::string_view strip_trailing(std::string_view line) {
  while (!line.empty() &&
         (line.back() == '\r' || line.back() == ' ' || line.back() == '\t')) {
    line.remove_suffix(1);
  }
  return line;
}

/// The first '>' at or after `from` on a prompt line, or npos. Data lines
/// holding a '>' are passed over.
std::size_t find_prompt(std::string_view raw, std::size_t from) {
  for (std::size_t hit = raw.find('>', from); hit != std::string_view::npos;
       hit = raw.find('>', hit + 1)) {
    const std::size_t newline = raw.rfind('\n', hit);
    const std::size_t begin = newline == std::string_view::npos ? 0 : newline + 1;
    const std::size_t end = std::min(raw.find('\n', hit), raw.size());
    if (is_prompt_line(strip_trailing(raw.substr(begin, end - begin)))) return hit;
    hit = end;  // the rest of this line cannot make it a prompt
  }
  return std::string_view::npos;
}

/// Flags (the high bit of a byte) each byte of the eight at `at` that is a
/// '\n' following a byte below '!' (a blank, CR, '\n' or other control
/// byte). Reads at[-1]. The two borrow tests may flag a few extra bytes
/// but never miss one.
std::uint64_t suspect_bits(const char* at) {
  constexpr std::uint64_t kOnes = 0x0101010101010101ull;
  std::uint64_t word = 0;
  std::uint64_t before = 0;
  std::memcpy(&word, at, 8);
  std::memcpy(&before, at - 1, 8);
  const std::uint64_t x = word ^ (kOnes * '\n');
  return (x - kOnes) & ~x & (before - kOnes * '!') & ~before & (kOnes * 0x80);
}

/// At or after `from`, the first position where a line may need more than
/// a verbatim copy: a '\n' following a blank, CR or control byte, or
/// starting the buffer (a line ending anywhere else is non-empty and has
/// nothing to strip). May stop early at a byte that is none of these, which
/// only sends a line through the line rule; never stops late. Sixteen bytes
/// per step; npos when there is none.
std::size_t find_suspect_newline(std::string_view raw, std::size_t from) {
  if (from == 0) {
    if (!raw.empty() && raw.front() == '\n') return 0;
    from = 1;
  }
  const auto first = [](std::uint64_t bits) {
    const int bit = std::endian::native == std::endian::little ? std::countr_zero(bits)
                                                                : std::countl_zero(bits);
    return static_cast<std::size_t>(bit / 8);
  };
  std::size_t i = from;
  for (; i + 16 <= raw.size(); i += 16) {
    const std::uint64_t low = suspect_bits(raw.data() + i);
    const std::uint64_t high = suspect_bits(raw.data() + i + 8);
    if ((low | high) != 0) return i + (low != 0 ? first(low) : 8 + first(high));
  }
  for (; i < raw.size(); ++i) {
    if (raw[i] == '\n' && static_cast<unsigned char>(raw[i - 1]) < '!') return i;
  }
  return std::string_view::npos;
}

/// One search over a buffer, walked forward: `from(pos)` is the first hit
/// at or after `pos`, searched for again only once the walk has passed the
/// last one, so the search covers the buffer once rather than once per line.
template <typename Find>
class NextHit {
 public:
  NextHit(std::string_view raw, Find find) : raw_(raw), find_(find), hit_(find(raw, 0)) {}
  std::size_t from(std::size_t pos) {
    if (hit_ < pos) hit_ = find_(raw_, pos);
    return hit_;
  }

 private:
  std::string_view raw_;
  Find find_;
  std::size_t hit_;
};

}  // namespace

std::string preprocess(std::string_view raw) {
  std::string out;
  preprocess_into(raw, out);
  return out;
}

void preprocess_into(std::string_view raw, std::string& out) {
  out.clear();
  out.reserve(raw.size());
  // Where a line may need the line rule below rather than a verbatim copy.
  // No marker contains '\n' or ends in whitespace, so a hit inside a raw
  // line is a hit inside the stripped line.
  NextHit banner(raw, [](std::string_view r, std::size_t p) { return r.find(kBanner, p); });
  NextHit password(raw, [](std::string_view r, std::size_t p) { return r.find(kPassword, p); });
  NextHit prompt(raw, find_prompt);
  NextHit suspect(raw, find_suspect_newline);
  bool last_blank = true;  // swallow leading blank lines

  // The line rule for [begin, end), `end` at a '\n' or at the buffer end:
  // drop noise lines and repeated blank lines, strip the rest.
  const auto line = [&](std::size_t begin, std::size_t end) {
    const std::string_view text = strip_trailing(raw.substr(begin, end - begin));
    const bool noise = banner.from(begin) < end || password.from(begin) < end ||
                       prompt.from(begin) < end;
    const bool blank = text.empty();
    if (noise || (blank && last_blank)) return;
    out.append(text);
    out.push_back('\n');
    last_blank = blank;
  };

  std::size_t pos = 0;  // start of the next line
  while (true) {
    // Every line before the one holding the next hit is non-blank, has
    // nothing to strip and is not noise, so the rule keeps it byte for
    // byte: copy the whole run with one append.
    const std::size_t stop = std::min({suspect.from(pos), banner.from(pos),
                                       password.from(pos), prompt.from(pos), raw.size()});
    std::size_t begin = pos;
    if (stop > pos) {
      const std::size_t run_end = raw.rfind('\n', stop - 1);
      if (run_end != std::string_view::npos && run_end >= pos) {
        out.append(raw.substr(pos, run_end + 1 - pos));
        last_blank = false;
        begin = run_end + 1;
      }
    }
    const std::size_t end = raw.find('\n', stop);
    if (end == std::string_view::npos) {
      line(begin, raw.size());
      break;
    }
    line(begin, end);
    pos = end + 1;
  }
  // Drop a trailing blank line.
  while (out.size() >= 2 && out[out.size() - 1] == '\n' && out[out.size() - 2] == '\n') {
    out.pop_back();
  }
}

Collector::Collector(std::vector<std::string> commands, RetryPolicy policy,
                     std::unique_ptr<Transport> transport)
    : commands_(std::move(commands)),
      policy_(policy),
      transport_(transport ? std::move(transport)
                           : std::make_unique<CliTransport>()),
      jitter_rng_(policy.jitter_seed) {}

void Collector::set_telemetry(Telemetry* telemetry, std::string target) {
  telemetry_ = telemetry;
  telemetry_target_ = target;
  handles_ = Handles{};
  own_stage_.attach(telemetry);
  transport_->set_telemetry(telemetry, std::move(target));
}

void Collector::set_stage(TelemetryStage* stage) {
  stage_ = stage != nullptr ? stage : &own_stage_;
}

void Collector::record_capture_telemetry(const RawCapture& capture,
                                         std::size_t index, sim::TimePoint now,
                                         sim::Duration backoff_total) {
  if (!telemetry_->enabled()) return;
  MetricsRegistry& metrics = telemetry_->metrics();
  cached(handles_.status[static_cast<std::size_t>(capture.status)], [&] {
    return &metrics.counter("mantra_capture_status_total",
                            {{"target", telemetry_target_},
                             {"status", to_string(capture.status)}});
  }).inc();
  if (capture.attempts > 1) {
    cached(handles_.retries, [&] {
      return &metrics.counter("mantra_capture_retries_total",
                              {{"target", telemetry_target_}});
    }).inc(capture.attempts - 1);
  }
  if (backoff_total.total_ms() > 0) {
    cached(handles_.backoff_ms, [&] {
      return &metrics.counter("mantra_capture_backoff_ms_total",
                              {{"target", telemetry_target_}});
    }).inc(static_cast<std::uint64_t>(backoff_total.total_ms()));
  }
  cached(handles_.latency, [&] {
    return &metrics.histogram("mantra_capture_latency_seconds",
                              {{"target", telemetry_target_}});
  }).observe(capture.latency.total_seconds());
  handles_.command_latency.resize(commands_.size(), nullptr);
  cached(handles_.command_latency[index], [&] {
    return &metrics.histogram("mantra_command_latency_seconds",
                              {{"command", capture.command}});
  }).observe(capture.latency.total_seconds());
  if (capture.deadline_phase != DeadlinePhase::none) {
    cached(handles_.deadline[static_cast<std::size_t>(capture.deadline_phase)], [&] {
      return &metrics.counter("mantra_capture_deadline_exhausted_total",
                              {{"target", telemetry_target_},
                               {"phase", to_string(capture.deadline_phase)}});
    }).inc();
    stage_->log(EventLevel::warn, "command_deadline_exhausted", now,
                {{"target", telemetry_target_},
                 {"command", capture.command},
                 {"phase", to_string(capture.deadline_phase)},
                 {"attempts", std::to_string(capture.attempts)},
                 {"latency_ms", std::to_string(capture.latency.total_ms())}},
                capture.command, capture.attempts);
  } else if (!capture.ok()) {
    stage_->log(EventLevel::warn, "capture_failed", now,
                {{"target", telemetry_target_},
                 {"command", capture.command},
                 {"status", to_string(capture.status)},
                 {"transport", to_string(capture.transport_status)},
                 {"attempts", std::to_string(capture.attempts)}},
                capture.command, capture.attempts);
  }
}

void Collector::capture(const router::MulticastRouter& router, sim::TimePoint now,
                        CaptureReport& into) {
  do_capture(router, now, into);
  // Standalone collectors (no monitor attached via set_stage) flush here so
  // their spans/events still reach the sinks; cycle_seq 0 marks "no cycle".
  if (stage_ == &own_stage_ && telemetry_->enabled()) {
    own_stage_.flush(0, telemetry_target_, telemetry_->tracer().thread_id());
  }
}

const CaptureReport& Collector::capture(const router::MulticastRouter& router,
                                        sim::TimePoint now) {
  capture(router, now, report_);
  return report_;
}

void Collector::do_capture(const router::MulticastRouter& router, sim::TimePoint now,
                           CaptureReport& report) {
  // Reset the report in place: slots (and their transcript buffers) from
  // the previous capture keep their capacity.
  report.connected = false;
  report.attempts = 0;
  report.latency = sim::Duration();
  report.captures.resize(commands_.size());
  const std::size_t max_attempts = std::max<std::size_t>(policy_.max_attempts, 1);
  const bool telemetry_on = telemetry_->enabled();
  // A disabled stage hands out an inert scope — no clock reads, no storage.
  TelemetryStage::Span capture_scope = stage_->span("capture", "collect", now);
  capture_scope.arg("target", telemetry_target_);

  const auto reset_slot = [&](RawCapture& capture, const std::string& command) {
    capture.router_name = router.hostname();
    capture.command = command;
    capture.captured = now;
    capture.raw_text.clear();
    capture.clean_text.clear();
    capture.status = CaptureStatus::ok;
    capture.transport_status = TransportStatus::ok;
    capture.deadline_phase = DeadlinePhase::none;
    capture.attempts = 0;
    capture.latency = sim::Duration();
  };

  // Establish the session, retrying with backoff. `op_` holds the last
  // connect outcome after the loop.
  for (std::size_t attempt = 1; attempt <= max_attempts; ++attempt) {
    transport_->connect_into(router, now, op_);
    ++report.attempts;
    report.latency += op_.latency;
    if (op_.ok()) {
      report.connected = true;
      break;
    }
    if (attempt < max_attempts) {
      report.latency += policy_.backoff_before(attempt, jitter_rng_);
    }
  }
  if (!report.connected) {
    // The router is dark this cycle: every command is reported failed so
    // callers see exactly which tables they are missing.
    for (std::size_t i = 0; i < commands_.size(); ++i) {
      RawCapture& capture = report.captures[i];
      reset_slot(capture, commands_[i]);
      capture.status = CaptureStatus::failed;
      capture.transport_status = op_.status;
      record_capture_telemetry(capture, i, now, sim::Duration());
    }
    if (telemetry_on) {
      stage_->log(EventLevel::warn, "session_failed", now,
                  {{"target", telemetry_target_},
                   {"transport", to_string(op_.status)},
                   {"attempts", std::to_string(report.attempts)}});
      capture_scope.arg("connected", "false");
      capture_scope.set_sim_interval(now, report.latency);
    }
    return;
  }

  for (std::size_t i = 0; i < commands_.size(); ++i) {
    const std::string& command = commands_[i];
    RawCapture& capture = report.captures[i];
    reset_slot(capture, command);
    sim::Duration backoff_total;

    TelemetryStage::Span command_scope = stage_->span(command, "command", now);
    command_scope.arg("target", telemetry_target_);

    for (std::size_t attempt = 1; attempt <= max_attempts; ++attempt) {
      const std::int64_t attempt_wall_start =
          telemetry_on ? telemetry_->tracer().wall_now_us() : 0;
      // The transport renders into the slot's own buffer, lent for the
      // attempt and handed back, so each slot's capacity is sized by its
      // own command; `op_.text` stays the spare connect_into uses.
      std::swap(capture.raw_text, op_.text);
      transport_->execute_into(router, command, now, op_);
      std::swap(capture.raw_text, op_.text);
      ++report.attempts;
      capture.attempts = attempt;
      capture.latency += op_.latency;
      capture.transport_status = op_.status;
      capture.clean_text.clear();
      if (telemetry_on) {
        TraceSpan attempt_span;
        attempt_span.name = "attempt";
        attempt_span.category = "attempt";
        attempt_span.sim_ts_ms = now.total_ms();
        attempt_span.sim_dur_ms = op_.latency.total_ms();
        attempt_span.wall_ts_us = attempt_wall_start;
        attempt_span.wall_dur_us =
            telemetry_->tracer().wall_now_us() - attempt_wall_start;
        // tid is stamped at flush time (deterministic, post-join).
        attempt_span.args = {{"target", telemetry_target_},
                             {"command", command},
                             {"attempt", std::to_string(attempt)},
                             {"transport", to_string(op_.status)}};
        stage_->record(std::move(attempt_span), command, attempt);
      }

      // The deadline bounds the command's cumulative latency (attempts +
      // backoff), not each attempt in isolation — otherwise retries could
      // overshoot it max_attempts-fold.
      const bool over_deadline = capture.latency > policy_.command_deadline;
      if (capture.transport_status == TransportStatus::ok && !over_deadline) {
        if (router::cli::is_invalid_command_output(capture.raw_text)) {
          // The router understood us well enough to reject the command;
          // retrying cannot help.
          capture.status = CaptureStatus::invalid_command;
          break;
        }
        capture.status = CaptureStatus::ok;
        preprocess_into(capture.raw_text, capture.clean_text);
        break;
      }

      if (capture.transport_status == TransportStatus::ok && over_deadline) {
        capture.transport_status = TransportStatus::deadline_exceeded;
      } else if (capture.transport_status == TransportStatus::truncated) {
        // Keep the partial dump for the archive, preprocessed for humans,
        // but never hand it to the parsers as a complete table.
        capture.status = CaptureStatus::truncated;
        preprocess_into(capture.raw_text, capture.clean_text);
      } else {
        capture.status = CaptureStatus::failed;
      }

      // Deadline exhaustion — during the attempt itself, or because the
      // backoff before the next attempt would spend the rest of the
      // budget — is one uniform outcome: the capture failed, and
      // `deadline_phase` records where the budget ran out. A command
      // whose budget dies during backoff is exactly as unusable as one
      // whose last attempt overran in flight; callers must not have to
      // know the retry schedule to tell them apart.
      if (capture.latency >= policy_.command_deadline || over_deadline) {
        capture.status = CaptureStatus::failed;
        capture.deadline_phase = DeadlinePhase::in_flight;
        capture.clean_text.clear();
        break;
      }
      if (attempt == max_attempts) break;  // out of attempts
      const sim::Duration backoff = policy_.backoff_before(attempt, jitter_rng_);
      if (capture.latency + backoff >= policy_.command_deadline) {
        // No budget left for the backoff plus another attempt: the retry
        // schedule, not an in-flight response, spent the deadline. The
        // last attempt's transport_status survives as the proximate cause.
        capture.status = CaptureStatus::failed;
        capture.deadline_phase = DeadlinePhase::backoff;
        capture.clean_text.clear();
        break;
      }
      capture.latency += backoff;
      backoff_total += backoff;
    }

    report.latency += capture.latency;
    if (telemetry_on) {
      command_scope.set_sim_interval(now, capture.latency);
      // The command span shares its correlation id with the deciding (last)
      // attempt, joining the summary span to the attempt that settled it.
      command_scope.set_context(command, capture.attempts);
    }
    record_capture_telemetry(capture, i, now, backoff_total);
  }
  transport_->disconnect();
  if (telemetry_on) capture_scope.set_sim_interval(now, report.latency);
}

}  // namespace mantra::core
