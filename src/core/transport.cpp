#include "core/transport.hpp"

#include <algorithm>
#include <cstdio>

#include "router/cli.hpp"

namespace mantra::core {

const char* to_string(TransportStatus status) {
  switch (status) {
    case TransportStatus::ok: return "ok";
    case TransportStatus::connection_refused: return "connection-refused";
    case TransportStatus::login_timeout: return "login-timeout";
    case TransportStatus::truncated: return "truncated";
    case TransportStatus::garbled: return "garbled";
    case TransportStatus::deadline_exceeded: return "deadline-exceeded";
  }
  return "unknown";
}

void Transport::record_operation(Operation op, TransportStatus status) {
  if (!telemetry_->enabled()) return;
  Counter*& slot = operation_counters_[static_cast<std::size_t>(op)]
                                      [static_cast<std::size_t>(status)];
  cached(slot, [&] {
    return &telemetry_->metrics().counter(
        op == Operation::session ? "mantra_transport_sessions_total"
                                 : "mantra_transport_commands_total",
        {{"target", telemetry_target_}, {"result", to_string(status)}});
  }).inc();
}

void Transport::record_fault(Fault fault) {
  if (!telemetry_->enabled()) return;
  static constexpr const char* kModes[] = {
      "connection-refused", "login-timeout", "truncated", "garbled", "slow",
  };
  const auto index = static_cast<std::size_t>(fault);
  cached(fault_counters_[index], [&] {
    return &telemetry_->metrics().counter(
        "mantra_transport_faults_total",
        {{"target", telemetry_target_}, {"mode", kModes[index]}});
  }).inc();
}

void CliTransport::connect_into(const router::MulticastRouter& /*router*/,
                                sim::TimePoint /*now*/, TransportResult& out) {
  out.reset();
  out.latency = latency_;
  record_operation(Operation::session, out.status);
}

void CliTransport::execute_into(const router::MulticastRouter& router,
                                std::string_view command, sim::TimePoint now,
                                TransportResult& out) {
  out.reset();
  router::cli::telnet_capture_into(router, command, now, out.text);
  out.latency = latency_;
  record_operation(Operation::command, out.status);
}

FaultProfile FaultProfile::command_failure_rate(double p) {
  FaultProfile profile;
  profile.connect_refused_p = p / 4.0;
  profile.truncate_p = p / 2.0;
  profile.garble_p = p / 4.0;
  profile.slow_p = p / 4.0;
  return profile;
}

void FaultInjectingTransport::connect_into(
    const router::MulticastRouter& /*router*/, sim::TimePoint /*now*/,
    TransportResult& out) {
  ++operations_;
  out.reset();
  // Fixed roll order so a given seed always produces the same schedule.
  const bool refused = rng_.bernoulli(profile_.connect_refused_p);
  const bool hung = rng_.bernoulli(profile_.login_timeout_p);
  if (refused) {
    ++faults_;
    out.status = TransportStatus::connection_refused;
    out.latency = profile_.base_latency;
    record_fault(Fault::connection_refused);
    record_operation(Operation::session, out.status);
    return;
  }
  if (hung) {
    ++faults_;
    out.status = TransportStatus::login_timeout;
    out.latency = profile_.login_latency;
    record_fault(Fault::login_timeout);
    record_operation(Operation::session, out.status);
    return;
  }
  connected_ = true;
  out.latency = profile_.base_latency;
  record_operation(Operation::session, out.status);
}

void FaultInjectingTransport::truncate_in_place(std::string& text) {
  if (text.size() < 2) return;
  const auto cut = static_cast<std::size_t>(
      static_cast<double>(text.size()) * rng_.uniform(0.15, 0.85));
  text.resize(std::max<std::size_t>(cut, 1));
}

void FaultInjectingTransport::garble_into(std::string_view text,
                                          std::string& out) {
  // Interleave garbage between transcript lines: stray control bytes, hex
  // noise, and re-echoed fragments of earlier lines — the classic symptoms
  // of two sessions writing to one tty.
  out.reserve(out.size() + text.size() + text.size() / 4);
  std::string_view previous_line;
  std::string previous_half;  // NUL-terminated echo fragment for snprintf
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(start, end - start);
    start = end + 1;
    out.append(line);
    out.push_back('\n');
    if (rng_.bernoulli(0.3)) {
      previous_half.assign(previous_line.data(),
                           previous_line.size() / 2);
      char noise[48];
      std::snprintf(noise, sizeof noise, "\x07!%08llx%s\n",
                    static_cast<unsigned long long>(
                        rng_.uniform_int(0, 0x7fffffff)),
                    previous_half.c_str());
      out.append(noise);
    }
    previous_line = line;
  }
}

void FaultInjectingTransport::execute_into(const router::MulticastRouter& router,
                                           std::string_view command,
                                           sim::TimePoint now,
                                           TransportResult& out) {
  ++operations_;
  out.reset();
  router::cli::telnet_capture_into(router, command, now, out.text);
  out.latency = profile_.base_latency;
  if (!connected_) {
    // Session was never established; the dump never arrives.
    ++faults_;
    out.status = TransportStatus::connection_refused;
    out.text.clear();
    record_operation(Operation::command, out.status);
    return;
  }
  // Fixed roll order (truncate, garble, slow); first hit wins so every
  // failed command has exactly one unambiguous cause.
  const bool truncated = rng_.bernoulli(profile_.truncate_p);
  const bool garbled = rng_.bernoulli(profile_.garble_p);
  const bool slow = rng_.bernoulli(profile_.slow_p);
  if (truncated) {
    ++faults_;
    out.status = TransportStatus::truncated;
    truncate_in_place(out.text);
    record_fault(Fault::truncated);
  } else if (garbled) {
    ++faults_;
    out.status = TransportStatus::garbled;
    // A buffer of this path's own: garbling hits few commands, so the
    // transport keeps no transcript-sized buffer between them. The garbled
    // copy, sized by this command's transcript, replaces the caller's.
    std::string garbled_text;
    garble_into(out.text, garbled_text);
    out.text = std::move(garbled_text);
    record_fault(Fault::garbled);
  } else if (slow) {
    // The dump itself is intact; it just arrives past any sane deadline.
    // The collector compares latency against its policy and decides.
    ++faults_;
    out.latency = profile_.slow_latency;
    record_fault(Fault::slow);
  }
  record_operation(Operation::command, out.status);
}

}  // namespace mantra::core
