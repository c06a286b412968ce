// Collection transport (§III): the session layer between the Data Collector
// and a router's CLI. The paper's expect scripts spoke telnet to production
// routers and failed in every way a 1998 WAN could arrange — refused
// connections, hung logins, dumps cut off mid-table, garbage interleaved in
// the transcript, responses too slow to be useful. The Transport interface
// models that session (connect -> execute* -> disconnect) so the Collector
// can retry, time out, and degrade instead of trusting every byte.
//
// Two implementations:
//   * CliTransport — the default; wraps cli::telnet_capture and never fails
//     (the simulator's routers always answer).
//   * FaultInjectingTransport — deterministic failure injection driven by a
//     seeded sim::Rng, for exercising the fallible collection path.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "core/telemetry.hpp"
#include "router/router.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace mantra::core {

/// What happened to one transport operation (a login or one command).
enum class TransportStatus {
  ok,
  connection_refused,  ///< session could not be established
  login_timeout,       ///< login exchange hung past its deadline
  truncated,           ///< output cut off mid-dump
  garbled,             ///< garbage/interleaved lines in the transcript
  deadline_exceeded,   ///< response slower than the per-command deadline
};

[[nodiscard]] const char* to_string(TransportStatus status);

/// True for statuses that mean no session exists (retry must reconnect).
[[nodiscard]] inline bool is_session_failure(TransportStatus status) {
  return status == TransportStatus::connection_refused ||
         status == TransportStatus::login_timeout;
}

/// Outcome of one transport operation. `text` may be partial (truncated) or
/// corrupted (garbled); callers must check `status` before trusting it.
struct TransportResult {
  TransportStatus status = TransportStatus::ok;
  std::string text;
  sim::Duration latency;  ///< simulated round-trip for this operation

  [[nodiscard]] bool ok() const { return status == TransportStatus::ok; }

  /// Resets to a fresh ok result, keeping `text`'s capacity so the buffer
  /// can be refilled without reallocating. The zero-copy collection loop
  /// calls this once per operation on a reused instance.
  void reset() {
    status = TransportStatus::ok;
    text.clear();
    latency = sim::Duration();
  }
};

/// A login session to one router: connect -> execute* -> disconnect.
///
/// Latencies are simulated bookkeeping (the collector runs synchronously
/// inside one engine event); they feed the retry policy's deadline checks
/// and the per-cycle collection-latency statistics.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Attaches a telemetry sink and the target label stamped on every metric
  /// this transport records (session opens, per-operation outcomes, fault
  /// modes hit), and drops the cached handles. Never pass null — use
  /// Telemetry::noop() to detach. Must be called before the transport is
  /// shared with a collection thread.
  void set_telemetry(Telemetry* telemetry, std::string target) {
    telemetry_ = telemetry;
    telemetry_target_ = std::move(target);
    operation_counters_ = {};
    fault_counters_ = {};
  }

  /// Establishes a session into a caller-owned result (reset()s `out`, then
  /// fills it). `status` is ok, connection_refused, or login_timeout;
  /// `latency` covers the whole login exchange. Reusing one TransportResult
  /// across operations keeps the transcript buffer's capacity warm — this is
  /// the primitive the zero-copy collection loop is built on.
  virtual void connect_into(const router::MulticastRouter& router,
                            sim::TimePoint now, TransportResult& out) = 0;

  /// Runs one command over the established session into a caller-owned
  /// result (reset()s `out`, then fills it). The transcript is raw —
  /// banners, echoes, prompts included; preprocessing is the collector's
  /// job.
  virtual void execute_into(const router::MulticastRouter& router,
                            std::string_view command, sim::TimePoint now,
                            TransportResult& out) = 0;

  virtual void disconnect() = 0;

  /// Value-returning convenience over connect_into (allocates a fresh
  /// result each call; tests and one-shot callers use these, the collection
  /// loop does not).
  [[nodiscard]] TransportResult connect(const router::MulticastRouter& router,
                                        sim::TimePoint now) {
    TransportResult result;
    connect_into(router, now, result);
    return result;
  }

  /// Value-returning convenience over execute_into.
  [[nodiscard]] TransportResult execute(const router::MulticastRouter& router,
                                        std::string_view command,
                                        sim::TimePoint now) {
    TransportResult result;
    execute_into(router, command, now, result);
    return result;
  }

 protected:
  enum class Operation { session, command };
  /// The failure modes FaultInjectingTransport injects.
  enum class Fault { connection_refused, login_timeout, truncated, garbled, slow };

  /// Records one operation outcome under
  /// `mantra_transport_{sessions,commands}_total{target,result}`.
  void record_operation(Operation op, TransportStatus status);
  /// Records one injected fault under `mantra_transport_faults_total`.
  void record_fault(Fault fault);

  Telemetry* telemetry_ = &Telemetry::noop();
  std::string telemetry_target_;

 private:
  /// Counter handles, each looked up the first time an outcome or fault
  /// is recorded: by operation and TransportStatus, and by fault.
  std::array<std::array<Counter*, 6>, 2> operation_counters_{};  ///< [op][status]
  std::array<Counter*, 5> fault_counters_{};                      ///< by Fault
};

/// Default transport: wraps cli::telnet_capture. Always succeeds with a
/// fixed per-operation latency.
class CliTransport : public Transport {
 public:
  explicit CliTransport(
      sim::Duration latency = sim::Duration::milliseconds(120))
      : latency_(latency) {}

  void connect_into(const router::MulticastRouter& router, sim::TimePoint now,
                    TransportResult& out) override;
  void execute_into(const router::MulticastRouter& router,
                    std::string_view command, sim::TimePoint now,
                    TransportResult& out) override;
  void disconnect() override {}

 private:
  sim::Duration latency_;
};

/// Failure probabilities and timing for FaultInjectingTransport. All
/// probabilities are independent per operation; exactly one failure mode is
/// applied per command (rolled in a fixed order: truncate, garble, slow).
struct FaultProfile {
  double connect_refused_p = 0.0;  ///< per connect attempt
  double login_timeout_p = 0.0;    ///< per connect attempt
  double truncate_p = 0.0;         ///< per command: dump cut off mid-table
  double garble_p = 0.0;           ///< per command: garbage interleaved
  double slow_p = 0.0;             ///< per command: response exceeds deadline

  sim::Duration base_latency = sim::Duration::milliseconds(120);
  sim::Duration login_latency = sim::Duration::seconds(10);  ///< hung login
  sim::Duration slow_latency = sim::Duration::seconds(90);   ///< slow response

  /// A profile whose total per-command failure probability is roughly `p`
  /// (split across truncation, garbling, and slowness), with `p/4` of
  /// connect attempts refused.
  [[nodiscard]] static FaultProfile command_failure_rate(double p);
};

/// Deterministic fault injection: wraps the real CLI renderers and corrupts
/// the session per a seeded sim::Rng. The same seed and the same sequence of
/// operations always yield the same failure schedule.
class FaultInjectingTransport : public Transport {
 public:
  FaultInjectingTransport(std::uint64_t seed, FaultProfile profile)
      : rng_(seed), profile_(profile) {}

  void connect_into(const router::MulticastRouter& router, sim::TimePoint now,
                    TransportResult& out) override;
  void execute_into(const router::MulticastRouter& router,
                    std::string_view command, sim::TimePoint now,
                    TransportResult& out) override;
  void disconnect() override { connected_ = false; }

  /// Swaps the failure profile mid-run (e.g. to take a router dark and then
  /// bring it back). Does not reseed the RNG.
  void set_profile(const FaultProfile& profile) { profile_ = profile; }
  [[nodiscard]] const FaultProfile& profile() const { return profile_; }

  [[nodiscard]] std::uint64_t faults_injected() const { return faults_; }
  [[nodiscard]] std::uint64_t operations() const { return operations_; }

 private:
  void truncate_in_place(std::string& text);
  /// Appends a garbled copy of `text` to `out` (same bytes as the old
  /// string-returning form).
  void garble_into(std::string_view text, std::string& out);

  sim::Rng rng_;
  FaultProfile profile_;
  bool connected_ = false;
  std::uint64_t faults_ = 0;
  std::uint64_t operations_ = 0;
};

}  // namespace mantra::core
