// Data Collector (§III): logs into routers, captures raw CLI output and
// pre-processes it (strips the telnet transcript noise — banners, password
// prompts, command echoes, carriage returns, excess blank lines) into text
// the Router-Table Processor can parse.
//
// Collection is fallible by design: every capture goes through a Transport
// session that can refuse the connection, hang at login, truncate a dump,
// garble the transcript, or answer too slowly. The collector retries with
// exponential backoff and reports a per-command CaptureStatus instead of
// pretending every scrape succeeded.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/telemetry.hpp"
#include "core/transport.hpp"
#include "router/router.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace mantra::core {

/// Outcome of one command's capture after all retries.
enum class CaptureStatus {
  ok,               ///< clean transcript, safe to parse
  truncated,        ///< partial dump survived; do not trust the table
  failed,           ///< no usable transcript (refused/garbled/too slow)
  invalid_command,  ///< router answered "% Invalid input"
};

[[nodiscard]] const char* to_string(CaptureStatus status);

/// Where a command's cumulative deadline budget ran out, when it did.
/// Exhaustion is uniformly a `CaptureStatus::failed` capture; this field is
/// the distinguishing fact (also logged as the `phase` field of the
/// `command_deadline_exhausted` telemetry event):
///   * in_flight — an attempt's own latency spent the remaining budget
///     (whether the response was usable-but-late or a failure);
///   * backoff — the last attempt failed and the backoff wait before the
///     next attempt would overrun the budget, so no retry was made.
enum class DeadlinePhase {
  none,       ///< the deadline never ran out
  in_flight,  ///< spent during an attempt
  backoff,    ///< spent during (or by) the backoff sleep between attempts
};

[[nodiscard]] const char* to_string(DeadlinePhase phase);

/// One raw capture from one command on one router.
struct RawCapture {
  std::string router_name;
  std::string command;
  sim::TimePoint captured;
  std::string raw_text;   ///< full telnet transcript, untouched (may be partial)
  std::string clean_text; ///< after preprocess(); empty unless status is ok
                          ///< or truncated
  CaptureStatus status = CaptureStatus::ok;
  TransportStatus transport_status = TransportStatus::ok;  ///< last attempt
  DeadlinePhase deadline_phase = DeadlinePhase::none;  ///< set iff the
                                                       ///< cumulative deadline
                                                       ///< was exhausted
  std::size_t attempts = 0;  ///< command attempts made (0 if never connected)
  sim::Duration latency;     ///< total simulated time incl. retries/backoff

  [[nodiscard]] bool ok() const { return status == CaptureStatus::ok; }
};

/// The structured result of one collection pass over a router: one
/// RawCapture per configured command (always, even when the session never
/// came up — there is no silent-success path), plus session-level facts.
struct CaptureReport {
  std::vector<RawCapture> captures;
  bool connected = false;    ///< a session was established (maybe after retries)
  std::size_t attempts = 0;  ///< total connect + command attempts
  sim::Duration latency;     ///< total simulated collection time incl. backoff

  [[nodiscard]] bool all_ok() const;
  [[nodiscard]] std::size_t ok_count() const;
  [[nodiscard]] std::size_t failure_count() const;  ///< captures not ok
  /// The capture for `command`, or nullptr if it was not in the command set.
  [[nodiscard]] const RawCapture* find(std::string_view command) const;
};

/// Retry/backoff policy for one collection pass. Delays are expressed in
/// sim::Duration so they compose with the engine clock; jitter is drawn from
/// a collector-owned seeded RNG so a run is reproducible.
///
/// `command_deadline` bounds the *cumulative* time spent on one command —
/// attempts, backoff, everything. Retrying stops as soon as the budget is
/// spent, so a command can overshoot the deadline by at most one attempt's
/// latency, never by max_attempts x.
struct RetryPolicy {
  std::size_t max_attempts = 3;  ///< per connect and per command, >= 1
  sim::Duration initial_backoff = sim::Duration::seconds(1);
  double backoff_multiplier = 2.0;  ///< >= 1
  double jitter = 0.25;             ///< +/- fraction of each backoff, in [0, 1)
  sim::Duration command_deadline = sim::Duration::seconds(30);
  std::uint64_t jitter_seed = 0x6d616e747261;  ///< "mantra"

  /// Backoff before retry number `retry` (1-based): initial * multiplier^(retry-1),
  /// scaled by a jitter factor drawn from `rng`.
  [[nodiscard]] sim::Duration backoff_before(std::size_t retry,
                                             sim::Rng& rng) const;
};

/// Derives an independent jitter-RNG seed for one named collection stream
/// from a base seed (splitmix64 over an FNV-1a hash of the name). Giving
/// every monitored target its own stream keeps each target's backoff draws
/// a pure function of that target's own failure history: adding, removing,
/// or failing one target never perturbs another target's schedule, and the
/// per-target schedules are identical whether the targets are collected
/// sequentially or in parallel.
[[nodiscard]] std::uint64_t per_target_seed(std::uint64_t base_seed,
                                            std::string_view target_name);

/// The fixed command set Mantra runs each cycle (the paper's tables map to
/// these: forwarding state, DVMRP routes, and the newer-protocol state).
[[nodiscard]] const std::vector<std::string>& default_command_set();

/// Strips transcript noise: CR characters, authentication banner lines,
/// prompt/echo lines ("hostname> ..."), trailing whitespace, and collapses
/// runs of blank lines.
[[nodiscard]] std::string preprocess(std::string_view raw);

/// In-place form of preprocess: clears `out` (keeping capacity) and fills it
/// with the cleaned transcript. `raw` must not alias `out`. The collection
/// loop reuses one clean-text buffer per capture slot through this.
void preprocess_into(std::string_view raw, std::string& out);

/// One collection pipeline: owns its transport session and its jitter RNG,
/// so two Collectors never share mutable state. Not thread-safe per
/// instance — concurrent collection uses one Collector per target
/// (core/mantra's per-target shards), never one Collector across threads.
class Collector {
 public:
  /// A null `transport` means the default CliTransport.
  explicit Collector(std::vector<std::string> commands = default_command_set(),
                     RetryPolicy policy = {},
                     std::unique_ptr<Transport> transport = nullptr);

  /// Runs the full command set against one router over one transport
  /// session, retrying per the policy, capturing and preprocessing each
  /// output into `into`. Never throws on collection failure — failures are
  /// statuses.
  ///
  /// `into`'s slots are reset in place, slot i always for command i, so
  /// each slot's transcript buffers keep the capacity of that command's
  /// largest capture; a warmed-up report costs no allocation. The storage
  /// belongs to the caller, who may share one report among collectors with
  /// the same command set (core/mantra keeps one per pool worker).
  void capture(const router::MulticastRouter& router, sim::TimePoint now,
               CaptureReport& into);

  /// As above, into collector-owned storage that the next capture()
  /// overwrites. Copy the report (or the captures you need) to keep data
  /// across cycles.
  [[nodiscard]] const CaptureReport& capture(const router::MulticastRouter& router,
                                             sim::TimePoint now);

  /// Attaches a telemetry sink (forwarded to the owned transport) and the
  /// target label stamped on every metric/span/event this collector
  /// records, and drops the cached metric handles. Never pass null — use
  /// Telemetry::noop() to detach.
  ///
  /// Spans and events route through a TelemetryStage: by default a
  /// collector-owned one that auto-flushes at the end of each capture()
  /// (with cycle_seq 0 — standalone collectors have no monitor cycle), or
  /// the caller's via set_stage(), in which case the caller owns the flush
  /// and its correlation context (core/mantra's post-join name-order flush).
  void set_telemetry(Telemetry* telemetry, std::string target);

  /// Redirects span/event staging to an external buffer (flushed by the
  /// caller). Null restores the collector-owned auto-flushed stage.
  void set_stage(TelemetryStage* stage);

  [[nodiscard]] const std::vector<std::string>& commands() const { return commands_; }
  [[nodiscard]] const RetryPolicy& policy() const { return policy_; }
  [[nodiscard]] Transport& transport() { return *transport_; }

 private:
  /// The collection pass proper; capture() wraps it so the span scopes are
  /// closed before a standalone collector auto-flushes its own stage.
  void do_capture(const router::MulticastRouter& router, sim::TimePoint now,
                  CaptureReport& report);
  /// Records one settled capture of `commands_[index]`.
  void record_capture_telemetry(const RawCapture& capture, std::size_t index,
                                sim::TimePoint now, sim::Duration backoff_total);

  /// Metric handles, each looked up (and so created) the first time a
  /// capture records into it.
  struct Handles {
    std::array<Counter*, 4> status{};    ///< by CaptureStatus
    std::array<Counter*, 3> deadline{};  ///< by DeadlinePhase (none unused)
    Counter* retries = nullptr;
    Counter* backoff_ms = nullptr;
    Histogram* latency = nullptr;
    std::vector<Histogram*> command_latency;  ///< by command index
  };

  std::vector<std::string> commands_;
  RetryPolicy policy_;
  std::unique_ptr<Transport> transport_;
  sim::Rng jitter_rng_;
  Telemetry* telemetry_ = &Telemetry::noop();
  std::string telemetry_target_;
  Handles handles_;
  TelemetryStage own_stage_;          ///< default staging sink (auto-flushed)
  TelemetryStage* stage_ = &own_stage_;
  CaptureReport report_;  ///< the two-argument capture()'s storage
  /// Reused per-operation outcome. Command transcripts render into their
  /// slot's own `raw_text` (lent for each attempt); `op_.text` is the spare
  /// connect_into fills.
  TransportResult op_;
};

}  // namespace mantra::core
