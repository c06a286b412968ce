// Fault-tolerant collection transport: retry/backoff, per-command capture
// statuses, and deterministic fault injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/collect.hpp"
#include "core/transport.hpp"
#include "router/cli.hpp"
#include "router/network.hpp"
#include "workload/scenario.hpp"

namespace mantra::core {
namespace {

class TransportTest : public ::testing::Test {
 protected:
  TransportTest() : rng_(7), network_(engine_, topo_, rng_, router::NetworkConfig{}) {
    r1_ = topo_.add_router("r1");
    r2_ = topo_.add_router("r2");
    topo_.connect(r1_, r2_, *net::Prefix::parse("192.168.0.0/30"));
    const auto lan = topo_.create_lan(*net::Prefix::parse("10.1.1.0/24"));
    topo_.attach_to_lan(r1_, lan);

    router::RouterConfig config;
    config.dvmrp_enabled = true;
    config.dvmrp.timers_enabled = false;
    config.igmp.timers_enabled = false;
    network_.add_router(r1_, config);
    network_.add_router(r2_, config);
    network_.start();
    network_.router(r1_)->dvmrp()->send_reports_now();
    engine_.run_until(engine_.now() + sim::Duration::seconds(2));
  }

  [[nodiscard]] const router::MulticastRouter& r1() const {
    return *network_.router(r1_);
  }

  sim::Engine engine_;
  sim::Rng rng_;
  net::Topology topo_;
  router::Network network_;
  net::NodeId r1_, r2_;
};

TEST_F(TransportTest, CliTransportSessionSucceeds) {
  CliTransport transport;
  const TransportResult login = transport.connect(r1(), engine_.now());
  EXPECT_TRUE(login.ok());
  const TransportResult result =
      transport.execute(r1(), "show ip dvmrp route", engine_.now());
  EXPECT_TRUE(result.ok());
  EXPECT_NE(result.text.find("DVMRP Routing Table"), std::string::npos);
  EXPECT_GT(result.latency.total_ms(), 0);
}

TEST_F(TransportTest, ConnectRefusalFailsEveryCommandAfterRetries) {
  FaultProfile profile;
  profile.connect_refused_p = 1.0;
  RetryPolicy policy;
  policy.max_attempts = 3;
  Collector collector(default_command_set(), policy,
                      std::make_unique<FaultInjectingTransport>(1, profile));

  const CaptureReport report = collector.capture(r1(), engine_.now());
  EXPECT_FALSE(report.connected);
  EXPECT_FALSE(report.all_ok());
  EXPECT_EQ(report.attempts, 3u);  // three connect attempts, no commands
  ASSERT_EQ(report.captures.size(), default_command_set().size());
  EXPECT_EQ(report.failure_count(), report.captures.size());
  for (const RawCapture& capture : report.captures) {
    EXPECT_EQ(capture.status, CaptureStatus::failed);
    EXPECT_EQ(capture.transport_status, TransportStatus::connection_refused);
    EXPECT_EQ(capture.attempts, 0u);
    EXPECT_TRUE(capture.raw_text.empty());
  }
}

TEST_F(TransportTest, InvalidCommandIsNotRetriedAndNotParseable) {
  Collector collector({"show ip bogus nonsense", "show ip dvmrp route"});
  const CaptureReport report = collector.capture(r1(), engine_.now());
  ASSERT_EQ(report.captures.size(), 2u);

  const RawCapture& bogus = report.captures[0];
  EXPECT_EQ(bogus.status, CaptureStatus::invalid_command);
  EXPECT_EQ(bogus.attempts, 1u);  // rejection is definitive; no retry
  EXPECT_TRUE(router::cli::is_invalid_command_output(bogus.raw_text));
  EXPECT_TRUE(bogus.clean_text.empty());  // never offered to the parsers

  const RawCapture& good = report.captures[1];
  EXPECT_EQ(good.status, CaptureStatus::ok);
  EXPECT_EQ(report.failure_count(), 1u);
  EXPECT_FALSE(report.all_ok());
}

TEST_F(TransportTest, TruncationSurfacesPartialDumpAfterRetries) {
  FaultProfile profile;
  profile.truncate_p = 1.0;
  RetryPolicy policy;
  policy.max_attempts = 2;
  Collector collector({"show ip dvmrp route"}, policy,
                      std::make_unique<FaultInjectingTransport>(2, profile));

  const CaptureReport report = collector.capture(r1(), engine_.now());
  EXPECT_TRUE(report.connected);
  ASSERT_EQ(report.captures.size(), 1u);
  const RawCapture& capture = report.captures[0];
  EXPECT_EQ(capture.status, CaptureStatus::truncated);
  EXPECT_EQ(capture.attempts, 2u);

  const std::string full =
      router::cli::telnet_capture(r1(), "show ip dvmrp route", engine_.now());
  EXPECT_LT(capture.raw_text.size(), full.size());
  EXPECT_FALSE(capture.raw_text.empty());
}

TEST_F(TransportTest, SlowResponseExceedsDeadline) {
  FaultProfile profile;
  profile.slow_p = 1.0;
  profile.slow_latency = sim::Duration::seconds(90);
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.command_deadline = sim::Duration::seconds(30);
  Collector collector({"show ip dvmrp route"}, policy,
                      std::make_unique<FaultInjectingTransport>(3, profile));

  const CaptureReport report = collector.capture(r1(), engine_.now());
  ASSERT_EQ(report.captures.size(), 1u);
  EXPECT_EQ(report.captures[0].status, CaptureStatus::failed);
  EXPECT_EQ(report.captures[0].transport_status,
            TransportStatus::deadline_exceeded);
  EXPECT_EQ(report.captures[0].deadline_phase, DeadlinePhase::in_flight);
  // The first slow response alone spends the whole cumulative deadline, so
  // no retry is attempted.
  EXPECT_EQ(report.captures[0].attempts, 1u);
}

TEST_F(TransportTest, DeadlineBoundsCumulativeLatencyAcrossRetries) {
  // Each attempt fails in 12s against a 30s deadline with a generous
  // attempt budget: retrying must stop once the cumulative spend (attempts
  // + backoff) reaches the deadline, instead of burning max_attempts x.
  FaultProfile profile;
  profile.truncate_p = 1.0;
  profile.base_latency = sim::Duration::seconds(12);
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff = sim::Duration::seconds(1);
  policy.backoff_multiplier = 2.0;
  policy.jitter = 0.0;
  policy.command_deadline = sim::Duration::seconds(30);
  Collector collector({"show ip dvmrp route"}, policy,
                      std::make_unique<FaultInjectingTransport>(6, profile));

  const CaptureReport report = collector.capture(r1(), engine_.now());
  ASSERT_EQ(report.captures.size(), 1u);
  const RawCapture& capture = report.captures[0];
  // 12s + 1s backoff + 12s = 25s < 30s; the 2s backoff fits (27s) but the
  // third attempt lands at 39s >= 30s, so collection stops there.
  EXPECT_EQ(capture.attempts, 3u);
  EXPECT_EQ(capture.latency.total_ms(), 3 * 12000 + 1000 + 2000);
  // Retry accounting: the report counts every connect and command attempt.
  EXPECT_EQ(report.attempts, 1u + capture.attempts);
  // Overshoot is bounded by one attempt's latency, never by max_attempts x.
  EXPECT_LE(capture.latency,
            policy.command_deadline + profile.base_latency);
  // Exhausting the budget during an attempt is uniformly a failed capture
  // (the last attempt's truncated dump must not read as a usable-if-stale
  // partial capture), with the phase recording where the budget went.
  EXPECT_EQ(capture.status, CaptureStatus::failed);
  EXPECT_EQ(capture.deadline_phase, DeadlinePhase::in_flight);
  EXPECT_EQ(capture.transport_status, TransportStatus::truncated);
  EXPECT_TRUE(capture.clean_text.empty());
}

TEST_F(TransportTest, DeadlineExhaustedDuringBackoffIsFailed) {
  // One 10s truncated attempt leaves 20s of budget; the configured 25s
  // backoff cannot fit, so the collector gives up without retrying. That
  // must be reported exactly like an in-flight deadline death — a failed
  // capture — distinguished only by deadline_phase.
  FaultProfile profile;
  profile.truncate_p = 1.0;
  profile.base_latency = sim::Duration::seconds(10);
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff = sim::Duration::seconds(25);
  policy.backoff_multiplier = 1.0;
  policy.jitter = 0.0;
  policy.command_deadline = sim::Duration::seconds(30);
  Collector collector({"show ip dvmrp route"}, policy,
                      std::make_unique<FaultInjectingTransport>(6, profile));

  const CaptureReport report = collector.capture(r1(), engine_.now());
  ASSERT_EQ(report.captures.size(), 1u);
  const RawCapture& capture = report.captures[0];
  EXPECT_EQ(capture.attempts, 1u);
  EXPECT_EQ(report.attempts, 1u + capture.attempts);
  // The aborted backoff is not spent: latency covers only the attempt made.
  EXPECT_EQ(capture.latency, sim::Duration::seconds(10));
  EXPECT_EQ(capture.status, CaptureStatus::failed);
  EXPECT_EQ(capture.deadline_phase, DeadlinePhase::backoff);
  // The last attempt's own outcome survives as the proximate cause.
  EXPECT_EQ(capture.transport_status, TransportStatus::truncated);
  EXPECT_TRUE(capture.clean_text.empty());
}

TEST_F(TransportTest, GarbledTranscriptFails) {
  FaultProfile profile;
  profile.garble_p = 1.0;
  RetryPolicy policy;
  policy.max_attempts = 1;
  Collector collector({"show ip dvmrp route"}, policy,
                      std::make_unique<FaultInjectingTransport>(4, profile));

  const CaptureReport report = collector.capture(r1(), engine_.now());
  ASSERT_EQ(report.captures.size(), 1u);
  EXPECT_EQ(report.captures[0].status, CaptureStatus::failed);
  EXPECT_EQ(report.captures[0].transport_status, TransportStatus::garbled);
  // The corrupted transcript is longer than the clean one (interleaved noise).
  const std::string full =
      router::cli::telnet_capture(r1(), "show ip dvmrp route", engine_.now());
  EXPECT_GT(report.captures[0].raw_text.size(), full.size());
}

TEST_F(TransportTest, BackoffScheduleIsExactWithoutJitter) {
  FaultProfile profile;
  profile.truncate_p = 1.0;
  profile.base_latency = sim::Duration::milliseconds(100);
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = sim::Duration::seconds(1);
  policy.backoff_multiplier = 2.0;
  policy.jitter = 0.0;
  Collector collector({"show ip dvmrp route"}, policy,
                      std::make_unique<FaultInjectingTransport>(5, profile));

  const CaptureReport report = collector.capture(r1(), engine_.now());
  ASSERT_EQ(report.captures.size(), 1u);
  // 3 attempts x 100ms, plus backoffs of 1s then 2s between them.
  EXPECT_EQ(report.captures[0].latency.total_ms(), 3 * 100 + 1000 + 2000);
}

TEST_F(TransportTest, SameSeedSameFailureSchedule) {
  const FaultProfile profile = FaultProfile::command_failure_rate(0.4);
  RetryPolicy policy;
  policy.max_attempts = 2;

  const auto run = [&](std::uint64_t seed) {
    Collector collector(default_command_set(), policy,
                        std::make_unique<FaultInjectingTransport>(seed, profile));
    std::vector<std::pair<CaptureStatus, std::size_t>> schedule;
    std::vector<std::int64_t> latencies;
    for (int cycle = 0; cycle < 12; ++cycle) {
      const CaptureReport report = collector.capture(r1(), engine_.now());
      for (const RawCapture& capture : report.captures) {
        schedule.emplace_back(capture.status, capture.attempts);
        latencies.push_back(capture.latency.total_ms());
      }
    }
    return std::make_pair(schedule, latencies);
  };

  const auto a = run(42);
  const auto b = run(42);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);

  // The schedule actually contains failures (the profile is not a no-op).
  bool any_failure = false;
  for (const auto& [status, attempts] : a.first) {
    if (status != CaptureStatus::ok) any_failure = true;
  }
  EXPECT_TRUE(any_failure);
}

TEST_F(TransportTest, ReportFindAndHelpers) {
  Collector collector;
  const CaptureReport report = collector.capture(r1(), engine_.now());
  EXPECT_NE(report.find("show ip mbgp"), nullptr);
  EXPECT_EQ(report.find("no such command"), nullptr);
  EXPECT_EQ(report.ok_count() + report.failure_count(), report.captures.size());
}

/// Passes every operation to the wrapped transport and records, per
/// command, the largest transcript any attempt returned: the most a slot's
/// buffer has had to hold, garbled attempts included.
class LargestTranscriptTransport : public Transport {
 public:
  explicit LargestTranscriptTransport(std::unique_ptr<Transport> inner)
      : inner_(std::move(inner)) {}

  void connect_into(const router::MulticastRouter& router, sim::TimePoint now,
                    TransportResult& out) override {
    inner_->connect_into(router, now, out);
  }
  void execute_into(const router::MulticastRouter& router,
                    std::string_view command, sim::TimePoint now,
                    TransportResult& out) override {
    inner_->execute_into(router, command, now, out);
    std::size_t& largest = largest_[std::string(command)];
    largest = std::max(largest, out.text.size());
  }
  void disconnect() override { inner_->disconnect(); }

  [[nodiscard]] std::size_t largest(const std::string& command) const {
    const auto it = largest_.find(command);
    return it == largest_.end() ? 0 : it->second;
  }

 private:
  std::unique_ptr<Transport> inner_;
  std::map<std::string, std::size_t> largest_;
};

// Each capture slot keeps a transcript buffer sized by its own command: no
// slot ever carries capacity that another command's (much larger) DVMRP
// dump grew, on a clean transport or on one that garbles.
TEST(CollectorBuffers, EachSlotHoldsOnlyItsOwnCommandsTranscript) {
  workload::ScenarioConfig config;
  config.seed = 17;
  config.domains = 14;
  config.hosts_per_domain = 4;
  config.dvmrp_prefixes_per_domain = 40;
  config.generator.bursts_per_day = 0.0;
  workload::FixwScenario scenario(config);
  scenario.start();
  scenario.engine().run_until(scenario.engine().now() + sim::Duration::hours(2));
  const router::MulticastRouter& fixw =
      *scenario.network().router(scenario.fixw_node());
  ASSERT_GE(fixw.dvmrp()->routes().size(), 300u);

  auto clean_owned = std::make_unique<LargestTranscriptTransport>(
      std::make_unique<CliTransport>());
  LargestTranscriptTransport& clean_transport = *clean_owned;
  Collector clean(default_command_set(), RetryPolicy{}, std::move(clean_owned));

  FaultProfile garbling;
  garbling.garble_p = 0.3;
  auto faulty_inner = std::make_unique<FaultInjectingTransport>(23, garbling);
  const FaultInjectingTransport& garbler = *faulty_inner;
  auto faulty_owned =
      std::make_unique<LargestTranscriptTransport>(std::move(faulty_inner));
  LargestTranscriptTransport& faulty_transport = *faulty_owned;
  Collector faulty(default_command_set(), RetryPolicy{}, std::move(faulty_owned));

  const auto expect_slots_sized_by_their_own_command =
      [](const CaptureReport& report, const LargestTranscriptTransport& transport,
         const char* label, int cycle) {
        for (const RawCapture& capture : report.captures) {
          const std::size_t largest = transport.largest(capture.command);
          ASSERT_GT(largest, 0u) << label << " " << capture.command;
          EXPECT_LE(capture.raw_text.capacity(), 2 * largest)
              << label << " cycle " << cycle << ": " << capture.command
              << " holds capacity for another command's transcript";
        }
      };

  std::size_t dvmrp_bytes = 0;
  for (int cycle = 0; cycle < 12; ++cycle) {
    scenario.engine().run_until(scenario.engine().now() + sim::Duration::minutes(15));
    const sim::TimePoint now = scenario.engine().now();

    const CaptureReport& clean_report = clean.capture(fixw, now);
    ASSERT_TRUE(clean_report.all_ok());
    expect_slots_sized_by_their_own_command(clean_report, clean_transport, "clean",
                                            cycle);
    for (const RawCapture& capture : clean_report.captures) {
      EXPECT_TRUE(capture.raw_text ==
                  router::cli::telnet_capture(fixw, capture.command, now))
          << "cycle " << cycle << ": " << capture.command;
    }
    dvmrp_bytes = std::max(dvmrp_bytes,
                           clean_report.find("show ip dvmrp route")->raw_text.size());

    const CaptureReport& faulty_report = faulty.capture(fixw, now);
    expect_slots_sized_by_their_own_command(faulty_report, faulty_transport,
                                            "garbling", cycle);
  }
  // The test has teeth: FIXW's DVMRP dump dwarfs the other transcripts,
  // and the garbling transport did garble.
  EXPECT_GT(dvmrp_bytes, 8 * clean_transport.largest("show ip igmp groups"));
  EXPECT_GT(garbler.faults_injected(), 0u);
}

TEST(FaultProfileTest, CommandFailureRateSplitsBudget) {
  const FaultProfile profile = FaultProfile::command_failure_rate(0.2);
  EXPECT_DOUBLE_EQ(profile.truncate_p, 0.1);
  EXPECT_DOUBLE_EQ(profile.garble_p, 0.05);
  EXPECT_DOUBLE_EQ(profile.slow_p, 0.05);
  EXPECT_DOUBLE_EQ(profile.connect_refused_p, 0.05);
}

}  // namespace
}  // namespace mantra::core
