// core/parallel pool semantics, per-target seed independence, and the
// tentpole guarantee: the parallel per-target collection pipeline produces
// results, archives and CSV output byte-identical to the sequential path,
// including under per-target fault injection.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/mantra.hpp"
#include "core/parallel.hpp"
#include "workload/scenario.hpp"

namespace mantra::core {
namespace {

// --- ThreadPool / run_all ----------------------------------------------------

TEST(ThreadPool, RunAllExecutesEveryTaskAndJoins) {
  parallel::ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 64; ++i) {
    tasks.emplace_back([&count] { count.fetch_add(1); });
  }
  parallel::run_all(&pool, std::move(tasks));
  // run_all is a barrier: every task has finished by the time it returns.
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, NullPoolRunsInlineInOrder) {
  std::vector<int> order;
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.emplace_back([&order, i] { order.push_back(i); });
  }
  parallel::run_all(nullptr, std::move(tasks));
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPool, RunAllRethrowsFirstTaskError) {
  parallel::ThreadPool pool(2);
  std::atomic<int> completed{0};
  std::vector<std::function<void()>> tasks;
  tasks.emplace_back([&completed] { completed.fetch_add(1); });
  tasks.emplace_back([] { throw std::runtime_error("shard failed"); });
  tasks.emplace_back([&completed] { completed.fetch_add(1); });
  EXPECT_THROW(parallel::run_all(&pool, std::move(tasks)), std::runtime_error);
  // The healthy tasks still ran to completion before the rethrow.
  EXPECT_EQ(completed.load(), 2);
}

TEST(ThreadPool, SingleTaskRunsInlineEvenWithPool) {
  parallel::ThreadPool pool(2);
  bool ran = false;
  std::vector<std::function<void()>> tasks;
  tasks.emplace_back([&ran] { ran = true; });
  parallel::run_all(&pool, std::move(tasks));
  EXPECT_TRUE(ran);
}

TEST(ThreadPool, WorkerIndexNamesTheWorkerOnItsOwnPoolOnly) {
  parallel::ThreadPool pool(4);
  parallel::ThreadPool other(2);
  EXPECT_EQ(pool.worker_index(), pool.size());  // not a worker thread
  std::vector<std::size_t> own(64, pool.size());
  std::vector<std::size_t> foreign(64, 0);
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < own.size(); ++i) {
    tasks.emplace_back([&, i] {
      own[i] = pool.worker_index();
      foreign[i] = other.worker_index();
    });
  }
  parallel::run_all(&pool, std::move(tasks));
  for (std::size_t i = 0; i < own.size(); ++i) {
    EXPECT_LT(own[i], pool.size()) << "task " << i;
    EXPECT_EQ(foreign[i], other.size()) << "task " << i;
  }
}

TEST(ThreadPool, RunAllReturnsOnlyAfterEveryTaskIsAccounted) {
  // The join is released after the worker has observed the task's run time
  // and taken itself off the busy gauge, so a post-join read sees the whole
  // batch.
  TelemetryConfig config;
  config.enabled = true;
  Telemetry telemetry(config);
  parallel::ThreadPool pool(4);
  pool.set_telemetry(&telemetry);
  std::atomic<std::uint64_t> sink{0};
  std::uint64_t tasks_run = 0;
  for (int batch = 0; batch < 200; ++batch) {
    std::vector<std::function<void()>> tasks;
    const int count = 2 + batch % 7;
    for (int i = 0; i < count; ++i) {
      tasks.emplace_back([&sink, i] {
        std::uint64_t x = static_cast<std::uint64_t>(i) + 1;
        for (int k = 0; k < 2000; ++k) x = x * 6364136223846793005ULL + 1;
        sink.fetch_add(x, std::memory_order_relaxed);
      });
    }
    parallel::run_all(&pool, std::move(tasks));
    tasks_run += static_cast<std::uint64_t>(count);
    const MetricsRegistry& metrics = telemetry.metrics();
    const Histogram* run = metrics.find_histogram("mantra_pool_task_run_seconds", {});
    ASSERT_NE(run, nullptr);
    EXPECT_EQ(run->count(), tasks_run) << "batch " << batch;
    EXPECT_EQ(telemetry.metrics().gauge("mantra_pool_busy_workers").value(), 0.0)
        << "batch " << batch;
  }
}

// --- per-target seed streams -------------------------------------------------

TEST(PerTargetSeed, DistinctTargetsGetDistinctStreams) {
  const std::uint64_t base = RetryPolicy{}.jitter_seed;
  std::set<std::uint64_t> seeds;
  for (const char* name : {"fixw", "ucsb-gw", "bdr2", "bdr3", "a", "b"}) {
    seeds.insert(per_target_seed(base, name));
  }
  EXPECT_EQ(seeds.size(), 6u);
  // Deterministic: the stream is a pure function of (base, name).
  EXPECT_EQ(per_target_seed(base, "fixw"), per_target_seed(base, "fixw"));
  EXPECT_NE(per_target_seed(base, "fixw"), per_target_seed(base + 1, "fixw"));
}

// --- Sequential vs parallel equivalence --------------------------------------

std::string read_file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Mixed-health fault injection, per target: the hub collects cleanly, one
/// border is degraded (truncation/garbling/slowness), one is fully dark.
/// Each target gets its own transport instance with a name-derived seed, so
/// a monitor's fault schedule is identical however its targets are
/// scheduled.
TransportFactory mixed_fault_factory() {
  return [](const std::string& name) -> std::unique_ptr<Transport> {
    FaultProfile profile;  // default: no faults (the hub)
    if (name == "ucsb-gw") {
      profile = FaultProfile::command_failure_rate(0.3);
    } else if (name == "bdr2") {
      profile.connect_refused_p = 1.0;  // permanently dark
    }
    return std::make_unique<FaultInjectingTransport>(
        per_target_seed(0xfa0175eed, name), profile);
  };
}

class ParallelEquivalence : public ::testing::Test {
 protected:
  ParallelEquivalence() : scenario_(make_config()) { scenario_.start(); }

  static workload::ScenarioConfig make_config() {
    workload::ScenarioConfig config;
    config.seed = 33;
    config.domains = 4;
    config.hosts_per_domain = 6;
    config.dvmrp_prefixes_per_domain = 6;
    config.report_loss = 0.05;
    config.timer_scale = 1;
    config.full_timers = true;
    config.generator.session_arrivals_per_hour = 40.0;
    config.generator.bursts_per_day = 0.0;
    return config;
  }

  std::unique_ptr<Mantra> make_monitor(std::size_t worker_threads,
                                       const std::string& archive_dir) {
    MantraConfig config;
    config.cycle = sim::Duration::minutes(15);
    config.retry.max_attempts = 2;
    config.unreachable_after = 2;
    config.worker_threads = worker_threads;
    config.archive_dir = archive_dir;
    auto monitor = std::make_unique<Mantra>(scenario_.engine(), config,
                                            mixed_fault_factory());
    monitor->add_target(scenario_.network().router(scenario_.fixw_node()));
    for (const net::NodeId border : scenario_.border_nodes()) {
      monitor->add_target(scenario_.network().router(border));
    }
    monitor->start();
    return monitor;
  }

  workload::FixwScenario scenario_;
};

TEST_F(ParallelEquivalence, ParallelPathIsByteIdenticalToSequential) {
  const std::filesystem::path base =
      std::filesystem::path(::testing::TempDir()) / "mantra_par_equiv";
  std::filesystem::remove_all(base);
  const std::string seq_dir = (base / "seq").string();
  const std::string par_dir = (base / "par").string();

  auto sequential = make_monitor(0, seq_dir);
  auto parallel_m = make_monitor(4, par_dir);
  scenario_.engine().run_until(scenario_.engine().now() + sim::Duration::hours(4));

  const std::vector<std::string> names = sequential->target_names();
  ASSERT_EQ(names, parallel_m->target_names());
  ASSERT_EQ(names.size(), 5u);

  bool any_stale = false;
  bool any_results = false;
  for (const std::string& name : names) {
    const auto& seq_results = sequential->target_view(name).results();
    const auto& par_results = parallel_m->target_view(name).results();
    // CycleResult-for-CycleResult identity, including the fault accounting.
    EXPECT_EQ(seq_results, par_results) << "target " << name;
    EXPECT_EQ(sequential->target_view(name).health(),
              parallel_m->target_view(name).health());
    for (const CycleResult& result : seq_results) any_stale |= result.stale;
    any_results |= !seq_results.empty();

    // Fig 3 / Fig 7 CSV output must match byte for byte.
    const auto sessions = [](const CycleResult& r) {
      return static_cast<double>(r.usage.sessions);
    };
    const auto routes = [](const CycleResult& r) {
      return static_cast<double>(r.dvmrp_valid_routes);
    };
    EXPECT_EQ(sequential->series(name, "sessions", sessions).to_csv(),
              parallel_m->series(name, "sessions", sessions).to_csv());
    EXPECT_EQ(sequential->series(name, "dvmrp_valid", routes).to_csv(),
              parallel_m->series(name, "dvmrp_valid", routes).to_csv());
  }
  // The run actually exercised the faulty paths: results were produced and
  // at least one cycle carried a stale table.
  EXPECT_TRUE(any_results);
  EXPECT_TRUE(any_stale);
  // The dark target recorded nothing and is unreachable on both paths.
  EXPECT_TRUE(sequential->target_view("bdr2").results().empty());
  EXPECT_EQ(sequential->target_view("bdr2").health(), TargetHealth::Unreachable);

  // Archives: destroy the monitors to flush, then compare bytes per target.
  sequential.reset();
  parallel_m.reset();
  for (const std::string& name : names) {
    const std::string seq_bytes =
        read_file_bytes(std::filesystem::path(seq_dir) / (name + ".marc"));
    const std::string par_bytes =
        read_file_bytes(std::filesystem::path(par_dir) / (name + ".marc"));
    EXPECT_FALSE(seq_bytes.empty()) << "target " << name;
    EXPECT_EQ(seq_bytes, par_bytes) << "target " << name;
  }
  std::filesystem::remove_all(base);
}

TEST_F(ParallelEquivalence, TargetFaultsDoNotPerturbOtherTargets) {
  // A target-local failure regime must leave every *other* target's results
  // untouched: run once with the mixed-fault factory and once with the dark
  // target's profile swapped to clean, and compare the unaffected targets.
  auto isolated_factory = [](const std::string& name) -> std::unique_ptr<Transport> {
    FaultProfile profile;
    if (name == "ucsb-gw") profile = FaultProfile::command_failure_rate(0.3);
    // "bdr2" is clean here, dark in mixed_fault_factory().
    return std::make_unique<FaultInjectingTransport>(
        per_target_seed(0xfa0175eed, name), profile);
  };

  MantraConfig config;
  config.cycle = sim::Duration::minutes(15);
  config.retry.max_attempts = 2;
  auto with_dark = std::make_unique<Mantra>(scenario_.engine(), config,
                                            mixed_fault_factory());
  auto without_dark =
      std::make_unique<Mantra>(scenario_.engine(), config, isolated_factory);
  for (Mantra* monitor : {with_dark.get(), without_dark.get()}) {
    monitor->add_target(scenario_.network().router(scenario_.fixw_node()));
    for (const net::NodeId border : scenario_.border_nodes()) {
      monitor->add_target(scenario_.network().router(border));
    }
    monitor->start();
  }
  scenario_.engine().run_until(scenario_.engine().now() + sim::Duration::hours(2));

  // bdr2 differs by construction...
  EXPECT_TRUE(with_dark->target_view("bdr2").results().empty());
  EXPECT_FALSE(without_dark->target_view("bdr2").results().empty());
  // ...but every other target's cycle results are identical: per-target
  // transports and jitter streams mean no cross-target coupling.
  for (const std::string& name : with_dark->target_names()) {
    if (name == "bdr2") continue;
    EXPECT_EQ(with_dark->target_view(name).results(),
              without_dark->target_view(name).results())
        << "target " << name;
  }
}

}  // namespace
}  // namespace mantra::core
