// Archive write/replay throughput (google-benchmark): cycles/sec through
// the ArchiveWriter under the delta encoding vs the full-snapshot ablation
// (bytes/cycle reported for both; each append derives and stores the
// cycle's result), plus full-file replay throughput — the costs that bound
// how many routers one Mantra instance can archive and how fast months of
// on-disk history come back as the live monitor's results.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "core/archive.hpp"
#include "sim/random.hpp"

using namespace mantra;

namespace {

constexpr auto kCycle = sim::Duration::minutes(15);

core::Snapshot synth_snapshot(int pairs, int routes, sim::Rng& rng) {
  core::Snapshot snapshot;
  snapshot.router_name = "fixw";
  for (int i = 0; i < pairs; ++i) {
    core::PairRow row;
    row.source = net::Ipv4Address(static_cast<std::uint32_t>(0x0A000000 + i));
    row.group =
        net::Ipv4Address(static_cast<std::uint32_t>(0xE0020000 + i % (pairs / 3 + 1)));
    row.current_kbps = rng.uniform(0.1, 300.0);
    snapshot.pairs.upsert(row);
  }
  for (int i = 0; i < routes; ++i) {
    core::RouteRow row;
    row.prefix = net::Prefix(
        net::Ipv4Address(static_cast<std::uint32_t>(0x0A000000 + (i << 8))), 24);
    row.next_hop = net::Ipv4Address(0xC0A80002u);
    row.interface = "tunnel" + std::to_string(i % 14);
    row.metric = static_cast<int>(rng.uniform_int(1, 30));
    snapshot.routes.upsert(row);
  }
  return snapshot;
}

/// 5% pair churn + one route flap per cycle — the steady-state workload the
/// delta encoding is built for.
void churn(core::Snapshot& snapshot, std::int64_t cycle, sim::Rng& rng) {
  snapshot.pairs.advance_derived(kCycle);
  snapshot.routes.advance_derived(kCycle);
  int i = 0;
  const int stride = 20;
  std::vector<core::PairRow> changed;
  snapshot.pairs.visit([&](const core::PairRow& row) {
    if (++i % stride == 0) {
      core::PairRow update = row;
      update.current_kbps = rng.uniform(0.1, 300.0);
      changed.push_back(update);
    }
  });
  for (const core::PairRow& row : changed) snapshot.pairs.upsert(row);
  core::RouteRow flap;
  flap.prefix = net::Prefix(
      net::Ipv4Address(static_cast<std::uint32_t>(
          0x0A000000 + (static_cast<std::uint32_t>(rng.uniform_int(0, 199)) << 8))),
      24);
  flap.next_hop = net::Ipv4Address(0xC0A80002u);
  flap.interface = "tunnel0";
  flap.metric = static_cast<int>(cycle % 30 + 1);
  snapshot.routes.upsert(flap);
  snapshot.captured = sim::TimePoint::from_ms(cycle * kCycle.total_ms());
}

std::string bench_path(const char* name) {
  return std::string("/tmp/mantra-bench-") + name + ".marc";
}

/// state.range(0) = pairs per snapshot; state.range(1) = 1 for the delta
/// encoding, 0 for the full-snapshot ablation baseline.
void BM_ArchiveAppend(benchmark::State& state) {
  sim::Rng rng(7);
  core::Snapshot snapshot =
      synth_snapshot(static_cast<int>(state.range(0)), 200, rng);
  core::ArchiveOptions options;
  options.store_deltas = state.range(1) != 0;
  options.fsync_on_keyframe = false;  // measure encoding, not the disk
  const std::string path =
      bench_path(options.store_deltas ? "append-delta" : "append-full");
  core::ArchiveWriter writer(path, options);
  std::int64_t cycle = 0;
  for (auto _ : state) {
    churn(snapshot, cycle++, rng);
    writer.append(snapshot);
  }
  writer.close();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["bytes/cycle"] = benchmark::Counter(
      static_cast<double>(writer.bytes_written()) /
      static_cast<double>(writer.cycles_written()));
  std::remove(path.c_str());
}
BENCHMARK(BM_ArchiveAppend)
    ->ArgsProduct({{500, 3000}, {1, 0}})
    ->ArgNames({"pairs", "delta"})
    ->Iterations(500);  // bounded: the file grows with every iteration

/// Full-file replay: open (which indexes every record's stored result) and
/// read every cycle's result back.
void BM_ArchiveReplay(benchmark::State& state) {
  const std::int64_t cycles = state.range(0);
  sim::Rng rng(7);
  core::Snapshot snapshot = synth_snapshot(500, 200, rng);
  const std::string path = bench_path("replay");
  {
    core::ArchiveOptions options;
    options.fsync_on_keyframe = false;
    core::ArchiveWriter writer(path, options);
    for (std::int64_t cycle = 0; cycle < cycles; ++cycle) {
      churn(snapshot, cycle, rng);
      writer.append(snapshot);
    }
  }
  for (auto _ : state) {
    const core::ArchiveReader reader(path);
    benchmark::DoNotOptimize(core::replay_archive(reader));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * cycles);
  std::remove(path.c_str());
}
BENCHMARK(BM_ArchiveReplay)->Arg(200)->Arg(1000)->ArgNames({"cycles"});

/// Random access: reconstruct one snapshot mid-file (decode the nearest
/// key-frame, replay the delta chain).
void BM_ArchiveSnapshotAt(benchmark::State& state) {
  sim::Rng rng(7);
  core::Snapshot snapshot = synth_snapshot(500, 200, rng);
  const std::string path = bench_path("seek");
  {
    core::ArchiveOptions options;
    options.keyframe_interval = static_cast<int>(state.range(0));
    options.fsync_on_keyframe = false;
    core::ArchiveWriter writer(path, options);
    for (std::int64_t cycle = 0; cycle < 200; ++cycle) {
      churn(snapshot, cycle, rng);
      writer.append(snapshot);
    }
  }
  const core::ArchiveReader reader(path);
  std::size_t index = 0;
  for (auto _ : state) {
    index = (index + 97) % reader.size();  // stride over the whole file
    benchmark::DoNotOptimize(reader.snapshot(index));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  std::remove(path.c_str());
}
BENCHMARK(BM_ArchiveSnapshotAt)->Arg(8)->Arg(96)->ArgNames({"keyframe"});

}  // namespace

BENCHMARK_MAIN();
