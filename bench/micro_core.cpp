// Microbenchmarks (google-benchmark) for the hot paths of the library:
// request distribution, workload sampling, the event queue, host-side
// access counting, and a DispatchRequest-loop macro case over the full
// driver.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/rng.h"
#include "common/slab_map.h"
#include "common/zipf.h"
#include "core/cluster.h"
#include "core/redirector.h"
#include "driver/config.h"
#include "driver/hosting_simulation.h"
#include "sim/event_queue.h"
#include "workload/workload.h"

namespace {

using namespace radar;

core::MatrixDistanceOracle MakeOracle(std::int32_t n) {
  core::MatrixDistanceOracle oracle(n);
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      oracle.Set(a, b, (b - a) % 7 + 1);
    }
  }
  return oracle;
}

void BM_ChooseReplica(benchmark::State& state) {
  const auto replicas = static_cast<int>(state.range(0));
  core::MatrixDistanceOracle oracle = MakeOracle(53);
  core::Redirector redirector(oracle, 2.0);
  redirector.RegisterObject(1, 0);
  for (NodeId host = 1; host < replicas; ++host) {
    redirector.OnReplicaCreated(1, host);
  }
  Rng rng(1);
  for (auto _ : state) {
    const auto gateway = static_cast<NodeId>(rng.NextBounded(53));
    benchmark::DoNotOptimize(redirector.ChooseReplica(1, gateway));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChooseReplica)->Arg(1)->Arg(2)->Arg(4)->Arg(16)->Arg(53);

void BM_ReedsZipfSample(benchmark::State& state) {
  ReedsZipf zipf(10000);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReedsZipfSample);

void BM_ExactZipfSample(benchmark::State& state) {
  ExactZipf zipf(10000);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExactZipfSample);

void BM_EventQueuePushPop(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  sim::EventQueue queue;
  Rng rng(3);
  for (std::size_t i = 0; i < depth; ++i) {
    queue.Push(static_cast<SimTime>(rng.NextBounded(1'000'000)), [] {});
  }
  SimTime base = 1'000'000;
  SimTime when = 0;
  std::uint32_t slot = 0;
  for (auto _ : state) {
    queue.Push(base + static_cast<SimTime>(rng.NextBounded(1000)), [] {});
    // The pair the simulation's run loop executes per event.
    queue.PopEntryIfNotAfter(INT64_MAX, &when, &slot);
    queue.InvokeAndReleaseSlot(slot);
    benchmark::DoNotOptimize(when);
    ++base;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1024)->Arg(65536);

void BM_RecordServiced(benchmark::State& state) {
  core::ProtocolParams params;
  core::HostAgent agent(0, 53, &params);
  agent.AddInitialReplica(1);
  const std::vector<NodeId> path{0, 7, 13, 21, 35};
  for (auto _ : state) {
    agent.RecordServiced(1, path);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordServiced);

void BM_PlacementRound(benchmark::State& state) {
  // One host deciding placement for 200 objects with populated counters.
  const auto objects = static_cast<ObjectId>(state.range(0));
  core::MatrixDistanceOracle oracle = MakeOracle(53);
  for (auto _ : state) {
    state.PauseTiming();
    core::ProtocolParams params;
    core::Cluster cluster(53, oracle, params, {0});
    Rng rng(4);
    for (ObjectId x = 0; x < objects; ++x) {
      cluster.PlaceInitialObject(x, 0);
      std::vector<NodeId> path{0,
                               static_cast<NodeId>(1 + rng.NextBounded(52))};
      for (int i = 0; i < 20; ++i) {
        cluster.host(0).RecordServiced(x, path);
      }
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        cluster.RunPlacement(0, SecondsToSim(100.0)));
  }
}
BENCHMARK(BM_PlacementRound)->Arg(50)->Arg(200)->Unit(benchmark::kMicrosecond);

void BM_DispatchRequestLoop(benchmark::State& state) {
  // Macro case: the full engine (dispatch -> arrive -> complete, periodic
  // ticks included) over the UUNET + Zipf configuration, measured as
  // simulated requests per wall second. The per-item rate here should
  // track bench/throughput's large scale.
  const double kSimSeconds = 10.0;
  std::int64_t requests = 0;
  for (auto _ : state) {
    state.PauseTiming();
    driver::SimConfig config;
    config.duration = SecondsToSim(kSimSeconds);
    config.workload = driver::WorkloadKind::kZipf;
    driver::HostingSimulation sim(config);
    state.ResumeTiming();
    const driver::RunReport report = sim.Run();
    requests += report.total_requests;
    benchmark::DoNotOptimize(report.total_requests);
  }
  state.SetItemsProcessed(requests);
}
BENCHMARK(BM_DispatchRequestLoop)->Unit(benchmark::kMillisecond);

// Object-table record: the shape HostAgent/Redirector keep per object.
struct LookupRecord {
  int aff = 1;
  std::int64_t rcnt = 0;
};

void BM_EntryLookupMap(benchmark::State& state) {
  // The pre-overhaul layout: per-object records behind a hash map. Every
  // probe hashes the id and chases at least one node pointer.
  constexpr ObjectId kObjects = 10'000;
  std::unordered_map<ObjectId, LookupRecord> table;
  table.reserve(kObjects);
  for (ObjectId x = 0; x < kObjects; ++x) table.emplace(x, LookupRecord{});
  Rng rng(11);
  for (auto _ : state) {
    const auto x = static_cast<ObjectId>(rng.NextBounded(kObjects));
    auto it = table.find(x);
    ++it->second.rcnt;
    benchmark::DoNotOptimize(it->second.rcnt);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EntryLookupMap);

void BM_EntryLookupSlab(benchmark::State& state) {
  // The slab layout (common/slab_map.h): dense id -> handle index in
  // front of chunked storage — two predictable loads, no hashing.
  constexpr ObjectId kObjects = 10'000;
  SlabMap<LookupRecord> table;
  for (ObjectId x = 0; x < kObjects; ++x) table.At(table.Insert(x)) = {};
  Rng rng(11);
  for (auto _ : state) {
    const auto x = static_cast<ObjectId>(rng.NextBounded(kObjects));
    LookupRecord* rec = table.Find(x);
    ++rec->rcnt;
    benchmark::DoNotOptimize(rec->rcnt);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EntryLookupSlab);

void BM_BatchedDispatch(benchmark::State& state) {
  // The batched-vs-per-event arrival pair. Arg 1 runs the stock Zipf
  // workload, which is time-invariant, so deterministic arrivals take the
  // batched GatewayArrivals path. Arg 0 wraps the same Zipf in a
  // DemandShiftWorkload whose shift never fires: draw-for-draw identical
  // requests, but time_invariant() is false, forcing the per-event
  // SchedulePeriodic path. The items/sec gap is the batching win.
  const bool batched = state.range(0) == 1;
  const double kSimSeconds = 10.0;
  std::int64_t requests = 0;
  for (auto _ : state) {
    state.PauseTiming();
    driver::SimConfig config;
    config.duration = SecondsToSim(kSimSeconds);
    config.workload = driver::WorkloadKind::kZipf;
    driver::HostingSimulation sim(config);
    if (!batched) {
      sim.SetWorkload(std::make_unique<workload::DemandShiftWorkload>(
          std::make_unique<workload::ZipfWorkload>(config.num_objects),
          std::make_unique<workload::ZipfWorkload>(config.num_objects),
          SecondsToSim(kSimSeconds * 1000)));
    }
    state.ResumeTiming();
    const driver::RunReport report = sim.Run();
    requests += report.total_requests;
    benchmark::DoNotOptimize(report.total_requests);
  }
  state.SetItemsProcessed(requests);
}
BENCHMARK(BM_BatchedDispatch)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
