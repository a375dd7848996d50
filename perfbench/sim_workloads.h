// The simulator workloads: topology, object population, request mix and
// run length of each, from the paper's Sec. 6 and the ROADMAP's scale
// point. Every one runs the serial engine with the default oracle choice.
// Also the request accounting both simulator drivers check a run with.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "driver/config.h"
#include "driver/hosting_simulation.h"
#include "driver/report.h"
#include "net/topology.h"
#include "net/topology_gen.h"
#include "net/uunet.h"
#include "workload/workload.h"

namespace perfbench {

struct SimWorkload {
  const char* name;
  const char* topology;  ///< generator spec; empty = the 53-node UUNET
  radar::ObjectId objects;
  radar::driver::WorkloadKind kind;
  bool high_load;       ///< Fig. 9 watermarks (hw=50, lw=40)
  double sim_seconds;   ///< simulated length of one repetition
};

inline constexpr SimWorkload kSimWorkloads[] = {
    // Table 1: 53-node UUNET, 10^4 objects, Zipf, 40 req/s per gateway,
    // long enough to adapt into equilibrium.
    {"uunet-zipf", "", 10'000, radar::driver::WorkloadKind::kZipf, false,
     1200.0},
    // Internet scale: 10k-node transit-stub, 10^6 objects, sparse oracle.
    // Run by hand through perfbench_sim; BENCHMARK.json leaves it out (its
    // host-time spread on a shared VM exceeds the bounds, see README.md).
    {"ts10k-1m", "ts:n=10000,seed=7", 1'000'000,
     radar::driver::WorkloadKind::kZipf, false, 300.0},
    // Fig. 9: hot sites under the high-load watermarks.
    {"uunet-hotsites-highload", "", 10'000,
     radar::driver::WorkloadKind::kHotSites, true, 1200.0},
};

inline const SimWorkload* FindSimWorkload(const std::string& name) {
  for (const SimWorkload& w : kSimWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

inline radar::driver::SimConfig MakeConfig(const SimWorkload& w,
                                           std::uint64_t seed) {
  radar::driver::SimConfig config;
  config.num_objects = w.objects;
  config.workload = w.kind;
  config.duration = radar::SecondsToSim(w.sim_seconds);
  config.seed = seed;
  if (w.high_load) config.ApplyHighLoad();
  return config;
}

/// The request mix, handed to HostingSimulation::SetWorkload. Which tenth
/// of the nodes is hot is part of the workload, not of the seed: it
/// decides whether hosts saturate (the mean simulated latency ranges from
/// ~2 s to ~97 s across hot-site draws), so every seed uses the sites the
/// engine itself draws for seed 1; the seed varies the requests.
std::unique_ptr<radar::workload::Workload> MakeWorkload(
    const SimWorkload& w, const radar::net::Topology& topology);

inline radar::net::Topology MakeTopology(const SimWorkload& w) {
  return w.topology[0] == '\0' ? radar::net::MakeUunetBackbone()
                               : radar::net::GenerateTopology(w.topology);
}

/// Requests every gateway generates in [0, until]: deterministic arrivals
/// fire at phase + k * period (HostingSimulation::ScheduleArrivals).
std::int64_t GeneratedRequests(const radar::net::Topology& topology,
                               const radar::driver::SimConfig& config,
                               radar::SimTime until);

/// Where a finished run's requests are, from public state only: completed,
/// dropped and failed from the report; queued = admitted to an FCFS host
/// but unfinished (each host's backlog tail, exact); in_transit = the rest,
/// still on their control legs, which must lie in [0, transit_bound] —
/// the arrivals of the last four worst-case control paths (one leg plus up
/// to three redirect retries).
struct RequestAccount {
  std::int64_t generated = 0;
  std::int64_t completed = 0;
  std::int64_t dropped = 0;
  std::int64_t failed = 0;
  std::int64_t queued = 0;
  std::int64_t in_transit = 0;
  std::int64_t transit_bound = 0;
  bool balanced() const { return in_transit >= 0 && in_transit <= transit_bound; }
  std::string Detail() const;
};
RequestAccount AccountRequests(const radar::driver::HostingSimulation& sim,
                               const radar::driver::SimConfig& config,
                               const radar::driver::RunReport& report,
                               std::int64_t generated);

}  // namespace perfbench
