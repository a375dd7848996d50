// Ablation A5: redirector placement and partitioning.
//
// Every request detours through its object's redirector, so redirector
// placement adds latency (the paper: "In future, we plan to explore the
// problem of optimally placing redirectors for different objects in order
// to minimize the added latency due to them"). This bench sweeps the
// number of hash-partitioned redirectors (placed at the most central
// nodes, best-first).
#include <iomanip>
#include <iostream>
#include <vector>

#include "bench_util.h"

namespace {

// A custom topology is not needed; instead we measure the detour length
// directly: mean over gateways of hops(gateway, redirector-of-x) for the
// objects each redirector serves.
double MeanDetourHops(const radar::driver::HostingSimulation& sim,
                      int redirectors) {
  using namespace radar;
  double total = 0.0;
  std::int64_t count = 0;
  for (int r = 0; r < redirectors; ++r) {
    const NodeId home = sim.redirector_home(r);
    for (NodeId g = 0; g < sim.topology().num_nodes(); ++g) {
      total += sim.net_model().HopDistance(g, home);
      ++count;
    }
  }
  return total / static_cast<double>(count);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace radar;
  const bench::BenchOptions options = bench::ParseBenchArgs(argc, argv);
  driver::SimConfig base = bench::PaperConfig();
  base.workload = driver::WorkloadKind::kZipf;
  bench::PrintHeader(std::cout,
                     "Ablation A5: redirector count and placement (zipf)",
                     base);

  const int counts[] = {1, 2, 4, 8};
  // Detour length is a pure function of the config; each executor fills
  // its own slot, so concurrent runs never touch shared state.
  std::vector<double> detours(std::size(counts), 0.0);

  runner::ExperimentPlan plan = bench::PaperPlan("ablation_redirectors");
  for (std::size_t i = 0; i < std::size(counts); ++i) {
    driver::SimConfig config = base;
    config.num_redirectors = counts[i];
    plan.AddCustom("redirectors=" + std::to_string(counts[i]), config,
                   [&detours, i](const driver::SimConfig& c) {
                     driver::HostingSimulation sim(c);
                     detours[i] = MeanDetourHops(sim, c.num_redirectors);
                     return sim.Run();
                   });
  }

  const runner::SweepResult sweep = bench::RunSweep(plan, options);

  std::cout << "  redirectors  detour(hops)  latency(s)  bw(byte-hops/s)\n";
  for (std::size_t i = 0; i < sweep.runs.size(); ++i) {
    const driver::RunReport& report = sweep.runs[i].report;
    std::cout << std::fixed << std::setw(13) << counts[i] << std::setw(14)
              << std::setprecision(2) << detours[i] << std::setw(12)
              << std::setprecision(4) << report.EquilibriumLatency()
              << std::setw(17) << std::setprecision(0)
              << report.EquilibriumBandwidthRate() << "\n";
  }
  std::cout << "\n  (expected: more redirectors spread control load without"
            << " hurting latency —\n   the added hops stay near the"
            << " single-central-node detour; request routing\n   dominates"
            << " neither bandwidth nor equilibrium placement)\n";
  return 0;
}
