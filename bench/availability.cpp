// Availability under faults: how the replica floor trades repair traffic
// for unavailability as the host crash rate grows.
//
// Not a figure from the paper — the paper assumes a perfect platform —
// but the natural follow-up question for a hosting service: Sec. 2 argues
// replication is also the availability mechanism, so this bench sweeps
// host MTBF x replica floor on the UUNET backbone (zipf workload, mild
// link faults and control-message loss always on) and reports the
// availability block of each run. The plan quiesces at 80% of the run so
// the end-of-run invariant (every object back at its floor, zero lost)
// is part of what the sweep checks.
//
// Emits BENCH_avail.json (SweepJson; per-run "availability" objects) —
// --json overrides the path. --fault-plan replaces the built-in base
// plan; --replica-floor restricts the floor sweep to one value.
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "fault/fault_plan.h"

int main(int argc, char** argv) {
  using namespace radar;
  bench::BenchOptions options =
      bench::ParseBenchArgs(argc, argv, /*fault_flags=*/true);
  if (options.json_path.empty()) options.json_path = "BENCH_avail.json";

  driver::SimConfig base = bench::PaperConfig();
  bench::ApplyFaultOptions(options, &base);
  if (base.faults.Empty()) {
    // The built-in chaos baseline: link flaps and lossy control messages
    // are always on; the host crash rate is the swept dimension.
    base.faults.link_faults = {/*mtbf_s=*/900.0, /*mttr_s=*/45.0};
    base.faults.SetDropProb(fault::MessageClass::kRequest, 0.01);
    base.faults.SetDropProb(fault::MessageClass::kReplicate, 0.02);
    base.faults.SetDropProb(fault::MessageClass::kMigrate, 0.02);
    base.faults.SetDropProb(fault::MessageClass::kAck, 0.02);
  }
  base.faults.quiesce_at = base.duration - base.duration / 5;

  const double mttr_s = 60.0;
  const std::vector<double> host_mtbfs_s = {1200.0, 600.0, 300.0};
  const std::vector<int> floors = options.replica_floor > 0
                                      ? std::vector<int>{options.replica_floor}
                                      : std::vector<int>{1, 2, 3};

  bench::PrintHeader(std::cout, "Availability: host MTBF x replica floor",
                     base);

  runner::ExperimentPlan plan = bench::PaperPlan("availability");
  for (const double host_mtbf_s : host_mtbfs_s) {
    for (const int floor : floors) {
      driver::SimConfig config = base;
      config.faults.host_faults = {host_mtbf_s, mttr_s};
      config.replica_floor = floor;
      plan.Add("mtbf" + std::to_string(static_cast<int>(host_mtbf_s)) +
                   "/floor" + std::to_string(floor),
               config);
    }
  }

  const runner::SweepResult sweep = bench::RunSweep(plan, options);

  std::cout << "mtbf(s) floor  crashes  failed-req  windows  unavail-obj-s"
               "  mean-ttr(s)  restored  lost\n";
  std::size_t run = 0;
  for (const double host_mtbf_s : host_mtbfs_s) {
    for (const int floor : floors) {
      const driver::AvailabilityReport& a =
          sweep.runs[run++].report.availability;
      std::cout << std::fixed << std::setprecision(0) << std::setw(7)
                << host_mtbf_s << std::setw(6) << floor << std::setw(9)
                << a.host_crashes << std::setw(12) << a.failed_requests
                << std::setw(9) << a.unavailability_windows
                << std::setprecision(1) << std::setw(15)
                << a.unavailable_object_seconds << std::setw(13)
                << a.mean_time_to_repair_s << std::setw(10)
                << a.replicas_restored << std::setw(6) << a.objects_lost
                << "\n";
    }
  }
  return 0;
}
