// Simulator workloads of the RaDaR benchmark.
//
//   perfbench_sim --workload uunet-zipf --seed 1 --seconds 10 --trace 0
//
// Gated mode (--trace 0) repeats one seeded simulation until the time
// budget is spent. Each repetition builds the platform (topology, then
// HostingSimulation, then StepUntil(0) — the set-up time), then steps
// through the run in 1200 equal slices and finalizes the report (the
// timed phase). The calibration kernel (bench_common.h) runs before and
// after every repetition, and the timed phase's host times are converted
// to reference seconds with the mean of the two; set-up, dominated by
// allocation and page faults that the kernel does not exercise, stays in
// wall seconds. Metrics are medians over repetitions; the deterministic
// counters must repeat exactly across them.
//
// Traced mode (--trace 1) runs the layer replay in trace_replay.cpp and
// prints the per-layer metrics instead.
#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "driver/hosting_simulation.h"
#include "sim_workloads.h"
#include "trace_replay.h"

namespace perfbench {
namespace {

using radar::NodeId;
using radar::ObjectId;
using radar::SimTime;

std::int64_t ObjectsWithoutReplica(const radar::driver::HostingSimulation& sim,
                                   ObjectId num_objects) {
  std::vector<char> hosted(static_cast<std::size_t>(num_objects), 0);
  for (NodeId n = 0; n < sim.topology().num_nodes(); ++n) {
    for (const ObjectId x : sim.cluster().host(n).Objects()) {
      hosted[static_cast<std::size_t>(x)] = 1;
    }
  }
  return std::count(hosted.begin(), hosted.end(), 0);
}

constexpr SimTime kSlices = 1200;

struct Rep {
  double scale = 1.0;    ///< reference seconds per measured second
  double total_s = 0.0;  ///< calibration included, for the time budget
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> slice_us;
  std::int64_t completed = 0;
  std::int64_t events = 0;
};

int RunGated(const SimWorkload& w, const Args& args) {
  Result result;
  const radar::driver::SimConfig config = MakeConfig(w, args.seed);
  const double deadline = WallSeconds() + args.seconds;
  Calibration calibration;
  std::vector<Rep> reps;
  // At least three repetitions so every median has a middle; after that,
  // only repetitions that should end inside the budget.
  while (reps.size() < 3 || WallSeconds() + reps.back().total_s < deadline) {
    Rep rep;
    const double start = WallSeconds();
    const double kernel_before = calibration.Run();
    const double t0 = WallSeconds();
    auto sim = std::make_unique<radar::driver::HostingSimulation>(
        config, MakeTopology(w));
    sim->SetWorkload(MakeWorkload(w, sim->topology()));
    sim->StepUntil(0);
    rep.setup_s = WallSeconds() - t0;

    const double cpu0 = ProcessCpuSeconds();
    const double w0 = WallSeconds();
    double last = w0;
    // kSlices equal slices: p99 then has 12 slices beyond it.
    const SimTime slice = config.duration / kSlices;
    for (SimTime t = slice; t < kSlices * slice; t += slice) {
      sim->StepUntil(t);
      const double now = WallSeconds();
      rep.slice_us.push_back((now - last) * 1e6);
      last = now;
    }
    const radar::driver::RunReport report = sim->Finalize();
    const double w1 = WallSeconds();
    rep.wall_s = w1 - w0;
    rep.cpu_s = ProcessCpuSeconds() - cpu0;
    rep.slice_us.push_back((w1 - last) * 1e6);
    rep.scale = Calibration::Scale(0.5 * (kernel_before + calibration.Run()));
    rep.total_s = WallSeconds() - start;
    rep.completed = report.total_requests;
    rep.events = static_cast<std::int64_t>(sim->events_executed());

    if (reps.empty()) {
      // Correctness, once per seed (every repetition is the same run).
      const RequestAccount account = AccountRequests(
          *sim, config, report,
          GeneratedRequests(sim->topology(), config, config.duration));
      result.Check("generated == completed + dropped + failed + queued + "
                   "in_transit, 0 <= in_transit <= bound",
                   account.balanced(), account.Detail());
      const std::int64_t lost = ObjectsWithoutReplica(*sim, config.num_objects);
      result.Check("objects_lost == 0", lost == 0,
                   "objects_lost=" + std::to_string(lost));
      result.set_attempted(account.generated);
      result.set_failed(account.dropped + account.failed);
      const double completed = static_cast<double>(report.total_requests);
      result.Metric("mean_latency_ms", report.latency_stats.mean() * 1e3, "ms");
      result.Metric(
          "kbhops_per_req",
          static_cast<double>(report.traffic.total_payload() +
                              report.traffic.total_overhead()) /
              1024.0 / completed,
          "KB.hop");
      result.Info("completed", report.total_requests);
      result.Info("events", rep.events);
      result.Info("final_avg_replicas", report.final_avg_replicas);
    }
    sim.reset();
    reps.push_back(std::move(rep));
  }
  const Rep& first = reps.front();
  const bool repeats = std::all_of(reps.begin(), reps.end(), [&](const Rep& r) {
    return r.completed == first.completed && r.events == first.events;
  });
  result.Check("every repetition repeats total_requests and events_executed",
               repeats,
               "total_requests=" + std::to_string(first.completed) +
                   " events=" + std::to_string(first.events) + " repetitions=" +
                   std::to_string(reps.size()));

  // Timed-phase host times in reference seconds; wall figures go to info.
  std::vector<double> req_per_s, req_per_cpu_s, setup_s, wall_req_per_s,
      scales;
  for (const Rep& rep : reps) {
    const auto completed = static_cast<double>(rep.completed);
    req_per_s.push_back(completed / (rep.wall_s * rep.scale));
    req_per_cpu_s.push_back(completed / (rep.cpu_s * rep.scale));
    setup_s.push_back(rep.setup_s);
    wall_req_per_s.push_back(completed / rep.wall_s);
    scales.push_back(rep.scale);
  }
  // Every repetition simulates the same seconds, so each slice's cost is
  // its median over repetitions: a burst of interference in one
  // repetition cannot become the tail, while the slices that really carry
  // placement rounds and measurement ticks do.
  std::vector<double> slice_us(first.slice_us.size());
  for (std::size_t i = 0; i < slice_us.size(); ++i) {
    std::vector<double> samples;
    for (const Rep& rep : reps) samples.push_back(rep.slice_us[i] * rep.scale);
    slice_us[i] = Median(std::move(samples));
  }
  result.Metric("req_per_s", Median(req_per_s), "1/s");
  result.Metric("req_per_cpu_s", Median(req_per_cpu_s), "1/s");
  result.Metric("latency_p50_us", PercentileOf(slice_us, 50.0), "us");
  result.Metric("latency_p99_us", PercentileOf(slice_us, 99.0), "us");
  result.Metric("setup_s", Median(setup_s), "s");
  result.Metric("peak_rss_mb", PeakRssMb(), "MB");
  result.Info("repetitions", static_cast<std::int64_t>(reps.size()));
  const auto array = [](const std::vector<double>& values) {
    radar::driver::JsonValue a = radar::driver::JsonValue::MakeArray();
    for (const double v : values) a.Append(v);
    return a;
  };
  result.Info("req_per_s_by_repetition", array(req_per_s));
  result.Info("scale_by_repetition", array(scales));
  result.Info("wall_req_per_s", Median(wall_req_per_s));
  result.Info("latency_samples", static_cast<std::int64_t>(slice_us.size()));
  result.Info("latency_sample",
              "time of one 1/1200 slice of the simulated run in reference "
              "microseconds, median over repetitions");
  std::cout << result.Dump() << "\n";
  return result.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return 2;
  const perfbench::SimWorkload* w = perfbench::FindSimWorkload(args.workload);
  if (w == nullptr) {
    std::cerr << "perfbench_sim: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  return args.trace ? perfbench::RunTraced(*w, args)
                    : perfbench::RunGated(*w, args);
}
