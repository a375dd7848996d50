#include "runner/sweep_runner.h"

#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include "common/check.h"
#include "driver/hosting_simulation.h"
#include "runner/thread_pool.h"

namespace radar::runner {

SweepRunner::SweepRunner(int jobs) : jobs_(jobs) {
  if (jobs_ <= 0) {
    jobs_ = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs_ <= 0) jobs_ = 1;
  }
}

SweepResult SweepRunner::Run(const ExperimentPlan& plan) const {
  const auto start = std::chrono::steady_clock::now();

  SweepResult result;
  result.plan_name = plan.name();
  result.root_seed = plan.root_seed();
  result.seed_policy = plan.seed_policy();

  const std::vector<ExperimentRun>& runs = plan.runs();
  // One pre-assigned slot per run: tasks complete in any order, but each
  // writes only its own slot, so assembly below is in plan order.
  std::vector<std::optional<RunResult>> slots(runs.size());
  {
    ThreadPool pool(jobs_);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      pool.Submit([&runs, &plan, &slots, i] {
        const ExperimentRun& run = runs[i];
        driver::SimConfig config = run.config;
        config.seed = plan.SeedFor(i);
        driver::RunReport report =
            run.execute != nullptr ? run.execute(config)
                                   : driver::HostingSimulation(config).Run();
        slots[i].emplace(RunResult{run.name, config.seed, std::move(report)});
      });
    }
    pool.Wait();
  }

  result.runs.reserve(slots.size());
  for (std::optional<RunResult>& slot : slots) {
    RADAR_CHECK(slot.has_value());
    result.runs.push_back(std::move(*slot));
  }

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

driver::JsonValue SweepJson(const SweepResult& result) {
  driver::JsonValue doc = driver::JsonValue::MakeObject();
  doc.Set("schema", std::string(kSweepSchema));
  doc.Set("plan", result.plan_name);
  doc.Set("root_seed", std::to_string(result.root_seed));
  doc.Set("seed_policy", SeedPolicyName(result.seed_policy));
  doc.Set("num_runs", static_cast<std::int64_t>(result.runs.size()));
  driver::JsonValue runs = driver::JsonValue::MakeArray();
  for (const RunResult& run : result.runs) {
    driver::JsonValue entry = driver::JsonValue::MakeObject();
    entry.Set("name", run.name);
    entry.Set("seed", std::to_string(run.seed));
    entry.Set("report", driver::ReportJson(run.report));
    runs.Append(std::move(entry));
  }
  doc.Set("runs", std::move(runs));
  return doc;
}

}  // namespace radar::runner
