// radar_sim: run the hosting-platform simulation from the command line.
//
//   radar_sim --workload=regional --duration=1800 --series
//   radar_sim --topology=my_backbone.txt --trace=requests.trace
//   radar_sim --topology=ts:n=10000,seed=7 --objects=100000 --duration=60
//   radar_sim --workload=zipf --json=report.json
//
// Execution goes through the experiment engine (src/runner): the run is a
// one-entry ExperimentPlan rooted at --seed, so the CLI shares the bench
// binaries' machinery (and their --jobs/--json semantics) and its JSON
// artefact is the same schema-versioned ReportJson document.
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "driver/cli.h"
#include "driver/hosting_simulation.h"
#include "driver/report_json.h"
#include "fault/fault_plan.h"
#include "net/topology_gen.h"
#include "net/topology_io.h"
#include "runner/experiment_plan.h"
#include "runner/sweep_runner.h"

int main(int argc, char** argv) {
  using namespace radar;

  std::vector<std::string> args(argv + 1, argv + argc);
  driver::CliError error;
  const auto options = driver::ParseCli(args, &error);
  if (!options) {
    std::cerr << "error: " << error.message << "\n\n" << driver::CliUsage();
    return 2;
  }
  if (options->show_help) {
    std::cout << driver::CliUsage();
    return 0;
  }

  std::shared_ptr<net::Topology> topology;
  if (net::IsTopologySpec(options->topology_file)) {
    // A "ts:" / "sf:" generator spec (net/topology_gen.h): synthesize the
    // backbone instead of loading a file.
    topology =
        std::make_shared<net::Topology>(net::GenerateTopology(
            options->topology_file));
  } else if (!options->topology_file.empty()) {
    std::ifstream in(options->topology_file);
    if (!in) {
      std::cerr << "error: cannot open topology file '"
                << options->topology_file << "'\n";
      return 2;
    }
    std::string parse_error;
    auto parsed = net::ReadTopology(in, &parse_error);
    if (!parsed) {
      std::cerr << "error: " << options->topology_file << ": "
                << parse_error << "\n";
      return 2;
    }
    topology = std::make_shared<net::Topology>(*std::move(parsed));
  }

  std::shared_ptr<workload::RequestTrace> trace;
  if (!options->trace_file.empty()) {
    std::ifstream in(options->trace_file);
    if (!in) {
      std::cerr << "error: cannot open trace file '" << options->trace_file
                << "'\n";
      return 2;
    }
    std::string parse_error;
    auto parsed = workload::RequestTrace::Load(in, &parse_error);
    if (!parsed) {
      std::cerr << "error: " << options->trace_file << ": " << parse_error
                << "\n";
      return 2;
    }
    trace = std::make_shared<workload::RequestTrace>(*std::move(parsed));
  }

  driver::SimConfig run_config = options->config;
  if (!options->fault_plan_file.empty()) {
    std::string parse_error;
    auto parsed = fault::ParseFaultPlanFile(options->fault_plan_file,
                                            &parse_error);
    if (!parsed) {
      std::cerr << "error: " << options->fault_plan_file << ": "
                << parse_error << "\n";
      return 2;
    }
    run_config.faults = *std::move(parsed);
  }

  runner::ExperimentPlan plan("radar_sim", run_config.seed,
                              runner::SeedPolicy::kSharedRoot);
  plan.AddCustom(
      driver::WorkloadKindName(run_config.workload), run_config,
      [topology, trace](const driver::SimConfig& config) {
        driver::HostingSimulation sim =
            topology != nullptr
                ? driver::HostingSimulation(config, *topology)
                : driver::HostingSimulation(config);
        if (trace != nullptr) sim.SetTrace(*trace);
        return sim.Run();
      });

  const runner::SweepResult sweep =
      runner::SweepRunner(options->jobs).Run(plan);
  const driver::RunReport& report = sweep.runs[0].report;

  report.PrintSummary(std::cout);
  if (options->print_series) {
    std::cout << "\n";
    report.PrintSeries(std::cout);
  }
  if (!options->json_file.empty()) {
    std::string write_error;
    if (!driver::WriteJsonFile(options->json_file,
                               driver::ReportJson(report), &write_error)) {
      std::cerr << "error: " << write_error << "\n";
      return 1;
    }
  }
  return 0;
}
