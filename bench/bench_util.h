// Shared helpers for the per-figure/table benchmark binaries.
//
// Each bench binary regenerates one artefact of the paper's evaluation
// (Sec. 6.2). Since PR 3 the benches run through the experiment engine
// (src/runner): every binary builds an ExperimentPlan, executes it on a
// SweepRunner, and prints from the collected results — so independent
// runs execute concurrently under --jobs and the whole sweep can be
// archived as a schema-versioned JSON artefact with --json.
//
// Command line (every bench binary):
//   --jobs N      worker threads (0 = hardware concurrency;
//                 default $RADAR_BENCH_JOBS, else 1)
//   --json PATH   write the sweep's SweepJson document to PATH
//
// Environment knobs keep full paper-scale runs available without
// recompiling:
//   RADAR_BENCH_DURATION   simulated seconds per run (default 2400)
//   RADAR_BENCH_OBJECTS    objects in the system (default 10000)
//   RADAR_BENCH_SEED       root RNG seed (default 1)
//   RADAR_BENCH_JOBS       default worker-thread count
//   RADAR_BENCH_TOPOLOGY   backbone override: a "ts:"/"sf:" generator
//                          spec (net/topology_gen.h) or a topology file
//                          (default: the built-in UUNET backbone)
//   RADAR_BENCH_ORACLE     latency backend: auto|dense|sparse
//                          (default auto)
//
// Results are bit-identical for any --jobs value: per-run seeds come from
// the plan, and each simulation is self-contained.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "driver/config.h"
#include "driver/hosting_simulation.h"
#include "driver/report.h"
#include "runner/experiment_plan.h"
#include "runner/sweep_runner.h"

namespace radar::bench {

/// The four workloads of Sec. 6.1, in the paper's reporting order.
std::vector<driver::WorkloadKind> PaperWorkloads();

/// A SimConfig preset with Table 1 values and the environment overrides
/// applied.
driver::SimConfig PaperConfig();

/// A plan rooted at the bench seed with the paper's shared-root seeding
/// (every run sees the same workload realization, so policy comparisons
/// are paired — the paper's methodology).
runner::ExperimentPlan PaperPlan(const std::string& name);

struct BenchOptions {
  int jobs = 1;           ///< worker threads; 0 = hardware concurrency
  std::string json_path;  ///< empty = no JSON artefact
  std::string fault_plan_file;  ///< empty = perfect world
  int replica_floor = 0;        ///< 0 = no self-healing floor
  /// Backbone override: a "ts:"/"sf:" generator spec or a topology file;
  /// empty = the built-in UUNET backbone. See MakeBenchTopology.
  std::string topology;
};

/// Parses --jobs/--json/--fault-plan/--replica-floor/--topology/--oracle
/// (either "--flag value" or "--flag=value") plus --help. jobs defaults
/// to $RADAR_BENCH_JOBS, topology to $RADAR_BENCH_TOPOLOGY, oracle to
/// $RADAR_BENCH_ORACLE. --oracle also exports its environment variable
/// so PaperConfig() (called after parsing in every bench) picks the value
/// up without per-binary plumbing. Prints usage and exits(2) on a
/// malformed command line, exits(0) on --help.
BenchOptions ParseBenchArgs(int argc, char** argv);

/// The backbone selected by options.topology: the UUNET default when
/// empty, a generated topology for a "ts:"/"sf:" spec, or a file load
/// (exits(2) on failure, matching radar_sim).
net::Topology MakeBenchTopology(const BenchOptions& options);

/// Loads options.fault_plan_file (when set) and copies the plan plus
/// options.replica_floor into the config. Exits(2) on a parse failure so
/// bench binaries share radar_sim's failure behaviour.
void ApplyFaultOptions(const BenchOptions& options,
                       driver::SimConfig* config);

/// Executes the plan with options.jobs threads; writes SweepJson to
/// options.json_path when set (exits(1) on I/O failure). Progress and
/// wall-clock go to stderr so stdout — the printed artefact — stays
/// byte-identical across job counts.
runner::SweepResult RunSweep(const runner::ExperimentPlan& plan,
                             const BenchOptions& options);

/// Prints the standard bench header: which figure/table, parameters used.
void PrintHeader(std::ostream& os, const std::string& artefact,
                 const driver::SimConfig& config);

/// Reads an environment variable as double, with a default.
double EnvOr(const char* name, double fallback);

}  // namespace radar::bench
