#include "bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <ostream>

#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "net/uunet.h"

namespace radar::bench {
namespace {

[[noreturn]] void UsageAndExit(const char* argv0, bool fault_flags,
                               int code) {
  std::fprintf(
      stderr,
      "usage: %s [--jobs N] [--json PATH]%s\n"
      "  --jobs N           worker threads (0 = hardware concurrency;\n"
      "                     default $RADAR_BENCH_JOBS, else 1)\n"
      "  --json PATH        write the sweep as a SweepJson document\n",
      argv0, fault_flags ? " [--fault-plan FILE] [--replica-floor K]" : "");
  if (fault_flags) {
    std::fprintf(
        stderr,
        "  --fault-plan FILE  inject faults (see fault/fault_plan.h)\n"
        "  --replica-floor K  re-replicate objects below K live copies\n");
  }
  std::exit(code);
}

// Only the availability bench applies the fault flags; any other bench
// would ignore them and print a perfect-world artefact.
[[noreturn]] void FaultFlagAndExit(const char* argv0, const char* flag) {
  std::fprintf(stderr, "%s: %s applies only to the availability bench\n",
               argv0, flag);
  std::exit(2);
}

}  // namespace

double EnvOr(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  return end != value ? parsed : fallback;
}

std::vector<driver::WorkloadKind> PaperWorkloads() {
  return {driver::WorkloadKind::kZipf, driver::WorkloadKind::kHotSites,
          driver::WorkloadKind::kHotPages, driver::WorkloadKind::kRegional};
}

driver::SimConfig PaperConfig() {
  driver::SimConfig config;
  config.duration = SecondsToSim(EnvOr("RADAR_BENCH_DURATION", 2400.0));
  config.num_objects =
      static_cast<ObjectId>(EnvOr("RADAR_BENCH_OBJECTS", 10000.0));
  config.seed = static_cast<std::uint64_t>(EnvOr("RADAR_BENCH_SEED", 1.0));
  return config;
}

runner::ExperimentPlan PaperPlan(const std::string& name) {
  return runner::ExperimentPlan(
      name, static_cast<std::uint64_t>(EnvOr("RADAR_BENCH_SEED", 1.0)),
      runner::SeedPolicy::kSharedRoot);
}

BenchOptions ParseBenchArgs(int argc, char** argv, bool fault_flags) {
  BenchOptions options;
  options.jobs = static_cast<int>(EnvOr("RADAR_BENCH_JOBS", 1.0));

  const auto value_of = [&](int* i, const std::string& arg,
                            const std::string& flag) -> std::string {
    const std::string prefix = flag + "=";
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
    if (*i + 1 >= argc) {
      std::fprintf(stderr, "%s: %s needs a value\n", argv[0], flag.c_str());
      UsageAndExit(argv[0], fault_flags, 2);
    }
    return argv[++*i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      UsageAndExit(argv[0], fault_flags, 0);
    } else if (arg == "--jobs" || arg.rfind("--jobs=", 0) == 0) {
      const std::string value = value_of(&i, arg, "--jobs");
      char* end = nullptr;
      const long parsed = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || parsed < 0) {
        std::fprintf(stderr, "%s: --jobs must be a non-negative integer\n",
                     argv[0]);
        UsageAndExit(argv[0], fault_flags, 2);
      }
      options.jobs = static_cast<int>(parsed);
    } else if (arg == "--json" || arg.rfind("--json=", 0) == 0) {
      options.json_path = value_of(&i, arg, "--json");
      if (options.json_path.empty()) {
        std::fprintf(stderr, "%s: --json needs a path\n", argv[0]);
        UsageAndExit(argv[0], fault_flags, 2);
      }
    } else if (arg == "--fault-plan" || arg.rfind("--fault-plan=", 0) == 0) {
      if (!fault_flags) FaultFlagAndExit(argv[0], "--fault-plan");
      options.fault_plan_file = value_of(&i, arg, "--fault-plan");
      if (options.fault_plan_file.empty()) {
        std::fprintf(stderr, "%s: --fault-plan needs a path\n", argv[0]);
        UsageAndExit(argv[0], fault_flags, 2);
      }
    } else if (arg == "--replica-floor" ||
               arg.rfind("--replica-floor=", 0) == 0) {
      if (!fault_flags) FaultFlagAndExit(argv[0], "--replica-floor");
      const std::string value = value_of(&i, arg, "--replica-floor");
      char* end = nullptr;
      const long parsed = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || parsed < 0) {
        std::fprintf(stderr,
                     "%s: --replica-floor must be a non-negative integer\n",
                     argv[0]);
        UsageAndExit(argv[0], fault_flags, 2);
      }
      options.replica_floor = static_cast<int>(parsed);
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0],
                   arg.c_str());
      UsageAndExit(argv[0], fault_flags, 2);
    }
  }
  return options;
}

void ApplyFaultOptions(const BenchOptions& options,
                       driver::SimConfig* config) {
  config->replica_floor = options.replica_floor;
  if (options.fault_plan_file.empty()) return;
  std::string error;
  auto plan = fault::ParseFaultPlanFile(options.fault_plan_file, &error);
  // Every bench run simulates the UUNET backbone.
  if (!plan ||
      !fault::PlanFitsGraph(*plan, net::MakeUunetBackbone().graph(), &error)) {
    std::fprintf(stderr, "error: %s: %s\n", options.fault_plan_file.c_str(),
                 error.c_str());
    std::exit(2);
  }
  config->faults = *std::move(plan);
}

runner::SweepResult RunSweep(const runner::ExperimentPlan& plan,
                             const BenchOptions& options) {
  const runner::SweepRunner engine(options.jobs);
  std::fprintf(stderr, "[%s] %zu run(s), jobs=%d\n", plan.name().c_str(),
               plan.size(), engine.jobs());
  runner::SweepResult result = engine.Run(plan);
  std::fprintf(stderr, "[%s] sweep finished in %.2fs wall\n",
               plan.name().c_str(), result.wall_seconds);
  if (!options.json_path.empty()) {
    std::string error;
    if (!driver::WriteJsonFile(options.json_path, runner::SweepJson(result),
                               &error)) {
      std::fprintf(stderr, "[%s] %s\n", plan.name().c_str(), error.c_str());
      std::exit(1);
    }
    std::fprintf(stderr, "[%s] wrote %s\n", plan.name().c_str(),
                 options.json_path.c_str());
  }
  return result;
}

void PrintHeader(std::ostream& os, const std::string& artefact,
                 const driver::SimConfig& config) {
  os << "==== " << artefact << " ====\n";
  os << "Table 1 parameters: objects=" << config.num_objects
     << " object-size=" << config.object_bytes << "B"
     << " node-rate=" << config.node_request_rate << "req/s"
     << " capacity=" << config.server_capacity << "req/s"
     << " hw=" << config.protocol.high_watermark
     << " lw=" << config.protocol.low_watermark
     << " u=" << config.protocol.deletion_threshold_u
     << " m=" << config.protocol.replication_threshold_m << "\n";
  os << "run: duration=" << SimToSeconds(config.duration)
     << "s seed=" << config.seed << "\n\n";
}

}  // namespace radar::bench
