#include "bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>

#include "fault/fault_plan.h"
#include "net/topology_gen.h"
#include "net/topology_io.h"
#include "net/uunet.h"

namespace radar::bench {
namespace {

[[noreturn]] void UsageAndExit(const char* argv0, int code) {
  std::fprintf(
      stderr,
      "usage: %s [--jobs N] [--json PATH] [--fault-plan FILE]"
      " [--replica-floor K] [--topology SPEC|FILE]"
      " [--oracle KIND]\n"
      "  --jobs N           worker threads (0 = hardware concurrency;\n"
      "                     default $RADAR_BENCH_JOBS, else 1)\n"
      "  --json PATH        write the sweep as a SweepJson document\n"
      "  --fault-plan FILE  inject faults (see fault/fault_plan.h)\n"
      "  --replica-floor K  re-replicate objects below K live copies\n"
      "  --topology S       backbone: a ts:/sf: generator spec or a\n"
      "                     topology file (default $RADAR_BENCH_TOPOLOGY,\n"
      "                     else the built-in UUNET backbone)\n"
      "  --oracle KIND      auto|dense|sparse latency backend (default\n"
      "                     $RADAR_BENCH_ORACLE, else auto)\n",
      argv0);
  std::exit(code);
}

std::string EnvStrOr(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' ? value : fallback;
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
  const std::string oracle = EnvStrOr("RADAR_BENCH_ORACLE", "auto");
  if (oracle == "dense") {
    config.oracle = net::OracleKind::kDense;
  } else if (oracle == "sparse") {
    config.oracle = net::OracleKind::kSparse;
  } else {
    config.oracle = net::OracleKind::kAuto;
  }
  return config;
}

runner::ExperimentPlan PaperPlan(const std::string& name) {
  return runner::ExperimentPlan(
      name, static_cast<std::uint64_t>(EnvOr("RADAR_BENCH_SEED", 1.0)),
      runner::SeedPolicy::kSharedRoot);
}

BenchOptions ParseBenchArgs(int argc, char** argv) {
  BenchOptions options;
  options.jobs = static_cast<int>(EnvOr("RADAR_BENCH_JOBS", 1.0));
  options.topology = EnvStrOr("RADAR_BENCH_TOPOLOGY", "");

  const auto value_of = [&](int* i, const std::string& arg,
                            const std::string& flag) -> std::string {
    const std::string prefix = flag + "=";
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
    if (*i + 1 >= argc) {
      std::fprintf(stderr, "%s: %s needs a value\n", argv[0], flag.c_str());
      UsageAndExit(argv[0], 2);
    }
    return argv[++*i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      UsageAndExit(argv[0], 0);
    } else if (arg == "--jobs" || arg.rfind("--jobs=", 0) == 0) {
      const std::string value = value_of(&i, arg, "--jobs");
      char* end = nullptr;
      const long parsed = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || parsed < 0) {
        std::fprintf(stderr, "%s: --jobs must be a non-negative integer\n",
                     argv[0]);
        UsageAndExit(argv[0], 2);
      }
      options.jobs = static_cast<int>(parsed);
    } else if (arg == "--json" || arg.rfind("--json=", 0) == 0) {
      options.json_path = value_of(&i, arg, "--json");
      if (options.json_path.empty()) {
        std::fprintf(stderr, "%s: --json needs a path\n", argv[0]);
        UsageAndExit(argv[0], 2);
      }
    } else if (arg == "--fault-plan" || arg.rfind("--fault-plan=", 0) == 0) {
      options.fault_plan_file = value_of(&i, arg, "--fault-plan");
      if (options.fault_plan_file.empty()) {
        std::fprintf(stderr, "%s: --fault-plan needs a path\n", argv[0]);
        UsageAndExit(argv[0], 2);
      }
    } else if (arg == "--replica-floor" ||
               arg.rfind("--replica-floor=", 0) == 0) {
      const std::string value = value_of(&i, arg, "--replica-floor");
      char* end = nullptr;
      const long parsed = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || parsed < 0) {
        std::fprintf(stderr,
                     "%s: --replica-floor must be a non-negative integer\n",
                     argv[0]);
        UsageAndExit(argv[0], 2);
      }
      options.replica_floor = static_cast<int>(parsed);
    } else if (arg == "--topology" || arg.rfind("--topology=", 0) == 0) {
      options.topology = value_of(&i, arg, "--topology");
      if (options.topology.empty()) {
        std::fprintf(stderr, "%s: --topology needs a spec or file\n",
                     argv[0]);
        UsageAndExit(argv[0], 2);
      }
    } else if (arg == "--oracle" || arg.rfind("--oracle=", 0) == 0) {
      const std::string value = value_of(&i, arg, "--oracle");
      if (value != "auto" && value != "dense" && value != "sparse") {
        std::fprintf(stderr, "%s: --oracle must be auto, dense, or sparse\n",
                     argv[0]);
        UsageAndExit(argv[0], 2);
      }
      // Exported so PaperConfig() — always called after parsing — sees
      // the flag without every bench threading it through by hand.
      setenv("RADAR_BENCH_ORACLE", value.c_str(), 1);
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0],
                   arg.c_str());
      UsageAndExit(argv[0], 2);
    }
  }
  return options;
}

net::Topology MakeBenchTopology(const BenchOptions& options) {
  if (options.topology.empty()) return net::MakeUunetBackbone();
  if (net::IsTopologySpec(options.topology)) {
    return net::GenerateTopology(options.topology);
  }
  std::ifstream in(options.topology);
  if (!in) {
    std::fprintf(stderr, "error: cannot open topology file '%s'\n",
                 options.topology.c_str());
    std::exit(2);
  }
  std::string error;
  auto parsed = net::ReadTopology(in, &error);
  if (!parsed) {
    std::fprintf(stderr, "error: %s: %s\n", options.topology.c_str(),
                 error.c_str());
    std::exit(2);
  }
  return *std::move(parsed);
}

void ApplyFaultOptions(const BenchOptions& options,
                       driver::SimConfig* config) {
  config->replica_floor = options.replica_floor;
  if (options.fault_plan_file.empty()) return;
  std::string error;
  auto plan = fault::ParseFaultPlanFile(options.fault_plan_file, &error);
  if (!plan) {
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
