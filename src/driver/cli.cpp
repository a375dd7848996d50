#include "driver/cli.h"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace radar::driver {
namespace {

/// Longest --duration accepted (~31.7 years of simulated time): far past
/// any experiment, and far enough below SimTime's range that the clock
/// never overflows.
constexpr double kMaxDurationSeconds = 1e9;

/// Per-second rates (--rate, --capacity) become whole-microsecond periods
/// (1e6 / rate), which must be at least 1 us and at most the longest run.
constexpr double kMaxRatePerSecond = 1e6;
constexpr double kMinRatePerSecond = 1.0 / kMaxDurationSeconds;

/// Accepts a finite number only: strtod also parses "nan" and "inf".
bool ParseDouble(const std::string& value, double* out) {
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || !std::isfinite(parsed)) {
    return false;
  }
  *out = parsed;
  return true;
}

bool ParseInt(const std::string& value, long long* out) {
  char* end = nullptr;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') return false;
  *out = parsed;
  return true;
}

/// ParseInt restricted to [min, INT32_MAX], so the value survives the
/// narrowing to the 32-bit config fields.
bool ParseInt32(const std::string& value, long long min, long long* out) {
  return ParseInt(value, out) && *out >= min &&
         *out <= std::numeric_limits<std::int32_t>::max();
}

bool ParseRate(const std::string& value, double* out) {
  return ParseDouble(value, out) && *out >= kMinRatePerSecond &&
         *out <= kMaxRatePerSecond;
}

std::optional<WorkloadKind> ParseWorkload(const std::string& value) {
  if (value == "zipf") return WorkloadKind::kZipf;
  if (value == "hot-sites") return WorkloadKind::kHotSites;
  if (value == "hot-pages") return WorkloadKind::kHotPages;
  if (value == "regional") return WorkloadKind::kRegional;
  if (value == "uniform") return WorkloadKind::kUniform;
  return std::nullopt;
}

std::optional<baselines::DistributionPolicy> ParseDistribution(
    const std::string& value) {
  if (value == "radar") return baselines::DistributionPolicy::kRadar;
  if (value == "round-robin") return baselines::DistributionPolicy::kRoundRobin;
  if (value == "closest") return baselines::DistributionPolicy::kClosest;
  return std::nullopt;
}

std::optional<baselines::PlacementPolicy> ParsePlacement(
    const std::string& value) {
  if (value == "radar") return baselines::PlacementPolicy::kRadar;
  if (value == "static") return baselines::PlacementPolicy::kStatic;
  if (value == "full-replication") {
    return baselines::PlacementPolicy::kFullReplication;
  }
  return std::nullopt;
}

}  // namespace

std::string CliUsage() {
  return R"(radar_sim — dynamic replication hosting-platform simulator

usage: radar_sim [flags]

  --workload=zipf|hot-sites|hot-pages|regional|uniform   (default zipf)
  --duration=SECONDS          simulated time            (default 3600)
  --objects=N                 object count              (default 10000)
  --seed=N                    PRNG seed                 (default 1)
  --rate=REQ_PER_SEC          per-gateway request rate  (default 40)
  --capacity=REQ_PER_SEC      per-host capacity         (default 200)
  --hw=LOAD --lw=LOAD         watermarks                (default 90/80)
  --high-load                 shorthand for --hw=50 --lw=40 (Fig. 9)
  --distribution=radar|round-robin|closest              (default radar)
  --placement=radar|static|full-replication             (default radar)
  --redirectors=K             hash-partitioned redirectors (default 1)
  --arrivals=deterministic|poisson                      (default det.)
  --topology=FILE|SPEC        custom backbone: a topology file
                              (topology_io.h) or a generator spec —
                              ts:n=10000,seed=7 (transit-stub) or
                              sf:n=1000,m=2,gw=64,seed=1 (scale-free);
                              see net/topology_gen.h
  --trace=FILE                replay a request trace (see trace.h)
  --series                    print the per-bucket series table
  --json=FILE                 write the report as schema-versioned JSON
  --fault-plan=FILE           inject faults (see fault/fault_plan.h)
  --replica-floor=K           re-replicate objects below K live copies
  --jobs=N                    experiment-engine threads (0 = hardware)
  --help                      this text
)";
}

std::optional<CliOptions> ParseCli(const std::vector<std::string>& args,
                                   CliError* error) {
  CliOptions options;
  auto fail = [&](const std::string& message) {
    if (error != nullptr) error->message = message;
    return std::nullopt;
  };

  for (const std::string& arg : args) {
    if (arg == "--help" || arg == "-h") {
      options.show_help = true;
      return options;
    }
    if (arg == "--series") {
      options.print_series = true;
      continue;
    }
    if (arg == "--high-load") {
      options.config.ApplyHighLoad();
      continue;
    }
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      return fail("unrecognized argument '" + arg + "'");
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (value.empty()) return fail("empty value for --" + key);

    double d = 0.0;
    long long i = 0;
    if (key == "workload") {
      const auto kind = ParseWorkload(value);
      if (!kind) return fail("unknown workload '" + value + "'");
      options.config.workload = *kind;
    } else if (key == "duration") {
      if (!ParseDouble(value, &d) || d <= 0.0 || d > kMaxDurationSeconds ||
          SecondsToSim(d) <= 0) {
        return fail("--duration must be a positive number of seconds, from "
                    "1e-6 to 1e9");
      }
      options.config.duration = SecondsToSim(d);
    } else if (key == "objects") {
      if (!ParseInt32(value, 1, &i)) {
        return fail("--objects must be a positive 32-bit integer");
      }
      options.config.num_objects = static_cast<ObjectId>(i);
    } else if (key == "seed") {
      if (!ParseInt(value, &i) || i < 0) {
        return fail("--seed must be a non-negative integer");
      }
      options.config.seed = static_cast<std::uint64_t>(i);
    } else if (key == "rate") {
      if (!ParseRate(value, &d)) {
        return fail("--rate must be between 1e-9 and 1e6 requests per "
                    "second");
      }
      options.config.node_request_rate = d;
    } else if (key == "capacity") {
      if (!ParseRate(value, &d)) {
        return fail("--capacity must be between 1e-9 and 1e6 requests per "
                    "second");
      }
      options.config.server_capacity = d;
    } else if (key == "hw") {
      if (!ParseDouble(value, &d) || d <= 0.0) {
        return fail("--hw must be a positive finite number");
      }
      options.config.protocol.high_watermark = d;
    } else if (key == "lw") {
      if (!ParseDouble(value, &d) || d <= 0.0) {
        return fail("--lw must be a positive finite number");
      }
      options.config.protocol.low_watermark = d;
    } else if (key == "distribution") {
      const auto policy = ParseDistribution(value);
      if (!policy) return fail("unknown distribution '" + value + "'");
      options.config.distribution = *policy;
    } else if (key == "placement") {
      const auto policy = ParsePlacement(value);
      if (!policy) return fail("unknown placement '" + value + "'");
      options.config.placement = *policy;
    } else if (key == "redirectors") {
      if (!ParseInt32(value, 1, &i)) {
        return fail("--redirectors must be >= 1 and fit 32 bits");
      }
      options.config.num_redirectors = static_cast<int>(i);
    } else if (key == "arrivals") {
      if (value == "deterministic") {
        options.config.arrivals = ArrivalProcess::kDeterministic;
      } else if (value == "poisson") {
        options.config.arrivals = ArrivalProcess::kPoisson;
      } else {
        return fail("--arrivals must be deterministic or poisson");
      }
    } else if (key == "topology") {
      options.topology_file = value;
    } else if (key == "trace") {
      options.trace_file = value;
    } else if (key == "json") {
      options.json_file = value;
    } else if (key == "fault-plan") {
      options.fault_plan_file = value;
    } else if (key == "replica-floor") {
      if (!ParseInt32(value, 0, &i)) {
        return fail("--replica-floor must be a non-negative 32-bit integer");
      }
      options.config.replica_floor = static_cast<int>(i);
    } else if (key == "jobs") {
      if (!ParseInt32(value, 0, &i)) {
        return fail("--jobs must be a non-negative 32-bit integer");
      }
      options.jobs = static_cast<int>(i);
    } else {
      return fail("unknown flag --" + key);
    }
  }

  if (options.config.protocol.low_watermark >=
      options.config.protocol.high_watermark) {
    return fail("--lw must be below --hw");
  }
  return options;
}

}  // namespace radar::driver
