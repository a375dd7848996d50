// End-to-end throughput of the request engine: simulated requests/sec and
// executed events/sec on the UUNET backbone under the Zipf workload, at
// three scales. This is the perf-trajectory benchmark: every run can emit
// a schema-versioned BENCH_perf.json (radar.perfbench/1) that CI archives,
// so hot-path regressions show up as a drop in the artifact series.
//
// Unlike the figure benches this measures wall clock, so its numbers are
// machine-dependent by design; the JSON separates the deterministic run
// facts (total_requests, events_executed) from the measured rates. Each
// rep also records process CPU time: on a contended machine wall clock
// charges the scheduler's preemptions to the benchmark, while CPU time
// stays close to the quiet-machine figure, so speedup comparisons should
// prefer requests_per_cpu_sec.
//
// Command line:
//   --json PATH   write the radar.perfbench/1 document to PATH
//   --reps N      repetitions per scale; the best (highest req/s) rep is
//                 reported (default $RADAR_PERF_REPS, else 1)
//   --scale NAME  run only the named scale (small / medium / large)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include "driver/config.h"
#include "driver/hosting_simulation.h"
#include "driver/report.h"
#include "driver/report_json.h"

namespace {

using namespace radar;

constexpr const char* kPerfSchema = "radar.perfbench/1";

struct Scale {
  const char* name;
  double sim_seconds;
  ObjectId objects;
};

// Three operating points: the small scale is CI's smoke, the large scale
// approaches the paper's Table 1 configuration (10k objects).
constexpr Scale kScales[] = {
    {"small", 60.0, 1'000},
    {"medium", 120.0, 5'000},
    {"large", 240.0, 10'000},
};

struct Measurement {
  std::int64_t total_requests = 0;
  std::uint64_t events_executed = 0;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  double requests_per_sec = 0.0;
  double events_per_sec = 0.0;
  double requests_per_cpu_sec = 0.0;
};

double ProcessCpuSeconds() {
  std::timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double EnvOr(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  return end != value ? parsed : fallback;
}

Measurement RunScale(const Scale& scale, std::uint64_t seed) {
  driver::SimConfig config;
  config.duration = SecondsToSim(scale.sim_seconds);
  config.num_objects = scale.objects;
  config.seed = seed;
  config.workload = driver::WorkloadKind::kZipf;

  // Construction (routes, latency rows) is charged to the measurement:
  // precomputation must pay for itself end to end.
  const double cpu_start = ProcessCpuSeconds();
  const auto start = std::chrono::steady_clock::now();
  driver::HostingSimulation sim(config);
  const driver::RunReport report = sim.Run();
  const auto stop = std::chrono::steady_clock::now();
  const double cpu_stop = ProcessCpuSeconds();

  Measurement m;
  m.total_requests = report.total_requests;
  m.events_executed = sim.events_executed();
  m.wall_seconds =
      std::chrono::duration<double>(stop - start).count();
  m.cpu_seconds = cpu_stop - cpu_start;
  if (m.wall_seconds > 0.0) {
    m.requests_per_sec =
        static_cast<double>(m.total_requests) / m.wall_seconds;
    m.events_per_sec =
        static_cast<double>(m.events_executed) / m.wall_seconds;
  }
  if (m.cpu_seconds > 0.0) {
    m.requests_per_cpu_sec =
        static_cast<double>(m.total_requests) / m.cpu_seconds;
  }
  return m;
}

[[noreturn]] void UsageAndExit(const char* argv0, int code) {
  std::fprintf(stderr,
               "usage: %s [--json PATH] [--reps N] [--scale NAME]\n"
               "  --json PATH   write the radar.perfbench/1 document\n"
               "  --reps N      repetitions per scale, best rep reported\n"
               "                (default $RADAR_PERF_REPS, else 1)\n"
               "  --scale NAME  run only this scale (small / medium /"
               " large)\n",
               argv0);
  std::exit(code);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string only_scale;
  int reps = static_cast<int>(EnvOr("RADAR_PERF_REPS", 1.0));

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&](const std::string& flag) -> std::string {
      const std::string prefix = flag + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], flag.c_str());
        UsageAndExit(argv[0], 2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      UsageAndExit(argv[0], 0);
    } else if (arg == "--json" || arg.rfind("--json=", 0) == 0) {
      json_path = value_of("--json");
    } else if (arg == "--reps" || arg.rfind("--reps=", 0) == 0) {
      reps = std::atoi(value_of("--reps").c_str());
      if (reps < 1) {
        std::fprintf(stderr, "%s: --reps must be >= 1\n", argv[0]);
        UsageAndExit(argv[0], 2);
      }
    } else if (arg == "--scale" || arg.rfind("--scale=", 0) == 0) {
      only_scale = value_of("--scale");  // small/medium/large
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0],
                   arg.c_str());
      UsageAndExit(argv[0], 2);
    }
  }

  const auto seed = static_cast<std::uint64_t>(EnvOr("RADAR_BENCH_SEED", 1.0));

  driver::JsonValue doc = driver::JsonValue::MakeObject();
  doc.Set("schema", kPerfSchema);
  doc.Set("benchmark", "throughput");
  doc.Set("topology", "uunet");
  doc.Set("workload", "zipf");
  doc.Set("seed", static_cast<std::int64_t>(seed));
  doc.Set("reps", static_cast<std::int64_t>(reps));
  driver::JsonValue scales = driver::JsonValue::MakeArray();

  std::printf("==== throughput: UUNET + Zipf, %d rep(s)/scale ====\n", reps);
  bool matched = false;
  for (const Scale& scale : kScales) {
    if (!only_scale.empty() && only_scale != scale.name) continue;
    matched = true;
    Measurement best;
    for (int rep = 0; rep < reps; ++rep) {
      const Measurement m = RunScale(scale, seed);
      if (m.requests_per_sec > best.requests_per_sec) best = m;
    }
    std::printf(
        "%-7s sim=%6.0fs objects=%6d  requests=%9lld  events=%10llu  "
        "wall=%7.3fs  %10.0f req/s  %10.0f ev/s  %10.0f req/cpu-s\n",
        scale.name, scale.sim_seconds, scale.objects,
        static_cast<long long>(best.total_requests),
        static_cast<unsigned long long>(best.events_executed),
        best.wall_seconds, best.requests_per_sec, best.events_per_sec,
        best.requests_per_cpu_sec);

    driver::JsonValue entry = driver::JsonValue::MakeObject();
    entry.Set("name", scale.name);
    entry.Set("sim_seconds", scale.sim_seconds);
    entry.Set("objects", static_cast<std::int64_t>(scale.objects));
    entry.Set("total_requests", best.total_requests);
    entry.Set("events_executed",
              static_cast<std::int64_t>(best.events_executed));
    entry.Set("wall_seconds", best.wall_seconds);
    entry.Set("cpu_seconds", best.cpu_seconds);
    entry.Set("requests_per_sec", best.requests_per_sec);
    entry.Set("events_per_sec", best.events_per_sec);
    entry.Set("requests_per_cpu_sec", best.requests_per_cpu_sec);
    scales.Append(std::move(entry));
  }
  if (!matched) {
    std::fprintf(stderr, "%s: unknown scale '%s'\n", argv[0],
                 only_scale.c_str());
    UsageAndExit(argv[0], 2);
  }
  doc.Set("scales", std::move(scales));

  if (!json_path.empty()) {
    std::string error;
    if (!driver::WriteJsonFile(json_path, doc, &error)) {
      std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  }
  return 0;
}
