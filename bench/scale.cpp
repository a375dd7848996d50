// Scale sweep: node-count x object-count operating points, from the
// paper's 53-router UUNET up to 10k-node generated transit-stub
// backbones. Each entry reports engine throughput, process memory, and
// the cost of a fault epoch on the network model — the numbers behind
// the "break the O(n^2) wall" claim: the model keeps O(rows x n) state
// (every node rowed below net::kAllRowsNodeLimit nodes, gateways and
// redirector homes above) and a link event recomputes only the rows it
// actually dirties.
//
// Memory is read from getrusage(RUSAGE_SELF).ru_maxrss, which is a
// process-lifetime high-water mark — entries therefore run smallest
// first, and each entry also samples current RSS (/proc/self/statm) so
// the per-entry footprint stays visible even after a bigger predecessor.
//
// Every run can emit a schema-versioned BENCH_scale.json
// (radar.scalebench/1) that CI archives next to BENCH_perf.json.
//
// Command line:
//   --json PATH   write the radar.scalebench/1 document to PATH
//   --entry NAME  run only the named entry (see kEntries)
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>

#include "driver/config.h"
#include "driver/hosting_simulation.h"
#include "driver/report.h"
#include "driver/report_json.h"
#include "net/net_model.h"
#include "net/topology_gen.h"
#include "net/uunet.h"

namespace {

using namespace radar;

constexpr const char* kScaleSchema = "radar.scalebench/1";

struct Entry {
  const char* name;
  const char* topology;  ///< generator spec; "" = UUNET backbone
  ObjectId objects;
  double sim_seconds;
};

// Ordered by memory footprint (see the ru_maxrss note above). The object
// axis probes per-object state (records, redirector entries, counts);
// the node axis probes the network model and per-node engine state.
constexpr Entry kEntries[] = {
    {"uunet-10k", "", 10'000, 120.0},
    {"ts1k-10k", "ts:n=1000,seed=7", 10'000, 120.0},
    {"ts1k-1m", "ts:n=1000,seed=7", 1'000'000, 60.0},
    {"ts10k-10k", "ts:n=10000,seed=7", 10'000, 60.0},
    {"ts10k-1m", "ts:n=10000,seed=7", 1'000'000, 60.0},
};

/// Rebuild-cost probes per fault epoch, averaged over a few link flaps.
constexpr int kRebuildReps = 5;

double ProcessCpuSeconds() {
  std::timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double CurrentRssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long size = 0;
  long resident = 0;
  const int got = std::fscanf(f, "%ld %ld", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) * 4096.0 / (1024.0 * 1024.0);
}

net::Topology MakeTopology(const Entry& entry) {
  if (entry.topology[0] == '\0') return net::MakeUunetBackbone();
  return net::GenerateTopology(entry.topology);
}

struct RebuildCost {
  double ms_per_epoch = 0.0;
  std::int64_t rows = 0;
  std::int64_t rows_rebuilt = 0;
};

/// One fault epoch = one link going down and later coming back; the
/// model applies both events incrementally and reports how many of its
/// rows each pair of events dirtied.
RebuildCost MeasureRebuild(const net::Topology& topology,
                           std::int64_t object_bytes) {
  const auto num_links =
      static_cast<std::int32_t>(topology.graph().num_links());
  net::NetModel net(topology, object_bytes);
  RebuildCost cost;
  cost.rows = static_cast<std::int64_t>(net.num_rows());
  const std::int64_t rows_before = net.rows_rebuilt();
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kRebuildReps; ++i) {
    const std::int32_t link = (i * 7919) % num_links;
    net.OnLinkChange(link, false);
    net.OnLinkChange(link, true);
  }
  const auto stop = std::chrono::steady_clock::now();
  cost.ms_per_epoch =
      std::chrono::duration<double, std::milli>(stop - start).count() /
      kRebuildReps;
  cost.rows_rebuilt = (net.rows_rebuilt() - rows_before) / kRebuildReps;
  return cost;
}

double EnvOr(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  return end != value ? parsed : fallback;
}

[[noreturn]] void UsageAndExit(const char* argv0, int code) {
  std::fprintf(stderr,
               "usage: %s [--json PATH] [--entry NAME]\n"
               "  --json PATH   write the radar.scalebench/1 document\n"
               "  --entry NAME  run only this entry (uunet-10k / ts1k-10k /"
               " ts1k-1m / ts10k-10k / ts10k-1m)\n",
               argv0);
  std::exit(code);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string only_entry;
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
    } else if (arg == "--entry" || arg.rfind("--entry=", 0) == 0) {
      only_entry = value_of("--entry");
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0],
                   arg.c_str());
      UsageAndExit(argv[0], 2);
    }
  }

  const auto seed = static_cast<std::uint64_t>(EnvOr("RADAR_BENCH_SEED", 1.0));

  driver::JsonValue doc = driver::JsonValue::MakeObject();
  doc.Set("schema", kScaleSchema);
  doc.Set("benchmark", "scale");
  doc.Set("workload", "zipf");
  doc.Set("seed", static_cast<std::int64_t>(seed));
  driver::JsonValue entries = driver::JsonValue::MakeArray();

  std::printf("==== scale: nodes x objects sweep ====\n");
  bool matched = false;
  for (const Entry& entry : kEntries) {
    if (!only_entry.empty() && only_entry != entry.name) continue;
    matched = true;

    const net::Topology topology = MakeTopology(entry);

    driver::SimConfig config;
    config.duration = SecondsToSim(entry.sim_seconds);
    config.num_objects = entry.objects;
    config.seed = seed;
    config.workload = driver::WorkloadKind::kZipf;

    const double cpu_start = ProcessCpuSeconds();
    const auto start = std::chrono::steady_clock::now();
    driver::HostingSimulation sim(config, topology);
    const driver::RunReport report = sim.Run();
    const auto stop = std::chrono::steady_clock::now();
    const double cpu_seconds = ProcessCpuSeconds() - cpu_start;
    const double wall_seconds =
        std::chrono::duration<double>(stop - start).count();
    const double current_rss_mb = CurrentRssMb();
    const double peak_rss_mb = PeakRssMb();
    const double events_per_sec =
        wall_seconds > 0.0
            ? static_cast<double>(sim.events_executed()) / wall_seconds
            : 0.0;

    const RebuildCost rebuild =
        MeasureRebuild(topology, config.object_bytes);

    std::printf(
        "%-10s nodes=%6d gw=%4zu objects=%8lld  requests=%9lld  "
        "wall=%7.3fs  %10.0f ev/s  rss=%7.1fMB  epoch=%8.3fms"
        " (%lld/%lld rows)\n",
        entry.name, topology.num_nodes(), topology.GatewayNodes().size(),
        static_cast<long long>(entry.objects),
        static_cast<long long>(report.total_requests), wall_seconds,
        events_per_sec, peak_rss_mb, rebuild.ms_per_epoch,
        static_cast<long long>(rebuild.rows_rebuilt),
        static_cast<long long>(rebuild.rows));

    driver::JsonValue e = driver::JsonValue::MakeObject();
    e.Set("name", entry.name);
    e.Set("topology", entry.topology[0] == '\0' ? "uunet" : entry.topology);
    e.Set("nodes", static_cast<std::int64_t>(topology.num_nodes()));
    e.Set("gateways",
          static_cast<std::int64_t>(topology.GatewayNodes().size()));
    e.Set("objects", static_cast<std::int64_t>(entry.objects));
    e.Set("sim_seconds", entry.sim_seconds);
    e.Set("total_requests", report.total_requests);
    e.Set("events_executed",
          static_cast<std::int64_t>(sim.events_executed()));
    e.Set("wall_seconds", wall_seconds);
    e.Set("cpu_seconds", cpu_seconds);
    e.Set("events_per_sec", events_per_sec);
    e.Set("current_rss_mb", current_rss_mb);
    e.Set("peak_rss_mb", peak_rss_mb);
    // Key names predate the single network model; kept so the archived
    // artifact series stays comparable.
    e.Set("sparse_rebuild_ms_per_epoch", rebuild.ms_per_epoch);
    e.Set("sparse_rows", rebuild.rows);
    e.Set("sparse_rows_rebuilt_per_epoch", rebuild.rows_rebuilt);
    entries.Append(std::move(e));
  }
  if (!matched) {
    std::fprintf(stderr, "%s: unknown entry '%s'\n", argv[0],
                 only_entry.c_str());
    UsageAndExit(argv[0], 2);
  }
  doc.Set("entries", std::move(entries));

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
