// radar-replay: turn a real-mode capture binlog into a deterministic
// simulator run (DESIGN.md §16).
//
//   radar-replay --config nodes.conf --capture capture.binlog
//                --out replay.json --num-objects 100
//
// The capture's client request stream (kRequest frames with their
// microsecond timestamps) becomes a workload::RequestTrace; the node
// config becomes a uniform clique topology with the same node ids and the
// same round-robin initial placement the daemons used; the simulator does
// the rest. Replay is a pure function of (config bytes, capture bytes),
// so two invocations emit byte-identical radar.report/1 documents — the
// property the CI smoke test asserts with cmp.
#include <algorithm>
#include <iostream>
#include <string>

#include "binlog/replay.h"
#include "driver/hosting_simulation.h"
#include "driver/report_json.h"
#include "net/topology.h"
#include "transport/node_config.h"

namespace {

struct Flags {
  std::string config_path;
  std::string capture_path;
  std::string out_path;
  std::int32_t num_objects = 0;
};

constexpr const char* kUsage =
    "usage: radar-replay --config FILE --capture FILE --out FILE [options]\n"
    "  --num-objects M   object population (default: max id in capture + 1)\n";

bool ParseFlags(int argc, char** argv, Flags* flags) {
  using radar::transport::ParseToken;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    bool valid = true;  // numeric flags take whole decimal integers in range
    if (arg == "--config" && has_value) {
      flags->config_path = argv[++i];
    } else if (arg == "--capture" && has_value) {
      flags->capture_path = argv[++i];
    } else if (arg == "--out" && has_value) {
      flags->out_path = argv[++i];
    } else if (arg == "--num-objects" && has_value) {
      valid = ParseToken(argv[++i], &flags->num_objects) &&
              flags->num_objects >= 0;
    } else {
      std::cerr << "error: bad flag '" << arg << "'\n" << kUsage;
      return false;
    }
    if (!valid) {
      std::cerr << "error: bad value '" << argv[i] << "' for " << arg << "\n"
                << kUsage;
      return false;
    }
  }
  if (flags->config_path.empty() || flags->capture_path.empty() ||
      flags->out_path.empty()) {
    std::cerr << "error: --config, --capture and --out are required\n"
              << kUsage;
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace radar;
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;

  std::string error;
  const auto config = transport::NodeConfig::LoadFile(flags.config_path,
                                                      &error);
  if (!config) {
    std::cerr << "error: " << error << "\n";
    return 2;
  }

  binlog::CaptureSummary summary;
  auto trace = binlog::TraceFromCapture(flags.capture_path, SecondsToSim(1.0),
                                        &summary, &error);
  if (!trace) {
    std::cerr << "error: " << error << "\n";
    return 2;
  }
  std::cerr << "capture: " << summary.records << " records, "
            << summary.requests << " requests, " << summary.create_obj
            << " create-obj, " << summary.placement_stats << " stats, "
            << summary.undecodable << " undecodable"
            << (summary.clean ? "" : " (torn tail truncated)") << "\n";

  // The capture's node ids index the config, so the replay topology must
  // use the same ids: one node per config entry, uniform clique links.
  net::TopologyBuilder builder;
  for (const transport::NodeEntry& entry : config->nodes()) {
    builder.AddNode("n" + std::to_string(entry.id),
                    net::Region::kWesternNorthAmerica, true);
  }
  for (NodeId a = 0; a < config->num_nodes(); ++a) {
    for (NodeId b = a + 1; b < config->num_nodes(); ++b) {
      builder.Link(a, b, SecondsToSim(0.01), 45e6);
    }
  }

  driver::SimConfig sim_config;
  sim_config.num_objects =
      std::max({flags.num_objects, trace->NumObjectsReferenced(), 1});
  sim_config.duration = trace->Duration() + SecondsToSim(5.0);
  // Mirror the daemons' round-robin initial placement over host entries.
  const transport::NodeConfig& node_config = *config;
  sim_config.initial_home = [&node_config](ObjectId x) {
    return node_config.InitialHome(x);
  };

  driver::HostingSimulation sim(sim_config, std::move(builder).Build());
  sim.SetTrace(*std::move(trace));
  const driver::RunReport report = sim.Run();
  report.PrintSummary(std::cout);
  if (!driver::WriteJsonFile(flags.out_path, driver::ReportJson(report),
                             &error)) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }
  return 0;
}
