// radar-redirectd: the networked RaDaR redirector (DESIGN.md §16).
//
//   radar-redirectd --config nodes.conf --num-objects 100
//                   --spool-dir /var/lib/radar --capture capture.binlog
//
// Thin shell around transport::RedirectorNode (which wraps the
// simulator's core::Redirector). With --capture every received frame is
// appended to a binlog that radar-replay can turn back into a
// deterministic simulation. Exits on kShutdown after writing a
// radar.realmode/1 summary JSON — the loopback smoke test's oracle.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "common/log.h"
#include "transport/node_config.h"
#include "transport/redirector_node.h"
#include "transport/tcp_transport.h"

namespace {

struct Flags {
  std::string config_path;
  std::int32_t num_objects = 0;
  std::string spool_dir;
  std::string capture_path;
  std::string summary_path;
  bool fsync = false;
};

/// poll(2) timeout of the event loop.
constexpr int kPollMs = 20;

constexpr const char* kUsage =
    "usage: radar-redirectd --config FILE [options]\n"
    "  --config FILE     node config (transport/node_config.h format)\n"
    "  --num-objects M   object population (round-robin initial homes)\n"
    "  --spool-dir DIR   per-peer frame spools (drain on reconnect)\n"
    "  --capture FILE    append every received frame for radar-replay\n"
    "  --summary FILE    write radar.realmode/1 summary JSON on exit\n"
    "  --fsync           fsync spools/capture after every record\n";

bool ParseFlags(int argc, char** argv, Flags* flags) {
  using radar::transport::ParseToken;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    bool valid = true;  // numeric flags take whole decimal integers in range
    if (arg == "--fsync") {
      flags->fsync = true;
    } else if (arg == "--config" && has_value) {
      flags->config_path = argv[++i];
    } else if (arg == "--num-objects" && has_value) {
      valid = ParseToken(argv[++i], &flags->num_objects) &&
              flags->num_objects >= 0;
    } else if (arg == "--spool-dir" && has_value) {
      flags->spool_dir = argv[++i];
    } else if (arg == "--capture" && has_value) {
      flags->capture_path = argv[++i];
    } else if (arg == "--summary" && has_value) {
      flags->summary_path = argv[++i];
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
  if (flags->config_path.empty()) {
    std::cerr << "error: --config is required\n" << kUsage;
    return false;
  }
  return true;
}

void WriteSummary(const std::string& path, const Flags& flags,
                  const radar::transport::RedirectorNode& node,
                  const radar::transport::TcpTransport& transport) {
  std::ofstream out(path);
  const auto& c = node.counters();
  const auto& t = transport.stats();
  const auto [replicas_total, objects_registered] =
      node.redirector().ReplicaAndObjectTotals();
  out << "{\"schema\":\"radar.realmode/1\",\"objects\":" << flags.num_objects
      << ",\"objects_lost\":" << node.CountObjectsWithoutReplica()
      << ",\"replicas_total\":" << replicas_total
      << ",\"objects_registered\":" << objects_registered
      << ",\"redirects\":" << c.redirects
      << ",\"redirects_no_replica\":" << c.redirects_no_replica
      << ",\"creates_recorded\":" << c.creates_recorded
      << ",\"drops_granted\":" << c.drops_granted
      << ",\"drops_refused\":" << c.drops_refused
      << ",\"affinity_reductions\":" << c.affinity_reductions
      << ",\"announces_restored\":" << c.announces_restored
      << ",\"hosts_pruned\":" << c.hosts_pruned
      << ",\"replicas_pruned\":" << c.replicas_pruned
      << ",\"stats_relayed\":" << c.stats_relayed
      << ",\"frames_sent\":" << t.frames_sent
      << ",\"frames_received\":" << t.frames_received
      << ",\"frames_spooled\":" << t.frames_spooled
      << ",\"frames_drained\":" << t.frames_drained << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace radar;
  // RADAR_DEBUG=1 turns on the transport's connection-lifecycle
  // trace (accepts, identifies, closes, dial timeouts) on stderr.
  if (std::getenv("RADAR_DEBUG") != nullptr) {
    SetLogLevel(LogLevel::kDebug);
  }
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;

  std::string error;
  const auto config = transport::NodeConfig::LoadFile(flags.config_path,
                                                      &error);
  if (!config) {
    std::cerr << "error: " << error << "\n";
    return 2;
  }

  transport::TcpTransport::Options topt;
  topt.spool_dir = flags.spool_dir;
  topt.capture_path = flags.capture_path;
  topt.fsync = flags.fsync ? binlog::FsyncPolicy::kEveryRecord
                           : binlog::FsyncPolicy::kNone;
  transport::TcpTransport transport(*config, config->redirector(),
                                    wire::PeerRole::kRedirector, nullptr,
                                    topt);

  transport::RedirectorNode::Options ropt;
  ropt.num_objects = flags.num_objects;
  transport::RedirectorNode node(*config, &transport, ropt);
  transport.SetHandler(&node);

  if (!transport.Start(&error)) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }

  while (!node.shutdown_requested()) {
    transport.PollOnce(kPollMs);
  }
  for (int i = 0; i < 20 && !transport.Flushed(); ++i) {
    transport.PollOnce(10);
  }
  if (!flags.summary_path.empty()) {
    WriteSummary(flags.summary_path, flags, node, transport);
  }
  transport.Stop();
  return 0;
}
