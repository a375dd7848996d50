// radar-hostd: a networked RaDaR hosting server (DESIGN.md §16).
//
//   radar-hostd --config nodes.conf --id 1 --num-objects 100
//               --state-dir /var/lib/radar --spool-dir /var/lib/radar
//
// The daemon is a thin shell: TcpTransport owns every socket and clock,
// transport::HostNode (wrapping the simulator's own core::HostAgent) owns
// every protocol decision. It exits on a kShutdown frame (radar-workctl
// shutdown) after writing a radar.hostd/1 summary JSON.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/log.h"
#include "transport/host_node.h"
#include "transport/node_config.h"
#include "transport/tcp_transport.h"

namespace {

struct Flags {
  std::string config_path;
  radar::NodeId id = radar::kInvalidNode;
  std::int32_t num_objects = 0;
  std::string state_dir;
  std::string spool_dir;
  std::string summary_path;
  bool fsync = false;
};

/// poll(2) timeout of the event loop; placement timers tick between polls.
constexpr int kPollMs = 20;

constexpr const char* kUsage =
    "usage: radar-hostd --config FILE --id N [options]\n"
    "  --config FILE     node config (transport/node_config.h format)\n"
    "  --id N            this node's id (must have role 'host')\n"
    "  --num-objects M   object population (round-robin initial homes)\n"
    "  --state-dir DIR   replica-set WAL lives at DIR/hostd-<id>.wal\n"
    "  --spool-dir DIR   per-peer frame spools (drain on reconnect)\n"
    "  --summary FILE    write radar.hostd/1 summary JSON on exit\n"
    "  --fsync           fsync WAL and spools after every record\n";

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
    } else if (arg == "--id" && has_value) {
      valid = ParseToken(argv[++i], &flags->id) && flags->id >= 0;
    } else if (arg == "--num-objects" && has_value) {
      valid = ParseToken(argv[++i], &flags->num_objects) &&
              flags->num_objects >= 0;
    } else if (arg == "--state-dir" && has_value) {
      flags->state_dir = argv[++i];
    } else if (arg == "--spool-dir" && has_value) {
      flags->spool_dir = argv[++i];
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
  if (flags->config_path.empty() || flags->id == radar::kInvalidNode) {
    std::cerr << "error: --config and --id are required\n" << kUsage;
    return false;
  }
  return true;
}

void WriteSummary(const std::string& path, radar::NodeId id,
                  const radar::transport::HostNode& node,
                  const radar::transport::TcpTransport& transport) {
  std::ofstream out(path);
  const auto& c = node.counters();
  const auto& t = transport.stats();
  out << "{\"schema\":\"radar.hostd/1\",\"node\":" << id
      << ",\"objects\":" << node.agent().NumObjects()
      << ",\"requests_serviced\":" << c.requests_serviced
      << ",\"requests_unhosted\":" << c.requests_unhosted
      << ",\"create_accepted\":" << c.create_accepted
      << ",\"create_refused\":" << c.create_refused
      << ",\"placement_rounds\":" << c.placement_rounds
      << ",\"geo_migrations\":" << c.geo_migrations
      << ",\"geo_replications\":" << c.geo_replications
      << ",\"offload_migrations\":" << c.offload_migrations
      << ",\"offload_replications\":" << c.offload_replications
      << ",\"affinity_drops\":" << c.affinity_drops
      << ",\"wal_errors\":" << c.wal_errors
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
  if (!config->Has(flags.id) ||
      config->At(flags.id).role != transport::NodeRole::kHost) {
    std::cerr << "error: node " << flags.id << " is not a host\n";
    return 2;
  }

  transport::TcpTransport::Options topt;
  topt.spool_dir = flags.spool_dir;
  topt.fsync = flags.fsync ? binlog::FsyncPolicy::kEveryRecord
                           : binlog::FsyncPolicy::kNone;
  transport::TcpTransport transport(*config, flags.id, wire::PeerRole::kHost,
                                    nullptr, topt);

  transport::HostNode::Options hopt;
  hopt.num_objects = flags.num_objects;
  if (!flags.state_dir.empty()) {
    hopt.wal_path =
        flags.state_dir + "/hostd-" + std::to_string(flags.id) + ".wal";
  }
  hopt.fsync = topt.fsync;
  transport::HostNode node(*config, flags.id, &transport, hopt);
  transport.SetHandler(&node);

  if (!transport.Start(&error)) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }
  for (const NodeId peer : config->PeersToDial(flags.id)) {
    transport.ConnectTo(peer);
  }
  if (!node.Init(&error)) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }

  // Readiness marker: orchestration (loopback_smoke.sh, operators) waits
  // on this file instead of guessing how long platform assembly takes —
  // boot-time dials race the redirector's bind and ride the reconnect
  // backoff, so "the process is up" never implies "the host is attached".
  const std::string ready_path =
      flags.state_dir.empty()
          ? ""
          : flags.state_dir + "/ready-" + std::to_string(flags.id);
  bool ready_written = false;
  while (!node.shutdown_requested()) {
    transport.PollOnce(kPollMs);
    node.OnTick();
    if (!ready_written && !ready_path.empty() &&
        transport.IsPeerUp(config->redirector())) {
      std::ofstream(ready_path) << "ready\n";
      ready_written = true;
    }
  }
  // Hand any queued replies to the kernel before tearing sockets down.
  for (int i = 0; i < 20 && !transport.Flushed(); ++i) {
    transport.PollOnce(10);
  }
  if (!flags.summary_path.empty()) {
    WriteSummary(flags.summary_path, flags.id, node, transport);
  }
  transport.Stop();
  return 0;
}
