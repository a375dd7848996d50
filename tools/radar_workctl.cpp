// radar-workctl: real-mode workload driver and control client.
//
//   radar-workctl --config nodes.conf --id 4 run --requests 200 --objects 20
//   radar-workctl --config nodes.conf --id 4 shutdown --target 1
//
// `run` plays the client of Fig. 2: for each request it asks the
// redirector where object x lives (kRequest -> kRedirect), then fetches
// from the chosen host (kRequest -> kAck), round-robining objects and
// gateway attributions. `shutdown` delivers a kShutdown frame to one
// node. Exit status: run fails (1) if any request got no redirect or no
// live replica; shutdown fails if the target never became reachable.
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "common/log.h"
#include "driver/report_json.h"
#include "transport/node_config.h"
#include "transport/tcp_transport.h"
#include "transport/transport.h"

namespace {

using radar::NodeId;
using radar::ObjectId;

struct Flags {
  std::string config_path;
  NodeId id = radar::kInvalidNode;
  std::string mode;  // "run" | "shutdown"
  std::int64_t requests = 0;
  std::int32_t num_objects = 1;
  NodeId target = radar::kInvalidNode;
};

/// Deadline of one exchange: a dial, a redirect, a fetch or a shutdown.
constexpr std::int64_t kTimeoutUs = 5'000'000;

constexpr const char* kUsage =
    "usage: radar-workctl --config FILE --id N run --requests R --objects M\n"
    "       radar-workctl --config FILE --id N shutdown --target K\n";

bool ParseFlags(int argc, char** argv, Flags* flags) {
  using radar::transport::ParseToken;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    bool valid = true;  // numeric flags take whole decimal integers in range
    if (arg == "run" || arg == "shutdown") {
      flags->mode = arg;
    } else if (arg == "--config" && has_value) {
      flags->config_path = argv[++i];
    } else if (arg == "--id" && has_value) {
      valid = ParseToken(argv[++i], &flags->id) && flags->id >= 0;
    } else if (arg == "--requests" && has_value) {
      valid = ParseToken(argv[++i], &flags->requests) && flags->requests >= 1;
    } else if (arg == "--objects" && has_value) {
      valid = ParseToken(argv[++i], &flags->num_objects) &&
              flags->num_objects >= 0;
    } else if (arg == "--target" && has_value) {
      valid = ParseToken(argv[++i], &flags->target) && flags->target >= 0;
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
  if (flags->config_path.empty() || flags->id == radar::kInvalidNode ||
      flags->mode.empty()) {
    std::cerr << "error: --config, --id and a mode are required\n" << kUsage;
    return false;
  }
  return true;
}

/// Records the latest redirect / ack so the synchronous request loop can
/// wait on them.
class ClientBrain final : public radar::transport::Handler {
 public:
  void OnFrame(NodeId from,
               const radar::wire::DecodedFrame& frame) override {
    (void)from;
    if (const auto* r = std::get_if<radar::wire::Redirect>(&frame.msg)) {
      redirect_ = *r;
    } else if (const auto* a = std::get_if<radar::wire::Ack>(&frame.msg)) {
      ack_ = *a;
    }
  }

  std::optional<radar::wire::Redirect> TakeRedirect(ObjectId object) {
    if (redirect_.has_value() && redirect_->object == object) {
      const auto r = redirect_;
      redirect_.reset();
      return r;
    }
    return std::nullopt;
  }

  std::optional<radar::wire::Ack> TakeAck(std::uint64_t seq) {
    if (ack_.has_value() && ack_->acked_seq == seq) {
      const auto a = ack_;
      ack_.reset();
      return a;
    }
    return std::nullopt;
  }

 private:
  std::optional<radar::wire::Redirect> redirect_;
  std::optional<radar::wire::Ack> ack_;
};

bool WaitPeerUp(radar::transport::TcpTransport& transport, NodeId peer) {
  const std::int64_t deadline = transport.Now() + kTimeoutUs;
  transport.ConnectTo(peer);
  while (!transport.IsPeerUp(peer)) {
    if (transport.Now() >= deadline) return false;
    transport.PollOnce(10);
  }
  return true;
}

int RunWorkload(const Flags& flags, const radar::transport::NodeConfig& config,
                radar::transport::TcpTransport& transport,
                ClientBrain& brain) {
  const NodeId redirector = config.redirector();
  const auto& hosts = config.hosts();
  std::int64_t ok = 0;
  std::int64_t no_replica = 0;
  std::int64_t redirect_timeouts = 0;
  std::int64_t fetch_failures = 0;
  for (std::int64_t i = 0; i < flags.requests; ++i) {
    const ObjectId object =
        static_cast<ObjectId>(i % flags.num_objects);
    const NodeId gateway = hosts[static_cast<std::size_t>(i) % hosts.size()];
    if (!WaitPeerUp(transport, redirector)) {
      ++redirect_timeouts;
      continue;
    }
    transport.Send(redirector, radar::wire::Request{object, gateway});
    std::optional<radar::wire::Redirect> redirect;
    const std::int64_t deadline = transport.Now() + kTimeoutUs;
    while (!(redirect = brain.TakeRedirect(object)).has_value()) {
      if (transport.Now() >= deadline) break;
      transport.PollOnce(10);
    }
    if (!redirect.has_value()) {
      ++redirect_timeouts;
      continue;
    }
    if (redirect->host == radar::kInvalidNode) {
      ++no_replica;
      continue;
    }
    if (!WaitPeerUp(transport, redirect->host)) {
      ++fetch_failures;
      continue;
    }
    const std::uint64_t seq = transport.Send(
        redirect->host, radar::wire::Request{object, gateway});
    std::optional<radar::wire::Ack> ack;
    const std::int64_t fetch_deadline = transport.Now() + kTimeoutUs;
    while (!(ack = brain.TakeAck(seq)).has_value()) {
      if (transport.Now() >= fetch_deadline) break;
      transport.PollOnce(10);
    }
    if (ack.has_value() && ack->accepted) {
      ++ok;
    } else {
      ++fetch_failures;
    }
  }
  radar::driver::JsonValue summary = radar::driver::JsonValue::MakeObject();
  summary.Set("schema", "radar.workctl/1")
      .Set("requests", flags.requests)
      .Set("ok", ok)
      .Set("no_replica", no_replica)
      .Set("redirect_timeouts", redirect_timeouts)
      .Set("fetch_failures", fetch_failures);
  std::cout << summary.Dump() << "\n";
  return ok == flags.requests ? 0 : 1;
}

int SendShutdown(const Flags& flags,
                 radar::transport::TcpTransport& transport) {
  if (flags.target == radar::kInvalidNode) {
    std::cerr << "error: shutdown needs --target\n";
    return 2;
  }
  if (!WaitPeerUp(transport, flags.target)) {
    std::cerr << "error: node " << flags.target << " unreachable\n";
    return 1;
  }
  transport.Send(flags.target, radar::wire::Shutdown{});
  const std::int64_t deadline = transport.Now() + kTimeoutUs;
  while (!transport.Flushed() && transport.Now() < deadline) {
    transport.PollOnce(10);
  }
  return transport.Flushed() ? 0 : 1;
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
      config->At(flags.id).role != transport::NodeRole::kClient) {
    std::cerr << "error: node " << flags.id << " is not a client\n";
    return 2;
  }
  if (flags.num_objects <= 0 || config->hosts().empty()) {
    std::cerr << "error: need objects and host nodes\n";
    return 2;
  }

  ClientBrain brain;
  transport::TcpTransport transport(*config, flags.id,
                                    wire::PeerRole::kClient, &brain, {});
  if (!transport.Start(&error)) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }
  const int rc = flags.mode == "run" ? RunWorkload(flags, *config, transport,
                                                   brain)
                                     : SendShutdown(flags, transport);
  transport.Stop();
  return rc;
}
