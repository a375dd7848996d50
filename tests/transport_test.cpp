// Tests for the real-system-mode transport layer (src/transport): node
// config parsing, the SimNet transport's TCP-like semantics (delays,
// spool-while-down, drain-on-reconnect, in-flight loss), and the
// HostNode/RedirectorNode brains driven over SimNet — the same protocol
// exchanges the daemons run over sockets, here deterministic and
// in-process: redirect round trips, Fig. 4 CreateObj over the wire,
// redirector-arbitrated drops, crash/reconnect conservation, the
// placement round's asynchronous edges, the replica-set WAL's bytes and
// restart, and a check that the daemons' rounds decide exactly what
// Cluster's do. TcpTransport runs as loopback pairs through its real poll
// loop on ephemeral 127.0.0.1 ports.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "binlog/binlog.h"
#include "common/check.h"
#include "common/types.h"
#include "core/cluster.h"
#include "core/params.h"
#include "sim/simulator.h"
#include "transport/host_node.h"
#include "transport/node_config.h"
#include "transport/redirector_node.h"
#include "transport/sim_transport.h"
#include "transport/tcp_transport.h"
#include "wire/codec.h"

namespace radar::transport {
namespace {

std::optional<NodeConfig> Parse(const std::string& text, std::string* error) {
  std::istringstream in(text);
  return NodeConfig::Load(in, error);
}

// ---------------------------------------------------------------------
// Node config.
// ---------------------------------------------------------------------

TEST(NodeConfigTest, ParsesRolesPortsWeightsAndComments) {
  std::string error;
  const auto config = Parse(
      "# platform\n"
      "0 redirector 10.0.0.1 9000\n"
      "1 host 10.0.0.2 9001 2.5  # beefy\n"
      "2 host 10.0.0.3 9002\n"
      "3 client 10.0.0.9 0\n",
      &error);
  ASSERT_TRUE(config.has_value()) << error;
  EXPECT_EQ(config->num_nodes(), 4);
  EXPECT_EQ(config->redirector(), 0);
  EXPECT_EQ(config->hosts(), (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(config->At(1).weight, 2.5);
  EXPECT_EQ(config->At(2).weight, 1.0);
  EXPECT_EQ(config->At(3).role, NodeRole::kClient);
  EXPECT_EQ(config->At(0).port, 9000);
  EXPECT_EQ(config->At(0).address, "10.0.0.1");
  // Round-robin over host entries (ids 1 and 2), not over all nodes.
  EXPECT_EQ(config->InitialHome(0), 1);
  EXPECT_EQ(config->InitialHome(1), 2);
  EXPECT_EQ(config->InitialHome(2), 1);
}

TEST(NodeConfigTest, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(Parse("", &error).has_value());
  EXPECT_FALSE(Parse("0 host 10.0.0.1 9000\n", &error).has_value())
      << "no redirector must fail";
  EXPECT_FALSE(Parse("0 redirector a 1\n1 redirector b 2\n", &error)
                   .has_value())
      << "two redirectors must fail";
  EXPECT_FALSE(Parse("1 redirector a 9000\n", &error).has_value())
      << "non-dense ids must fail";
  EXPECT_FALSE(Parse("0 gateway a 9000\n", &error).has_value())
      << "unknown role must fail";
  EXPECT_FALSE(Parse("0 redirector a 0\n", &error).has_value())
      << "port 0 on a non-client must fail";
  EXPECT_FALSE(Parse("0 redirector a 70000\n", &error).has_value())
      << "out-of-range port must fail";
  EXPECT_FALSE(Parse("0 redirector a 9000 -1\n", &error).has_value())
      << "non-positive weight must fail";
  EXPECT_FALSE(Parse("0 redirector\n", &error).has_value())
      << "short line must fail";
  EXPECT_FALSE(error.empty());
  const std::string base =
      "0 redirector 127.0.0.1 7000\n"
      "1 host 127.0.0.1 7001\n";
  EXPECT_FALSE(Parse(base + "l2 host 127.0.0.1 7002\n", &error).has_value())
      << "a non-integer id must fail, not be skipped as a blank line";
  EXPECT_FALSE(
      Parse(base + "2 host 127.0.0.1 7003 fast\n", &error).has_value())
      << "a non-numeric weight must fail";
  EXPECT_FALSE(
      Parse(base + "2 host 127.0.0.1 7003 2.0 extra\n", &error).has_value())
      << "tokens after the weight must fail";
}

TEST(NodeConfigTest, CliqueDistance) {
  CliqueDistance distance(3);
  EXPECT_EQ(distance.Distance(0, 0), 0);
  EXPECT_EQ(distance.Distance(0, 2), 1);
  EXPECT_EQ(distance.Distance(2, 1), 1);
}

TEST(NodeConfigTest, HostsDialTheRedirectorAndEveryHigherHost) {
  std::string error;
  const auto config = Parse(
      "0 host 127.0.0.1 9000\n"
      "1 redirector 127.0.0.1 9001\n"
      "2 host 127.0.0.1 9002\n"
      "3 client 127.0.0.1 0\n"
      "4 host 127.0.0.1 9004\n",
      &error);
  ASSERT_TRUE(config.has_value()) << error;
  EXPECT_EQ(config->PeersToDial(0), (std::vector<NodeId>{1, 2, 4}));
  EXPECT_EQ(config->PeersToDial(2), (std::vector<NodeId>{1, 4}));
  EXPECT_EQ(config->PeersToDial(4), (std::vector<NodeId>{1}));
}

// ---------------------------------------------------------------------
// SimNet semantics.
// ---------------------------------------------------------------------

/// Recording brain: keeps every decoded frame and peer transition.
class Recorder : public Handler {
 public:
  struct Seen {
    NodeId from;
    wire::DecodedFrame frame;
  };

  void OnFrame(NodeId from, const wire::DecodedFrame& frame) override {
    seen.push_back(Seen{from, frame});
  }
  void OnPeerUp(NodeId peer) override { ups.push_back(peer); }
  void OnPeerDown(NodeId peer) override { downs.push_back(peer); }

  std::vector<Seen> seen;
  std::vector<NodeId> ups;
  std::vector<NodeId> downs;
};

TEST(SimNetTest, DeliversEncodedFramesAfterDelay) {
  sim::Simulator sim;
  SimNet net(&sim, 2, 1000);
  Recorder a, b;
  Transport* ta = net.Attach(0, &a);
  net.Attach(1, &b);

  const std::uint64_t seq = ta->Send(1, wire::Request{7, 0});
  EXPECT_GE(seq, 1u);
  sim.RunUntil(999);
  EXPECT_TRUE(b.seen.empty()) << "frame must not arrive early";
  sim.RunUntil(2000);
  ASSERT_EQ(b.seen.size(), 1u);
  EXPECT_EQ(b.seen[0].from, 0);
  EXPECT_EQ(b.seen[0].frame.seq, seq);
  EXPECT_EQ(std::get<wire::Request>(b.seen[0].frame.msg),
            (wire::Request{7, 0}));
  EXPECT_EQ(net.frames_delivered(), 1u);
}

TEST(SimNetTest, DownNodeSpoolsAndDrainsInOrderLosesInFlight) {
  sim::Simulator sim;
  SimNet net(&sim, 3, 1000);
  Recorder a, b, c;
  Transport* ta = net.Attach(0, &a);
  net.Attach(1, &b);
  net.Attach(2, &c);

  // One frame in flight when the destination dies: lost (dropped
  // connection loses its buffered data).
  ta->Send(1, wire::Request{1, 0});
  sim.RunUntil(500);
  net.SetNodeUp(1, false);
  EXPECT_FALSE(ta->IsPeerUp(1));
  EXPECT_EQ(a.downs, (std::vector<NodeId>{1}));
  EXPECT_EQ(c.downs, (std::vector<NodeId>{1}));

  // Frames sent while down spool.
  ta->Send(1, wire::Request{2, 0});
  ta->Send(1, wire::Request{3, 0});
  sim.RunUntil(5000);
  EXPECT_TRUE(b.seen.empty());
  EXPECT_EQ(net.frames_dropped(), 1u);
  EXPECT_EQ(net.frames_spooled(), 2u);

  // Reconnect: peers see it up, spool drains in send order.
  net.SetNodeUp(1, true);
  EXPECT_EQ(a.ups, (std::vector<NodeId>{1}));
  // The returning node learns about every up peer.
  EXPECT_EQ(b.ups, (std::vector<NodeId>{0, 2}));
  sim.RunUntil(10000);
  ASSERT_EQ(b.seen.size(), 2u);
  EXPECT_EQ(std::get<wire::Request>(b.seen[0].frame.msg).object, 2);
  EXPECT_EQ(std::get<wire::Request>(b.seen[1].frame.msg).object, 3);
  EXPECT_EQ(net.frames_drained(), 2u);
}

// ---------------------------------------------------------------------
// Brains over SimNet: the daemons' protocol, deterministic.
// ---------------------------------------------------------------------

constexpr const char* kPlatform =
    "0 redirector 127.0.0.1 9000\n"
    "1 host 127.0.0.1 9001\n"
    "2 host 127.0.0.1 9002\n"
    "3 client 127.0.0.1 0\n";

/// Forwards to a brain bound after the transport exists (the daemons'
/// SetHandler two-phase, SimNet edition).
class LateHandler final : public Handler {
 public:
  void Bind(Handler* target) { target_ = target; }

  void OnFrame(NodeId from, const wire::DecodedFrame& frame) override {
    if (target_ != nullptr) target_->OnFrame(from, frame);
  }
  void OnPeerUp(NodeId peer) override {
    if (target_ != nullptr) target_->OnPeerUp(peer);
  }
  void OnPeerDown(NodeId peer) override {
    if (target_ != nullptr) target_->OnPeerDown(peer);
  }

 private:
  Handler* target_ = nullptr;
};

/// Three hosts (ids 1-3) and a client (id 4).
constexpr const char* kThreeHosts =
    "0 redirector 127.0.0.1 9000\n"
    "1 host 127.0.0.1 9001\n"
    "2 host 127.0.0.1 9002\n"
    "3 host 127.0.0.1 9003\n"
    "4 client 127.0.0.1 0\n";

/// One redirector, the platform's host brains (ids 1..n), and one
/// recording client (the last node) on a SimNet whose links are
/// `delay_us` long.
class BrainHarness {
 public:
  /// A non-empty `wal_dir` gives host i the WAL <wal_dir>/hostd-<i>.wal.
  explicit BrainHarness(std::int32_t num_objects,
                        core::ProtocolParams params = {},
                        const char* platform = kPlatform,
                        std::int64_t delay_us = 1000,
                        std::string wal_dir = "")
      : settle_us_(delay_us > 0 ? 10'000 : 0), wal_dir_(std::move(wal_dir)) {
    std::string error;
    auto config = Parse(platform, &error);
    RADAR_CHECK_MSG(config.has_value(), "platform config must parse");
    config_ = std::make_unique<NodeConfig>(*std::move(config));
    net_ = std::make_unique<SimNet>(&sim_, config_->num_nodes(), delay_us);
    late_.resize(static_cast<std::size_t>(config_->num_nodes()));

    RedirectorNode::Options ropt;
    ropt.num_objects = num_objects;
    redirector_ = std::make_unique<RedirectorNode>(
        *config_, net_->Attach(0, &late_[0]), ropt);
    late_[0].Bind(redirector_.get());

    host_options_.num_objects = num_objects;
    host_options_.params = params;
    for (const NodeId id : config_->hosts()) {
      Transport* transport =
          net_->Attach(id, &late_[static_cast<std::size_t>(id)]);
      hosts_.push_back(std::make_unique<HostNode>(*config_, id, transport,
                                                  OptionsFor(id)));
      late_[static_cast<std::size_t>(id)].Bind(hosts_.back().get());
      transports_.push_back(transport);
    }
    client_transport_ = net_->Attach(config_->num_nodes() - 1, &client_);

    for (auto& host : hosts_) {
      RADAR_CHECK_MSG(host->Init(&error), "host init must succeed");
    }
    sim_.RunUntil(sim_.Now() + 10'000);
  }

  HostNode& host(NodeId id) { return *hosts_[static_cast<std::size_t>(id - 1)]; }
  Transport* host_transport(NodeId id) {
    return transports_[static_cast<std::size_t>(id - 1)];
  }

  std::string WalPath(NodeId id) const {
    return wal_dir_ + "/hostd-" + std::to_string(id) + ".wal";
  }

  HostNode::Options OptionsFor(NodeId id) const {
    HostNode::Options options = host_options_;
    if (!wal_dir_.empty()) options.wal_path = WalPath(id);
    return options;
  }

  /// Kills host `id` and boots a new brain on the same transport: only
  /// its WAL survives.
  HostNode& Restart(NodeId id) {
    const auto index = static_cast<std::size_t>(id);
    late_[index].Bind(nullptr);
    hosts_[index - 1].reset();
    hosts_[index - 1] = std::make_unique<HostNode>(*config_, id,
                                                   host_transport(id),
                                                   OptionsFor(id));
    std::string error;
    RADAR_CHECK_MSG(hosts_[index - 1]->Init(&error),
                    "host restart must succeed");
    late_[index].Bind(hosts_[index - 1].get());
    return *hosts_[index - 1];
  }

  /// Runs every frame in flight to completion (delay_us > 0: 10 ms).
  void Settle() { sim_.RunUntil(sim_.Now() + settle_us_); }

  /// Client-side redirect round trip; returns the redirect target.
  NodeId AskRedirect(ObjectId x, NodeId gateway) {
    client_.seen.clear();
    client_transport_->Send(0, wire::Request{x, gateway});
    Settle();
    for (const auto& s : client_.seen) {
      if (const auto* r = std::get_if<wire::Redirect>(&s.frame.msg)) {
        if (r->object == x) return r->host;
      }
    }
    return kInvalidNode;
  }

  /// Redirected fetch against a host; true when Ack'd accepted.
  bool Fetch(ObjectId x, NodeId host, NodeId gateway) {
    client_.seen.clear();
    const std::uint64_t seq =
        client_transport_->Send(host, wire::Request{x, gateway});
    Settle();
    for (const auto& s : client_.seen) {
      if (const auto* a = std::get_if<wire::Ack>(&s.frame.msg)) {
        if (a->acked_seq == seq) return a->accepted;
      }
    }
    return false;
  }

  std::int64_t settle_us_;
  std::string wal_dir_;
  HostNode::Options host_options_;
  sim::Simulator sim_;
  std::unique_ptr<NodeConfig> config_;
  std::unique_ptr<SimNet> net_;
  std::vector<LateHandler> late_;
  std::unique_ptr<RedirectorNode> redirector_;
  std::vector<std::unique_ptr<HostNode>> hosts_;
  std::vector<Transport*> transports_;
  Recorder client_;
  Transport* client_transport_ = nullptr;
};

TEST(BrainTest, RedirectAndFetchRoundTrip) {
  BrainHarness h(4);
  // Objects 0,2 home on host 1; objects 1,3 on host 2.
  EXPECT_EQ(h.AskRedirect(0, 3), 1);
  EXPECT_EQ(h.AskRedirect(1, 3), 2);
  EXPECT_TRUE(h.Fetch(0, 1, 3));
  EXPECT_TRUE(h.Fetch(1, 2, 3));
  // A fetch for an object the host does not hold is refused, not lost.
  EXPECT_FALSE(h.Fetch(1, 1, 3));
  EXPECT_EQ(h.host(1).counters().requests_serviced, 1u);
  EXPECT_EQ(h.host(1).counters().requests_unhosted, 1u);
  EXPECT_EQ(h.redirector_->counters().redirects, 2u);
}

TEST(BrainTest, UnknownObjectRedirectsToInvalidNode) {
  BrainHarness h(2);
  EXPECT_EQ(h.AskRedirect(99, 3), kInvalidNode);
  EXPECT_EQ(h.redirector_->counters().redirects_no_replica, 1u);
}

TEST(BrainTest, CreateObjOverWireNotifiesRedirector) {
  BrainHarness h(2);
  // Host 1 receives CreateObj(REPLICATE) for object 1 (homed on host 2).
  // It must accept (it is idle), and the *recipient* notifies the
  // redirector, which records the second replica.
  h.host_transport(2)->Send(1, wire::Replicate{1, 2, 1, 0.5});
  h.sim_.RunUntil(h.sim_.Now() + 20'000);
  EXPECT_EQ(h.host(1).counters().create_accepted, 1u);
  EXPECT_TRUE(h.host(1).agent().HasObject(1));
  EXPECT_EQ(h.redirector_->counters().creates_recorded, 1u);
  EXPECT_EQ(h.redirector_->redirector().ReplicaCount(1), 2);
  // The registry stayed a subset of physical copies throughout; now both
  // hosts serve object 1.
  EXPECT_TRUE(h.Fetch(1, 1, 3));
  EXPECT_TRUE(h.Fetch(1, 2, 3));
}

TEST(BrainTest, ArbitratedDropRefusedAtFloorGrantedAboveIt) {
  BrainHarness h(2);
  // Sole replica: the drop request must be refused (min_replicas 1).
  h.host_transport(2)->Send(0, wire::Migrate{1, 2, 1, 0.0});
  h.sim_.RunUntil(h.sim_.Now() + 10'000);
  EXPECT_EQ(h.redirector_->counters().drops_refused, 1u);
  EXPECT_EQ(h.redirector_->redirector().ReplicaCount(1), 1);

  // Create a second copy on host 1, then the drop is granted.
  h.host_transport(2)->Send(1, wire::Replicate{1, 2, 1, 0.5});
  h.sim_.RunUntil(h.sim_.Now() + 20'000);
  ASSERT_EQ(h.redirector_->redirector().ReplicaCount(1), 2);
  h.host_transport(2)->Send(0, wire::Migrate{1, 2, 1, 0.0});
  h.sim_.RunUntil(h.sim_.Now() + 10'000);
  EXPECT_EQ(h.redirector_->counters().drops_granted, 1u);
  EXPECT_EQ(h.redirector_->redirector().ReplicaCount(1), 1);
}

TEST(BrainTest, CrashPrunesReconnectRestoresConservation) {
  BrainHarness h(4);
  ASSERT_EQ(h.redirector_->CountObjectsWithoutReplica(), 0);

  // Host 1 crashes: its replicas (objects 0 and 2) are pruned and clients
  // are no longer redirected into it.
  h.net_->SetNodeUp(1, false);
  h.sim_.RunUntil(h.sim_.Now() + 10'000);
  EXPECT_EQ(h.redirector_->counters().hosts_pruned, 1u);
  EXPECT_EQ(h.redirector_->counters().replicas_pruned, 2u);
  EXPECT_EQ(h.redirector_->CountObjectsWithoutReplica(), 2);
  EXPECT_EQ(h.AskRedirect(0, 3), kInvalidNode);
  EXPECT_EQ(h.AskRedirect(1, 3), 2);

  // Reconnect: OnPeerUp re-announces the replica set, the redirector
  // restores it, and no object is lost.
  h.net_->SetNodeUp(1, true);
  h.sim_.RunUntil(h.sim_.Now() + 20'000);
  EXPECT_EQ(h.redirector_->counters().announces_restored, 2u);
  EXPECT_EQ(h.redirector_->CountObjectsWithoutReplica(), 0);
  EXPECT_EQ(h.AskRedirect(0, 3), 1);

  // Announcing is idempotent: a second flap restores, never double-adds.
  h.net_->SetNodeUp(1, false);
  h.sim_.RunUntil(h.sim_.Now() + 10'000);
  h.net_->SetNodeUp(1, true);
  h.sim_.RunUntil(h.sim_.Now() + 20'000);
  EXPECT_EQ(h.redirector_->redirector().ReplicaCount(0), 1);
  EXPECT_EQ(h.redirector_->CountObjectsWithoutReplica(), 0);
}

TEST(BrainTest, StatsRelayHubAndSpoke) {
  BrainHarness h(2);
  // Host 1 reports its load; the redirector relays to host 2 only.
  h.host_transport(1)->Send(0, wire::PlacementStat{1, 10.0, 1.0, 2});
  h.sim_.RunUntil(h.sim_.Now() + 20'000);
  EXPECT_EQ(h.redirector_->counters().stats_relayed, 1u);
  EXPECT_EQ(h.host(2).counters().stats_seen, 1u);
  EXPECT_EQ(h.host(1).counters().stats_seen, 0u);
}

TEST(BrainTest, OverloadedHostOffloadsInItsPlacementRound) {
  // Small watermarks and short intervals so a handful of requests push
  // host 1 into offloading mode within a few simulated seconds.
  core::ProtocolParams params;
  params.measurement_interval = SecondsToSim(1.0);
  params.placement_interval = SecondsToSim(2.0);
  params.high_watermark = 0.5;
  params.low_watermark = 0.4;
  BrainHarness h(2, params);

  // Drive requests for object 0 at host 1 while ticking both hosts (the
  // daemons call OnTick every poll; here every 100 simulated ms) until
  // host 1's round has offloaded.
  const auto offloaded = [&h] {
    return h.host(1).counters().offload_migrations +
           h.host(1).counters().offload_replications;
  };
  int step = 0;
  const auto drive = [&] {
    if (step++ % 2 == 0) h.client_transport_->Send(1, wire::Request{0, 3});
    h.sim_.RunUntil(h.sim_.Now() + 100'000);
    h.host(1).OnTick();
    h.host(2).OnTick();
  };
  while (step < 100 && offloaded() == 0) drive();

  // Host 1 exceeded hw, learned from the relayed stats that host 2 is
  // idle, and shed object 0 there. Object 0 runs far above m, so Fig. 5
  // replicated it: both hosts hold a copy and the redirector knows both.
  ASSERT_EQ(h.host(1).counters().offload_replications, 1u);
  EXPECT_EQ(h.host(1).counters().offload_migrations, 0u);
  EXPECT_TRUE(h.host(1).agent().HasObject(0));
  EXPECT_TRUE(h.host(2).agent().HasObject(0));
  EXPECT_EQ(h.redirector_->redirector().ReplicaHosts(0),
            (std::vector<NodeId>{1, 2}));

  // The client keeps fetching from host 1 only, so host 2's copy stays
  // cold and host 2's own round deletes it (Fig. 3's deletion branch) —
  // with no object lost along the way.
  while (step < 200 && h.host(2).agent().HasObject(0)) drive();
  EXPECT_FALSE(h.host(2).agent().HasObject(0));
  EXPECT_GE(h.host(2).counters().affinity_drops, 1u);
  EXPECT_EQ(h.redirector_->redirector().ReplicaHosts(0),
            (std::vector<NodeId>{1}));
  EXPECT_EQ(h.redirector_->CountObjectsWithoutReplica(), 0);
}

// ---------------------------------------------------------------------
// The redirector accepts host frames only from hosts, and refuses drops
// it cannot grant instead of aborting.
// ---------------------------------------------------------------------

TEST(BrainTest, DropRequestForUnrecordedReplicaIsRefused) {
  BrainHarness h(2);
  // Host 2 asks to drop object 0, which the redirector records on host 1
  // only — the shape of a drop drained from a spool after the redirector
  // pruned its sender, before the sender's re-announce.
  h.host_transport(2)->Send(0, wire::Migrate{0, 2, kInvalidNode, 0.0});
  h.Settle();
  EXPECT_EQ(h.redirector_->counters().drops_refused, 1u);
  EXPECT_EQ(h.redirector_->redirector().ReplicaHosts(0),
            (std::vector<NodeId>{1}));
}

TEST(BrainTest, DropRefusedUnlessSendersAffinityIsOne) {
  BrainHarness h(2);
  // Object 0: a copy on host 2, and host 1's copy at affinity 2.
  h.host_transport(1)->Send(2, wire::Replicate{0, 1, 2, 0.0});
  h.host_transport(2)->Send(1, wire::Replicate{0, 2, 1, 0.0});
  h.Settle();
  ASSERT_EQ(h.redirector_->redirector().ReplicaCount(0), 2);
  ASSERT_EQ(h.redirector_->redirector().AffinityOf(0, 1), 2);

  h.host_transport(1)->Send(0, wire::Migrate{0, 1, kInvalidNode, 0.0});
  h.Settle();
  EXPECT_EQ(h.redirector_->counters().drops_refused, 1u);
  EXPECT_EQ(h.redirector_->redirector().ReplicaCount(0), 2);
  EXPECT_EQ(h.redirector_->redirector().AffinityOf(0, 1), 2);
}

TEST(BrainTest, ReplicateNoteFromClientIsIgnored) {
  BrainHarness h(2);
  // A client claiming a copy of object 1 must not become a replica holder
  // the redirector sends requests to.
  h.client_transport_->Send(0, wire::Replicate{1, 3, 3, 0.0});
  h.Settle();
  EXPECT_EQ(h.redirector_->counters().creates_recorded, 0u);
  EXPECT_EQ(h.redirector_->redirector().ReplicaHosts(1),
            (std::vector<NodeId>{2}));
  EXPECT_EQ(h.AskRedirect(1, 3), 2);

  // Nor may a client's CreateObj make host 1 take a copy, which host 1
  // would then report to the redirector.
  h.client_transport_->Send(1, wire::Replicate{1, 3, 1, 0.0});
  h.client_transport_->Send(1, wire::Migrate{1, 3, 1, 0.0});
  h.Settle();
  EXPECT_FALSE(h.host(1).agent().HasObject(1));
  EXPECT_EQ(h.host(1).counters().create_refused, 2u);
  EXPECT_EQ(h.redirector_->redirector().ReplicaHosts(1),
            (std::vector<NodeId>{2}));
}

TEST(BrainTest, ClientPlacementStatIsNeitherRelayedNorKept) {
  BrainHarness h(2);
  // A client's load report would make it an offload recipient that never
  // answers a CreateObj.
  h.client_transport_->Send(0, wire::PlacementStat{3, 0.0, 1.0, 0});
  h.client_transport_->Send(1, wire::PlacementStat{3, 0.0, 1.0, 0});
  // Nor may a client report another host idle: only the redirector's
  // relays reach a host's load directory.
  h.client_transport_->Send(1, wire::PlacementStat{2, 0.0, 1.0, 0});
  h.Settle();
  EXPECT_EQ(h.redirector_->counters().stats_relayed, 0u);
  EXPECT_EQ(h.host(1).counters().stats_seen, 0u);
  EXPECT_EQ(h.host(2).counters().stats_seen, 0u);
}

TEST(BrainTest, AnnounceLowersAffinityAndNeverRaisesIt) {
  BrainHarness h(2);
  h.host_transport(2)->Send(1, wire::Replicate{0, 2, 1, 0.0});
  h.Settle();
  ASSERT_EQ(h.redirector_->redirector().AffinityOf(0, 1), 2);
  // A placement round shed one unit: the Announce lowers the record, and
  // repeating it changes nothing.
  for (int i = 0; i < 2; ++i) {
    h.host_transport(1)->Send(0, wire::Announce{0, 1, 1});
    h.Settle();
    EXPECT_EQ(h.redirector_->redirector().AffinityOf(0, 1), 1);
  }
  EXPECT_EQ(h.redirector_->counters().affinity_reductions, 1u);
  // Raising is a Replicate note's job, not an Announce's.
  h.host_transport(1)->Send(0, wire::Announce{0, 1, 3});
  h.Settle();
  EXPECT_EQ(h.redirector_->redirector().AffinityOf(0, 1), 1);
}

// ---------------------------------------------------------------------
// The placement round's asynchronous edges, over links 1 ms long.
// ---------------------------------------------------------------------

/// Measures every 10 s and places every 20 s.
core::ProtocolParams ShortSchedule() {
  core::ProtocolParams params;
  params.measurement_interval = SecondsToSim(10.0);
  params.placement_interval = SecondsToSim(20.0);
  return params;
}

/// Arms host 1's timers, runs `fetches`, then ticks host 1 once its
/// placement interval has elapsed, which starts its first round.
template <class Fetches>
void StartFirstRound(BrainHarness& h, Fetches fetches) {
  const SimTime armed_at = h.sim_.Now();
  h.host(1).OnTick();
  fetches();
  h.sim_.RunUntil(armed_at + ShortSchedule().placement_interval);
  h.host(1).OnTick();
}

/// Every replica the redirector records exists on its host.
void ExpectRegistrySubset(BrainHarness& h, std::int32_t num_objects) {
  for (ObjectId x = 0; x < num_objects; ++x) {
    for (const NodeId host : h.redirector_->redirector().ReplicaHosts(x)) {
      EXPECT_TRUE(h.host(host).agent().HasObject(x))
          << "object " << x << " host " << host;
    }
  }
}

TEST(PlacementRoundTest, RecipientDownMidCreateObjTriesNextCandidate) {
  BrainHarness h(3, ShortSchedule(), kThreeHosts);
  // Object 0 (host 1) is requested half through host 2, half through
  // host 3: both are geo-replication candidates, host 2 first.
  StartFirstRound(h, [&h] {
    for (int i = 0; i < 20; ++i) {
      h.Fetch(0, 1, 2);
      h.Fetch(0, 1, 3);
    }
  });
  ASSERT_TRUE(h.host(1).placement_running());
  // Host 2 dies with the CreateObj in flight: the round resumes with a
  // refusal, keeps x, and asks host 3.
  h.net_->SetNodeUp(2, false);
  h.Settle();
  ASSERT_FALSE(h.host(1).placement_running());
  EXPECT_EQ(h.host(1).last_round().geo_replications, 1);
  EXPECT_TRUE(h.host(1).agent().HasObject(0));
  EXPECT_FALSE(h.host(2).agent().HasObject(0));
  EXPECT_TRUE(h.host(3).agent().HasObject(0));
  EXPECT_EQ(h.redirector_->redirector().ReplicaHosts(0),
            (std::vector<NodeId>{1, 3}));

  h.net_->SetNodeUp(2, true);
  h.Settle();
  EXPECT_EQ(h.redirector_->CountObjectsWithoutReplica(), 0);
  ExpectRegistrySubset(h, 3);
}

TEST(PlacementRoundTest, RedirectorDownMidDropKeepsCopy) {
  BrainHarness h(3, ShortSchedule(), kThreeHosts);
  // A second copy of object 0 on host 2, so a drop would be granted.
  h.host_transport(1)->Send(2, wire::Replicate{0, 1, 2, 0.0});
  h.Settle();
  ASSERT_EQ(h.redirector_->redirector().ReplicaCount(0), 2);
  // Object 0 is cold on host 1: its round asks the redirector to drop it.
  StartFirstRound(h, [] {});
  ASSERT_TRUE(h.host(1).placement_running());
  h.net_->SetNodeUp(0, false);
  h.Settle();
  ASSERT_FALSE(h.host(1).placement_running());
  EXPECT_EQ(h.host(1).last_round().affinity_drops, 0);
  EXPECT_TRUE(h.host(1).agent().HasObject(0));

  h.net_->SetNodeUp(0, true);
  h.Settle();
  EXPECT_EQ(h.redirector_->CountObjectsWithoutReplica(), 0);
  EXPECT_EQ(h.redirector_->redirector().ReplicaHosts(0),
            (std::vector<NodeId>{1, 2}));
  ExpectRegistrySubset(h, 3);
}

/// Replaces host 3's brain with `silent`, which records frames and never
/// answers, and starts host 1's round with object 0 — requested only
/// through host 3, at a unit rate between u and m — geo-migrating there
/// (and, once refused, not geo-replicating). Returns the seq of the
/// parked CreateObj frame.
std::uint64_t ParkRoundAtSilentPeer(BrainHarness& h, Recorder* silent) {
  h.late_[3].Bind(silent);
  StartFirstRound(h, [&h] {
    for (int i = 0; i < 3; ++i) h.Fetch(0, 1, 3);
  });
  h.Settle();
  RADAR_CHECK(h.host(1).placement_running());
  for (const Recorder::Seen& seen : silent->seen) {
    if (const auto* m = std::get_if<wire::Migrate>(&seen.frame.msg)) {
      if (m->object == 0 && seen.from == 1) return seen.frame.seq;
    }
  }
  RADAR_CHECK_MSG(false, "host 1 sent no CreateObj(MIGRATE) to host 3");
  return 0;
}

TEST(PlacementRoundTest, AckFromAnotherPeerLeavesRoundWaiting) {
  BrainHarness h(3, ShortSchedule(), kThreeHosts);
  Recorder silent;
  const std::uint64_t seq = ParkRoundAtSilentPeer(h, &silent);
  // Host 2 echoes the awaited seq: not the answer the round waits on.
  h.host_transport(2)->Send(1, wire::Ack{seq, true, false});
  h.Settle();
  EXPECT_TRUE(h.host(1).placement_running());
  // The awaited peer's refusal resumes it.
  h.host_transport(3)->Send(1, wire::Ack{seq, false, false});
  h.Settle();
  EXPECT_FALSE(h.host(1).placement_running());
  EXPECT_EQ(h.host(1).last_round().geo_migrations, 0);
  EXPECT_TRUE(h.host(1).agent().HasObject(0));
}

TEST(PlacementRoundTest, FetchesAndCreateObjRunDuringSuspendedRound) {
  // 96 objects: host 1 holds 32, a full slab chunk, so one more record
  // grows the agent's slab and the parallel arrays keyed by it.
  constexpr std::int32_t kObjects = 96;
  BrainHarness h(kObjects, ShortSchedule(), kThreeHosts);
  Recorder silent;
  const std::uint64_t seq = ParkRoundAtSilentPeer(h, &silent);
  const std::size_t held = h.host(1).agent().NumObjects();
  ASSERT_EQ(held, 32u);

  // While the round waits: fetches append to the count rows it walks
  // (object 0's, and object 3's, which it has yet to reach), and host 2's
  // CreateObj inserts a record.
  for (int i = 0; i < 200; ++i) {
    h.client_transport_->Send(1, wire::Request{0, 2});
    h.client_transport_->Send(1, wire::Request{3, 2});
  }
  h.host_transport(2)->Send(1, wire::Replicate{1, 2, 1, 0.5});
  h.Settle();
  EXPECT_TRUE(h.host(1).placement_running());
  EXPECT_EQ(h.host(1).agent().NumObjects(), held + 1);
  EXPECT_EQ(h.host(1).counters().requests_serviced, 3u + 400u);

  // The rest of the round asks the redirector about 31 cold objects, one
  // 2 ms exchange at a time.
  h.host_transport(3)->Send(1, wire::Ack{seq, false, false});
  h.sim_.RunUntil(h.sim_.Now() + SecondsToSim(1.0));
  EXPECT_FALSE(h.host(1).placement_running());
  EXPECT_TRUE(h.host(1).agent().HasObject(0));
  EXPECT_TRUE(h.host(1).agent().HasObject(1));
  EXPECT_EQ(h.redirector_->CountObjectsWithoutReplica(), 0);
  ExpectRegistrySubset(h, kObjects);
}

TEST(PlacementRoundTest, PlacementTickDuringRoundStartsNoSecondRound) {
  BrainHarness h(3, ShortSchedule(), kThreeHosts);
  Recorder silent;
  const std::uint64_t seq = ParkRoundAtSilentPeer(h, &silent);
  h.sim_.RunUntil(h.sim_.Now() + ShortSchedule().placement_interval);
  h.host(1).OnTick();
  h.Settle();
  EXPECT_TRUE(h.host(1).placement_running());
  EXPECT_EQ(h.host(1).counters().placement_rounds, 0u);
  int creates = 0;
  for (const Recorder::Seen& seen : silent.seen) {
    if (std::holds_alternative<wire::Migrate>(seen.frame.msg)) ++creates;
  }
  EXPECT_EQ(creates, 1);

  h.host_transport(3)->Send(1, wire::Ack{seq, false, false});
  h.Settle();
  EXPECT_FALSE(h.host(1).placement_running());
  EXPECT_EQ(h.host(1).counters().placement_rounds, 1u);
}

// ---------------------------------------------------------------------
// The replica-set WAL: golden op bytes, restart, torn tail, compaction.
// ---------------------------------------------------------------------

/// A fresh directory under the test temp dir, removed with its files.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(testing::TempDir() + "radar_transport_" + tag + "_" +
              std::to_string(::getpid())) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() { std::filesystem::remove_all(path_); }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

using Payloads = std::vector<std::vector<std::uint8_t>>;

/// The record payloads of `host`'s WAL, which must read back clean with
/// every record the host's own.
Payloads WalPayloads(const BrainHarness& h, NodeId host) {
  std::string error;
  const auto read = binlog::ReadBinlog(h.WalPath(host), &error);
  RADAR_CHECK_MSG(read.has_value(), "WAL must exist");
  EXPECT_TRUE(read->clean) << read->stop_reason;
  Payloads payloads;
  for (const binlog::Record& record : read->records) {
    EXPECT_EQ(record.src, host);
    EXPECT_EQ(record.dst, host);
    payloads.push_back(record.payload);
  }
  return payloads;
}

std::map<ObjectId, int> Replicas(const HostNode& node) {
  std::map<ObjectId, int> replicas;
  for (const ObjectId x : node.agent().Objects()) {
    replicas[x] = node.agent().Affinity(x);
  }
  return replicas;
}

TEST(HostWalTest, JournalsCreatesAndDropsInTheGoldenLayout) {
  ScratchDir dir("journal");
  BrainHarness h(6, ShortSchedule(), kThreeHosts, 1000, dir.path());
  // Host 1 holds objects 0 and 3. A second copy of 3 on host 2 lets host
  // 1's first round drop it; object 0's drop is refused (sole replica).
  h.host_transport(1)->Send(2, wire::Replicate{3, 1, 2, 0.0});
  h.Settle();
  StartFirstRound(h, [] {});
  h.Settle();
  ASSERT_FALSE(h.host(1).placement_running());
  ASSERT_EQ(h.host(1).last_round().affinity_drops, 1);

  // {op, object i32 LE, value i32 LE}: 'C' carries the affinity after the
  // change, 'D' a zero.
  EXPECT_EQ(WalPayloads(h, 1),
            (Payloads{{'C', 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00},
                      {'C', 0x03, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00},
                      {'D', 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}}));
  EXPECT_EQ(WalPayloads(h, 2),
            (Payloads{{'C', 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00},
                      {'C', 0x04, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00},
                      {'C', 0x03, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00}}));
}

TEST(HostWalTest, RestartRebuildsReplicasTornTailCostsOnlyThatRecord) {
  ScratchDir dir("restart");
  BrainHarness h(6, {}, kThreeHosts, 1000, dir.path());
  // Host 2 holds objects 1 and 4; it takes a second unit of 1 and a copy
  // of 3.
  h.host_transport(3)->Send(2, wire::Replicate{1, 3, 2, 0.0});
  h.Settle();
  h.host_transport(1)->Send(2, wire::Replicate{3, 1, 2, 0.0});
  h.Settle();
  ASSERT_EQ(WalPayloads(h, 2).size(), 4u);

  // The restarted brain rebuilds replicas and affinities, and boot
  // compaction leaves one 'C' per replica, in object order.
  EXPECT_EQ(Replicas(h.Restart(2)),
            (std::map<ObjectId, int>{{1, 2}, {3, 1}, {4, 1}}));
  EXPECT_EQ(WalPayloads(h, 2),
            (Payloads{{'C', 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00},
                      {'C', 0x03, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00},
                      {'C', 0x04, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00}}));

  // A kill mid-append tears the last record: only that record is lost,
  // and compaction heals the tail.
  std::filesystem::resize_file(h.WalPath(2),
                               std::filesystem::file_size(h.WalPath(2)) - 1);
  EXPECT_EQ(Replicas(h.Restart(2)),
            (std::map<ObjectId, int>{{1, 2}, {3, 1}}));
  EXPECT_EQ(WalPayloads(h, 2),
            (Payloads{{'C', 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00},
                      {'C', 0x03, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00}}));
}

// ---------------------------------------------------------------------
// TcpTransport over 127.0.0.1: loopback pairs through the real poll loop.
// ---------------------------------------------------------------------

/// A listening socket on an ephemeral 127.0.0.1 port (bind port 0 and
/// read the port back); closed on destruction.
class Listener {
 public:
  Listener() {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    RADAR_CHECK_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    RADAR_CHECK_EQ(
        ::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
        0);
    RADAR_CHECK_EQ(::listen(fd_, 8), 0);
    RADAR_CHECK_EQ(
        ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    port_ = ntohs(addr.sin_port);
  }
  ~Listener() { Close(); }
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  std::uint16_t port() const { return port_; }
  /// Accepts one pending connection; -1 when none is waiting.
  int Accept() { return ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC); }
  /// Frees the port for a TcpTransport to bind.
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Redirector 0, hosts 1 and 2 and client 3 on ephemeral loopback ports.
/// `peer2` listens on host 2's port; close it to let a TcpTransport bind.
NodeConfig LoopbackConfig(const Listener& peer2) {
  Listener redirector;
  Listener host1;
  std::string error;
  auto config = Parse(
      "0 redirector 127.0.0.1 " + std::to_string(redirector.port()) +
          "\n1 host 127.0.0.1 " + std::to_string(host1.port()) +
          "\n2 host 127.0.0.1 " + std::to_string(peer2.port()) +
          "\n3 client 127.0.0.1 0\n",
      &error);
  RADAR_CHECK_MSG(config.has_value(), "loopback config must parse");
  return *std::move(config);
}

/// Polls every transport until `done()` holds; false after ~10k rounds.
template <class Done>
bool PollUntil(std::initializer_list<TcpTransport*> transports, Done done) {
  for (int i = 0; i < 10'000 && !done(); ++i) {
    for (TcpTransport* t : transports) t->PollOnce(1);
  }
  return done();
}

std::vector<ObjectId> RequestedObjects(const Recorder& recorder) {
  std::vector<ObjectId> objects;
  for (const Recorder::Seen& seen : recorder.seen) {
    objects.push_back(std::get<wire::Request>(seen.frame.msg).object);
  }
  return objects;
}

TEST(TcpTransportTest, HelloIdentifiesBothEndsAndFramesArriveInOrder) {
  Listener port2;
  const NodeConfig config = LoopbackConfig(port2);
  port2.Close();
  Recorder r1, r2;
  TcpTransport t1(config, 1, wire::PeerRole::kHost, &r1, {});
  TcpTransport t2(config, 2, wire::PeerRole::kHost, &r2, {});
  std::string error;
  ASSERT_TRUE(t1.Start(&error)) << error;
  ASSERT_TRUE(t2.Start(&error)) << error;
  t1.ConnectTo(2);
  // The dialer knows whom it dialed; the acceptor learns it from the
  // dialer's Hello.
  ASSERT_TRUE(PollUntil({&t1, &t2},
                        [&] { return t1.IsPeerUp(2) && t2.IsPeerUp(1); }));
  EXPECT_EQ(r1.ups, (std::vector<NodeId>{2}));
  EXPECT_EQ(r2.ups, (std::vector<NodeId>{1}));
  EXPECT_EQ(t1.stats().connects, 1u);
  EXPECT_EQ(t2.stats().connects, 1u);

  // Both directions of the one connection deliver in send order.
  std::vector<ObjectId> sent;
  for (ObjectId x = 0; x < 100; ++x) {
    t1.Send(2, wire::Request{x, 1});
    t2.Send(1, wire::Request{x, 2});
    sent.push_back(x);
  }
  ASSERT_TRUE(PollUntil({&t1, &t2}, [&] {
    return r1.seen.size() == sent.size() && r2.seen.size() == sent.size();
  }));
  EXPECT_EQ(RequestedObjects(r1), sent);
  EXPECT_EQ(RequestedObjects(r2), sent);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(r2.seen[i].from, 1);
    EXPECT_EQ(r1.seen[i].from, 2);
    if (i > 0) {
      EXPECT_GT(r2.seen[i].frame.seq, r2.seen[i - 1].frame.seq);
    }
  }
  EXPECT_EQ(t1.stats().frames_received, sent.size());
  EXPECT_EQ(t2.stats().frames_received, sent.size());
}

/// Records, and sends `first` to a peer the moment it comes up.
class SendOnPeerUp final : public Recorder {
 public:
  explicit SendOnPeerUp(wire::Message first) : first_(first) {}

  void OnPeerUp(NodeId peer) override {
    Recorder::OnPeerUp(peer);
    transport->Send(peer, first_);
  }

  Transport* transport = nullptr;

 private:
  wire::Message first_;
};

TEST(TcpTransportTest, SpoolsWhilePeerDownAndDrainsAheadOfNewTraffic) {
  ScratchDir spool_dir("spool");
  Listener port2;
  const NodeConfig config = LoopbackConfig(port2);
  port2.Close();
  TcpTransport::Options options;
  options.spool_dir = spool_dir.path();
  SendOnPeerUp r1(wire::Request{3, 1});
  TcpTransport t1(config, 1, wire::PeerRole::kHost, &r1, options);
  r1.transport = &t1;
  std::string error;
  ASSERT_TRUE(t1.Start(&error)) << error;
  t1.ConnectTo(2);

  // Host 2 is not listening: frames go to the disk spool.
  t1.Send(2, wire::Request{1, 1});
  t1.Send(2, wire::Request{2, 1});
  for (int i = 0; i < 20; ++i) t1.PollOnce(1);
  EXPECT_FALSE(t1.IsPeerUp(2));
  EXPECT_EQ(t1.SpoolDepth(2), 2u);
  EXPECT_EQ(t1.stats().frames_spooled, 2u);
  const std::string spool = spool_dir.path() + "/spool-1-to-2.binlog";
  const auto spooled = binlog::ReadBinlog(spool, &error);
  ASSERT_TRUE(spooled.has_value()) << error;
  EXPECT_EQ(spooled->records.size(), 2u);

  // Host 2 comes up: the redial drains the spool, and the frame the brain
  // sends on OnPeerUp follows it.
  Recorder r2;
  TcpTransport t2(config, 2, wire::PeerRole::kHost, &r2, {});
  ASSERT_TRUE(t2.Start(&error)) << error;
  ASSERT_TRUE(PollUntil({&t1, &t2}, [&] { return r2.seen.size() == 3; }));
  EXPECT_EQ(RequestedObjects(r2), (std::vector<ObjectId>{1, 2, 3}));
  EXPECT_EQ(t1.stats().frames_drained, 2u);
  EXPECT_EQ(t1.SpoolDepth(2), 0u);
  const auto drained = binlog::ReadBinlog(spool, &error);
  ASSERT_TRUE(drained.has_value()) << error;
  EXPECT_TRUE(drained->records.empty());
}

TEST(TcpTransportTest, CorruptStreamDropsConnectionAndDialerReconnects) {
  // Host 2 is a raw socket that answers the dialer's Hello with garbage.
  Listener host2;
  const NodeConfig config = LoopbackConfig(host2);
  Recorder r1;
  TcpTransport t1(config, 1, wire::PeerRole::kHost, &r1, {});
  std::string error;
  ASSERT_TRUE(t1.Start(&error)) << error;
  t1.ConnectTo(2);
  int first = -1;
  ASSERT_TRUE(PollUntil({&t1}, [&] {
    if (first < 0) first = host2.Accept();
    return first >= 0 && t1.IsPeerUp(2);
  }));
  const char junk[] = "not a RaDaR frame";
  ASSERT_EQ(::send(first, junk, sizeof(junk), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(junk)));
  ASSERT_TRUE(PollUntil({&t1}, [&] { return t1.stats().decode_errors == 1; }));
  EXPECT_EQ(t1.stats().disconnects, 1u);
  EXPECT_EQ(r1.downs, (std::vector<NodeId>{2}));
  EXPECT_TRUE(r1.seen.empty());

  // The dialer backs off and dials again from a fresh socket.
  int second = -1;
  ASSERT_TRUE(PollUntil({&t1}, [&] {
    if (second < 0) second = host2.Accept();
    return second >= 0 && t1.IsPeerUp(2);
  }));
  EXPECT_EQ(t1.stats().connects, 2u);
  EXPECT_EQ(r1.ups, (std::vector<NodeId>{2, 2}));
  ::close(first);
  ::close(second);
}

TEST(TcpTransportTest, FrameDribbledOneByteAtATimeIsDeliveredOnce) {
  // Host 2 is a raw socket that writes its Hello and one Request a byte
  // at a time, each byte in its own poll iteration of the dialer.
  Listener host2;
  const NodeConfig config = LoopbackConfig(host2);
  Recorder r1;
  TcpTransport t1(config, 1, wire::PeerRole::kHost, &r1, {});
  std::string error;
  ASSERT_TRUE(t1.Start(&error)) << error;
  t1.ConnectTo(2);
  int peer = -1;
  ASSERT_TRUE(PollUntil({&t1}, [&] {
    if (peer < 0) peer = host2.Accept();
    return peer >= 0 && t1.IsPeerUp(2);
  }));
  const int one = 1;
  ASSERT_EQ(::setsockopt(peer, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)),
            0);
  std::vector<std::uint8_t> bytes =
      wire::Encode(1, wire::Hello{2, wire::PeerRole::kHost});
  wire::EncodeAppend(bytes, 7, wire::Request{42, 2});
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    ASSERT_EQ(::send(peer, &bytes[i], 1, MSG_NOSIGNAL), 1);
    t1.PollOnce(100);
    ASSERT_TRUE(r1.seen.empty()) << "delivered after byte " << i;
  }
  ASSERT_EQ(::send(peer, &bytes.back(), 1, MSG_NOSIGNAL), 1);
  ASSERT_TRUE(PollUntil({&t1}, [&] { return !r1.seen.empty(); }));
  for (int i = 0; i < 10; ++i) t1.PollOnce(1);
  ASSERT_EQ(r1.seen.size(), 1u);
  EXPECT_EQ(r1.seen[0].from, 2);
  EXPECT_EQ(r1.seen[0].frame.seq, 7u);
  EXPECT_EQ(std::get<wire::Request>(r1.seen[0].frame.msg).object, 42);
  EXPECT_EQ(t1.stats().frames_received, 1u);
  EXPECT_EQ(t1.stats().decode_errors, 0u);
  EXPECT_TRUE(t1.IsPeerUp(2));
  ::close(peer);
}

TEST(TcpTransportTest, BurstPastTheSocketBuffersArrivesInOrder) {
  Listener port2;
  const NodeConfig config = LoopbackConfig(port2);
  port2.Close();
  Recorder r1, r2;
  TcpTransport t1(config, 1, wire::PeerRole::kHost, &r1, {});
  TcpTransport t2(config, 2, wire::PeerRole::kHost, &r2, {});
  std::string error;
  ASSERT_TRUE(t1.Start(&error)) << error;
  ASSERT_TRUE(t2.Start(&error)) << error;
  t1.ConnectTo(2);
  ASSERT_TRUE(PollUntil({&t1, &t2},
                        [&] { return t1.IsPeerUp(2) && t2.IsPeerUp(1); }));

  // More bytes than one loopback connection's kernel buffers hold while
  // the receiver does not read: at least 8 MiB (tcp_wmem's usual maximum
  // is 4 MiB), twice this kernel's maximum when it is larger. 28-byte
  // frames straddle every 64 KiB read.
  std::size_t wmem_min = 0, wmem_default = 0, wmem_max = 0;
  std::ifstream("/proc/sys/net/ipv4/tcp_wmem") >> wmem_min >> wmem_default >>
      wmem_max;
  const std::size_t burst = std::max<std::size_t>(8u << 20, 2 * wmem_max);
  const std::size_t frame_size = wire::Encode(1, wire::Request{0, 1}).size();
  std::vector<ObjectId> sent;
  for (ObjectId x = 0; sent.size() * frame_size <= burst; ++x) {
    t1.Send(2, wire::Request{x, 1});
    sent.push_back(x);
  }
  t1.PollOnce(0);
  EXPECT_FALSE(t1.Flushed()) << "the kernel took the whole burst";

  ASSERT_TRUE(PollUntil({&t1, &t2}, [&] {
    return r2.seen.size() == sent.size();
  })) << r2.seen.size() << " of " << sent.size() << " frames arrived";
  EXPECT_EQ(RequestedObjects(r2), sent);
  for (std::size_t i = 1; i < r2.seen.size(); ++i) {
    ASSERT_GT(r2.seen[i].frame.seq, r2.seen[i - 1].frame.seq) << "frame " << i;
  }
  EXPECT_EQ(t2.stats().frames_received, sent.size());
  EXPECT_EQ(t2.stats().decode_errors, 0u);
  EXPECT_EQ(t1.stats().frames_sent, sent.size());
  EXPECT_TRUE(t1.Flushed());
}

/// Records every frame and forwards it to the brain.
class Tap final : public Recorder {
 public:
  explicit Tap(Handler* brain) : brain_(brain) {}

  void OnFrame(NodeId from, const wire::DecodedFrame& frame) override {
    Recorder::OnFrame(from, frame);
    brain_->OnFrame(from, frame);
  }
  void OnPeerUp(NodeId peer) override { brain_->OnPeerUp(peer); }
  void OnPeerDown(NodeId peer) override { brain_->OnPeerDown(peer); }

 private:
  Handler* brain_;
};

TEST(TcpTransportTest, HostToHostReplicateIsAckedAndRecorded) {
  Listener port2;
  const NodeConfig config = LoopbackConfig(port2);
  port2.Close();
  // The brains outlive the transports, which call them while closing.
  std::unique_ptr<RedirectorNode> redirector;
  std::unique_ptr<HostNode> host1, host2;
  std::unique_ptr<Tap> tap1;
  TcpTransport t0(config, 0, wire::PeerRole::kRedirector, nullptr, {});
  TcpTransport t1(config, 1, wire::PeerRole::kHost, nullptr, {});
  TcpTransport t2(config, 2, wire::PeerRole::kHost, nullptr, {});
  redirector = std::make_unique<RedirectorNode>(config, &t0,
                                                RedirectorNode::Options{2});
  HostNode::Options options;
  options.num_objects = 2;
  host1 = std::make_unique<HostNode>(config, 1, &t1, options);
  host2 = std::make_unique<HostNode>(config, 2, &t2, options);
  tap1 = std::make_unique<Tap>(host1.get());
  t0.SetHandler(redirector.get());
  t1.SetHandler(tap1.get());
  t2.SetHandler(host2.get());
  std::string error;
  for (TcpTransport* t : {&t0, &t1, &t2}) ASSERT_TRUE(t->Start(&error)) << error;
  for (const NodeId peer : config.PeersToDial(1)) t1.ConnectTo(peer);
  for (const NodeId peer : config.PeersToDial(2)) t2.ConnectTo(peer);
  ASSERT_TRUE(host1->Init(&error)) << error;
  ASSERT_TRUE(host2->Init(&error)) << error;
  ASSERT_TRUE(PollUntil({&t0, &t1, &t2}, [&] {
    return t1.IsPeerUp(0) && t1.IsPeerUp(2) && t2.IsPeerUp(0) &&
           t2.IsPeerUp(1);
  }));

  // Object 0 homes on host 1, which asks host 2 for a replica the way a
  // placement round's CreateObj(REPLICATE) does.
  const std::uint64_t seq = t1.Send(2, wire::Replicate{0, 1, 2, 0.5});
  std::optional<wire::Ack> ack;
  ASSERT_TRUE(PollUntil({&t0, &t1, &t2}, [&] {
    for (const Recorder::Seen& seen : tap1->seen) {
      const auto* a = std::get_if<wire::Ack>(&seen.frame.msg);
      if (seen.from == 2 && a != nullptr && a->acked_seq == seq) ack = *a;
    }
    return ack.has_value() && redirector->counters().creates_recorded == 1;
  }));
  EXPECT_TRUE(ack->accepted);
  EXPECT_TRUE(ack->created_new_copy);
  EXPECT_EQ(host2->counters().create_accepted, 1u);
  EXPECT_TRUE(host2->agent().HasObject(0));
  EXPECT_EQ(redirector->redirector().ReplicaHosts(0),
            (std::vector<NodeId>{1, 2}));
}

// ---------------------------------------------------------------------
// One placement implementation: the daemons' rounds decide exactly what
// Cluster's do.
// ---------------------------------------------------------------------

/// Asserts equal host replica sets and affinities, and equal redirector
/// replica sets and affinities.
void ExpectSameReplicas(BrainHarness& d, const core::Cluster& cluster,
                        std::int32_t num_objects, int cycle) {
  for (const NodeId host : d.config_->hosts()) {
    const core::HostAgent& daemon = d.host(host).agent();
    const core::HostAgent& sim = cluster.host(host);
    ASSERT_EQ(daemon.Objects(), sim.Objects())
        << "cycle " << cycle << " host " << host;
    for (const ObjectId x : daemon.Objects()) {
      ASSERT_EQ(daemon.Affinity(x), sim.Affinity(x))
          << "cycle " << cycle << " host " << host << " object " << x;
    }
  }
  for (ObjectId x = 0; x < num_objects; ++x) {
    const core::Redirector& daemon = d.redirector_->redirector();
    const core::Redirector& sim = cluster.redirectors().For(x);
    ASSERT_EQ(daemon.ReplicaHosts(x), sim.ReplicaHosts(x))
        << "cycle " << cycle << " object " << x;
    for (const NodeId host : daemon.ReplicaHosts(x)) {
      ASSERT_EQ(daemon.AffinityOf(x, host), sim.AffinityOf(x, host))
          << "cycle " << cycle << " object " << x << " host " << host;
    }
  }
}

TEST(PlacementEquivalenceTest, DaemonRoundsMatchClusterRounds) {
  core::ProtocolParams params;
  params.measurement_interval = SecondsToSim(10.0);
  params.placement_interval = 3 * params.measurement_interval;
  params.high_watermark = 10.0;
  params.low_watermark = 8.0;
  constexpr std::int32_t kObjects = 6;  // homes: x mod 3 -> hosts 1, 2, 3
  constexpr NodeId kClient = 4;
  BrainHarness d(kObjects, params, kThreeHosts, /*delay_us=*/0);
  const NodeConfig& config = *d.config_;
  const CliqueDistance distance(config.num_nodes());
  core::Cluster cluster(config.num_nodes(), distance, params,
                        {config.redirector()});
  cluster.set_liveness([&config](NodeId n) { return config.IsHost(n); });
  for (ObjectId x = 0; x < kObjects; ++x) {
    cluster.PlaceInitialObject(x, config.InitialHome(x));
  }

  // One fetch, both ways: the redirector's Fig. 2 choice, then the
  // servicing host records it along the daemon's preference path.
  const auto fetch = [&](ObjectId x, NodeId gateway) {
    const NodeId host = cluster.RouteRequest(x, gateway);
    ASSERT_EQ(d.AskRedirect(x, gateway), host) << "object " << x;
    std::vector<NodeId> path{host};
    if (gateway != host && config.IsHost(gateway)) {
      path.push_back(gateway);
    }
    ASSERT_TRUE(cluster.host(host).RecordServicedIfHosted(x, path));
    ASSERT_TRUE(d.Fetch(x, host, gateway));
  };
  struct Stream {
    int first_cycle, last_cycle;
    ObjectId x;
    NodeId gateway;
    int per_cycle;
  };
  const std::vector<Stream> streams = {
      // Object 0 (host 1), reached through host 2: geo-migrates there.
      {0, 10, 0, 2, 2},
      // Object 1 (host 2), half through host 1: geo-replicates to host 1.
      // Then only through host 1: the share Fig. 2 still sends host 2
      // geo-migrates onto host 1's copy (affinity 2), and once cold that
      // copy sheds a unit (an Announce) before its drop is refused.
      {0, 3, 1, 1, 2},
      {0, 3, 1, kClient, 2},
      {4, 6, 1, 1, 6},
      // Object 2 (host 3) overloads host 3: offload replication. Object 5
      // (host 3), light and half through host 1, ranks first in Fig. 5's
      // order: offload migration.
      {4, 6, 2, kClient, 110},
      {4, 4, 5, 1, 3},
      {4, 4, 5, kClient, 3},
  };

  // Host i arms its timers at cycle i - 1, so from cycle 3 on exactly one
  // host places per cycle, after the others' fresh reports are relayed:
  // the loads the daemon reads equal the live estimates Cluster reads.
  const SimTime t0 = SecondsToSim(1.0);
  constexpr int kCycles = 12;
  core::PlacementStats totals;
  int rounds = 0;
  for (int k = 0; k <= kCycles; ++k) {
    const SimTime t = t0 + k * params.measurement_interval;
    d.sim_.RunUntil(t);
    const NodeId placer = k >= 3 ? k % 3 + 1 : kInvalidNode;
    for (const NodeId host : config.hosts()) {
      if (host - 1 > k || host == placer) continue;
      d.host(host).OnTick();
      if (k >= host) cluster.TickMeasurement(host, t);
    }
    d.Settle();
    if (placer != kInvalidNode) {
      d.host(placer).OnTick();
      cluster.TickMeasurement(placer, t);
      const core::PlacementStats expected = cluster.RunPlacement(placer, t);
      d.Settle();
      ASSERT_FALSE(d.host(placer).placement_running()) << "cycle " << k;
      ASSERT_EQ(d.host(placer).counters().placement_rounds,
                static_cast<std::uint64_t>(k / 3)) << "cycle " << k;
      const core::PlacementStats& got = d.host(placer).last_round();
      ASSERT_EQ(got, expected)
          << "cycle " << k << ": daemon drops/gm/gr/om/or "
          << got.affinity_drops << "/" << got.geo_migrations << "/"
          << got.geo_replications << "/" << got.offload_migrations << "/"
          << got.offload_replications << ", cluster "
          << expected.affinity_drops << "/" << expected.geo_migrations
          << "/" << expected.geo_replications << "/"
          << expected.offload_migrations << "/"
          << expected.offload_replications;
      ExpectSameReplicas(d, cluster, kObjects, k);
      ++rounds;
      totals.affinity_drops += expected.affinity_drops;
      totals.geo_migrations += expected.geo_migrations;
      totals.geo_replications += expected.geo_replications;
      totals.offload_migrations += expected.offload_migrations;
      totals.offload_replications += expected.offload_replications;
    }
    for (const Stream& st : streams) {
      if (k < st.first_cycle || k > st.last_cycle) continue;
      for (int i = 0; i < st.per_cycle; ++i) fetch(st.x, st.gateway);
    }
  }
  EXPECT_EQ(rounds, kCycles - 2);
  EXPECT_GE(totals.affinity_drops, 1);
  EXPECT_GE(totals.geo_migrations, 1);
  EXPECT_GE(totals.geo_replications, 1);
  EXPECT_GE(totals.offload_migrations, 1);
  EXPECT_GE(totals.offload_replications, 1);
  // One of the affinity drops shed a unit of a multi-unit replica, which
  // the daemon carries in an Announce.
  EXPECT_GE(d.redirector_->counters().affinity_reductions, 1u);
  EXPECT_EQ(d.redirector_->CountObjectsWithoutReplica(), 0);
}

}  // namespace
}  // namespace radar::transport
