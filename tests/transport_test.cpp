// Tests for the real-system-mode transport layer (src/transport): node
// config parsing, the SimNet transport's TCP-like semantics (delays,
// spool-while-down, drain-on-reconnect, in-flight loss), and the
// HostNode/RedirectorNode brains driven over SimNet — the same protocol
// exchanges the daemons run over sockets, here deterministic and
// in-process: redirect round trips, Fig. 4 CreateObj over the wire,
// redirector-arbitrated drops, crash/reconnect conservation, and the
// overload shed loop end to end.
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/types.h"
#include "core/params.h"
#include "sim/simulator.h"
#include "transport/host_node.h"
#include "transport/node_config.h"
#include "transport/redirector_node.h"
#include "transport/sim_transport.h"
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

/// One redirector + two host brains + one recording client on a SimNet.
class BrainHarness {
 public:
  explicit BrainHarness(std::int32_t num_objects,
                        core::ProtocolParams params = {}) {
    std::string error;
    auto config = Parse(kPlatform, &error);
    RADAR_CHECK_MSG(config.has_value(), "platform config must parse");
    config_ = std::make_unique<NodeConfig>(*std::move(config));
    net_ = std::make_unique<SimNet>(&sim_, config_->num_nodes(), 1000);

    RedirectorNode::Options ropt;
    ropt.num_objects = num_objects;
    redirector_ = std::make_unique<RedirectorNode>(
        *config_, net_->Attach(0, &late_[0]), ropt);
    late_[0].Bind(redirector_.get());

    HostNode::Options hopt;
    hopt.num_objects = num_objects;
    hopt.params = params;
    for (NodeId id : {1, 2}) {
      Transport* transport =
          net_->Attach(id, &late_[static_cast<std::size_t>(id)]);
      hosts_.push_back(std::make_unique<HostNode>(*config_, id, transport,
                                                  hopt));
      late_[static_cast<std::size_t>(id)].Bind(hosts_.back().get());
      transports_.push_back(transport);
    }
    client_transport_ = net_->Attach(3, &client_);

    for (auto& host : hosts_) {
      RADAR_CHECK_MSG(host->Init(&error), "host init must succeed");
    }
    sim_.RunUntil(sim_.Now() + 10'000);
  }

  HostNode& host(NodeId id) { return *hosts_[static_cast<std::size_t>(id - 1)]; }
  Transport* host_transport(NodeId id) {
    return transports_[static_cast<std::size_t>(id - 1)];
  }

  /// Client-side redirect round trip; returns the redirect target.
  NodeId AskRedirect(ObjectId x, NodeId gateway) {
    client_.seen.clear();
    client_transport_->Send(0, wire::Request{x, gateway});
    sim_.RunUntil(sim_.Now() + 10'000);
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
    sim_.RunUntil(sim_.Now() + 10'000);
    for (const auto& s : client_.seen) {
      if (const auto* a = std::get_if<wire::Ack>(&s.frame.msg)) {
        if (a->acked_seq == seq) return a->accepted;
      }
    }
    return false;
  }

  sim::Simulator sim_;
  std::unique_ptr<NodeConfig> config_;
  std::unique_ptr<SimNet> net_;
  std::array<LateHandler, 3> late_;
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

TEST(BrainTest, OverloadShedsHottestObjectToIdlePeer) {
  // Small watermarks and short intervals so a handful of requests push
  // host 1 into offloading mode within a few simulated seconds.
  core::ProtocolParams params;
  params.measurement_interval = SecondsToSim(1.0);
  params.placement_interval = SecondsToSim(2.0);
  params.high_watermark = 0.5;
  params.low_watermark = 0.4;
  BrainHarness h(2, params);

  // Drive requests for object 0 at host 1 while ticking both hosts (the
  // daemons call OnTick every poll; here every 100 simulated ms).
  for (int step = 0; step < 100; ++step) {
    if (step % 2 == 0) h.client_transport_->Send(1, wire::Request{0, 3});
    h.sim_.RunUntil(h.sim_.Now() + 100'000);
    h.host(1).OnTick();
    h.host(2).OnTick();
  }

  // Host 1 exceeded hw, learned from the relayed stats that host 2 is
  // idle, and shed object 0 there. Whether the Fig. 5 branch chose
  // migrate or replicate, host 2 must now hold a copy and the redirector
  // must know it — and no object was lost along the way.
  EXPECT_TRUE(h.host(2).agent().HasObject(0));
  EXPECT_GE(h.host(1).counters().migrates_out +
                h.host(1).counters().replicates_out,
            1u);
  EXPECT_GE(h.redirector_->redirector().ReplicaCount(0), 1);
  EXPECT_EQ(h.redirector_->CountObjectsWithoutReplica(), 0);
  // Repeated shed rounds may bump host 2's affinity; it must be recorded.
  EXPECT_GE(h.redirector_->redirector().AffinityOf(0, 2), 1);
}

}  // namespace
}  // namespace radar::transport
