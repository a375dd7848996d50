// Unit tests for Topology / TopologyBuilder, the UUNET-style backbone, and
// LinkStats.
#include <gtest/gtest.h>

#include <set>

#include "net/link_stats.h"
#include "net/net_model.h"
#include "net/topology.h"
#include "net/uunet.h"

namespace radar::net {
namespace {

constexpr SimTime kDelay = MillisToSim(10.0);
constexpr double kBw = 350.0 * 1024.0;

TEST(TopologyBuilderTest, BuildsNamedNodesAndLinks) {
  TopologyBuilder b;
  const NodeId a = b.AddNode("a", Region::kEurope);
  const NodeId c = b.AddNode("c", Region::kEurope, /*is_gateway=*/false);
  b.Link("a", "c", kDelay, kBw);
  const Topology t = std::move(b).Build();
  EXPECT_EQ(t.num_nodes(), 2);
  EXPECT_EQ(t.node(a).name, "a");
  EXPECT_TRUE(t.IsGateway(a));
  EXPECT_FALSE(t.IsGateway(c));
  EXPECT_EQ(t.FindByName("c"), c);
  EXPECT_EQ(t.FindByName("zzz"), kInvalidNode);
  EXPECT_TRUE(t.graph().HasLink(a, c));
}

TEST(TopologyBuilderTest, RegionsQueryable) {
  TopologyBuilder b;
  b.AddNode("w1", Region::kWesternNorthAmerica);
  b.AddNode("e1", Region::kEurope);
  b.AddNode("w2", Region::kWesternNorthAmerica);
  b.Link(0, 1, kDelay, kBw);
  b.Link(1, 2, kDelay, kBw);
  const Topology t = std::move(b).Build();
  const auto western = t.NodesInRegion(Region::kWesternNorthAmerica);
  ASSERT_EQ(western.size(), 2u);
  EXPECT_EQ(western[0], 0);
  EXPECT_EQ(western[1], 2);
  EXPECT_EQ(t.NodesInRegion(Region::kPacificAustralia).size(), 0u);
}

TEST(TopologyBuilderTest, GatewayListAscending) {
  TopologyBuilder b;
  b.AddNode("a", Region::kEurope, true);
  b.AddNode("b", Region::kEurope, false);
  b.AddNode("c", Region::kEurope, true);
  b.Link(0, 1, kDelay, kBw);
  b.Link(1, 2, kDelay, kBw);
  const Topology t = std::move(b).Build();
  const auto gateways = t.GatewayNodes();
  ASSERT_EQ(gateways.size(), 2u);
  EXPECT_EQ(gateways[0], 0);
  EXPECT_EQ(gateways[1], 2);
}

TEST(TopologyBuilderDeathTest, DuplicateNameAborts) {
  TopologyBuilder b;
  b.AddNode("x", Region::kEurope);
  EXPECT_DEATH(b.AddNode("x", Region::kEurope), "duplicate");
}

TEST(TopologyBuilderDeathTest, UnknownLinkNameAborts) {
  TopologyBuilder b;
  b.AddNode("x", Region::kEurope);
  EXPECT_DEATH(b.Link("x", "nope", kDelay, kBw), "nope");
}

TEST(TopologyBuilderDeathTest, DisconnectedBuildAborts) {
  TopologyBuilder b;
  b.AddNode("x", Region::kEurope);
  b.AddNode("y", Region::kEurope);
  EXPECT_DEATH(std::move(b).Build(), "connected");
}

TEST(UunetTest, HasFiftyThreeNodes) {
  const Topology t = MakeUunetBackbone();
  EXPECT_EQ(t.num_nodes(), kUunetNodeCount);
  EXPECT_EQ(t.num_nodes(), 53);
}

TEST(UunetTest, RegionalCompositionMatchesPaper) {
  // "53 nodes in North America, Europe, Pacific Rim, and Australia".
  const Topology t = MakeUunetBackbone();
  const auto western = t.NodesInRegion(Region::kWesternNorthAmerica);
  const auto eastern = t.NodesInRegion(Region::kEasternNorthAmerica);
  const auto europe = t.NodesInRegion(Region::kEurope);
  const auto pacific = t.NodesInRegion(Region::kPacificAustralia);
  EXPECT_EQ(western.size() + eastern.size() + europe.size() + pacific.size(),
            53u);
  // Every region is non-trivial.
  EXPECT_GE(western.size(), 8u);
  EXPECT_GE(eastern.size(), 12u);
  EXPECT_GE(europe.size(), 8u);
  EXPECT_GE(pacific.size(), 5u);
}

TEST(UunetTest, AllNodesAreGateways) {
  // "We assume that all the backbone nodes serve as gateways" (Sec. 6.1).
  const Topology t = MakeUunetBackbone();
  EXPECT_EQ(t.GatewayNodes().size(), 53u);
}

TEST(UunetTest, ConnectedWithModerateDiameter) {
  const Topology t = MakeUunetBackbone();
  EXPECT_TRUE(t.graph().IsConnected());
  const NetModel net(t, /*object_bytes=*/0);
  std::int32_t diameter = 0;
  for (NodeId i = 0; i < t.num_nodes(); ++i) {
    for (NodeId j = 0; j < t.num_nodes(); ++j) {
      diameter = std::max(diameter, net.HopDistance(i, j));
    }
  }
  // A backbone is a few hops across, not a long chain.
  EXPECT_GE(diameter, 4);
  EXPECT_LE(diameter, 14);
}

TEST(UunetTest, IntraRegionCloserThanInterRegion) {
  // Regional clustering is what the regional workload exploits: nodes of
  // one region must on average be closer to each other than to nodes of
  // other regions.
  const Topology t = MakeUunetBackbone();
  const NetModel net(t, /*object_bytes=*/0);
  double intra = 0.0;
  double inter = 0.0;
  std::int64_t intra_n = 0;
  std::int64_t inter_n = 0;
  for (NodeId i = 0; i < t.num_nodes(); ++i) {
    for (NodeId j = i + 1; j < t.num_nodes(); ++j) {
      if (t.RegionOf(i) == t.RegionOf(j)) {
        intra += net.HopDistance(i, j);
        ++intra_n;
      } else {
        inter += net.HopDistance(i, j);
        ++inter_n;
      }
    }
  }
  EXPECT_LT(intra / static_cast<double>(intra_n),
            inter / static_cast<double>(inter_n));
}

TEST(UunetTest, CustomLinkParamsPropagate) {
  BackboneParams params;
  params.link_delay = MillisToSim(25.0);
  params.bandwidth_bps = 1000.0;
  const Topology t = MakeUunetBackbone(params);
  for (const Link& l : t.graph().links()) {
    EXPECT_EQ(l.delay, MillisToSim(25.0));
    EXPECT_DOUBLE_EQ(l.bandwidth_bps, 1000.0);
  }
}

TEST(UunetTest, NamesAreUnique) {
  const Topology t = MakeUunetBackbone();
  std::set<std::string> names;
  for (NodeId n = 0; n < t.num_nodes(); ++n) {
    EXPECT_TRUE(names.insert(t.node(n).name).second) << t.node(n).name;
  }
}

// A small line/cycle graph for the LinkStats tests; counters live per
// directed link of this graph, so every recorded hop must be one of its
// links.
Graph ChainGraph(std::int32_t num_nodes, bool close_cycle = false) {
  Graph g(num_nodes);
  for (NodeId n = 0; n + 1 < num_nodes; ++n) {
    g.AddLink(n, n + 1, MillisToSim(1.0), 1000.0);
  }
  if (close_cycle && num_nodes > 2) {
    g.AddLink(0, num_nodes - 1, MillisToSim(1.0), 1000.0);
  }
  return g;
}

TEST(LinkStatsTest, RecordPathChargesEveryHop) {
  const Graph g = ChainGraph(4);
  LinkStats stats(g);
  stats.RecordPath({0, 1, 2, 3}, 100);
  EXPECT_EQ(stats.total_byte_hops(), 300);
  EXPECT_EQ(stats.BytesOnHop(0, 1), 100);
  EXPECT_EQ(stats.BytesOnHop(1, 2), 100);
  EXPECT_EQ(stats.BytesOnHop(2, 3), 100);
  EXPECT_EQ(stats.BytesOnHop(1, 0), 0);  // directed
}

TEST(LinkStatsTest, SingletonPathChargesNothing) {
  const Graph g = ChainGraph(2);
  LinkStats stats(g);
  stats.RecordPath({1}, 500);
  EXPECT_EQ(stats.total_byte_hops(), 0);
}

TEST(LinkStatsTest, BusiestHop) {
  const Graph g = ChainGraph(3, /*close_cycle=*/true);
  LinkStats stats(g);
  stats.RecordHop(0, 1, 10);
  stats.RecordHop(1, 2, 30);
  stats.RecordHop(2, 0, 20);
  const auto [from, to] = stats.BusiestHop();
  EXPECT_EQ(from, 1);
  EXPECT_EQ(to, 2);
}

TEST(LinkStatsTest, ResetClears) {
  const Graph g = ChainGraph(2);
  LinkStats stats(g);
  stats.RecordHop(0, 1, 10);
  stats.Reset();
  EXPECT_EQ(stats.total_byte_hops(), 0);
  EXPECT_EQ(stats.BytesOnHop(0, 1), 0);
  const auto [from, to] = stats.BusiestHop();
  EXPECT_EQ(from, kInvalidNode);
  EXPECT_EQ(to, kInvalidNode);
}

TEST(RegionNameTest, AllRegionsNamed) {
  EXPECT_STREQ(RegionName(Region::kWesternNorthAmerica),
               "Western North America");
  EXPECT_STREQ(RegionName(Region::kEasternNorthAmerica),
               "Eastern North America");
  EXPECT_STREQ(RegionName(Region::kEurope), "Europe");
  EXPECT_STREQ(RegionName(Region::kPacificAustralia),
               "Pacific and Australia");
}

}  // namespace
}  // namespace radar::net
