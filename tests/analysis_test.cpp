// Tests for the transit-funnel analysis, including the UUNET-backbone
// regression promised in uunet.cpp: the synthetic backbone must keep
// per-neighbour transit fractions below the migration threshold for the
// large majority of nodes, or the protocol churns (DESIGN.md §2).
#include <gtest/gtest.h>

#include "core/params.h"
#include "net/analysis.h"
#include "net/net_model.h"
#include "net/uunet.h"

namespace radar::net {
namespace {

constexpr SimTime kDelay = MillisToSim(10.0);
constexpr double kBw = 350.0 * 1024.0;
constexpr std::int64_t kObjectBytes = 12 * 1024;

TEST(FunnelAnalysisTest, SpurNodeFunnelsCompletely) {
  // a - b - c: everything from 'a' transits b.
  TopologyBuilder builder;
  builder.AddNode("a", Region::kEurope);
  builder.AddNode("b", Region::kEurope);
  builder.AddNode("c", Region::kEurope);
  builder.Link(0, 1, kDelay, kBw);
  builder.Link(1, 2, kDelay, kBw);
  const Topology topology = std::move(builder).Build();
  const NetModel net(topology, kObjectBytes);
  const auto reports = ComputeFunnels(topology, net);
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_EQ(reports[0].source, 0);
  EXPECT_EQ(reports[0].funnel, 1);
  EXPECT_DOUBLE_EQ(reports[0].fraction, 1.0);
  // The middle node splits its two destinations evenly.
  EXPECT_DOUBLE_EQ(reports[1].fraction, 0.5);
}

TEST(FunnelAnalysisTest, TriangleHasNoFunnelAboveHalf) {
  TopologyBuilder builder;
  builder.AddNode("a", Region::kEurope);
  builder.AddNode("b", Region::kEurope);
  builder.AddNode("c", Region::kEurope);
  builder.Link(0, 1, kDelay, kBw);
  builder.Link(1, 2, kDelay, kBw);
  builder.Link(0, 2, kDelay, kBw);
  const Topology topology = std::move(builder).Build();
  const NetModel net(topology, kObjectBytes);
  for (const auto& report : ComputeFunnels(topology, net)) {
    EXPECT_DOUBLE_EQ(report.fraction, 0.5);  // each neighbour gets one dest
  }
  EXPECT_TRUE(FunnelsAbove(topology, net, 0.6).empty());
}

TEST(FunnelAnalysisTest, FunnelsAboveSortsDescending) {
  // line a-b-c-d: a funnels 1.0 via b, b funnels 2/3 via c, etc.
  TopologyBuilder builder;
  builder.AddNode("a", Region::kEurope);
  builder.AddNode("b", Region::kEurope);
  builder.AddNode("c", Region::kEurope);
  builder.AddNode("d", Region::kEurope);
  builder.Link(0, 1, kDelay, kBw);
  builder.Link(1, 2, kDelay, kBw);
  builder.Link(2, 3, kDelay, kBw);
  const Topology topology = std::move(builder).Build();
  const NetModel net(topology, kObjectBytes);
  const auto hot = FunnelsAbove(topology, net, 0.6);
  ASSERT_EQ(hot.size(), 4u);  // ends: 1.0; middles: 2/3
  EXPECT_DOUBLE_EQ(hot[0].fraction, 1.0);
  EXPECT_DOUBLE_EQ(hot[1].fraction, 1.0);
  EXPECT_GE(hot[1].fraction, hot[2].fraction);
  EXPECT_NEAR(hot[3].fraction, 2.0 / 3.0, 1e-9);
}

TEST(UunetFunnelTest, FunnelFractionsMostlyBelowMigrationRatio) {
  // The regression promised in uunet.cpp: MIGR_RATIO presumes a dense
  // backbone. Allow a handful of peripheral stragglers (Melbourne-style
  // single-exit geography is real), but the platform at large must sit
  // below the migration threshold or every object churns.
  const Topology topology = MakeUunetBackbone();
  const NetModel net(topology, kObjectBytes);
  const core::ProtocolParams params;
  const auto hot = FunnelsAbove(topology, net, params.migr_ratio);
  EXPECT_LE(hot.size(), 6u) << "backbone became too sparse";
  for (const auto& f : hot) {
    EXPECT_LT(f.fraction, 0.85)
        << topology.node(f.source).name << " funnels through "
        << topology.node(f.funnel).name;
  }
}

TEST(UunetFunnelTest, MinimumDegreeIsAtLeastThree) {
  const Topology topology = MakeUunetBackbone();
  for (NodeId n = 0; n < topology.num_nodes(); ++n) {
    EXPECT_GE(topology.graph().Neighbors(n).size(), 3u)
        << topology.node(n).name;
  }
}

}  // namespace
}  // namespace radar::net
