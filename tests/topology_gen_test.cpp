// Property tests for the synthetic topology generators (net/topology_gen):
// spec parsing, exact sizing, connectivity, gateway/region metadata, and
// bit-exact determinism from (spec, seed).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "net/topology_gen.h"

namespace radar::net {
namespace {

/// Structural equality of two topologies: same nodes (name, region,
/// gateway flag) and same link list (endpoints, delay, bandwidth) in the
/// same order. Link order matters — routing tie-breaks and LinkStats
/// indices key off it, so "deterministic" means the full build sequence.
void ExpectIdentical(const Topology& a, const Topology& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  for (NodeId n = 0; n < a.num_nodes(); ++n) {
    EXPECT_EQ(a.node(n).name, b.node(n).name) << "node " << n;
    EXPECT_EQ(a.node(n).region, b.node(n).region) << "node " << n;
    EXPECT_EQ(a.node(n).is_gateway, b.node(n).is_gateway) << "node " << n;
  }
  ASSERT_EQ(a.graph().num_links(), b.graph().num_links());
  for (std::size_t i = 0; i < a.graph().num_links(); ++i) {
    const Link& la = a.graph().links()[i];
    const Link& lb = b.graph().links()[i];
    EXPECT_EQ(la.a, lb.a) << "link " << i;
    EXPECT_EQ(la.b, lb.b) << "link " << i;
    EXPECT_EQ(la.delay, lb.delay) << "link " << i;
    EXPECT_EQ(la.bandwidth_bps, lb.bandwidth_bps) << "link " << i;
  }
}

/// Parses a spec the test expects to be valid.
TopologySpec MustParse(const std::string& text) {
  std::string error;
  const std::optional<TopologySpec> spec = ParseTopologySpec(text, &error);
  EXPECT_TRUE(spec.has_value()) << text << ": " << error;
  return spec.value_or(TopologySpec{});
}

TEST(TopologySpecTest, RecognizesGeneratorPrefixes) {
  EXPECT_TRUE(IsTopologySpec("ts:n=100,seed=1"));
  EXPECT_TRUE(IsTopologySpec("sf:n=100,m=2"));
  EXPECT_FALSE(IsTopologySpec("uunet"));
  EXPECT_FALSE(IsTopologySpec("topologies/uunet.txt"));
  EXPECT_FALSE(IsTopologySpec(""));
}

TEST(TopologySpecTest, ParsesTransitStubFields) {
  const TopologySpec spec =
      MustParse("ts:domains=2,transit=3,stubs=4,stub=5,seed=9");
  EXPECT_EQ(spec.family, TopologySpec::Family::kTransitStub);
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_EQ(spec.transit_domains, 2);
  EXPECT_EQ(spec.transit_per_domain, 3);
  EXPECT_EQ(spec.stubs_per_transit, 4);
  EXPECT_EQ(spec.stub_size, 5);
  // 2*3 transit routers + 2*3*4 stub domains of 5 nodes each.
  EXPECT_EQ(spec.ExpectedNodes(), 6 + 24 * 5);
  EXPECT_EQ(spec.ExpectedGateways(), 24);
}

TEST(TopologySpecTest, ParsesScaleFreeFields) {
  const TopologySpec spec = MustParse("sf:n=300,m=3,gw=17,seed=4");
  EXPECT_EQ(spec.family, TopologySpec::Family::kScaleFree);
  EXPECT_EQ(spec.seed, 4u);
  EXPECT_EQ(spec.target_nodes, 300);
  EXPECT_EQ(spec.edges_per_node, 3);
  EXPECT_EQ(spec.ExpectedNodes(), 300);
  EXPECT_EQ(spec.ExpectedGateways(), 17);
}

TEST(TopologyGenTest, TransitStubMatchesSpecSizing) {
  const TopologySpec spec =
      MustParse("ts:domains=3,transit=2,stubs=3,stub=4,seed=11");
  const Topology topo = GenerateTopology(spec);
  EXPECT_EQ(topo.num_nodes(), spec.ExpectedNodes());
  EXPECT_TRUE(topo.graph().IsConnected());
  EXPECT_EQ(topo.GatewayNodes().size(),
            static_cast<std::size_t>(spec.ExpectedGateways()));
}

TEST(TopologyGenTest, TransitStubExactTargetNodes) {
  // "n=" pins the exact total; the generator derives the stub size.
  for (const std::int32_t n : {500, 1000, 2000}) {
    const TopologySpec spec =
        MustParse("ts:n=" + std::to_string(n) + ",seed=7");
    ASSERT_EQ(spec.ExpectedNodes(), n);
    const Topology topo = GenerateTopology(spec);
    EXPECT_EQ(topo.num_nodes(), n) << "n=" << n;
    EXPECT_TRUE(topo.graph().IsConnected()) << "n=" << n;
    EXPECT_EQ(topo.GatewayNodes().size(),
              static_cast<std::size_t>(spec.ExpectedGateways()))
        << "n=" << n;
  }
}

TEST(TopologyGenTest, TransitStubCoversAllFourRegions) {
  // Regions follow transit domains (d mod 4); with >= 4 domains the
  // regional workloads see traffic in every region.
  const Topology topo =
      GenerateTopology("ts:domains=4,transit=2,stubs=2,stub=3,seed=1");
  for (int r = 0; r < kNumRegions; ++r) {
    EXPECT_FALSE(topo.NodesInRegion(static_cast<Region>(r)).empty())
        << RegionName(static_cast<Region>(r));
  }
}

TEST(TopologyGenTest, ScaleFreeMatchesSpecSizing) {
  const TopologySpec spec = MustParse("sf:n=256,m=2,gw=16,seed=3");
  const Topology topo = GenerateTopology(spec);
  EXPECT_EQ(topo.num_nodes(), 256);
  EXPECT_TRUE(topo.graph().IsConnected());
  EXPECT_EQ(topo.GatewayNodes().size(), 16u);
}

TEST(TopologyGenTest, ScaleFreeDefaultGatewayCount) {
  // gw=0 (unset) derives max(4, n/16).
  EXPECT_EQ(MustParse("sf:n=320,seed=1").ExpectedGateways(), 20);
  EXPECT_EQ(MustParse("sf:n=32,seed=1").ExpectedGateways(), 4);
}

TEST(TopologyGenTest, ScaleFreeRegionsAreContiguousIdBlocks) {
  const Topology topo = GenerateTopology("sf:n=200,m=2,gw=12,seed=5");
  std::size_t total = 0;
  for (int r = 0; r < kNumRegions; ++r) {
    const std::vector<NodeId> nodes =
        topo.NodesInRegion(static_cast<Region>(r));
    ASSERT_FALSE(nodes.empty());
    // NodesInRegion returns ascending ids; a contiguous block spans
    // exactly its own size.
    EXPECT_EQ(nodes.back() - nodes.front() + 1,
              static_cast<NodeId>(nodes.size()))
        << RegionName(static_cast<Region>(r));
    total += nodes.size();
  }
  EXPECT_EQ(total, static_cast<std::size_t>(topo.num_nodes()));
}

TEST(TopologyGenTest, ScaleFreeGatewaysSpreadAcrossRegions) {
  const Topology topo = GenerateTopology("sf:n=256,m=2,gw=16,seed=2");
  std::set<Region> regions_with_gateway;
  for (const NodeId g : topo.GatewayNodes()) {
    regions_with_gateway.insert(topo.RegionOf(g));
  }
  EXPECT_EQ(regions_with_gateway.size(), static_cast<std::size_t>(kNumRegions));
}

TEST(TopologyGenTest, SameSpecAndSeedIsBitIdentical) {
  for (const char* spec : {"ts:domains=3,transit=2,stubs=2,stub=4,seed=13",
                           "ts:n=600,seed=21", "sf:n=220,m=2,gw=14,seed=8"}) {
    ExpectIdentical(GenerateTopology(spec), GenerateTopology(spec));
  }
}

TEST(TopologyGenTest, SmallestAcceptedSpecsGenerate) {
  // The parser's structural checks sit exactly at what the generators
  // can build: one node per stub domain, and n = m + 1 = 4 nodes.
  const Topology ts = GenerateTopology(MustParse("ts:n=48,seed=3"));
  EXPECT_EQ(ts.num_nodes(), 48);
  EXPECT_TRUE(ts.graph().IsConnected());
  const Topology sf = GenerateTopology(MustParse("sf:n=4,m=3,gw=4,seed=3"));
  EXPECT_EQ(sf.num_nodes(), 4);
  EXPECT_EQ(sf.GatewayNodes().size(), 4u);
}

TEST(TopologyGenTest, DifferentSeedsProduceDifferentWiring) {
  const Topology a = GenerateTopology("sf:n=200,m=2,gw=12,seed=1");
  const Topology b = GenerateTopology("sf:n=200,m=2,gw=12,seed=2");
  bool differs = a.graph().num_links() != b.graph().num_links();
  for (std::size_t i = 0; i < a.graph().num_links() && !differs; ++i) {
    differs = a.graph().links()[i].a != b.graph().links()[i].a ||
              a.graph().links()[i].b != b.graph().links()[i].b;
  }
  EXPECT_TRUE(differs);
}

struct BadSpecCase {
  const char* name;
  const char* spec;
  const char* expected_fragment;
};

class TopologySpecErrorTest : public ::testing::TestWithParam<BadSpecCase> {};

TEST_P(TopologySpecErrorTest, ReportsError) {
  std::string error;
  const std::optional<TopologySpec> spec =
      ParseTopologySpec(GetParam().spec, &error);
  EXPECT_FALSE(spec.has_value());
  EXPECT_NE(error.find(GetParam().expected_fragment), std::string::npos)
      << "got: " << error;
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, TopologySpecErrorTest,
    ::testing::Values(
        BadSpecCase{"unknown_key", "ts:n=100,bogus=1", "unknown key 'bogus'"},
        BadSpecCase{"other_family_key", "sf:n=100,domains=2",
                    "unknown key 'domains'"},
        BadSpecCase{"exponent", "ts:n=1e3", "n must be an integer"},
        BadSpecCase{"negative", "ts:n=-5", "n must be an integer"},
        BadSpecCase{"wraps_32_bits", "ts:n=4294967297",
                    "n must be an integer"},
        BadSpecCase{"zero_nodes", "ts:n=0", "n must be at least 1"},
        BadSpecCase{"repeated_key", "ts:n=100,n=200", "repeated key 'n'"},
        BadSpecCase{"empty_item", "ts:n=100,", "malformed item"},
        BadSpecCase{"no_value", "ts:n", "malformed item"},
        BadSpecCase{"ts_too_small", "ts:n=3", "too small"},
        BadSpecCase{"ts_too_large", "ts:n=20000000", "more than"},
        BadSpecCase{"sf_m_not_below_n", "sf:n=10,m=20", "n > m"},
        BadSpecCase{"sf_without_n", "sf:m=2", "requires n"},
        BadSpecCase{"sf_too_few_gateways", "sf:n=100,gw=2", "gw must be"},
        BadSpecCase{"no_prefix", "xx:n=100", "must start with"}),
    [](const ::testing::TestParamInfo<BadSpecCase>& param_info) {
      return param_info.param.name;
    });

}  // namespace
}  // namespace radar::net
