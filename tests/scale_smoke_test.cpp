// Scale smoke: a 10k-node generated topology must construct a NetModel
// that rows only its gateways and redirector home, without n^2 state.
// Rowing every node would take ~2.4 GB at this size, so the peak-RSS
// assertion is the regression tripwire for anything quadratic sneaking
// back in. The RSS bound is skipped under sanitizers (shadow memory and
// quarantines inflate ru_maxrss far past the real footprint).
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "net/net_model.h"
#include "net/topology_gen.h"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define RADAR_UNDER_SANITIZER 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define RADAR_UNDER_SANITIZER 1
#endif

namespace radar::net {
namespace {

constexpr std::int64_t kObjectBytes = 512 * 1024;

#if !defined(RADAR_UNDER_SANITIZER)
/// Peak resident set size in bytes (Linux reports ru_maxrss in KiB).
std::int64_t PeakRssBytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::int64_t>(usage.ru_maxrss) * 1024;
}
#endif

TEST(ScaleSmokeTest, TenThousandNodeModelRowsGatewaysAndHome) {
  const std::optional<TopologySpec> spec =
      ParseTopologySpec("ts:n=10000,seed=7", nullptr);
  ASSERT_TRUE(spec.has_value());
  const Topology topo = GenerateTopology(*spec);
  ASSERT_EQ(topo.num_nodes(), 10000);
  ASSERT_TRUE(topo.graph().IsConnected());
  const std::vector<NodeId> gateways = topo.GatewayNodes();
  ASSERT_EQ(gateways.size(),
            static_cast<std::size_t>(spec->ExpectedGateways()));

  // The driver's setup: rows for the gateways, plus the redirector home
  // (the most central node), which on this graph is a transit router.
  NetModel net(topo, kObjectBytes);
  EXPECT_EQ(net.num_nodes(), 10000);
  ASSERT_EQ(net.num_rows(), gateways.size());
  const NodeId home = net.NodesByCentrality().front();
  ASSERT_FALSE(topo.IsGateway(home));
  net.AddRowSources({home});
  ASSERT_EQ(net.num_rows(), gateways.size() + 1);
  for (NodeId v = 0; v < topo.num_nodes(); ++v) {
    ASSERT_EQ(net.HasRow(v), topo.IsGateway(v) || v == home) << v;
  }

  // Spot-check oracle sanity: gateway rows exist and answer plausibly.
  const NodeId g0 = gateways.front();
  const NodeId g1 = gateways.back();
  ASSERT_NE(net.ControlRow(g0), nullptr);
  EXPECT_EQ(net.Control(g0, g0), 0);
  EXPECT_EQ(net.HopDistance(g0, g0), 0);
  EXPECT_GT(net.Control(g0, g1), 0);
  EXPECT_GT(net.Transfer(g0, g1), net.Control(g0, g1));
  EXPECT_EQ(net.ControlRow(g0)[g1], net.Control(g0, g1));
  // Both endpoints rowed: the pair is exact in both directions, and hop
  // counts agree because hop-metric shortest distances are symmetric.
  EXPECT_EQ(net.HopDistance(g0, g1), net.HopDistance(g1, g0));

#if !defined(RADAR_UNDER_SANITIZER)
  // Generator + model must stay far below the ~2.4 GB every-node rows
  // would need (measured footprint is tens of MB).
  constexpr std::int64_t kRssBudgetBytes = 768ll * 1024 * 1024;
  EXPECT_LT(PeakRssBytes(), kRssBudgetBytes);
#endif
}

}  // namespace
}  // namespace radar::net
