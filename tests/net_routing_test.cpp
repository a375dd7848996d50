// Unit tests for canonical routing as net::NetModel serves it with every
// node rowed: shortest paths, deterministic tie-breaking, centrality.
#include <gtest/gtest.h>

#include <vector>

#include "net/graph.h"
#include "net/net_model.h"
#include "net/uunet.h"

namespace radar::net {
namespace {

constexpr SimTime kDelay = MillisToSim(10.0);
constexpr double kBw = 350.0 * 1024.0;
constexpr std::int64_t kObjectBytes = 12 * 1024;

Graph LineGraph(std::int32_t n) {
  Graph g(n);
  for (NodeId i = 0; i + 1 < n; ++i) g.AddLink(i, i + 1, kDelay, kBw);
  return g;
}

/// The model below the row limit: every node a rowed source.
NetModel AllRowed(const Graph& g) {
  std::vector<NodeId> rows(static_cast<std::size_t>(g.num_nodes()));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    rows[static_cast<std::size_t>(v)] = v;
  }
  return NetModel(g, rows, kObjectBytes);
}

std::vector<NodeId> Path(const NetModel& net, NodeId a, NodeId b) {
  std::vector<NodeId> path;
  net.AppendPath(a, b, &path);
  return path;
}

TEST(RoutingTest, LineDistances) {
  const Graph g = LineGraph(5);
  const NetModel net = AllRowed(g);
  EXPECT_EQ(net.HopDistance(0, 4), 4);
  EXPECT_EQ(net.HopDistance(4, 0), 4);
  EXPECT_EQ(net.HopDistance(2, 2), 0);
  EXPECT_EQ(net.HopDistance(1, 3), 2);
}

TEST(RoutingTest, PathEndpointsAndLength) {
  const Graph g = LineGraph(4);
  const NetModel net = AllRowed(g);
  const auto path = Path(net, 0, 3);
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(path.front(), 0);
  EXPECT_EQ(path.back(), 3);
  EXPECT_EQ(path[1], 1);
  EXPECT_EQ(path[2], 2);
}

TEST(RoutingTest, SelfPathIsSingleton) {
  const Graph g = LineGraph(3);
  const NetModel net = AllRowed(g);
  const auto path = Path(net, 1, 1);
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0], 1);
}

TEST(RoutingTest, EqualCostTieBreakIsDeterministic) {
  // Diamond: 0-1, 0-2, 1-3, 2-3: two equal 2-hop paths from 0 to 3. The
  // hashed tie-break must pick exactly one of them, stably across model
  // rebuilds ("one path is chosen for all requests from i to j").
  Graph g(4);
  g.AddLink(0, 1, kDelay, kBw);
  g.AddLink(0, 2, kDelay, kBw);
  g.AddLink(1, 3, kDelay, kBw);
  g.AddLink(2, 3, kDelay, kBw);
  const NetModel a = AllRowed(g);
  const NetModel b = AllRowed(g);
  const auto path = Path(a, 0, 3);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_TRUE(path[1] == 1 || path[1] == 2);
  EXPECT_EQ(path, Path(b, 0, 3));
  EXPECT_EQ(Path(a, 3, 0), Path(b, 3, 0));
}

TEST(RoutingTest, EqualCostMultipathSpreadsAcrossAlternatives) {
  // The hashed tie-break exists to avoid collapsing all equal-cost routes
  // onto the lowest-numbered hub. On a K4-minus-edge "theta" graph with
  // many leaf pairs, both middle nodes must carry some canonical paths.
  Graph g(12);
  // Two hubs (0, 1) each connected to all ten leaves 2..11.
  for (NodeId leaf = 2; leaf < 12; ++leaf) {
    g.AddLink(0, leaf, kDelay, kBw);
    g.AddLink(1, leaf, kDelay, kBw);
  }
  const NetModel net = AllRowed(g);
  int via_hub0 = 0;
  int via_hub1 = 0;
  for (NodeId a = 2; a < 12; ++a) {
    for (NodeId b = 2; b < 12; ++b) {
      if (a == b) continue;
      const auto path = Path(net, a, b);
      ASSERT_EQ(path.size(), 3u);
      if (path[1] == 0) ++via_hub0;
      if (path[1] == 1) ++via_hub1;
    }
  }
  EXPECT_GT(via_hub0, 0);
  EXPECT_GT(via_hub1, 0);
}

TEST(RoutingTest, SamePairAlwaysSamePath) {
  // "one path is chosen for all requests from i to j" — a model rebuilt
  // on the identical graph yields identical paths.
  const Graph g = MakeUunetBackbone().graph();
  const NetModel a = AllRowed(g);
  const NetModel b = AllRowed(g);
  for (NodeId i = 0; i < g.num_nodes(); i += 7) {
    for (NodeId j = 0; j < g.num_nodes(); j += 5) {
      EXPECT_EQ(Path(a, i, j), Path(b, i, j));
    }
  }
}

TEST(RoutingTest, CentralityOrdering) {
  const Graph g = LineGraph(5);
  const NetModel net = AllRowed(g);
  const auto order = net.NodesByCentrality();
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order[0], 2);  // middle of the line: the most central node
  // Ends are least central.
  EXPECT_TRUE(order[3] == 0 || order[3] == 4);
  EXPECT_TRUE(order[4] == 0 || order[4] == 4);
}

TEST(RoutingTest, TriangleSymmetricPaths) {
  Graph g(3);
  g.AddLink(0, 1, kDelay, kBw);
  g.AddLink(1, 2, kDelay, kBw);
  g.AddLink(0, 2, kDelay, kBw);
  const NetModel net = AllRowed(g);
  for (NodeId i = 0; i < 3; ++i) {
    for (NodeId j = 0; j < 3; ++j) {
      EXPECT_EQ(net.HopDistance(i, j), i == j ? 0 : 1);
    }
  }
}

TEST(RoutingTest, PathsAreShortest) {
  // Property: on the backbone, every canonical path length equals the hop
  // distance and consecutive path nodes are adjacent.
  const Graph g = MakeUunetBackbone().graph();
  const NetModel net = AllRowed(g);
  for (NodeId i = 0; i < g.num_nodes(); i += 3) {
    for (NodeId j = 0; j < g.num_nodes(); j += 3) {
      const auto path = Path(net, i, j);
      EXPECT_EQ(static_cast<std::int32_t>(path.size()) - 1,
                net.HopDistance(i, j));
      for (std::size_t k = 1; k < path.size(); ++k) {
        EXPECT_TRUE(g.HasLink(path[k - 1], path[k]));
      }
    }
  }
}

TEST(RoutingTest, TriangleInequalityHolds) {
  const Graph g = MakeUunetBackbone().graph();
  const NetModel net = AllRowed(g);
  for (NodeId i = 0; i < g.num_nodes(); i += 5) {
    for (NodeId j = 0; j < g.num_nodes(); j += 5) {
      for (NodeId k = 0; k < g.num_nodes(); k += 5) {
        EXPECT_LE(net.HopDistance(i, j),
                  net.HopDistance(i, k) + net.HopDistance(k, j));
      }
    }
  }
}

TEST(RoutingDeathTest, DisconnectedGraphAborts) {
  Graph g(3);
  g.AddLink(0, 1, kDelay, kBw);
  EXPECT_DEATH(AllRowed(g), "connected");
}

}  // namespace
}  // namespace radar::net
