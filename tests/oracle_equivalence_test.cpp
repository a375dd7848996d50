// Property tests pinning the sparse GatewayPivotOracle to the dense
// PathLatencyMatrix on randomized graphs:
//  - all-rowed oracles answer every ordered pair bit-identically (the
//    degeneracy the UUNET golden relies on), including seed-centrality
//    ordering;
//  - the equality survives scripted link-fault epochs applied via
//    OnLinkChange, compared against dense state rebuilt over the filtered
//    graph;
//  - with a proper row subset, rowed sources stay exact (class 1), rowed
//    destinations answer with the transposed dense value (class 2), and
//    unrowed pairs return latencies consistent with the real graph path
//    the oracle reports (class 3).
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/gateway_pivot.h"
#include "net/graph.h"
#include "net/path_latency.h"
#include "net/routing.h"
#include "sim/transfer.h"

namespace radar::net {
namespace {

constexpr std::int64_t kObjectBytes = 512 * 1024;

/// Connected random graph: a random spanning tree (each node links to a
/// random earlier node) plus `extra` random non-duplicate chords, with
/// randomized delays and bandwidths.
Graph RandomConnectedGraph(std::int32_t n, int extra, Rng& rng) {
  Graph g(n);
  for (NodeId v = 1; v < n; ++v) {
    const auto u = static_cast<NodeId>(rng.NextBounded(static_cast<std::uint64_t>(v)));
    const SimTime delay = MillisToSim(1.0 + 49.0 * rng.NextDouble());
    g.AddLink(u, v, delay, (64.0 + 960.0 * rng.NextDouble()) * 1024.0);
  }
  for (int i = 0; i < extra; ++i) {
    const auto a = static_cast<NodeId>(rng.NextBounded(static_cast<std::uint64_t>(n)));
    const auto b = static_cast<NodeId>(rng.NextBounded(static_cast<std::uint64_t>(n)));
    if (a == b || g.HasLink(a, b)) continue;
    const SimTime delay = MillisToSim(1.0 + 49.0 * rng.NextDouble());
    g.AddLink(a, b, delay, (64.0 + 960.0 * rng.NextDouble()) * 1024.0);
  }
  return g;
}

std::vector<NodeId> AllNodes(std::int32_t n) {
  std::vector<NodeId> nodes(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) nodes[static_cast<std::size_t>(v)] = v;
  return nodes;
}

/// Copy of `g` with the masked-off links omitted, in original link order.
Graph FilteredGraph(const Graph& g, const std::vector<char>& link_up) {
  Graph filtered(g.num_nodes());
  for (std::size_t i = 0; i < g.num_links(); ++i) {
    if (!link_up[i]) continue;
    const Link& link = g.links()[i];
    filtered.AddLink(link.a, link.b, link.delay, link.bandwidth_bps);
  }
  return filtered;
}

void ExpectAllPairsIdentical(const GatewayPivotOracle& sparse,
                             const PathLatencyMatrix& dense,
                             const char* context) {
  ASSERT_EQ(sparse.num_nodes(), dense.num_nodes());
  for (NodeId a = 0; a < sparse.num_nodes(); ++a) {
    for (NodeId b = 0; b < sparse.num_nodes(); ++b) {
      ASSERT_EQ(sparse.Control(a, b), dense.Control(a, b))
          << context << " control (" << a << "," << b << ")";
      ASSERT_EQ(sparse.Transfer(a, b), dense.Transfer(a, b))
          << context << " transfer (" << a << "," << b << ")";
    }
  }
}

TEST(OracleEquivalenceTest, AllRowedMatchesDenseOnRandomGraphs) {
  Rng rng(0xE0u);
  for (const std::int32_t n : {8, 24, 57, 128, 256}) {
    const Graph g = RandomConnectedGraph(n, /*extra=*/n, rng);
    const RoutingTable routing(g);
    const PathLatencyMatrix dense(routing, g, kObjectBytes);
    const GatewayPivotOracle sparse(g, AllNodes(n), kObjectBytes);
    ASSERT_EQ(sparse.num_rows(), static_cast<std::size_t>(n));
    ExpectAllPairsIdentical(sparse, dense, "all-rowed");

    // Row pointers agree element-wise with the dense rows.
    for (NodeId a = 0; a < n; ++a) {
      const SimTime* sparse_row = sparse.ControlRow(a);
      const SimTime* dense_row = dense.ControlRow(a);
      ASSERT_NE(sparse_row, nullptr);
      for (NodeId b = 0; b < n; ++b) {
        ASSERT_EQ(sparse_row[b], dense_row[b]) << "row " << a << " col " << b;
      }
      ASSERT_EQ(sparse.HopDistance(a, (a + 1) % n),
                routing.HopDistance(a, (a + 1) % n));
    }
    EXPECT_EQ(sparse.NodesBySeedCentrality(), routing.NodesByCentrality());
  }
}

TEST(OracleEquivalenceTest, AllRowedMatchesDenseAcrossFaultEpochs) {
  Rng rng(0xE2u);
  const std::int32_t n = 48;
  const Graph g = RandomConnectedGraph(n, n, rng);
  GatewayPivotOracle sparse(g, AllNodes(n), kObjectBytes);
  std::vector<char> link_up(g.num_links(), 1);

  // Scripted epochs: six downs (each chosen to keep the masked graph
  // connected) with two restores interleaved. After every event the
  // oracle must match dense state rebuilt over the filtered graph —
  // BuildShortestPathTree's mask guarantee makes these byte-identical.
  std::vector<std::int32_t> downed;
  int events = 0;
  while (events < 8) {
    const bool restore = (events == 3 || events == 6) && !downed.empty();
    std::int32_t link;
    if (restore) {
      link = downed.back();
      downed.pop_back();
      link_up[static_cast<std::size_t>(link)] = 1;
      sparse.OnLinkChange(link, /*up=*/true);
    } else {
      link = static_cast<std::int32_t>(rng.NextBounded(g.num_links()));
      if (!link_up[static_cast<std::size_t>(link)]) continue;
      // Masking must keep every already-down link off as well.
      std::vector<char> candidate = link_up;
      candidate[static_cast<std::size_t>(link)] = 0;
      if (!FilteredGraph(g, candidate).IsConnected()) continue;
      downed.push_back(link);
      link_up[static_cast<std::size_t>(link)] = 0;
      sparse.OnLinkChange(link, /*up=*/false);
    }
    ++events;

    const Graph filtered = FilteredGraph(g, link_up);
    const RoutingTable routing(filtered);
    const PathLatencyMatrix dense(routing, filtered, kObjectBytes);
    ExpectAllPairsIdentical(sparse, dense, "epoch");
  }
  EXPECT_GT(sparse.rows_rebuilt(), 0);

  // Restoring everything returns the oracle to the fault-free answers.
  while (!downed.empty()) {
    sparse.OnLinkChange(downed.back(), /*up=*/true);
    downed.pop_back();
  }
  const RoutingTable routing(g);
  const PathLatencyMatrix dense(routing, g, kObjectBytes);
  ExpectAllPairsIdentical(sparse, dense, "restored");
}

TEST(OracleEquivalenceTest, RowSubsetAnswerClasses) {
  Rng rng(0xE3u);
  const std::int32_t n = 80;
  const Graph g = RandomConnectedGraph(n, n, rng);
  const RoutingTable routing(g);
  const PathLatencyMatrix dense(routing, g, kObjectBytes);

  // Every fifth node is rowed; the rest answer via transpose or pivot.
  std::vector<NodeId> rows;
  for (NodeId v = 0; v < n; v += 5) rows.push_back(v);
  const GatewayPivotOracle sparse(g, rows, kObjectBytes);
  ASSERT_EQ(sparse.num_rows(), rows.size());

  std::vector<NodeId> path;
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (sparse.HasRow(a)) {
        // Class 1: the rowed source is bit-identical to dense.
        ASSERT_EQ(sparse.Control(a, b), dense.Control(a, b));
        ASSERT_EQ(sparse.Transfer(a, b), dense.Transfer(a, b));
        continue;
      }
      if (sparse.HasRow(b)) {
        // Class 2: answered from b's tree, so it transposes exactly.
        ASSERT_EQ(sparse.Control(a, b), dense.Control(b, a));
        ASSERT_EQ(sparse.Transfer(a, b), dense.Transfer(b, a));
        continue;
      }
      // Class 3: a real route through a's pivot tree. The reported path
      // must exist edge-by-edge in the graph, and both latencies must be
      // the per-link truncate-then-sum totals of exactly that path.
      path.clear();
      sparse.AppendPath(a, b, &path);
      ASSERT_GE(path.size(), 1u);
      ASSERT_EQ(path.front(), a);
      ASSERT_EQ(path.back(), b);
      ASSERT_EQ(static_cast<std::int32_t>(path.size()) - 1,
                sparse.HopDistance(a, b));
      SimTime control = 0;
      SimTime transfer = 0;
      for (std::size_t i = 1; i < path.size(); ++i) {
        ASSERT_TRUE(g.HasLink(path[i - 1], path[i]))
            << "hop " << path[i - 1] << "->" << path[i];
        for (const Edge& e : g.Neighbors(path[i - 1])) {
          if (e.to != path[i]) continue;
          control += e.delay;
          transfer +=
              e.delay + sim::SerializationTime(kObjectBytes, e.bandwidth_bps);
          break;
        }
      }
      ASSERT_EQ(sparse.Control(a, b), control) << a << "," << b;
      ASSERT_EQ(sparse.Transfer(a, b), transfer) << a << "," << b;
      // Never shorter than the true shortest path.
      ASSERT_GE(sparse.HopDistance(a, b), routing.HopDistance(a, b));
    }
  }
}

TEST(OracleEquivalenceTest, AddRowSourcesPromotesToExact) {
  Rng rng(0xE4u);
  const std::int32_t n = 40;
  const Graph g = RandomConnectedGraph(n, n / 2, rng);
  const RoutingTable routing(g);
  const PathLatencyMatrix dense(routing, g, kObjectBytes);

  GatewayPivotOracle sparse(g, {0, 1}, kObjectBytes);
  ASSERT_FALSE(sparse.HasRow(17));
  sparse.AddRowSources({17, 17, 23});
  ASSERT_TRUE(sparse.HasRow(17));
  ASSERT_TRUE(sparse.HasRow(23));
  EXPECT_EQ(sparse.num_rows(), 4u);
  for (NodeId b = 0; b < n; ++b) {
    EXPECT_EQ(sparse.Control(17, b), dense.Control(17, b));
    EXPECT_EQ(sparse.Transfer(23, b), dense.Transfer(23, b));
  }
}

}  // namespace
}  // namespace radar::net
