// Property tests pinning net::NetModel's answers on randomized graphs to
// a reference computed inside this test: a per-pair walk up the
// BuildShortestPathTree parent chain that sums each link's delay (control)
// or delay plus SerializationTime (transfer). The model instead runs a DP
// down each tree, so the two share only the tree builder.
//  - all-rowed models (the regime below kAllRowsNodeLimit) answer every
//    ordered pair exactly like the walk, and their centrality ranking is
//    the mean-distance ranking;
//  - that survives scripted link-fault epochs applied via OnLinkChange,
//    compared against a model built fresh over the filtered graph and
//    against the walk over the masked graph;
//  - with a proper row subset, rowed sources match the walk (class 1),
//    rowed destinations answer with the walk from (b, a) (class 2), and
//    unrowed pairs return latencies consistent with the real graph path
//    the model reports (class 3).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/graph.h"
#include "net/net_model.h"
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

/// The edge (from, to) of `g`, found by a linear scan.
const Edge& EdgeBetween(const Graph& g, NodeId from, NodeId to) {
  for (const Edge& e : g.Neighbors(from)) {
    if (e.to == to) return e;
  }
  ADD_FAILURE() << "no link " << from << "-" << to;
  return g.Neighbors(from).front();
}

/// One pair's reference answer: the canonical path a -> b and its summed
/// per-link terms, each link's serialization truncated before summing.
struct Walk {
  std::vector<NodeId> path;
  SimTime control = 0;
  SimTime transfer = 0;
  std::int32_t hops() const {
    return static_cast<std::int32_t>(path.size()) - 1;
  }
};

/// Reference answers for every ordered pair of `g` under `link_up`
/// (nullptr = every link up), from one shortest-path tree per source.
class WalkReference {
 public:
  WalkReference(const Graph& g, const std::vector<char>* link_up) : g_(g) {
    trees_.resize(static_cast<std::size_t>(g.num_nodes()));
    for (NodeId a = 0; a < g.num_nodes(); ++a) {
      BuildShortestPathTree(g, a, link_up,
                            &trees_[static_cast<std::size_t>(a)]);
    }
  }

  Walk Of(NodeId a, NodeId b) const {
    const std::vector<NodeId>& parent =
        trees_[static_cast<std::size_t>(a)].parent;
    Walk walk;
    for (NodeId at = b; at != a; at = parent[static_cast<std::size_t>(at)]) {
      walk.path.push_back(at);
      const Edge& e =
          EdgeBetween(g_, at, parent[static_cast<std::size_t>(at)]);
      walk.control += e.delay;
      walk.transfer +=
          e.delay + sim::SerializationTime(kObjectBytes, e.bandwidth_bps);
    }
    walk.path.push_back(a);
    std::reverse(walk.path.begin(), walk.path.end());
    return walk;
  }

  /// Nodes by mean hop distance *to* every other node (ascending, ties
  /// toward the lower id) — the paper's redirector placement rule.
  std::vector<NodeId> ByMeanDistance() const {
    std::vector<std::int64_t> total(trees_.size(), 0);
    for (std::size_t v = 0; v < trees_.size(); ++v) {
      for (const std::int32_t h : trees_[v].hops) total[v] += h;
    }
    std::vector<NodeId> nodes = AllNodes(g_.num_nodes());
    std::stable_sort(nodes.begin(), nodes.end(), [&](NodeId x, NodeId y) {
      return total[static_cast<std::size_t>(x)] <
             total[static_cast<std::size_t>(y)];
    });
    return nodes;
  }

 private:
  const Graph& g_;
  std::vector<ShortestPathTree> trees_;
};

/// Every ordered pair: scalars, rows and paths equal the walk.
void ExpectMatchesWalk(const NetModel& net, const WalkReference& ref,
                       const char* context) {
  std::vector<NodeId> path;
  for (NodeId a = 0; a < net.num_nodes(); ++a) {
    const SimTime* row = net.ControlRow(a);
    ASSERT_NE(row, nullptr) << context;
    for (NodeId b = 0; b < net.num_nodes(); ++b) {
      const Walk walk = ref.Of(a, b);
      ASSERT_EQ(net.Control(a, b), walk.control)
          << context << " control (" << a << "," << b << ")";
      ASSERT_EQ(net.Transfer(a, b), walk.transfer)
          << context << " transfer (" << a << "," << b << ")";
      ASSERT_EQ(net.HopDistance(a, b), walk.hops())
          << context << " hops (" << a << "," << b << ")";
      ASSERT_EQ(row[b], walk.control)
          << context << " row " << a << " col " << b;
      path.clear();
      net.AppendPath(a, b, &path);
      ASSERT_EQ(path, walk.path)
          << context << " path (" << a << "," << b << ")";
    }
  }
}

/// Every ordered pair: `patched` answers exactly like `fresh`.
void ExpectSameAnswers(const NetModel& patched, const NetModel& fresh,
                       const char* context) {
  for (NodeId a = 0; a < patched.num_nodes(); ++a) {
    for (NodeId b = 0; b < patched.num_nodes(); ++b) {
      ASSERT_EQ(patched.Control(a, b), fresh.Control(a, b))
          << context << " control (" << a << "," << b << ")";
      ASSERT_EQ(patched.Transfer(a, b), fresh.Transfer(a, b))
          << context << " transfer (" << a << "," << b << ")";
    }
  }
}

TEST(OracleEquivalenceTest, AllRowedMatchesWalkOnRandomGraphs) {
  Rng rng(0xE0u);
  for (const std::int32_t n : {8, 24, 57, 128, 256}) {
    const Graph g = RandomConnectedGraph(n, /*extra=*/n, rng);
    const NetModel net(g, AllNodes(n), kObjectBytes);
    ASSERT_EQ(net.num_rows(), static_cast<std::size_t>(n));
    const WalkReference ref(g, nullptr);
    ExpectMatchesWalk(net, ref, "all-rowed");
    EXPECT_EQ(net.NodesByCentrality(), ref.ByMeanDistance());
  }
}

TEST(OracleEquivalenceTest, AllRowedMatchesFreshModelAcrossFaultEpochs) {
  Rng rng(0xE2u);
  const std::int32_t n = 48;
  const Graph g = RandomConnectedGraph(n, n, rng);
  NetModel net(g, AllNodes(n), kObjectBytes);
  std::vector<char> link_up(g.num_links(), 1);

  // Scripted epochs: six downs (each chosen to keep the masked graph
  // connected) with two restores interleaved. After every event the
  // patched model must match one built fresh over the filtered graph,
  // and the walk over the masked graph.
  std::vector<std::int32_t> downed;
  int events = 0;
  while (events < 8) {
    const bool restore = (events == 3 || events == 6) && !downed.empty();
    std::int32_t link;
    if (restore) {
      link = downed.back();
      downed.pop_back();
      link_up[static_cast<std::size_t>(link)] = 1;
      net.OnLinkChange(link, /*up=*/true);
    } else {
      link = static_cast<std::int32_t>(rng.NextBounded(g.num_links()));
      if (!link_up[static_cast<std::size_t>(link)]) continue;
      // Masking must keep every already-down link off as well.
      std::vector<char> candidate = link_up;
      candidate[static_cast<std::size_t>(link)] = 0;
      if (!FilteredGraph(g, candidate).IsConnected()) continue;
      downed.push_back(link);
      link_up[static_cast<std::size_t>(link)] = 0;
      net.OnLinkChange(link, /*up=*/false);
    }
    ++events;

    const Graph filtered = FilteredGraph(g, link_up);
    ExpectSameAnswers(net, NetModel(filtered, AllNodes(n), kObjectBytes),
                      "epoch");
    ExpectMatchesWalk(net, WalkReference(g, &link_up), "epoch");
  }
  EXPECT_GT(net.rows_rebuilt(), 0);

  // Restoring everything returns the model to the fault-free answers.
  while (!downed.empty()) {
    net.OnLinkChange(downed.back(), /*up=*/true);
    downed.pop_back();
  }
  ExpectMatchesWalk(net, WalkReference(g, nullptr), "restored");
}

TEST(OracleEquivalenceTest, RowSubsetAnswerClasses) {
  Rng rng(0xE3u);
  const std::int32_t n = 80;
  const Graph g = RandomConnectedGraph(n, n, rng);
  const WalkReference ref(g, nullptr);

  // Every fifth node is rowed; the rest answer via transpose or pivot.
  std::vector<NodeId> rows;
  for (NodeId v = 0; v < n; v += 5) rows.push_back(v);
  const NetModel net(g, rows, kObjectBytes);
  ASSERT_EQ(net.num_rows(), rows.size());

  std::vector<NodeId> path;
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (net.HasRow(a)) {
        // Class 1: the rowed source answers with its canonical path.
        const Walk walk = ref.Of(a, b);
        ASSERT_EQ(net.Control(a, b), walk.control);
        ASSERT_EQ(net.Transfer(a, b), walk.transfer);
        ASSERT_EQ(net.HopDistance(a, b), walk.hops());
        continue;
      }
      if (net.HasRow(b)) {
        // Class 2: answered from b's tree, so it is the walk from (b, a).
        const Walk walk = ref.Of(b, a);
        ASSERT_EQ(net.Control(a, b), walk.control);
        ASSERT_EQ(net.Transfer(a, b), walk.transfer);
        ASSERT_EQ(net.HopDistance(a, b), walk.hops());
        continue;
      }
      // Class 3: a real route through a's pivot tree. The reported path
      // must exist edge-by-edge in the graph, and both latencies must be
      // the per-link truncate-then-sum totals of exactly that path.
      path.clear();
      net.AppendPath(a, b, &path);
      ASSERT_GE(path.size(), 1u);
      ASSERT_EQ(path.front(), a);
      ASSERT_EQ(path.back(), b);
      ASSERT_EQ(static_cast<std::int32_t>(path.size()) - 1,
                net.HopDistance(a, b));
      SimTime control = 0;
      SimTime transfer = 0;
      for (std::size_t i = 1; i < path.size(); ++i) {
        ASSERT_TRUE(g.HasLink(path[i - 1], path[i]))
            << "hop " << path[i - 1] << "->" << path[i];
        const Edge& e = EdgeBetween(g, path[i - 1], path[i]);
        control += e.delay;
        transfer +=
            e.delay + sim::SerializationTime(kObjectBytes, e.bandwidth_bps);
      }
      ASSERT_EQ(net.Control(a, b), control) << a << "," << b;
      ASSERT_EQ(net.Transfer(a, b), transfer) << a << "," << b;
      // Never shorter than the true shortest path.
      ASSERT_GE(net.HopDistance(a, b), ref.Of(a, b).hops());
    }
  }
}

TEST(OracleEquivalenceTest, AddRowSourcesPromotesToExact) {
  Rng rng(0xE4u);
  const std::int32_t n = 40;
  const Graph g = RandomConnectedGraph(n, n / 2, rng);
  const WalkReference ref(g, nullptr);

  NetModel net(g, {0, 1}, kObjectBytes);
  ASSERT_FALSE(net.HasRow(17));
  net.AddRowSources({17, 17, 23});
  ASSERT_TRUE(net.HasRow(17));
  ASSERT_TRUE(net.HasRow(23));
  EXPECT_EQ(net.num_rows(), 4u);
  for (NodeId b = 0; b < n; ++b) {
    EXPECT_EQ(net.Control(17, b), ref.Of(17, b).control);
    EXPECT_EQ(net.Transfer(23, b), ref.Of(23, b).transfer);
  }
}

}  // namespace
}  // namespace radar::net
