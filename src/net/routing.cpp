#include "net/routing.h"

#include "common/check.h"

namespace radar::net {
namespace {

bool LinkIsUp(const std::vector<char>* link_up, std::int32_t link_index) {
  return link_up == nullptr ||
         (*link_up)[static_cast<std::size_t>(link_index)] != 0;
}

}  // namespace

std::uint64_t RouteTieBreakRank(NodeId src, NodeId via, NodeId parent) {
  std::uint64_t z = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 42) ^
                    (static_cast<std::uint64_t>(static_cast<std::uint32_t>(via)) << 21) ^
                    static_cast<std::uint64_t>(static_cast<std::uint32_t>(parent));
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Plain BFS for distances, then one pass per node picking the canonical
/// parent. In Dijkstra with unit weights the candidate predecessors of v
/// are exactly its neighbors one layer closer to the source, offered in
/// settlement order (ascending node id within a layer, which is the
/// adjacency order since neighbor lists are sorted); the first offer
/// assigns unconditionally and later equal-cost offers win only on
/// strictly smaller tie-break rank. Reproducing that argmin directly
/// yields the same trees at O(n + m) per source instead of O(m log n).
void BuildShortestPathTree(const Graph& graph, NodeId src,
                           const std::vector<char>* link_up,
                           ShortestPathTree* out) {
  RADAR_CHECK_GE(src, 0);
  RADAR_CHECK_LT(src, graph.num_nodes());
  if (link_up != nullptr) {
    RADAR_CHECK_EQ(link_up->size(), graph.num_links());
  }
  const auto n = static_cast<std::size_t>(graph.num_nodes());
  out->hops.assign(n, -1);
  std::vector<std::int32_t>& hops = out->hops;
  std::vector<NodeId>& queue = out->parent;  // reused as BFS queue storage
  queue.clear();
  queue.push_back(src);
  hops[static_cast<std::size_t>(src)] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId node = queue[head];
    const std::int32_t next = hops[static_cast<std::size_t>(node)] + 1;
    for (const Edge& e : graph.Neighbors(node)) {
      if (!LinkIsUp(link_up, e.link_index)) continue;
      auto& h = hops[static_cast<std::size_t>(e.to)];
      if (h < 0) {
        h = next;
        queue.push_back(e.to);
      }
    }
  }

  out->parent.assign(n, kInvalidNode);
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const std::int32_t hv = hops[static_cast<std::size_t>(v)];
    if (hv <= 0) continue;  // the root, or unreachable under the mask
    NodeId best = kInvalidNode;
    std::uint64_t best_rank = 0;
    for (const Edge& e : graph.Neighbors(v)) {
      if (!LinkIsUp(link_up, e.link_index)) continue;
      if (hops[static_cast<std::size_t>(e.to)] != hv - 1) continue;
      const std::uint64_t rank = RouteTieBreakRank(src, v, e.to);
      if (best == kInvalidNode || rank < best_rank) {
        best = e.to;
        best_rank = rank;
      }
    }
    RADAR_CHECK(best != kInvalidNode);
    out->parent[static_cast<std::size_t>(v)] = best;
  }
}

}  // namespace radar::net
