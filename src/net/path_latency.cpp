#include "net/path_latency.h"

#include <algorithm>

#include "common/check.h"
#include "sim/transfer.h"

namespace radar::net {
namespace {

/// Edge from `v` to its canonical parent `p`; neighbor lists are sorted
/// by node id, so a binary search finds the link without a full scan.
const Edge& EdgeTo(const Graph& graph, NodeId v, NodeId p) {
  const std::vector<Edge>& edges = graph.Neighbors(v);
  const auto it = std::lower_bound(
      edges.begin(), edges.end(), p,
      [](const Edge& e, NodeId node) { return e.to < node; });
  RADAR_CHECK(it != edges.end());
  RADAR_CHECK_EQ(it->to, p);
  return *it;
}

}  // namespace

PathLatencyMatrix::PathLatencyMatrix(const RoutingTable& routing,
                                     const Graph& graph,
                                     std::int64_t object_bytes)
    : num_nodes_(routing.num_nodes()), object_bytes_(object_bytes) {
  RADAR_CHECK_EQ(num_nodes_, graph.num_nodes());
  RADAR_CHECK_GE(object_bytes_, 0);
  const auto n = static_cast<std::size_t>(num_nodes_);
  control_.assign(n * n, 0);
  transfer_.assign(n * n, 0);

  // Nodes in parent-before-child order (ascending hop count, then id —
  // a counting sort, since hop counts are < n). Reused across sources.
  std::vector<std::size_t> bucket_start;
  std::vector<NodeId> order(n);

  for (NodeId a = 0; a < num_nodes_; ++a) {
    const std::int32_t* hops = routing.HopRow(a);
    const NodeId* parent = routing.ParentRow(a);
    SimTime* control = &control_[Index(a, 0)];
    SimTime* transfer = &transfer_[Index(a, 0)];

    std::int32_t max_hops = 0;
    for (std::size_t v = 0; v < n; ++v) max_hops = std::max(max_hops, hops[v]);
    bucket_start.assign(static_cast<std::size_t>(max_hops) + 2, 0);
    for (std::size_t v = 0; v < n; ++v) {
      ++bucket_start[static_cast<std::size_t>(hops[v]) + 1];
    }
    for (std::size_t h = 1; h < bucket_start.size(); ++h) {
      bucket_start[h] += bucket_start[h - 1];
    }
    for (NodeId v = 0; v < num_nodes_; ++v) {
      order[bucket_start[static_cast<std::size_t>(
          hops[static_cast<std::size_t>(v)])]++] = v;
    }

    for (const NodeId v : order) {
      const NodeId p = parent[static_cast<std::size_t>(v)];
      if (p == kInvalidNode) {
        RADAR_CHECK_EQ(v, a);
        continue;
      }
      const Edge& e = EdgeTo(graph, v, p);
      const auto vi = static_cast<std::size_t>(v);
      const auto pi = static_cast<std::size_t>(p);
      control[vi] = control[pi] + e.delay;
      // Per-link truncation, matching the per-hop walk this replaces.
      transfer[vi] = transfer[pi] + e.delay +
                     sim::SerializationTime(object_bytes_, e.bandwidth_bps);
    }
  }
}

}  // namespace radar::net
