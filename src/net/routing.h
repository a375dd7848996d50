// Canonical shortest-path trees with deterministic tie-breaking.
//
// The paper's simulation routes every request along the shortest path in
// hops, and "when there are equidistant paths between nodes i and j, one
// path is chosen for all requests from i to j" (Sec. 6.1). We reproduce
// that by breaking distance ties on a deterministic rank of (source,
// node, candidate parent), which pins one canonical path per (source,
// destination) pair. net::NetModel (net/net_model.h) stores one such tree
// per rowed source.
//
// The router path from host s to client gateway g doubles as the
// *preference path* of Sec. 2: the sequence of hosts co-located with the
// routers a response passes by.
#pragma once

#include <cstdint>
#include <vector>

#include "net/graph.h"

namespace radar::net {

/// Deterministic rank for equal-cost parent selection (SplitMix64-style
/// mix of source, destination-side node, and candidate parent). Hashing
/// instead of picking the lowest parent id spreads different
/// destinations over the equal-cost alternatives, the way real backbones
/// load-share, instead of collapsing all multipath onto one hub.
std::uint64_t RouteTieBreakRank(NodeId src, NodeId via, NodeId parent);

/// One canonical shortest-path tree rooted at a source node. `parent` is
/// kInvalidNode at the root; `hops` is the link count of the canonical
/// path (-1 for a node the masked graph cannot reach).
struct ShortestPathTree {
  std::vector<NodeId> parent;
  std::vector<std::int32_t> hops;
};

/// Builds the canonical hop-metric shortest-path tree rooted at `src`.
/// When `link_up` is non-null it masks `graph`'s links by link index
/// (false = down, edge ignored). The tree (distances, parents,
/// tie-breaks) is identical to the one built over the equivalent
/// filtered graph, which is what lets NetModel epoch incrementally
/// against the master graph instead of re-indexing a live copy.
void BuildShortestPathTree(const Graph& graph, NodeId src,
                           const std::vector<char>* link_up,
                           ShortestPathTree* out);

}  // namespace radar::net
