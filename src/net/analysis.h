// Topology analysis helpers for protocol health.
//
// The placement protocol's migration rule (MIGR_RATIO = 0.6) interacts
// with the backbone's path structure: if a single neighbour transits more
// than that fraction of a node's shortest paths under spread-out demand,
// every globally popular object hosted there keeps migrating toward that
// neighbour. These helpers quantify the effect so topology authors can
// check their backbone before running the protocol on it (see DESIGN.md).
#pragma once

#include <vector>

#include "net/net_model.h"
#include "net/topology.h"

namespace radar::net {

/// For one source node: the largest fraction of destinations whose
/// canonical path transits a single other node, and that node.
struct FunnelReport {
  NodeId source = kInvalidNode;
  NodeId funnel = kInvalidNode;  ///< the dominating transit node
  double fraction = 0.0;         ///< fraction of destinations through it
};

/// Computes the per-source transit funnel under uniform demand (every
/// other node an equally likely destination), over the routes `net`
/// serves — the ones the simulator uses. Sorted by source id.
std::vector<FunnelReport> ComputeFunnels(const Topology& topology,
                                         const NetModel& net);

/// Sources whose funnel fraction exceeds `threshold` (e.g. the protocol's
/// MIGR_RATIO), sorted by descending fraction.
std::vector<FunnelReport> FunnelsAbove(const Topology& topology,
                                       const NetModel& net, double threshold);

}  // namespace radar::net
