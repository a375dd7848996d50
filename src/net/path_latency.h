// Precomputed per-pair path latencies.
//
// The request hot path needs two latencies per (a, b) node pair: the
// control latency (sum of per-link propagation delays along the canonical
// route — request/redirect messages carry negligible bytes) and the
// transfer latency of one fixed-size object (per link: propagation plus
// serialization at that link's bandwidth). Recomputing either means
// walking the path and scanning each hop's adjacency list — per request.
// Both are pure functions of (routing table, graph, object size), so this
// matrix computes them once at construction and serves O(1) lookups.
//
// Bit-exactness: the transfer matrix is computed with the same per-link
// arithmetic as the walk it replaces — each link's SerializationTime is
// truncated to integer microseconds *before* summing (a per-byte cost
// matrix multiplied at lookup time would round once per path instead of
// once per link and drift from the event-level golden). That is why the
// matrix is parameterized by the run's fixed object size rather than
// storing per-byte costs.
//
// Construction runs a dynamic program down each source's canonical
// shortest-path tree (child = parent + that link's terms), which visits
// every (source, node) pair once instead of re-walking every path — the
// per-link integer sums are associative, so the totals are bit-identical
// to the old per-pair walk.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "net/graph.h"
#include "net/routing.h"

namespace radar::net {

class PathLatencyMatrix {
 public:
  /// Precomputes both n x n matrices for `object_bytes`-sized transfers.
  /// `routing` and `graph` must describe the same topology.
  PathLatencyMatrix(const RoutingTable& routing, const Graph& graph,
                    std::int64_t object_bytes);

  std::int32_t num_nodes() const { return num_nodes_; }
  std::int64_t object_bytes() const { return object_bytes_; }

  /// Propagation-only latency along the canonical path a -> b.
  SimTime Control(NodeId a, NodeId b) const {
    return control_[Index(a, b)];
  }

  /// Row a of the control matrix (row[b] == Control(a, b)): bounds-checks
  /// the source once for hot callers that resolve several legs. Never
  /// nullptr — the dense matrix has a row for every source.
  const SimTime* ControlRow(NodeId a) const {
    RADAR_CHECK_GE(a, 0);
    RADAR_CHECK_LT(a, num_nodes_);
    return &control_[static_cast<std::size_t>(a) *
                     static_cast<std::size_t>(num_nodes_)];
  }

  /// Store-and-forward latency of one object along the path a -> b.
  SimTime Transfer(NodeId a, NodeId b) const {
    return transfer_[Index(a, b)];
  }

 private:
  std::size_t Index(NodeId a, NodeId b) const {
    RADAR_CHECK_GE(a, 0);
    RADAR_CHECK_LT(a, num_nodes_);
    RADAR_CHECK_GE(b, 0);
    RADAR_CHECK_LT(b, num_nodes_);
    return static_cast<std::size_t>(a) *
               static_cast<std::size_t>(num_nodes_) +
           static_cast<std::size_t>(b);
  }

  std::int32_t num_nodes_ = 0;
  std::int64_t object_bytes_ = 0;
  std::vector<SimTime> control_;   // dense num_nodes^2
  std::vector<SimTime> transfer_;  // dense num_nodes^2
};

}  // namespace radar::net
