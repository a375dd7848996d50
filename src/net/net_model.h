// The network model behind one simulation run: routing + latency lookup.
//
// Exactly one of two backends is active for a run's lifetime:
//  - dense: RoutingTable (all-pairs parent trees) + PathLatencyMatrix
//    (two n^2 latency arrays). Exact for every ordered pair; rebuilt
//    wholesale per fault epoch. The paper-scale default.
//  - sparse: GatewayPivotOracle — per-gateway/home shortest-path trees
//    plus pivot labels, O(rows x n) memory, incremental fault epoching.
//    The only backend that survives 10k+ node graphs.
//
// The accessors are inline and branch on one pointer, so the RADAR_HOT
// dispatch path pays no virtual call either way; both backends return
// raw row pointers for the loops that scan candidates.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "net/gateway_pivot.h"
#include "net/graph.h"
#include "net/latency_oracle.h"
#include "net/path_latency.h"
#include "net/routing.h"
#include "net/topology.h"

namespace radar::net {

class NetModel {
 public:
  /// `topology` must outlive this model. The sparse backend seeds its
  /// rows with the topology's gateways.
  NetModel(const Topology& topology, std::int64_t object_bytes,
           OracleKind kind);

  bool sparse() const { return sparse_ != nullptr; }
  std::int32_t num_nodes() const { return num_nodes_; }

  /// Row of hop distances from `a`, or nullptr when the sparse backend
  /// keeps no row for `a` (callers fall back to HopDistance).
  const std::int32_t* HopRow(NodeId a) const {
    return sparse_ ? sparse_->HopRowFor(a) : routing_->HopRow(a);
  }

  std::int32_t HopDistance(NodeId a, NodeId b) const {
    return sparse_ ? sparse_->HopDistance(a, b) : routing_->HopDistance(a, b);
  }

  SimTime Control(NodeId a, NodeId b) const {
    return sparse_ ? sparse_->Control(a, b) : matrix_->Control(a, b);
  }

  SimTime Transfer(NodeId a, NodeId b) const {
    return sparse_ ? sparse_->Transfer(a, b) : matrix_->Transfer(a, b);
  }

  /// Row of control latencies from `a`; never nullptr on the dense
  /// backend, nullptr on sparse when `a` is not a rowed source.
  const SimTime* ControlRow(NodeId a) const {
    return sparse_ ? sparse_->ControlRow(a) : matrix_->ControlRow(a);
  }

  /// Appends the canonical route for (a, b), endpoints inclusive, to
  /// `*out`. Allocation-free at steady capacity.
  void AppendPath(NodeId a, NodeId b, std::vector<NodeId>* out) const {
    if (sparse_) {
      sparse_->AppendPath(a, b, out);
    } else {
      routing_->AppendPath(a, b, out);
    }
  }

  /// Nodes ranked most-central first, for redirector home placement. On
  /// the sparse backend centrality is measured from the gateway rows; on
  /// all-gateway graphs (UUNET) the two rankings are identical.
  std::vector<NodeId> NodesByCentrality() const {
    return sparse_ ? sparse_->NodesBySeedCentrality()
                   : routing_->NodesByCentrality();
  }

  /// Registers redirector homes as rowed sources (sparse backend only;
  /// a no-op on dense, which has every row already).
  void AddRowSources(const std::vector<NodeId>& homes) {
    if (sparse_) sparse_->AddRowSources(homes);
  }

  /// Dense fault epoch: rebuild the routing table and latency matrix
  /// over the surviving backbone.
  void RebuildDense(const Graph& live);

  /// Sparse fault epoch: apply one link event incrementally.
  void OnLinkChange(std::int32_t link_index, bool up);

  // Backend-specific introspection.
  const RoutingTable& routing() const {
    RADAR_CHECK_MSG(!sparse(), "routing(): dense backend only");
    return *routing_;
  }
  const PathLatencyMatrix& dense_latency() const {
    RADAR_CHECK_MSG(!sparse(), "dense_latency(): dense backend only");
    return *matrix_;
  }
  const GatewayPivotOracle& sparse_oracle() const {
    RADAR_CHECK_MSG(sparse(), "sparse_oracle(): sparse backend only");
    return *sparse_;
  }

 private:
  const Topology* topology_ = nullptr;
  std::int32_t num_nodes_ = 0;
  std::int64_t object_bytes_ = 0;
  std::optional<RoutingTable> routing_;
  std::optional<PathLatencyMatrix> matrix_;
  std::unique_ptr<GatewayPivotOracle> sparse_;
};

}  // namespace radar::net
