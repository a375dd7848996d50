// Sparse gateway-pivot latency oracle for internet-scale graphs.
//
// The dense PathLatencyMatrix stores two n^2 SimTime arrays and rebuilds
// them per fault epoch — ~1.6 GB and an O(n^2 · path) rebuild at 10k
// nodes. This oracle exploits the protocol's access pattern instead:
// every latency the request engine resolves on its hot path has a
// *gateway or redirector home* on one side (dispatch legs, redirect
// legs, retry legs, delivery legs). So it precomputes one canonical
// shortest-path tree per such "rowed" source — O(rows · n) storage with
// rows ≈ gateways + homes ≪ n — and answers the long tail of host–host
// pairs through pivot labels (each node is assigned its nearest rowed
// pivot; the pair is routed through the pivot's tree via the lowest
// common ancestor).
//
// Answer classes, in lookup order for a pair (a, b):
//   1. a is rowed   → a's own tree: identical arithmetic and canonical
//      path to the dense matrix, bit-for-bit.
//   2. b is rowed   → the reverse of b's tree path to a. The same links
//      are traversed, and both control and transfer sum per-link integer
//      terms that are direction-independent, so Control(a,b) equals the
//      dense Control(b,a) exactly.
//   3. neither      → the tree path a → lca → b inside the tree of a's
//      pivot: an exact tree-path sum over real graph links (a valid
//      route, deterministic, but not necessarily the dense canonical
//      shortest path). Only cold administrative legs (host-to-host copy
//      accounting, placement distances to interior routers) ever take
//      this class.
//
// With every node registered as a row the oracle degenerates to the
// dense semantics for all ordered pairs — the property tests pin that
// equality, and the 53-node UUNET graph (all nodes gateways) takes this
// path, keeping the golden report byte-identical under --oracle=sparse.
//
// Fault epochs invalidate incrementally: a link event recomputes only
// the trees it actually perturbs. Down(u,v): a tree changes iff (u,v) is
// one of its tree edges (removing a non-tree edge can change neither
// distances nor the rank-argmin parent choice). Up(u,v): a tree changes
// iff cost[u]+w <= cost[v] or cost[v]+w <= cost[u] (strict improvement
// moves distances; equality can flip the deterministic tie-break). The
// same tests against the pivot forest's distances govern rebuilding the
// pivot assignment. Everything is evaluated against the master graph
// plus a link-up mask, so no per-epoch graph copy or re-indexing exists.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "net/graph.h"
#include "net/routing.h"

namespace radar::net {

class GatewayPivotOracle {
 public:
  /// Builds rows for `seed_sources` (typically the gateway set; sorted
  /// and deduplicated internally, must be non-empty) over `graph`, which
  /// must be connected, outlive the oracle, and use hop-metric routing
  /// (the simulation's model). `object_bytes` parameterizes the transfer
  /// rows exactly as in PathLatencyMatrix.
  GatewayPivotOracle(const Graph& graph, std::vector<NodeId> seed_sources,
                     std::int64_t object_bytes);

  std::int32_t num_nodes() const { return num_nodes_; }
  std::int64_t object_bytes() const { return object_bytes_; }
  std::size_t num_rows() const { return rowed_.size(); }

  /// Registers additional rowed sources (redirector homes). Sources
  /// already rowed are ignored. Rebuilds the pivot assignment so the
  /// new rows also serve as pivots.
  void AddRowSources(const std::vector<NodeId>& sources);

  bool HasRow(NodeId a) const {
    return row_of_[static_cast<std::size_t>(Checked(a))] >= 0;
  }

  SimTime Control(NodeId a, NodeId b) const;
  SimTime Transfer(NodeId a, NodeId b) const;

  /// Row of control latencies from `a`, or nullptr when `a` is not a
  /// rowed source (hot dispatch only ever asks for gateway/home rows).
  const SimTime* ControlRow(NodeId a) const {
    const std::int32_t r = row_of_[static_cast<std::size_t>(Checked(a))];
    return r < 0 ? nullptr : &ctrl_[RowBase(r)];
  }

  /// Row of hop distances from `a`, or nullptr when `a` is not rowed.
  const std::int32_t* HopRowFor(NodeId a) const {
    const std::int32_t r = row_of_[static_cast<std::size_t>(Checked(a))];
    return r < 0 ? nullptr : &hops_[RowBase(r)];
  }

  /// Hop count of the path AppendPath would produce for (a, b); exact
  /// graph distance when either endpoint is rowed.
  std::int32_t HopDistance(NodeId a, NodeId b) const;

  /// Appends the canonical route for (a, b), inclusive of both
  /// endpoints, to `*out` without clearing it. Allocation-free at steady
  /// capacity and safe to call concurrently (no shared mutable state).
  void AppendPath(NodeId a, NodeId b, std::vector<NodeId>* out) const;

  /// Applies one link state change (up = restored, down = failed) and
  /// incrementally recomputes only the affected trees. The masked graph
  /// must remain connected (the fault injector guarantees this).
  void OnLinkChange(std::int32_t link_index, bool up);

  /// Cumulative count of single-source tree recomputations caused by
  /// OnLinkChange — the observable cost of incremental epoching.
  std::int64_t rows_rebuilt() const { return rows_rebuilt_; }
  /// Cumulative count of pivot-forest recomputations.
  std::int64_t forests_rebuilt() const { return forests_rebuilt_; }

  /// All nodes ordered by total hop distance from the seed rows
  /// (ascending; ties toward the lower id). When the seed set is every
  /// node this is exactly RoutingTable::NodesByCentrality's order, which
  /// is what keeps sparse-mode redirector home picks identical on
  /// all-gateway graphs like UUNET.
  std::vector<NodeId> NodesBySeedCentrality() const;

 private:
  NodeId Checked(NodeId a) const {
    RADAR_CHECK_GE(a, 0);
    RADAR_CHECK_LT(a, num_nodes_);
    return a;
  }
  std::size_t RowBase(std::int32_t row) const {
    return static_cast<std::size_t>(row) * static_cast<std::size_t>(num_nodes_);
  }

  /// Rebuilds row `r`'s tree and latency arrays under the current mask.
  void RebuildRow(std::int32_t row);
  /// Rebuilds the multi-source pivot assignment under the current mask.
  void RebuildPivotForest();
  /// Lowest common ancestor of (a, b) in rowed tree `row`.
  NodeId Lca(std::int32_t row, NodeId a, NodeId b) const;
  /// Row that answers a class-3 pair with first endpoint `a`.
  std::int32_t PivotRow(NodeId a) const {
    const std::int32_t r =
        row_of_[static_cast<std::size_t>(pivot_of_[static_cast<std::size_t>(a)])];
    RADAR_CHECK_GE(r, 0);
    return r;
  }

  const Graph* graph_ = nullptr;
  std::int32_t num_nodes_ = 0;
  std::int64_t object_bytes_ = 0;
  std::vector<char> link_up_;

  std::vector<NodeId> rowed_;        // rowed sources, registration order
  std::size_t num_seed_rows_ = 0;    // prefix of rowed_ present at ctor
  std::vector<std::int32_t> row_of_;  // node -> row index or -1

  // Flattened per-row arrays, row r at [r * n, (r+1) * n). Hop counts
  // double as metric costs (hop-metric routing), so the incremental
  // link-up test reads hops_ directly.
  std::vector<NodeId> parent_;
  std::vector<std::int32_t> hops_;
  std::vector<SimTime> ctrl_;
  std::vector<SimTime> trans_;

  // Pivot assignment: nearest rowed source per node (multi-source BFS).
  std::vector<NodeId> pivot_of_;
  std::vector<std::int32_t> pivot_dist_;
  std::vector<NodeId> pivot_parent_;

  std::int64_t rows_rebuilt_ = 0;
  std::int64_t forests_rebuilt_ = 0;

  ShortestPathTree scratch_tree_;
  std::vector<std::size_t> scratch_bucket_;
  std::vector<NodeId> scratch_order_;
};

}  // namespace radar::net
