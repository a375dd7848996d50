// The network model behind one simulation run: canonical routes and
// per-pair latencies over the backbone.
//
// The request engine needs two latencies per (a, b) node pair — control
// (per-link propagation along the canonical route; request and redirect
// messages carry negligible bytes) and transfer (per link: propagation
// plus serialization of one fixed-size object, truncated to integer
// microseconds per link *before* summing, so the totals match a per-hop
// walk bit for bit). Both are pure functions of (graph, routes, object
// size), so the model precomputes them.
//
// Storage is one canonical shortest-path tree per *rowed* source, O(rows
// x n): parents, hop counts, and the two latency sums per node. Which
// nodes are rowed is the model's one choice:
//  - below kAllRowsNodeLimit nodes, every node — every ordered pair is
//    then answered from its source's own tree, the exact canonical
//    shortest path of Sec. 6.1 (the paper's 53-node UUNET and every
//    paper-scale run);
//  - at or above it, the gateways plus the redirector homes
//    (AddRowSources) — the sources every hot-path leg has on one side
//    (dispatch, redirect, retry, delivery), while n^2 state would not fit.
//
// Answer classes, in lookup order for a pair (a, b):
//   1. a is rowed   → a's own tree (the canonical path).
//   2. b is rowed   → the reverse of b's tree path to a. The same links
//      are traversed, and both latency sums add per-link integer terms
//      that are direction-independent, so Control(a,b) == Control(b,a).
//   3. neither      → the tree path a → lca → b inside the tree of a's
//      pivot (its nearest rowed source): an exact sum over real graph
//      links, deterministic, but not necessarily a shortest path. Only
//      cold administrative legs (host-to-host copy accounting, placement
//      distances to interior routers) above the row limit take it.
// With every node rowed, classes 2 and 3 never occur.
//
// Fault epochs patch the trees incrementally: a link event recomputes
// only the trees it may perturb. Down(u,v): a tree is rebuilt iff (u,v)
// is one of its tree edges (removing a non-tree edge can change neither
// distances nor the rank-argmin parent choice). Up(u,v): a tree is
// rebuilt when hops[u]+1 <= hops[v] or hops[v]+1 <= hops[u] (strict
// improvement moves distances; equality can flip the tie-break). The
// same tests against the pivot forest govern rebuilding the pivot
// assignment. Everything is evaluated against the master graph plus a
// link-up mask, so no per-epoch graph copy or re-indexing exists.
//
// The rowed-source branch of Control / Transfer / HopDistance is inline
// (it runs several times per simulated request); classes 2 and 3 are out
// of line. Row accessors return raw pointers for the loops that scan
// candidates, or nullptr for an unrowed source.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "net/graph.h"
#include "net/routing.h"
#include "net/topology.h"

namespace radar::net {

/// The model has one backend; this enum survives only because the
/// benchmark's trace replay (perfbench/trace_replay.cpp) passes
/// SimConfig::oracle to the NetModel constructor. Nothing else sets it.
enum class OracleKind : std::uint8_t { kAuto };

/// Below this many nodes every node is a rowed source (2 x 8 B latency
/// sums plus 2 x 4 B tree entries per pair: 24 MB at 1,000 nodes, but
/// ~2.4 GB at 10,000). At or above it, gateways and redirector homes are.
inline constexpr std::int32_t kAllRowsNodeLimit = 1024;

class NetModel {
 public:
  /// Rows every node of `topology` below kAllRowsNodeLimit nodes and its
  /// gateways at or above. `topology` must be connected and outlive the
  /// model. `kind` is ignored; see OracleKind for why it exists.
  NetModel(const Topology& topology, std::int64_t object_bytes,
           OracleKind kind = OracleKind::kAuto);

  /// Rows exactly `rows` (sorted and deduplicated internally; must be
  /// non-empty) over `graph`, which must be connected and outlive the
  /// model. For tests that pin the answer classes on bare graphs.
  NetModel(const Graph& graph, std::vector<NodeId> rows,
           std::int64_t object_bytes);

  std::int32_t num_nodes() const { return num_nodes_; }
  std::size_t num_rows() const { return rowed_.size(); }

  bool HasRow(NodeId a) const {
    return row_of_[static_cast<std::size_t>(Checked(a))] >= 0;
  }

  /// Registers additional rowed sources (redirector homes). Sources
  /// already rowed are ignored, so this is a no-op when every node is
  /// rowed. Rebuilds the pivot assignment so new rows also serve as
  /// pivots.
  void AddRowSources(const std::vector<NodeId>& sources);

  /// Propagation-only latency along the route a -> b.
  SimTime Control(NodeId a, NodeId b) const {
    const std::int32_t ra = row_of_[static_cast<std::size_t>(Checked(a))];
    if (ra >= 0) {
      return ctrl_[RowBase(ra) + static_cast<std::size_t>(Checked(b))];
    }
    return UnrowedControl(a, b);
  }

  /// Store-and-forward latency of one object along the route a -> b.
  SimTime Transfer(NodeId a, NodeId b) const {
    const std::int32_t ra = row_of_[static_cast<std::size_t>(Checked(a))];
    if (ra >= 0) {
      return trans_[RowBase(ra) + static_cast<std::size_t>(Checked(b))];
    }
    return UnrowedTransfer(a, b);
  }

  /// Hop count of the route AppendPath produces for (a, b); the exact
  /// graph distance when either endpoint is rowed.
  std::int32_t HopDistance(NodeId a, NodeId b) const {
    const std::int32_t ra = row_of_[static_cast<std::size_t>(Checked(a))];
    if (ra >= 0) {
      return hops_[RowBase(ra) + static_cast<std::size_t>(Checked(b))];
    }
    return UnrowedHopDistance(a, b);
  }

  /// Row of control latencies from `a` (row[b] == Control(a, b)), or
  /// nullptr when `a` is not rowed. Gateways and redirector homes — the
  /// sources the dispatch path reads — always are.
  const SimTime* ControlRow(NodeId a) const {
    const std::int32_t r = row_of_[static_cast<std::size_t>(Checked(a))];
    return r < 0 ? nullptr : &ctrl_[RowBase(r)];
  }

  /// Row of hop distances from `a`, or nullptr when `a` is not rowed
  /// (callers fall back to HopDistance).
  const std::int32_t* HopRow(NodeId a) const {
    const std::int32_t r = row_of_[static_cast<std::size_t>(Checked(a))];
    return r < 0 ? nullptr : &hops_[RowBase(r)];
  }

  /// Appends the route for (a, b), inclusive of both endpoints, to `*out`
  /// without clearing it. Allocation-free at steady capacity and safe to
  /// call concurrently (no shared mutable state).
  void AppendPath(NodeId a, NodeId b, std::vector<NodeId>* out) const;

  /// Applies one link state change (up = restored, down = failed) and
  /// incrementally recomputes only the affected trees. The masked graph
  /// must remain connected (the fault injector guarantees this).
  void OnLinkChange(std::int32_t link_index, bool up);

  /// Cumulative count of single-source tree recomputations caused by
  /// OnLinkChange — the observable cost of incremental epoching.
  std::int64_t rows_rebuilt() const { return rows_rebuilt_; }

  /// All nodes ordered by total hop distance from the rows present at
  /// construction (ascending; ties toward the lower id), for redirector
  /// home placement. With every node rowed this is the paper's "average
  /// distance in hops to other nodes" ranking, since hop distances are
  /// symmetric.
  std::vector<NodeId> NodesByCentrality() const;

 private:
  NodeId Checked(NodeId a) const {
    RADAR_CHECK_GE(a, 0);
    RADAR_CHECK_LT(a, num_nodes_);
    return a;
  }
  std::size_t RowBase(std::int32_t row) const {
    return static_cast<std::size_t>(row) * static_cast<std::size_t>(num_nodes_);
  }

  /// Classes 2 and 3 for an unrowed source `a`.
  SimTime UnrowedControl(NodeId a, NodeId b) const;
  SimTime UnrowedTransfer(NodeId a, NodeId b) const;
  std::int32_t UnrowedHopDistance(NodeId a, NodeId b) const;

  /// Rebuilds row `r`'s tree and latency sums under the current mask.
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

  ShortestPathTree scratch_tree_;
  std::vector<std::size_t> scratch_bucket_;
  std::vector<NodeId> scratch_order_;
};

}  // namespace radar::net
