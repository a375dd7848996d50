#include "net/gateway_pivot.h"

#include <algorithm>

#include "sim/transfer.h"

namespace radar::net {

GatewayPivotOracle::GatewayPivotOracle(const Graph& graph,
                                       std::vector<NodeId> seed_sources,
                                       std::int64_t object_bytes)
    : graph_(&graph),
      num_nodes_(graph.num_nodes()),
      object_bytes_(object_bytes) {
  RADAR_CHECK_GT(num_nodes_, 0);
  RADAR_CHECK_GE(object_bytes_, 0);
  RADAR_CHECK_MSG(graph.IsConnected(),
                  "gateway-pivot oracle requires a connected graph");
  link_up_.assign(graph.num_links(), 1);

  std::sort(seed_sources.begin(), seed_sources.end());
  seed_sources.erase(std::unique(seed_sources.begin(), seed_sources.end()),
                     seed_sources.end());
  RADAR_CHECK_MSG(!seed_sources.empty(),
                  "gateway-pivot oracle needs at least one rowed source");
  for (const NodeId s : seed_sources) Checked(s);

  rowed_ = std::move(seed_sources);
  num_seed_rows_ = rowed_.size();
  row_of_.assign(static_cast<std::size_t>(num_nodes_), -1);
  const std::size_t n = static_cast<std::size_t>(num_nodes_);
  parent_.resize(rowed_.size() * n);
  hops_.resize(rowed_.size() * n);
  ctrl_.resize(rowed_.size() * n);
  trans_.resize(rowed_.size() * n);
  for (std::size_t r = 0; r < rowed_.size(); ++r) {
    row_of_[static_cast<std::size_t>(rowed_[r])] = static_cast<std::int32_t>(r);
    RebuildRow(static_cast<std::int32_t>(r));
  }
  RebuildPivotForest();
}

void GatewayPivotOracle::AddRowSources(const std::vector<NodeId>& sources) {
  std::vector<NodeId> batch = sources;
  std::sort(batch.begin(), batch.end());
  batch.erase(std::unique(batch.begin(), batch.end()), batch.end());
  const std::size_t n = static_cast<std::size_t>(num_nodes_);
  bool added = false;
  for (const NodeId s : batch) {
    if (HasRow(s)) continue;
    const auto row = static_cast<std::int32_t>(rowed_.size());
    rowed_.push_back(s);
    row_of_[static_cast<std::size_t>(s)] = row;
    parent_.resize(rowed_.size() * n);
    hops_.resize(rowed_.size() * n);
    ctrl_.resize(rowed_.size() * n);
    trans_.resize(rowed_.size() * n);
    RebuildRow(row);
    added = true;
  }
  if (added) RebuildPivotForest();
}

void GatewayPivotOracle::RebuildRow(std::int32_t row) {
  const NodeId src = rowed_[static_cast<std::size_t>(row)];
  BuildShortestPathTree(*graph_, src, RoutingMetric::kHops, &link_up_,
                        &scratch_tree_);
  const std::size_t n = static_cast<std::size_t>(num_nodes_);
  const std::size_t base = RowBase(row);
  NodeId* parent = &parent_[base];
  std::int32_t* hops = &hops_[base];
  SimTime* ctrl = &ctrl_[base];
  SimTime* trans = &trans_[base];

  std::int32_t max_hops = 0;
  for (std::size_t v = 0; v < n; ++v) {
    RADAR_CHECK_GE(scratch_tree_.hops[v], 0);  // mask must stay connected
    parent[v] = scratch_tree_.parent[v];
    hops[v] = scratch_tree_.hops[v];
    max_hops = std::max(max_hops, hops[v]);
  }

  // Parent-before-child order by counting sort on hop count, then the
  // same per-link truncate-then-sum DP the dense matrix runs.
  scratch_bucket_.assign(static_cast<std::size_t>(max_hops) + 2, 0);
  for (std::size_t v = 0; v < n; ++v) {
    ++scratch_bucket_[static_cast<std::size_t>(hops[v]) + 1];
  }
  for (std::size_t h = 1; h < scratch_bucket_.size(); ++h) {
    scratch_bucket_[h] += scratch_bucket_[h - 1];
  }
  scratch_order_.resize(n);
  for (NodeId v = 0; v < num_nodes_; ++v) {
    scratch_order_[scratch_bucket_[static_cast<std::size_t>(
        hops[static_cast<std::size_t>(v)])]++] = v;
  }

  for (const NodeId v : scratch_order_) {
    const auto vi = static_cast<std::size_t>(v);
    const NodeId p = parent[vi];
    if (p == kInvalidNode) {
      RADAR_CHECK_EQ(v, src);
      ctrl[vi] = 0;
      trans[vi] = 0;
      continue;
    }
    const std::vector<Edge>& edges = graph_->Neighbors(v);
    const auto it = std::lower_bound(
        edges.begin(), edges.end(), p,
        [](const Edge& e, NodeId node) { return e.to < node; });
    RADAR_CHECK(it != edges.end());
    RADAR_CHECK_EQ(it->to, p);
    const auto pi = static_cast<std::size_t>(p);
    ctrl[vi] = ctrl[pi] + it->delay;
    trans[vi] = trans[pi] + it->delay +
                sim::SerializationTime(object_bytes_, it->bandwidth_bps);
  }
}

void GatewayPivotOracle::RebuildPivotForest() {
  const std::size_t n = static_cast<std::size_t>(num_nodes_);
  pivot_of_.assign(n, kInvalidNode);
  pivot_dist_.assign(n, -1);
  pivot_parent_.assign(n, kInvalidNode);
  // Multi-source BFS seeded by every rowed source in ascending node id;
  // the first discoverer in that order is the canonical assignment.
  std::vector<NodeId>& queue = scratch_order_;
  queue.clear();
  for (NodeId v = 0; v < num_nodes_; ++v) {
    if (row_of_[static_cast<std::size_t>(v)] < 0) continue;
    pivot_of_[static_cast<std::size_t>(v)] = v;
    pivot_dist_[static_cast<std::size_t>(v)] = 0;
    queue.push_back(v);
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId node = queue[head];
    const auto ni = static_cast<std::size_t>(node);
    for (const Edge& e : graph_->Neighbors(node)) {
      if (link_up_[static_cast<std::size_t>(e.link_index)] == 0) continue;
      const auto ti = static_cast<std::size_t>(e.to);
      if (pivot_dist_[ti] >= 0) continue;
      pivot_dist_[ti] = pivot_dist_[ni] + 1;
      pivot_of_[ti] = pivot_of_[ni];
      pivot_parent_[ti] = node;
      queue.push_back(e.to);
    }
  }
  for (std::size_t v = 0; v < n; ++v) RADAR_CHECK_GE(pivot_dist_[v], 0);
}

NodeId GatewayPivotOracle::Lca(std::int32_t row, NodeId a, NodeId b) const {
  const NodeId* parent = &parent_[RowBase(row)];
  const std::int32_t* hops = &hops_[RowBase(row)];
  NodeId x = a;
  NodeId y = b;
  while (hops[static_cast<std::size_t>(x)] > hops[static_cast<std::size_t>(y)]) {
    x = parent[static_cast<std::size_t>(x)];
  }
  while (hops[static_cast<std::size_t>(y)] > hops[static_cast<std::size_t>(x)]) {
    y = parent[static_cast<std::size_t>(y)];
  }
  while (x != y) {
    x = parent[static_cast<std::size_t>(x)];
    y = parent[static_cast<std::size_t>(y)];
  }
  return x;
}

SimTime GatewayPivotOracle::Control(NodeId a, NodeId b) const {
  Checked(b);
  if (a == b) return 0;
  const std::int32_t ra = row_of_[static_cast<std::size_t>(Checked(a))];
  if (ra >= 0) return ctrl_[RowBase(ra) + static_cast<std::size_t>(b)];
  const std::int32_t rb = row_of_[static_cast<std::size_t>(b)];
  if (rb >= 0) return ctrl_[RowBase(rb) + static_cast<std::size_t>(a)];
  const std::int32_t r = PivotRow(a);
  const SimTime* row = &ctrl_[RowBase(r)];
  const NodeId l = Lca(r, a, b);
  return row[static_cast<std::size_t>(a)] + row[static_cast<std::size_t>(b)] -
         2 * row[static_cast<std::size_t>(l)];
}

SimTime GatewayPivotOracle::Transfer(NodeId a, NodeId b) const {
  Checked(b);
  if (a == b) return 0;
  const std::int32_t ra = row_of_[static_cast<std::size_t>(Checked(a))];
  if (ra >= 0) return trans_[RowBase(ra) + static_cast<std::size_t>(b)];
  const std::int32_t rb = row_of_[static_cast<std::size_t>(b)];
  if (rb >= 0) return trans_[RowBase(rb) + static_cast<std::size_t>(a)];
  const std::int32_t r = PivotRow(a);
  const SimTime* row = &trans_[RowBase(r)];
  const NodeId l = Lca(r, a, b);
  return row[static_cast<std::size_t>(a)] + row[static_cast<std::size_t>(b)] -
         2 * row[static_cast<std::size_t>(l)];
}

std::int32_t GatewayPivotOracle::HopDistance(NodeId a, NodeId b) const {
  Checked(b);
  if (a == b) return 0;
  const std::int32_t ra = row_of_[static_cast<std::size_t>(Checked(a))];
  if (ra >= 0) return hops_[RowBase(ra) + static_cast<std::size_t>(b)];
  const std::int32_t rb = row_of_[static_cast<std::size_t>(b)];
  if (rb >= 0) return hops_[RowBase(rb) + static_cast<std::size_t>(a)];
  const std::int32_t r = PivotRow(a);
  const std::int32_t* row = &hops_[RowBase(r)];
  const NodeId l = Lca(r, a, b);
  return row[static_cast<std::size_t>(a)] + row[static_cast<std::size_t>(b)] -
         2 * row[static_cast<std::size_t>(l)];
}

void GatewayPivotOracle::AppendPath(NodeId a, NodeId b,
                                    std::vector<NodeId>* out) const {
  Checked(b);
  if (Checked(a) == b) {
    out->push_back(a);
    return;
  }
  const std::int32_t ra = row_of_[static_cast<std::size_t>(a)];
  if (ra >= 0) {
    // a's own tree: walk b up to a, then reverse the appended span.
    const NodeId* parent = &parent_[RowBase(ra)];
    const auto start = static_cast<std::ptrdiff_t>(out->size());
    for (NodeId at = b;;) {
      out->push_back(at);
      if (at == a) break;
      at = parent[static_cast<std::size_t>(at)];
      RADAR_CHECK(at != kInvalidNode);
    }
    std::reverse(out->begin() + start, out->end());
    return;
  }
  const std::int32_t rb = row_of_[static_cast<std::size_t>(b)];
  if (rb >= 0) {
    // Reverse of b's tree path: walking a toward the root b already
    // produces the a -> b order.
    const NodeId* parent = &parent_[RowBase(rb)];
    for (NodeId at = a;;) {
      out->push_back(at);
      if (at == b) break;
      at = parent[static_cast<std::size_t>(at)];
      RADAR_CHECK(at != kInvalidNode);
    }
    return;
  }
  // Class 3: a -> lca -> b inside the tree of a's pivot.
  const std::int32_t r = PivotRow(a);
  const NodeId* parent = &parent_[RowBase(r)];
  const NodeId l = Lca(r, a, b);
  for (NodeId at = a;;) {
    out->push_back(at);
    if (at == l) break;
    at = parent[static_cast<std::size_t>(at)];
  }
  const auto start = static_cast<std::ptrdiff_t>(out->size());
  for (NodeId at = b; at != l; at = parent[static_cast<std::size_t>(at)]) {
    out->push_back(at);
  }
  std::reverse(out->begin() + start, out->end());
}

void GatewayPivotOracle::OnLinkChange(std::int32_t link_index, bool up) {
  RADAR_CHECK_GE(link_index, 0);
  RADAR_CHECK_LT(static_cast<std::size_t>(link_index), link_up_.size());
  const Link& link = graph_->link(link_index);
  link_up_[static_cast<std::size_t>(link_index)] = up ? 1 : 0;
  const auto u = static_cast<std::size_t>(link.a);
  const auto v = static_cast<std::size_t>(link.b);

  for (std::size_t r = 0; r < rowed_.size(); ++r) {
    const std::size_t base = RowBase(static_cast<std::int32_t>(r));
    bool dirty;
    if (!up) {
      // Removing a non-tree edge changes neither distances nor the
      // rank-argmin parent choice.
      dirty = parent_[base + u] == link.b || parent_[base + v] == link.a;
    } else {
      // Strict improvement moves distances; equality can flip the
      // deterministic equal-cost tie-break.
      dirty = hops_[base + u] + 1 <= hops_[base + v] ||
              hops_[base + v] + 1 <= hops_[base + u];
    }
    if (dirty) {
      RebuildRow(static_cast<std::int32_t>(r));
      ++rows_rebuilt_;
    }
  }

  bool forest_dirty;
  if (!up) {
    forest_dirty = pivot_parent_[u] == link.b || pivot_parent_[v] == link.a;
  } else {
    forest_dirty = pivot_dist_[u] + 1 <= pivot_dist_[v] ||
                   pivot_dist_[v] + 1 <= pivot_dist_[u];
  }
  if (forest_dirty) {
    RebuildPivotForest();
    ++forests_rebuilt_;
  }
}

std::vector<NodeId> GatewayPivotOracle::NodesBySeedCentrality() const {
  const std::size_t n = static_cast<std::size_t>(num_nodes_);
  std::vector<std::int64_t> total(n, 0);
  for (std::size_t r = 0; r < num_seed_rows_; ++r) {
    const std::int32_t* row = &hops_[RowBase(static_cast<std::int32_t>(r))];
    for (std::size_t v = 0; v < n; ++v) total[v] += row[v];
  }
  std::vector<NodeId> nodes(n);
  for (NodeId v = 0; v < num_nodes_; ++v) nodes[static_cast<std::size_t>(v)] = v;
  std::stable_sort(nodes.begin(), nodes.end(), [&](NodeId a, NodeId b) {
    const std::int64_t ta = total[static_cast<std::size_t>(a)];
    const std::int64_t tb = total[static_cast<std::size_t>(b)];
    if (ta != tb) return ta < tb;
    return a < b;
  });
  return nodes;
}

}  // namespace radar::net
