#include "net/link_stats.h"

#include <algorithm>

#include "common/check.h"

namespace radar::net {

namespace {

inline std::uint64_t PackHop(NodeId from, NodeId to) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from))
          << 32) |
         static_cast<std::uint32_t>(to);
}

/// Fibonacci hashing: node ids are valid in the high and low halves, so
/// a multiplicative mix spreads both into the table's top bits.
inline std::uint64_t MixHop(std::uint64_t key) {
  return key * 0x9E3779B97F4A7C15ull;
}

}  // namespace

LinkStats::LinkStats(const Graph& graph) : graph_(&graph) {
  RADAR_CHECK_GT(graph.num_nodes(), 0);
  per_dir_bytes_.assign(2 * graph.num_links(), 0);
  // Size the hop hash at <= 25% occupancy (power of two): misses stay
  // cheap and lookups almost never probe more than one slot.
  std::size_t table = 16;
  while (table < 8 * graph.num_links()) table *= 2;
  hop_keys_.assign(table, kEmptyHop);
  hop_values_.assign(table, 0);
  hop_shift_ = 64;
  for (std::size_t t = table; t > 1; t /= 2) --hop_shift_;
  const std::size_t mask = table - 1;
  const auto num_links = static_cast<std::int32_t>(graph.num_links());
  for (std::int32_t i = 0; i < num_links; ++i) {
    const Link& link = graph.link(i);
    const auto forward = static_cast<std::uint32_t>(2 * i);
    for (int dir = 0; dir < 2; ++dir) {
      const std::uint64_t key = dir == 0 ? PackHop(link.a, link.b)
                                         : PackHop(link.b, link.a);
      std::size_t slot = MixHop(key) >> hop_shift_;
      while (hop_keys_[slot] != kEmptyHop) slot = (slot + 1) & mask;
      hop_keys_[slot] = key;
      hop_values_[slot] = forward + static_cast<std::uint32_t>(dir);
    }
  }
}

std::ptrdiff_t LinkStats::DirIndex(NodeId from, NodeId to) const {
  const std::uint64_t key = PackHop(from, to);
  const std::size_t mask = hop_keys_.size() - 1;
  std::size_t slot = MixHop(key) >> hop_shift_;
  while (hop_keys_[slot] != key) {
    if (hop_keys_[slot] == kEmptyHop) return -1;
    slot = (slot + 1) & mask;
  }
  return hop_values_[slot];
}

void LinkStats::RecordPath(const std::vector<NodeId>& path, std::int64_t bytes) {
  RADAR_CHECK_GE(bytes, 0);
  for (std::size_t i = 1; i < path.size(); ++i) {
    RecordHop(path[i - 1], path[i], bytes);
  }
}

void LinkStats::RecordHop(NodeId from, NodeId to, std::int64_t bytes) {
  const std::ptrdiff_t idx = DirIndex(from, to);
  RADAR_CHECK_GE(idx, 0);
  per_dir_bytes_[static_cast<std::size_t>(idx)] += bytes;
  total_byte_hops_ += bytes;
}

std::int64_t LinkStats::BytesOnHop(NodeId from, NodeId to) const {
  const std::ptrdiff_t idx = DirIndex(from, to);
  return idx < 0 ? 0 : per_dir_bytes_[static_cast<std::size_t>(idx)];
}

std::pair<NodeId, NodeId> LinkStats::BusiestHop() const {
  std::pair<NodeId, NodeId> best{kInvalidNode, kInvalidNode};
  std::int64_t best_bytes = 0;
  // Scan in ascending (from, to) order so strictly-greater keeps the
  // lexicographically smallest busiest hop, like the dense scan did.
  for (NodeId from = 0; from < graph_->num_nodes(); ++from) {
    for (const Edge& e : graph_->Neighbors(from)) {
      const Link& link = graph_->link(e.link_index);
      const std::size_t idx = 2 * static_cast<std::size_t>(e.link_index) +
                              (from == link.a ? 0 : 1);
      const std::int64_t bytes = per_dir_bytes_[idx];
      if (bytes > best_bytes) {
        best_bytes = bytes;
        best = {from, e.to};
      }
    }
  }
  return best;
}

void LinkStats::Reset() {
  total_byte_hops_ = 0;
  std::fill(per_dir_bytes_.begin(), per_dir_bytes_.end(), 0);
}

}  // namespace radar::net
