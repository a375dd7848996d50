// Per-link byte accounting for the backbone-bandwidth metric.
//
// The paper's bandwidth-consumption metric sums, over every hop a message
// traverses, the bytes transmitted on that hop (Sec. 6.2). LinkStats keeps
// the aggregate byte-hops figure and per-directed-link totals for hot-link
// inspection. Storage is two counters per backbone link (one per
// direction) — an n^2 matrix would be ~800 MB per instance at 10k nodes.
// The (from, to) -> counter lookup runs once
// per hop of every serviced request, so it is a single-probe open-
// addressing hash built over the directed links at construction (~16
// bytes per directed link at 25% load factor); searching the adjacency
// list per hop was measurable in the request engine's profile.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"
#include "net/graph.h"

namespace radar::net {

class LinkStats {
 public:
  /// `graph` must outlive this instance; only its links are countable.
  explicit LinkStats(const Graph& graph);

  /// Records `bytes` transmitted on every hop of the given router path
  /// (path includes both endpoints; a path of size <= 1 transmits nothing).
  void RecordPath(const std::vector<NodeId>& path, std::int64_t bytes);

  /// Records `bytes` on the single directed hop from -> to, which must be
  /// a link of the graph.
  void RecordHop(NodeId from, NodeId to, std::int64_t bytes);

  /// Total bytes x hops accumulated so far.
  std::int64_t total_byte_hops() const { return total_byte_hops_; }

  /// Bytes sent on the directed hop from -> to (0 when not adjacent).
  std::int64_t BytesOnHop(NodeId from, NodeId to) const;

  /// The directed hop carrying the most bytes; returns {-1,-1} when idle.
  /// Ties break toward the lexicographically smallest (from, to), as the
  /// dense row-major scan this replaces did.
  std::pair<NodeId, NodeId> BusiestHop() const;

  void Reset();

 private:
  /// Index into per_dir_bytes_ for the directed hop from -> to, or -1
  /// when the nodes are not adjacent (any out-of-graph id simply misses).
  std::ptrdiff_t DirIndex(NodeId from, NodeId to) const;

  const Graph* graph_;
  std::int64_t total_byte_hops_ = 0;
  std::vector<std::int64_t> per_dir_bytes_;  // 2 entries per link: a->b, b->a

  // Open-addressing hash over directed hops: hop_keys_ holds the packed
  // (from << 32 | to) key (kEmptyHop when vacant), hop_values_ the
  // matching per_dir_bytes_ index. Power-of-two sized and never mutated
  // after construction.
  static constexpr std::uint64_t kEmptyHop = ~std::uint64_t{0};
  std::vector<std::uint64_t> hop_keys_;
  std::vector<std::uint32_t> hop_values_;
  std::uint32_t hop_shift_ = 0;  // 64 - log2(table size)
};

}  // namespace radar::net
