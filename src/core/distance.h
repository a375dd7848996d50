// Network-proximity oracle used by the redirector and placement logic.
//
// The paper extracts proximity from router databases; in this library the
// driver adapts net::NetModel to this interface (driver::RoutingDistance),
// and tests can supply synthetic matrices.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace radar::core {

class DistanceOracle {
 public:
  virtual ~DistanceOracle() = default;

  /// Network distance (hops) between two nodes; 0 iff from == to.
  virtual std::int32_t Distance(NodeId from, NodeId to) const = 0;

  /// Dense-row fast path: a contiguous span of num-nodes distances from
  /// `from` (entry [to] == Distance(from, to)), or nullptr when this
  /// oracle has no dense storage. Hot loops (one gateway against many
  /// replicas) hoist the row once instead of paying a virtual call per
  /// candidate. The span must stay valid and constant while the oracle is
  /// alive and unmodified.
  virtual const std::int32_t* DistanceRow(NodeId from) const {
    (void)from;
    return nullptr;
  }
};

/// A dense symmetric distance matrix; handy in tests.
class MatrixDistanceOracle final : public DistanceOracle {
 public:
  explicit MatrixDistanceOracle(std::int32_t num_nodes)
      : num_nodes_(num_nodes),
        matrix_(static_cast<std::size_t>(num_nodes) *
                    static_cast<std::size_t>(num_nodes),
                0) {
    RADAR_CHECK_GT(num_nodes, 0);
  }

  void Set(NodeId a, NodeId b, std::int32_t distance) {
    RADAR_CHECK_GE(distance, 0);
    matrix_[Index(a, b)] = distance;
    matrix_[Index(b, a)] = distance;
  }

  std::int32_t Distance(NodeId from, NodeId to) const override {
    return matrix_[Index(from, to)];
  }

  const std::int32_t* DistanceRow(NodeId from) const override {
    return &matrix_[Index(from, 0)];
  }

 private:
  std::size_t Index(NodeId a, NodeId b) const {
    RADAR_CHECK_GE(a, 0);
    RADAR_CHECK_LT(a, num_nodes_);
    RADAR_CHECK_GE(b, 0);
    RADAR_CHECK_LT(b, num_nodes_);
    return static_cast<std::size_t>(a) * static_cast<std::size_t>(num_nodes_) +
           static_cast<std::size_t>(b);
  }
  std::int32_t num_nodes_;
  std::vector<std::int32_t> matrix_;
};

}  // namespace radar::core
