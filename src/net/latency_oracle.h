// Which per-pair latency backend a run uses.
//
// The request engine needs two latencies per (a, b) node pair — control
// (per-link propagation along the canonical route) and transfer (per link:
// propagation plus serialization of one fixed-size object, truncated to
// integer microseconds per link before summing). Two backends answer
// them: the dense PathLatencyMatrix (two n^2 arrays, exact for every
// ordered pair, rebuilt per fault epoch — right for paper-scale graphs)
// and the sparse GatewayPivotOracle (O(rows x n) gateway/home rows plus
// pivot labels for the long tail — right for 10k+ node graphs where n^2
// does not fit). Both honor the same truncate-then-sum arithmetic, so on
// the pairs they both answer exactly the results are bit-identical.
// net::NetModel (net/net_model.h) holds exactly one of them per run.
//
// ControlRow deliberately returns a nullable pointer: the dense matrix
// has a row for every source, the sparse oracle only for registered
// sources (gateways and redirector homes — exactly the sources the hot
// dispatch loop uses). Callers on cold paths use the scalar accessors,
// which both backends answer for every pair.
#pragma once

#include <cstdint>

namespace radar::net {

/// Which latency/routing backend a run uses (driver config + CLI).
enum class OracleKind : std::uint8_t {
  kAuto,    ///< dense below kSparseAutoThreshold nodes, sparse at or above
  kDense,   ///< force the n^2 matrices (exact for every ordered pair)
  kSparse,  ///< force the gateway-pivot oracle
};

/// kAuto switches to the sparse backend at this node count: the dense
/// matrices are ~2 * n^2 * 8 bytes plus an O(n^2) rebuild per fault
/// epoch, which stops being the right trade well before 10k nodes.
inline constexpr std::int32_t kSparseAutoThreshold = 1024;

/// Resolves kAuto against a concrete node count.
OracleKind ResolveOracleKind(OracleKind kind, std::int32_t num_nodes);

}  // namespace radar::net
