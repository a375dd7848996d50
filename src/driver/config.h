// Simulation configuration (Table 1 defaults).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "baselines/selectors.h"
#include "common/types.h"
#include "core/params.h"
#include "fault/fault_plan.h"
#include "net/latency_oracle.h"

namespace radar::driver {

enum class WorkloadKind : std::uint8_t {
  kZipf,
  kHotSites,
  kHotPages,
  kRegional,
  kUniform,
};

const char* WorkloadKindName(WorkloadKind kind);

/// How client requests are spaced at each gateway. The paper generates
/// requests "at a constant rate" and its distribution analysis assumes
/// regular inter-spacing, so deterministic is the default; Poisson is
/// available for robustness experiments.
enum class ArrivalProcess : std::uint8_t {
  kDeterministic,
  kPoisson,
};

struct SimConfig {
  // ---- Table 1 ----
  ObjectId num_objects = 10'000;
  std::int64_t object_bytes = 12 * 1024;      ///< 12 KB pages
  double node_request_rate = 40.0;            ///< req/s per gateway node
  double server_capacity = 200.0;             ///< req/s per host
  core::ProtocolParams protocol;               ///< thresholds, watermarks,
                                               ///< intervals (Table 1)

  // ---- Run control ----
  SimTime duration = SecondsToSim(3600.0);
  std::uint64_t seed = 1;
  WorkloadKind workload = WorkloadKind::kZipf;
  ArrivalProcess arrivals = ArrivalProcess::kDeterministic;

  // ---- Policies under test ----
  baselines::DistributionPolicy distribution =
      baselines::DistributionPolicy::kRadar;
  baselines::PlacementPolicy placement = baselines::PlacementPolicy::kRadar;

  /// Redirectors (hash-partitioned); the paper's simulation uses one at
  /// the most central node.
  int num_redirectors = 1;

  /// Stagger hosts' placement rounds across the interval (autonomous hosts
  /// are not synchronized). Disable to reproduce lock-step decisions.
  bool stagger_placement = true;

  /// Routing/latency backend (net/latency_oracle.h): kAuto picks dense
  /// below kSparseAutoThreshold nodes and the sparse gateway-pivot
  /// oracle at or above it; kDense / kSparse force a backend.
  net::OracleKind oracle = net::OracleKind::kAuto;

  /// Initial home of each object; defaults (when null) to the paper's
  /// round-robin "object i is assigned to node i mod N".
  std::function<NodeId(ObjectId)> initial_home;

  /// Relative-power weight per host (Sec. 2's heterogeneity extension).
  /// Scales both the FCFS service capacity and the protocol's watermark
  /// comparisons. Null = homogeneous (1.0 everywhere).
  std::function<double(NodeId)> host_weight;

  /// Storage capacity per host in objects (0 = unlimited); the storage
  /// component of the Sec. 2.1 vector load metric. Null = unlimited.
  std::function<std::int64_t(NodeId)> host_storage;

  // ---- Fault injection (DESIGN.md §11) ----

  /// What goes wrong during the run; an empty plan (the default) is the
  /// perfect world and perturbs nothing — the fault layer is not even
  /// constructed, so fault-free runs stay byte-identical to the golden.
  fault::FaultPlan faults;

  /// Minimum live replicas per object (0 = no floor). When > 0, the
  /// redirectors refuse drops below the floor and a repair pass at the
  /// placement cadence re-replicates objects that faults pushed under it.
  int replica_floor = 0;

  /// True when any fault machinery must be active this run.
  bool FaultsEnabled() const { return replica_floor > 0 || !faults.Empty(); }

  // ---- Metrics ----
  SimTime metric_bucket = SecondsToSim(60.0);
  /// Host whose load estimates are tracked for Fig. 8b; kInvalidNode
  /// disables tracking.
  NodeId tracked_host = 0;

  /// Switches to the paper's high-load watermarks (Fig. 9).
  void ApplyHighLoad() {
    protocol.high_watermark = 50.0;
    protocol.low_watermark = 40.0;
  }

  /// Aborts on structurally invalid values.
  void Check() const;
};

}  // namespace radar::driver
