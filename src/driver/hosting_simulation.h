// The event-driven hosting-platform simulation (Sec. 6.1's model).
//
// Wires together: a backbone topology with shortest-path routing, per-node
// request generation, redirector-based request distribution, FCFS hosts,
// periodic load measurement, and the autonomous placement rounds — and
// collects every metric the paper's evaluation reports.
//
// Request lifecycle:
//   1. A client request materializes at its gateway g (the paper routes
//      clients to their closest gateway; we generate directly at gateways).
//   2. It travels g -> redirector -> chosen host as small control messages
//      (propagation delay only; request bytes are negligible, Sec. 6.1).
//   3. The host services it FCFS at fixed capacity.
//   4. The response carries the object back along the canonical path
//      host -> g, paying per-hop propagation + serialization, and charging
//      object_bytes per hop to the backbone-bandwidth metric.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "baselines/selectors.h"
#include "core/cluster.h"
#include "core/distance.h"
#include "driver/config.h"
#include "driver/report.h"
#include "fault/availability.h"
#include "fault/fault_injector.h"
#include "fault/repair.h"
#include "net/link_stats.h"
#include "net/net_model.h"
#include "net/topology.h"
#include "net/uunet.h"
#include "sim/fcfs_server.h"
#include "sim/simulator.h"
#include "workload/trace.h"
#include "workload/workload.h"

namespace radar::driver {

/// Adapts the network model to the protocol's proximity oracle. Exposes
/// hop-distance rows so hot loops (ChooseReplica) read distances with
/// plain indexing instead of a virtual call per candidate. DistanceRow
/// may return nullptr on the sparse backend for sources without a row
/// (the DistanceOracle contract; callers fall back to Distance).
class RoutingDistance final : public core::DistanceOracle {
 public:
  explicit RoutingDistance(const net::NetModel& net) : net_(net) {}
  std::int32_t Distance(NodeId from, NodeId to) const override {
    return net_.HopDistance(from, to);
  }
  const std::int32_t* DistanceRow(NodeId from) const override {
    return net_.HopRow(from);
  }

 private:
  const net::NetModel& net_;
};

class HostingSimulation {
 public:
  /// Builds the paper's UUNET-style backbone.
  explicit HostingSimulation(SimConfig config);

  /// Runs on a caller-provided topology.
  HostingSimulation(SimConfig config, net::Topology topology);

  /// Replaces the config-selected workload with a custom one (e.g. a
  /// DemandShiftWorkload). Must be called before Run().
  void SetWorkload(std::unique_ptr<workload::Workload> workload);

  /// Trace-driven mode: replays the given request stream instead of
  /// generating one from a workload. Every referenced gateway must be a
  /// gateway of the topology and every object id must be below
  /// num_objects. Must be called before Run().
  void SetTrace(workload::RequestTrace trace);

  /// Executes the whole simulation and returns the collected report
  /// (Finalize() runs any remaining time). May be called once per
  /// instance.
  RunReport Run();

  /// Incremental execution: advances simulated time to `until` (clamped to
  /// the configured duration), setting up the schedule on the first call.
  /// Useful for inspecting the platform mid-run.
  void StepUntil(SimTime until);

  /// Completes the run (advances to the configured duration if needed) and
  /// returns the report. May be called once.
  RunReport Finalize();

  // Post-run (or pre-run) inspection.
  const net::Topology& topology() const { return topology_; }
  /// The routing/latency backend in force right now (dense: rebuilt at
  /// every applied link fault epoch; sparse: patched incrementally).
  const net::NetModel& net_model() const { return net_; }
  /// Dense-backend shorthand (aborts on the sparse backend).
  const net::RoutingTable& routing() const { return net_.routing(); }
  const net::PathLatencyMatrix& latency() const {
    return net_.dense_latency();
  }
  /// The fault layer, or nullptr when the run's FaultPlan is empty.
  const fault::FaultInjector* fault_injector() const {
    return injector_.get();
  }
  const core::Cluster& cluster() const { return *cluster_; }
  core::Cluster& cluster() { return *cluster_; }
  NodeId redirector_home(int index = 0) const;

  /// The FCFS queue model of a host (admitted counts, backlog).
  const sim::FcfsServer& server(NodeId n) const;

  /// Per-directed-link byte accounting (responses + object copies).
  const net::LinkStats& link_stats() const { return link_stats_; }

  /// Current simulated time.
  SimTime Now() const { return sim_.Now(); }

  /// Discrete events executed so far (throughput benchmarking).
  std::uint64_t events_executed() const { return sim_.events_executed(); }

 private:
  void InstallTransferHook();
  void BuildWorkloadFromConfig();
  void PlaceInitialObjects();
  void ScheduleArrivals();
  void ScheduleMeasurement();
  void SchedulePlacement();
  void ScheduleCensus();

  // Fault layer (only active when config_.FaultsEnabled()).
  void SetupFaultLayer();
  void OnHostCrash(NodeId h, SimTime t);
  void OnHostRecover(NodeId h, SimTime t);
  void RebuildRouting(SimTime t);
  bool HostUpNow(NodeId n) const {
    return injector_ == nullptr || injector_->HostUp(n);
  }

  /// Batched deterministic arrival generation for one gateway (DESIGN.md
  /// §12). Pre-draws blocks of objects from the gateway's RNG — nothing
  /// else consumes that stream in deterministic-arrival mode, and the
  /// workload must be time-invariant, so every arrival still receives
  /// exactly the value it would have drawn at its own firing time. Each
  /// gateway runs as a pinned event-queue stream: one armed firing per
  /// arrival, re-armed after dispatch (the periodic-task push order), so
  /// every arrival occupies the same place in the global (when, seq)
  /// event order as a per-event Schedule — the golden report is
  /// unchanged — while skipping the closure slab entirely.
  struct GatewayArrivals {
    static constexpr std::uint32_t kBatch = 256;
    HostingSimulation* owner = nullptr;
    NodeId gateway = kInvalidNode;
    SimTime period = 0;
    std::uint32_t stream = 0;  ///< pinned stream id (sim::Simulator)
    std::uint32_t next = 0;    ///< consumed prefix of objects
    std::uint32_t filled = 0;  ///< drawn prefix of objects
    ObjectId objects[kBatch];
    void Fire();
  };

  void GenerateRequest(NodeId gateway, SimTime now);
  void DispatchRequest(ObjectId x, NodeId gateway, SimTime now);
  void ScheduleTraceRecord(std::size_t index);
  NodeId ChooseHost(ObjectId x, NodeId gateway);
  void ArriveAtHost(ObjectId x, NodeId gateway, NodeId host, SimTime t0,
                    int redirects);
  void CompleteService(ObjectId x, NodeId gateway, NodeId host, SimTime t0);

  /// Propagation-only latency along the canonical path a -> b (O(1):
  /// precomputed matrix lookup).
  SimTime ControlPathLatency(NodeId a, NodeId b) const;
  /// Store-and-forward latency of one object along the path a -> b (O(1):
  /// the object size is fixed per run, so the matrix is exact).
  SimTime TransferPathLatency(NodeId a, NodeId b) const;

  SimConfig config_;
  net::Topology topology_;
  /// Routing + per-pair latency backend (dense matrices or the sparse
  /// gateway-pivot oracle; see net/net_model.h).
  net::NetModel net_;
  RoutingDistance distance_;
  std::vector<NodeId> redirector_homes_;
  std::unique_ptr<core::Cluster> cluster_;
  std::unique_ptr<workload::Workload> workload_;
  std::optional<workload::RequestTrace> trace_;
  sim::Simulator sim_;
  std::vector<sim::FcfsServer> servers_;
  net::LinkStats link_stats_;
  std::vector<Rng> node_rngs_;
  /// Poisson-arrival tick closures; owned here (not by the event queue) so
  /// the self-rescheduling lambdas capture a raw pointer to a stable slot
  /// instead of a shared self-handle, which would be a reference cycle.
  std::vector<std::unique_ptr<sim::EventFn>> arrival_ticks_;
  /// Batched arrival generators (deterministic arrivals + time-invariant
  /// workload only); owned here so Fire closures capture a stable pointer.
  std::vector<std::unique_ptr<GatewayArrivals>> gateway_arrivals_;
  baselines::RoundRobinSelector round_robin_;
  baselines::ClosestSelector closest_;
  /// Fault machinery; all null in a perfect world so fault-free runs pay
  /// nothing and schedule nothing extra (golden determinism guarantee).
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<fault::AvailabilityTracker> availability_;
  std::unique_ptr<fault::ReplicaRepairer> repairer_;
  std::unique_ptr<RunReport> report_;
  /// Scratch for canonical-path walks (CompleteService, transfer hook),
  /// reused so the hot path never allocates.
  std::vector<NodeId> path_scratch_;
  bool started_ = false;
  bool finalized_ = false;
};

}  // namespace radar::driver
