#include "driver/hosting_simulation.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace radar::driver {
namespace {

constexpr int kMaxRedirects = 3;

std::vector<NodeId> PickRedirectorHomes(const net::NetModel& net, int count) {
  // The paper co-locates the redirector "with a node whose average distance
  // in hops to other nodes is minimum"; additional redirectors take the
  // next-most-central nodes. On the sparse backend centrality is measured
  // from the gateway rows (identical ranking on all-gateway graphs).
  const std::vector<NodeId> by_centrality = net.NodesByCentrality();
  RADAR_CHECK_GE(count, 1);
  RADAR_CHECK_LE(static_cast<std::size_t>(count), by_centrality.size());
  return {by_centrality.begin(), by_centrality.begin() + count};
}

}  // namespace

HostingSimulation::HostingSimulation(SimConfig config)
    : HostingSimulation(std::move(config), net::MakeUunetBackbone()) {}

HostingSimulation::HostingSimulation(SimConfig config, net::Topology topology)
    : config_(std::move(config)),
      topology_(std::move(topology)),
      net_(topology_, config_.object_bytes, config_.oracle),
      distance_(net_),
      link_stats_(topology_.graph()),
      closest_(distance_) {
  config_.Check();
  redirector_homes_ = PickRedirectorHomes(net_, config_.num_redirectors);
  // Redirector homes join the sparse oracle's rowed sources: the dispatch
  // path reads their control rows (a no-op on the dense backend).
  net_.AddRowSources(redirector_homes_);
  cluster_ = std::make_unique<core::Cluster>(
      topology_.num_nodes(), distance_, config_.protocol, redirector_homes_);
  report_ = std::make_unique<RunReport>(config_.metric_bucket);

  Rng root(config_.seed);
  node_rngs_.reserve(static_cast<std::size_t>(topology_.num_nodes()));
  for (NodeId n = 0; n < topology_.num_nodes(); ++n) {
    node_rngs_.push_back(root.Fork(static_cast<std::uint64_t>(n)));
  }
  servers_.reserve(static_cast<std::size_t>(topology_.num_nodes()));
  for (NodeId n = 0; n < topology_.num_nodes(); ++n) {
    const double weight = config_.host_weight ? config_.host_weight(n) : 1.0;
    RADAR_CHECK_GT(weight, 0.0);
    cluster_->host(n).set_weight(weight);
    if (config_.host_storage) {
      cluster_->host(n).set_storage_capacity(config_.host_storage(n));
    }
    servers_.emplace_back(config_.server_capacity * weight);
  }

  if (!config_.faults.Empty()) {
    fault::FaultInjector::Hooks hooks;
    hooks.on_host_crash = [this](NodeId h, SimTime t) { OnHostCrash(h, t); };
    hooks.on_host_recover = [this](NodeId h, SimTime t) {
      OnHostRecover(h, t);
    };
    hooks.on_topology_change = [this](SimTime t) { RebuildRouting(t); };
    hooks.on_link_change = [this](std::size_t link_index, bool up) {
      // The sparse oracle invalidates incrementally per link event; the
      // dense backend waits for the batch's RebuildRouting instead.
      if (net_.sparse()) {
        net_.OnLinkChange(static_cast<std::int32_t>(link_index), up);
      }
    };
    injector_ = std::make_unique<fault::FaultInjector>(
        config_.faults, topology_.graph(), &sim_, config_.seed,
        std::move(hooks));
    cluster_->set_liveness([this](NodeId n) { return injector_->HostUp(n); });
    cluster_->set_rpc_filter(
        [this](NodeId, NodeId to, core::CreateObjMethod method, ObjectId) {
          return injector_->FateForCreateObj(to, method);
        });
  }
}

NodeId HostingSimulation::redirector_home(int index) const {
  RADAR_CHECK_GE(index, 0);
  RADAR_CHECK_LT(static_cast<std::size_t>(index), redirector_homes_.size());
  return redirector_homes_[static_cast<std::size_t>(index)];
}

void HostingSimulation::SetWorkload(
    std::unique_ptr<workload::Workload> workload) {
  RADAR_CHECK(!started_);
  RADAR_CHECK_NE(workload, nullptr);
  RADAR_CHECK_EQ(workload->num_objects(), config_.num_objects);
  workload_ = std::move(workload);
}

void HostingSimulation::BuildWorkloadFromConfig() {
  const ObjectId n = config_.num_objects;
  switch (config_.workload) {
    case WorkloadKind::kZipf:
      workload_ = std::make_unique<workload::ZipfWorkload>(n);
      break;
    case WorkloadKind::kHotSites:
      workload_ = std::make_unique<workload::HotSitesWorkload>(
          n, topology_.num_nodes(), 0.9, config_.seed ^ 0x5157ULL);
      break;
    case WorkloadKind::kHotPages:
      workload_ = std::make_unique<workload::HotPagesWorkload>(
          n, 0.1, 0.9, config_.seed ^ 0x9a6eULL);
      break;
    case WorkloadKind::kRegional:
      workload_ = std::make_unique<workload::RegionalWorkload>(n, topology_);
      break;
    case WorkloadKind::kUniform:
      workload_ = std::make_unique<workload::UniformWorkload>(n);
      break;
  }
}

void HostingSimulation::PlaceInitialObjects() {
  // Default: "object i is assigned to node i mod 53" (Sec. 6.1).
  const std::int32_t nodes = topology_.num_nodes();
  const auto home_of = [&](ObjectId x) {
    if (config_.initial_home) {
      const NodeId home = config_.initial_home(x);
      RADAR_CHECK_GE(home, 0);
      RADAR_CHECK_LT(home, nodes);
      return home;
    }
    return x % nodes;
  };
  for (ObjectId x = 0; x < config_.num_objects; ++x) {
    cluster_->PlaceInitialObject(x, home_of(x));
  }
  if (config_.placement == baselines::PlacementPolicy::kFullReplication) {
    for (ObjectId x = 0; x < config_.num_objects; ++x) {
      const NodeId home = home_of(x);
      for (NodeId n = 0; n < nodes; ++n) {
        if (n == home) continue;
        cluster_->host(n).AddInitialReplica(x);
        cluster_->redirectors().For(x).OnReplicaCreated(x, n);
      }
    }
  }
}

SimTime HostingSimulation::ControlPathLatency(NodeId a, NodeId b) const {
  // Per-link propagation delay; control payloads are negligible. The sum
  // over the canonical path is precomputed (net/latency_oracle.h).
  return net_.Control(a, b);
}

SimTime HostingSimulation::TransferPathLatency(NodeId a, NodeId b) const {
  // Per-link propagation + serialization of one fixed-size object,
  // precomputed with the same per-link arithmetic as the path walk it
  // replaced (bit-identical events; see the golden determinism test).
  return net_.Transfer(a, b);
}

void HostingSimulation::SetTrace(workload::RequestTrace trace) {
  RADAR_CHECK(!started_);
  RADAR_CHECK_MSG(!trace.empty(), "empty trace");
  RADAR_CHECK_MSG(trace.NumObjectsReferenced() <= config_.num_objects,
                  "trace references objects beyond num_objects");
  for (const workload::TraceRecord& r : trace.records()) {
    RADAR_CHECK_LT(r.gateway, topology_.num_nodes());
    RADAR_CHECK_MSG(topology_.IsGateway(r.gateway),
                    "trace request at a non-gateway node");
  }
  trace_ = std::move(trace);
}

void HostingSimulation::ScheduleTraceRecord(std::size_t index) {
  // One pending event at a time: replaying a multi-million-record trace
  // must not materialize the whole stream in the event queue.
  const auto& records = trace_->records();
  if (index >= records.size()) return;
  const workload::TraceRecord& r = records[index];
  sim_.ScheduleAt(r.t, [this, index, r] {
    DispatchRequest(r.object, r.gateway, r.t);
    ScheduleTraceRecord(index + 1);
  });
}

void HostingSimulation::ScheduleArrivals() {
  if (trace_.has_value()) {
    ScheduleTraceRecord(0);
    return;
  }
  const double rate = config_.node_request_rate;
  for (const NodeId g : topology_.GatewayNodes()) {
    if (config_.arrivals == ArrivalProcess::kDeterministic) {
      const auto period = static_cast<SimTime>(
          static_cast<double>(kMicrosPerSecond) / rate);
      // Phase-shift gateways so arrivals do not synchronize.
      const SimTime phase =
          period * static_cast<SimTime>(g) /
          static_cast<SimTime>(topology_.num_nodes());
      if (workload_->time_invariant()) {
        // Batched generation: same draws, same event order, but the
        // workload's sampling runs over a pre-drawn block instead of one
        // virtual call + RNG round-trip per arrival event.
        gateway_arrivals_.push_back(std::make_unique<GatewayArrivals>());
        GatewayArrivals* arrivals = gateway_arrivals_.back().get();
        arrivals->owner = this;
        arrivals->gateway = g;
        arrivals->period = period;
        arrivals->stream = sim_.AddStream([arrivals] { arrivals->Fire(); });
        sim_.ArmStream(arrivals->stream, phase);
      } else {
        // A time-varying workload (demand shift) must sample at each
        // arrival's own firing time.
        sim_.SchedulePeriodic(phase, period,
                              [this, g](SimTime t) { GenerateRequest(g, t); });
      }
    } else {
      // Self-rescheduling Poisson process. The closure lives in
      // arrival_ticks_; capturing a shared self-handle instead would form
      // a reference cycle and leak (caught by the asan-ubsan preset).
      arrival_ticks_.push_back(std::make_unique<sim::EventFn>());
      auto* tick = arrival_ticks_.back().get();
      *tick = [this, g, rate, tick] {
        GenerateRequest(g, sim_.Now());
        const double gap =
            node_rngs_[static_cast<std::size_t>(g)].NextExponential(1.0 / rate);
        sim_.Schedule(SecondsToSim(gap), [tick] { (*tick)(); });
      };
      const double first =
          node_rngs_[static_cast<std::size_t>(g)].NextExponential(1.0 / rate);
      sim_.Schedule(SecondsToSim(first), [tick] { (*tick)(); });
    }
  }
}

void HostingSimulation::ScheduleMeasurement() {
  const SimTime interval = config_.protocol.measurement_interval;
  sim_.SchedulePeriodic(interval, interval, [this](SimTime t) {
    for (NodeId n = 0; n < topology_.num_nodes(); ++n) {
      if (!HostUpNow(n)) continue;  // a crashed process ticks nothing
      cluster_->TickMeasurement(n, t);
      report_->max_load.Add(t, cluster_->host(n).measured_load());
    }
    if (config_.tracked_host != kInvalidNode &&
        HostUpNow(config_.tracked_host)) {
      const core::HostAgent& agent = cluster_->host(config_.tracked_host);
      report_->tracked_host_loads.push_back(metrics::TrackedLoadSample{
          t, agent.measured_load(), agent.AdmissionLoad(),
          agent.OffloadLoad()});
    }
  });
}

void HostingSimulation::SchedulePlacement() {
  if (config_.placement != baselines::PlacementPolicy::kRadar) return;
  const SimTime interval = config_.protocol.placement_interval;
  for (NodeId n = 0; n < topology_.num_nodes(); ++n) {
    const SimTime offset =
        config_.stagger_placement
            ? interval * static_cast<SimTime>(n + 1) /
                  static_cast<SimTime>(topology_.num_nodes() + 1)
            : 0;
    sim_.SchedulePeriodic(interval + offset, interval, [this, n](SimTime t) {
      if (!HostUpNow(n)) return;  // a crashed process runs no placement
      const core::PlacementStats stats = cluster_->RunPlacement(n, t);
      report_->geo_migrations += stats.geo_migrations;
      report_->geo_replications += stats.geo_replications;
      report_->offload_migrations += stats.offload_migrations;
      report_->offload_replications += stats.offload_replications;
      report_->affinity_drops += stats.affinity_drops;
    });
  }
}

void HostingSimulation::ScheduleCensus() {
  const SimTime interval = config_.protocol.placement_interval;
  sim_.SchedulePeriodic(interval, interval, [this](SimTime t) {
    report_->avg_replicas.Add(t, cluster_->AverageReplicasPerObject());
  });
}

NodeId HostingSimulation::ChooseHost(ObjectId x, NodeId gateway) {
  // Every branch reports kInvalidNode when faults emptied the live replica
  // set — the request has nowhere to go and fails.
  switch (config_.distribution) {
    case baselines::DistributionPolicy::kRadar:
      return cluster_->RouteRequest(x, gateway);
    case baselines::DistributionPolicy::kRoundRobin: {
      const std::vector<NodeId> hosts =
          cluster_->redirectors().For(x).ReplicaHosts(x);
      return hosts.empty() ? kInvalidNode : round_robin_.Choose(x, hosts);
    }
    case baselines::DistributionPolicy::kClosest: {
      const std::vector<NodeId> hosts =
          cluster_->redirectors().For(x).ReplicaHosts(x);
      return hosts.empty() ? kInvalidNode : closest_.Choose(gateway, hosts);
    }
  }
  RADAR_CHECK(false);
  return kInvalidNode;
}

// RADAR_HOT: request dispatch path (arrival -> host -> completion)
void HostingSimulation::GatewayArrivals::Fire() {
  const SimTime at = owner->sim_.Now();
  if (next == filled) {
    Rng& rng = owner->node_rngs_[static_cast<std::size_t>(gateway)];
    owner->workload_->FillBatch(gateway, at, rng, objects, kBatch);
    next = 0;
    filled = kBatch;
  }
  const ObjectId x = objects[next++];
  if (next < filled) {
    // One-arrival lookahead: warm the next object's redirector head while
    // ~a batch-period of other events executes in between.
    const ObjectId nx = objects[next];
    owner->cluster_->redirectors().For(nx).Prefetch(nx);
  }
  // Dispatch before arming the successor: the periodic-task flow this
  // replaces pushed the request's control leg first, and equal-time
  // events fire in sequence-number (push/arm) order.
  owner->DispatchRequest(x, gateway, at);
  owner->sim_.ArmStream(stream, at + period);
}

void HostingSimulation::GenerateRequest(NodeId gateway, SimTime now) {
  DispatchRequest(workload_->NextObject(
                      gateway, now,
                      node_rngs_[static_cast<std::size_t>(gateway)]),
                  gateway, now);
}

void HostingSimulation::DispatchRequest(ObjectId x, NodeId gateway,
                                        SimTime now) {
  // Resolve the object's redirector shard once: the replica choice and
  // the control-leg home node read the same reference. Under the RaDaR
  // policy the gateway's dense hop row is handed to ChooseReplica so the
  // Fig. 2 scan indexes a plain array instead of making a virtual
  // distance call per candidate (same values — the oracle reads the same
  // row). Fetched per dispatch, so a routing rebuild under link faults is
  // picked up immediately.
  core::Redirector& shard = cluster_->redirectors().For(x);
  const NodeId host =
      config_.distribution == baselines::DistributionPolicy::kRadar
          ? shard.ChooseReplica(x, gateway, net_.HopRow(gateway))
          : ChooseHost(x, gateway);
  if (host == kInvalidNode) {
    ++report_->availability.failed_requests;  // no live replica anywhere
    return;
  }
  // Control legs: gateway -> redirector -> host (propagation only). Row
  // pointers skip the per-lookup index checks: gateways and redirector
  // homes are rowed sources on both backends, so the rows exist.
  const NodeId redirector = shard.home_node();
  const SimTime control_in = net_.ControlRow(gateway)[redirector];
  SimTime control = control_in + net_.ControlRow(redirector)[host];
  if (injector_ != nullptr) {
    const fault::FaultInjector::RequestFate fate =
        injector_->FateForRequestLeg();
    if (fate.dropped) {
      ++report_->availability.failed_requests;
      return;
    }
    control += fate.delay;
  }
  sim_.Schedule(control, [this, x, gateway, host, now] {
    ArriveAtHost(x, gateway, host, now, 0);
  });
}

void HostingSimulation::ArriveAtHost(ObjectId x, NodeId gateway, NodeId host,
                                     SimTime t0, int redirects) {
  if (!HostUpNow(host) || !cluster_->host(host).HasObject(x)) {
    // The replica vanished while the request was in flight — a drop race
    // (the redirector removes replicas before they are dropped, so only
    // messages already underway see it) or, under faults, a host that
    // crashed with the request on the wire. Re-route via the redirector.
    if (redirects >= kMaxRedirects) {
      ++report_->dropped_requests;
      return;
    }
    const NodeId redirector = cluster_->redirectors().For(x).home_node();
    const NodeId retry = ChooseHost(x, gateway);
    if (retry == kInvalidNode) {
      ++report_->availability.failed_requests;  // no live replica anywhere
      return;
    }
    const SimTime control = ControlPathLatency(host, redirector) +
                            ControlPathLatency(redirector, retry);
    sim_.Schedule(control, [this, x, gateway, retry, t0, redirects] {
      ArriveAtHost(x, gateway, retry, t0, redirects + 1);
    });
    return;
  }
  const SimTime completion =
      servers_[static_cast<std::size_t>(host)].Admit(sim_.Now());
  // If the host crashes while the request is queued or in service, the
  // response never leaves: the completion compares crash epochs and gives
  // up instead of crediting a dead server.
  const std::uint32_t epoch =
      injector_ != nullptr ? injector_->crash_epoch(host) : 0;
  sim_.ScheduleAt(completion,
                  [this, x, gateway, host, t0, epoch] {
                  if (injector_ != nullptr &&
                      injector_->crash_epoch(host) != epoch) {
                    ++report_->availability.failed_requests;
                    return;
                  }
                  CompleteService(x, gateway, host, t0);
                });
}

void HostingSimulation::CompleteService(ObjectId x, NodeId gateway,
                                        NodeId host, SimTime t0) {
  core::HostAgent& agent = cluster_->host(host);
  // The canonical path, walked into member scratch (allocation-free at
  // steady capacity — per-completion vectors dominated this profile).
  path_scratch_.clear();
  net_.AppendPath(host, gateway, &path_scratch_);
  const std::vector<NodeId>& path = path_scratch_;
  // One record lookup: counts the serviced request against x when it is
  // still hosted, or as untracked when it was dropped while queued.
  agent.RecordServicedIfHosted(x, path);
  const SimTime now = sim_.Now();
  // The path's hop count IS HopDistance(host, gateway) — reuse the
  // vector instead of a second row lookup. (Both come from the same
  // backend, also after a link-fault epoch.)
  const std::int64_t byte_hops =
      config_.object_bytes * static_cast<std::int64_t>(path.size() - 1);
  report_->traffic.AddPayload(now, byte_hops);
  link_stats_.RecordPath(path, config_.object_bytes);
  const SimTime response = TransferPathLatency(host, gateway);
  const double total_latency = SimToSeconds(now - t0 + response);
  report_->latency.Add(now, total_latency);
  report_->latency_stats.Add(total_latency);
  ++report_->total_requests;
}
// RADAR_HOT_END

const sim::FcfsServer& HostingSimulation::server(NodeId n) const {
  RADAR_CHECK_GE(n, 0);
  RADAR_CHECK_LT(static_cast<std::size_t>(n), servers_.size());
  return servers_[static_cast<std::size_t>(n)];
}

void HostingSimulation::StepUntil(SimTime until) {
  RADAR_CHECK(!finalized_);
  if (!started_) {
    started_ = true;
    if (workload_ == nullptr && !trace_.has_value()) {
      BuildWorkloadFromConfig();
    }
    PlaceInitialObjects();
    InstallTransferHook();
    ScheduleArrivals();
    ScheduleMeasurement();
    SchedulePlacement();
    ScheduleCensus();
    // Installed after every fault-free schedule so that enabling faults
    // never reorders the events a perfect-world run would execute.
    if (config_.FaultsEnabled()) SetupFaultLayer();
  }
  sim_.RunUntil(std::min(until, config_.duration));
}

void HostingSimulation::InstallTransferHook() {
  cluster_->set_transfer_hook([this](NodeId from, NodeId to, ObjectId,
                                     core::CreateObjMethod, bool copied) {
    if (!copied) return;  // affinity increments move no object bytes
    path_scratch_.clear();
    net_.AppendPath(from, to, &path_scratch_);
    const std::int64_t byte_hops =
        config_.object_bytes *
        static_cast<std::int64_t>(path_scratch_.size() - 1);
    report_->traffic.AddOverhead(sim_.Now(), byte_hops);
    link_stats_.RecordPath(path_scratch_, config_.object_bytes);
    ++report_->object_copies;
  });
}

void HostingSimulation::SetupFaultLayer() {
  availability_ =
      std::make_unique<fault::AvailabilityTracker>(&sim_, config_.num_objects);
  for (ObjectId x = 0; x < config_.num_objects; ++x) {
    availability_->InitObject(
        x, cluster_->redirectors().For(x).ReplicaCount(x));
  }
  for (int i = 0; i < cluster_->redirectors().size(); ++i) {
    cluster_->redirectors().At(i).set_change_listener(availability_.get());
  }
  if (injector_ != nullptr) injector_->Start();
  if (config_.replica_floor > 0) {
    for (int i = 0; i < cluster_->redirectors().size(); ++i) {
      cluster_->redirectors().At(i).set_min_replicas(config_.replica_floor);
    }
    repairer_ = std::make_unique<fault::ReplicaRepairer>(
        cluster_.get(), config_.num_objects, config_.replica_floor,
        [this](NodeId n) { return cluster_->HostLive(n); });
    const SimTime interval = config_.protocol.placement_interval;
    sim_.SchedulePeriodic(interval, interval, [this](SimTime t) {
      const fault::RepairStats stats = repairer_->RunPass(t);
      report_->availability.replicas_restored += stats.replicas_restored;
      report_->availability.floor_violations += stats.floor_violations;
    });
  }
}

void HostingSimulation::OnHostCrash(NodeId h, SimTime t) {
  (void)t;
  // The process died; its disk did not. The redirectors stop routing to it
  // (firing the availability tracker per pruned replica) and the FCFS
  // queue is wiped — queued requests die with the process, which their
  // completion events discover through the crash epoch.
  for (int i = 0; i < cluster_->redirectors().size(); ++i) {
    cluster_->redirectors().At(i).PruneHost(h);
  }
  servers_[static_cast<std::size_t>(h)].Reset();
}

void HostingSimulation::OnHostRecover(NodeId h, SimTime t) {
  // The process restarts with empty counters but finds its replica set on
  // disk; every surviving replica re-registers with its redirector at its
  // pre-crash affinity.
  core::HostAgent& agent = cluster_->host(h);
  agent.ResetAfterCrash(t);
  for (const ObjectId x : agent.Objects()) {
    cluster_->redirectors().For(x).RestoreReplica(x, h, agent.Affinity(x));
  }
}

void HostingSimulation::RebuildRouting(SimTime t) {
  (void)t;
  // A link fault epoch. The sparse backend already patched itself per
  // link event (on_link_change); the dense backend recomputes shortest
  // paths and the latency matrix over the surviving backbone wholesale.
  // The distance oracle reads through net_, so placement and
  // distribution see the new paths immediately either way.
  if (net_.sparse()) return;
  net_.RebuildDense(injector_->LiveGraph());
}

RunReport HostingSimulation::Run() { return Finalize(); }

RunReport HostingSimulation::Finalize() {
  RADAR_CHECK_MSG(!finalized_, "Finalize() may only be called once");
  StepUntil(config_.duration);
  finalized_ = true;

  cluster_->CheckRedirectorSubsetInvariant();
  report_->workload_name =
      workload_ != nullptr ? workload_->name() : "trace";
  report_->distribution_name =
      baselines::DistributionPolicyName(config_.distribution);
  report_->placement_name = baselines::PlacementPolicyName(config_.placement);
  report_->duration = config_.duration;
  report_->final_avg_replicas = cluster_->AverageReplicasPerObject();

  report_->faults_enabled = config_.FaultsEnabled();
  if (report_->faults_enabled) {
    AvailabilityReport& a = report_->availability;
    if (injector_ != nullptr) {
      const fault::FaultCounters& c = injector_->counters();
      a.host_crashes = c.host_crashes;
      a.host_recoveries = c.host_recoveries;
      a.link_downs = c.link_downs;
      a.link_ups = c.link_ups;
      a.suppressed_link_faults = c.suppressed_link_faults;
      a.request_messages_dropped = c.requests_dropped;
      a.request_messages_delayed = c.requests_delayed;
      a.transfer_messages_lost = c.transfer_messages_lost;
      a.transfer_retries = c.transfer_retries;
      a.acks_lost = c.acks_lost;
      a.aborted_relocations = c.aborted_relocations;
      a.rpcs_to_dead_hosts = c.rpcs_to_dead_hosts;
    }
    if (availability_ != nullptr) {
      availability_->FinishAt(sim_.Now());
      a.unavailability_windows = availability_->windows();
      a.objects_unavailable_at_end =
          availability_->objects_unavailable_at_end();
      a.unavailable_object_seconds =
          availability_->unavailable_object_seconds();
      a.mean_time_to_repair_s = availability_->mean_time_to_repair_s();
      a.max_time_to_repair_s = availability_->max_time_to_repair_s();
    }
    // Conservation: crash-recovery semantics (disks survive) and the
    // ack-loss asymmetry (source keeps its copy on any ambiguous outcome)
    // guarantee no fault schedule can destroy the last copy of an object.
    std::int64_t lost = 0;
    for (ObjectId x = 0; x < config_.num_objects; ++x) {
      bool found = false;
      for (NodeId n = 0; n < topology_.num_nodes() && !found; ++n) {
        found = cluster_->host(n).HasObject(x);
      }
      if (!found) ++lost;
    }
    a.objects_lost = lost;
    RADAR_CHECK_EQ(lost, 0);
  }
  return std::move(*report_);
}

}  // namespace radar::driver
