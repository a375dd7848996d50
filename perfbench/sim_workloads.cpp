#include "sim_workloads.h"

#include <algorithm>

namespace perfbench {
namespace {

using radar::NodeId;
using radar::SimTime;

/// Longest gateway -> redirector -> host control path.
SimTime MaxControlPath(const radar::driver::HostingSimulation& sim) {
  const radar::net::NetModel& net = sim.net_model();
  const NodeId home = sim.redirector_home();
  SimTime in = 0;
  for (const NodeId g : sim.topology().GatewayNodes()) {
    in = std::max(in, net.Control(g, home));
  }
  SimTime out = 0;
  for (NodeId h = 0; h < sim.topology().num_nodes(); ++h) {
    out = std::max(out, net.Control(home, h));
  }
  return in + out;
}

}  // namespace

std::unique_ptr<radar::workload::Workload> MakeWorkload(
    const SimWorkload& w, const radar::net::Topology& topology) {
  if (w.kind == radar::driver::WorkloadKind::kHotSites) {
    // HostingSimulation::BuildWorkloadFromConfig's construction, seed 1.
    return std::make_unique<radar::workload::HotSitesWorkload>(
        w.objects, topology.num_nodes(), 0.9, 1 ^ 0x5157ULL);
  }
  return std::make_unique<radar::workload::ZipfWorkload>(w.objects);
}

std::int64_t GeneratedRequests(const radar::net::Topology& topology,
                               const radar::driver::SimConfig& config,
                               SimTime until) {
  const auto period = static_cast<SimTime>(
      static_cast<double>(radar::kMicrosPerSecond) / config.node_request_rate);
  std::int64_t total = 0;
  for (const NodeId g : topology.GatewayNodes()) {
    const SimTime phase = period * static_cast<SimTime>(g) /
                          static_cast<SimTime>(topology.num_nodes());
    if (phase <= until) total += (until - phase) / period + 1;
  }
  return total;
}

RequestAccount AccountRequests(const radar::driver::HostingSimulation& sim,
                               const radar::driver::SimConfig& config,
                               const radar::driver::RunReport& report,
                               std::int64_t generated) {
  RequestAccount a;
  a.generated = generated;
  a.completed = report.total_requests;
  a.dropped = report.dropped_requests;
  a.failed = report.availability.failed_requests;
  // A host's unfinished requests complete one service time apart, back
  // from busy_until; those after the end are still queued.
  for (NodeId n = 0; n < sim.topology().num_nodes(); ++n) {
    const radar::sim::FcfsServer& server = sim.server(n);
    const SimTime backlog = server.BacklogAt(config.duration);
    a.queued += (backlog + server.service_time() - 1) / server.service_time();
  }
  a.in_transit = a.generated - a.completed - a.dropped - a.failed - a.queued;
  a.transit_bound =
      GeneratedRequests(sim.topology(), config, 4 * MaxControlPath(sim));
  return a;
}

std::string RequestAccount::Detail() const {
  return "generated=" + std::to_string(generated) +
         " completed=" + std::to_string(completed) +
         " dropped=" + std::to_string(dropped) +
         " failed=" + std::to_string(failed) +
         " queued=" + std::to_string(queued) +
         " in_transit=" + std::to_string(in_transit) +
         " bound=" + std::to_string(transit_bound);
}

}  // namespace perfbench
