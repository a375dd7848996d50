// topology_doctor: check a backbone file for protocol-health problems
// before running the replication protocol on it.
//
//   topology_doctor my_backbone.txt          # or no argument: built-in
//
// Reports per-node degree, the transit-funnel analysis against the
// migration threshold, diameter, and redirector placement — all over the
// routes the simulator's network model (net/net_model.h) serves.
#include <fstream>
#include <iomanip>
#include <iostream>

#include "core/params.h"
#include "net/analysis.h"
#include "net/net_model.h"
#include "net/topology_io.h"
#include "net/uunet.h"

int main(int argc, char** argv) {
  using namespace radar;

  net::Topology topology = net::MakeUunetBackbone();
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::cerr << "error: cannot open '" << argv[1] << "'\n";
      return 2;
    }
    std::string error;
    auto parsed = net::ReadTopology(in, &error);
    if (!parsed) {
      std::cerr << "error: " << argv[1] << ": " << error << "\n";
      return 2;
    }
    topology = *std::move(parsed);
  }

  // Only routes and hop counts are read, so the object size is moot.
  const net::NetModel net(topology, /*object_bytes=*/0);
  const core::ProtocolParams params;

  std::cout << "topology: " << topology.num_nodes() << " nodes, "
            << topology.graph().num_links() << " links\n";

  std::int32_t diameter = 0;
  for (NodeId i = 0; i < topology.num_nodes(); ++i) {
    for (NodeId j = 0; j < topology.num_nodes(); ++j) {
      diameter = std::max(diameter, net.HopDistance(i, j));
    }
  }
  std::cout << "diameter: " << diameter << " hops\n";
  const NodeId central = net.NodesByCentrality().front();
  std::int64_t total = 0;
  for (NodeId j = 0; j < topology.num_nodes(); ++j) {
    total += net.HopDistance(central, j);
  }
  const double mean =
      topology.num_nodes() > 1
          ? static_cast<double>(total) /
                static_cast<double>(topology.num_nodes() - 1)
          : 0.0;
  std::cout << "redirector placement (most central node): "
            << topology.node(central).name << " (mean distance "
            << std::fixed << std::setprecision(2) << mean << ")\n";

  std::size_t min_degree = topology.num_nodes() > 0
                               ? topology.graph().Neighbors(0).size()
                               : 0;
  for (NodeId n = 0; n < topology.num_nodes(); ++n) {
    min_degree = std::min(min_degree, topology.graph().Neighbors(n).size());
  }
  std::cout << "minimum degree: " << min_degree << "\n\n";

  const auto funnels =
      net::FunnelsAbove(topology, net, params.migr_ratio);
  if (funnels.empty()) {
    std::cout << "no transit funnels above MIGR_RATIO ("
              << params.migr_ratio << ") — migration churn unlikely.\n";
  } else {
    std::cout << funnels.size() << " node(s) funnel more than "
              << params.migr_ratio
              << " of their paths through one neighbour\n"
              << "(globally popular objects hosted there will keep "
                 "migrating toward it):\n";
    for (const auto& f : funnels) {
      std::cout << "  " << std::left << std::setw(16)
                << topology.node(f.source).name << " -> " << std::setw(16)
                << topology.node(f.funnel).name << std::right
                << std::setprecision(2) << f.fraction << "\n";
    }
  }
  return 0;
}
