#include "net/topology_io.h"

#include <istream>
#include <ostream>
#include <sstream>

namespace radar::net {
namespace {

std::string MakeError(int line, const std::string& message) {
  std::ostringstream os;
  os << "line " << line << ": " << message;
  return os.str();
}

/// True when `tokens` has nothing left but whitespace.
bool AtEnd(std::istringstream& tokens) {
  std::string rest;
  return !(tokens >> rest);
}

}  // namespace

const char* RegionToken(Region region) {
  switch (region) {
    case Region::kWesternNorthAmerica: return "west-na";
    case Region::kEasternNorthAmerica: return "east-na";
    case Region::kEurope: return "europe";
    case Region::kPacificAustralia: return "pacific";
  }
  return "?";
}

std::optional<Region> RegionFromToken(const std::string& token) {
  if (token == "west-na") return Region::kWesternNorthAmerica;
  if (token == "east-na") return Region::kEasternNorthAmerica;
  if (token == "europe") return Region::kEurope;
  if (token == "pacific") return Region::kPacificAustralia;
  return std::nullopt;
}

std::optional<Topology> ReadTopology(std::istream& in, std::string* error) {
  TopologyBuilder builder;
  std::string line;
  int line_number = 0;
  bool saw_link = false;
  bool saw_gateway = false;
  auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = MakeError(line_number, message);
    return std::nullopt;
  };

  while (std::getline(in, line)) {
    ++line_number;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream tokens(line);
    std::string keyword;
    if (!(tokens >> keyword)) continue;  // blank / comment-only line

    if (keyword == "node") {
      if (saw_link) return fail("nodes must precede links");
      std::string name;
      std::string region_token;
      if (!(tokens >> name >> region_token)) {
        return fail("expected: node <name> <region> [gateway|transit]");
      }
      const auto region = RegionFromToken(region_token);
      if (!region) return fail("unknown region '" + region_token + "'");
      std::string role = "gateway";
      tokens >> role;
      if (role != "gateway" && role != "transit") {
        return fail("role must be 'gateway' or 'transit'");
      }
      if (!AtEnd(tokens)) return fail("trailing tokens after node");
      if (builder.IdOf(name) != kInvalidNode) {
        return fail("duplicate node '" + name + "'");
      }
      saw_gateway = saw_gateway || role == "gateway";
      builder.AddNode(name, *region, role == "gateway");
    } else if (keyword == "link") {
      saw_link = true;
      std::string a;
      std::string b;
      double delay_ms = 0.0;
      double bandwidth_kbps = 0.0;
      if (!(tokens >> a >> b >> delay_ms >> bandwidth_kbps)) {
        return fail(
            "expected: link <a> <b> <delay-ms> <bandwidth-kbps>");
      }
      if (!AtEnd(tokens)) return fail("trailing tokens after link");
      if (builder.IdOf(a) == kInvalidNode) {
        return fail("unknown node '" + a + "'");
      }
      if (builder.IdOf(b) == kInvalidNode) {
        return fail("unknown node '" + b + "'");
      }
      if (builder.IdOf(a) == builder.IdOf(b)) {
        return fail("self-link on '" + a + "'");
      }
      if (builder.HasLink(builder.IdOf(a), builder.IdOf(b))) {
        return fail("duplicate link " + a + " - " + b);
      }
      if (!(delay_ms >= 0.0 && delay_ms <= kMaxLinkDelayMs)) {
        return fail("delay must be in [0, 1e9] ms");
      }
      if (!(bandwidth_kbps >= kMinLinkBandwidthKbps)) {
        return fail("bandwidth must be >= 1 kbps");
      }
      builder.Link(a, b, MillisToSim(delay_ms), bandwidth_kbps * 1024.0);
    } else {
      return fail("unknown keyword '" + keyword + "'");
    }
  }

  if (builder.num_nodes() == 0) {
    line_number = 0;
    return fail("no nodes defined");
  }
  if (!saw_gateway) {
    // Requests enter at gateways; without one a run serves nothing.
    line_number = 0;
    return fail("no gateway node");
  }
  if (!builder.IsConnected()) {
    line_number = 0;
    return fail("topology is not connected");
  }
  return std::move(builder).Build();
}

void WriteTopology(const Topology& topology, std::ostream& out) {
  out << "# radar topology: " << topology.num_nodes() << " nodes, "
      << topology.graph().num_links() << " links\n";
  for (NodeId n = 0; n < topology.num_nodes(); ++n) {
    const NodeInfo& info = topology.node(n);
    out << "node " << info.name << ' ' << RegionToken(info.region) << ' '
        << (info.is_gateway ? "gateway" : "transit") << '\n';
  }
  for (const Link& link : topology.graph().links()) {
    out << "link " << topology.node(link.a).name << ' '
        << topology.node(link.b).name << ' '
        << (static_cast<double>(link.delay) /
            static_cast<double>(kMicrosPerMilli))
        << ' ' << link.bandwidth_bps / 1024.0 << '\n';
  }
}

}  // namespace radar::net
