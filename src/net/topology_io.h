// Plain-text serialization of topologies.
//
// Lets deployments describe their backbone in a file instead of code:
//
//   # comment
//   node <name> <west-na|east-na|europe|pacific> [gateway|transit]
//   link <name-a> <name-b> <delay-ms> <bandwidth-kbps>
//
// Nodes must appear before links that reference them, and at least one
// node must be a gateway. Link delays lie in [0, 1e9] ms and bandwidths
// are at least 1 kbps, which keeps every path's latency sum inside
// SimTime. Whitespace-separated; '#' starts a comment.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "net/topology.h"

namespace radar::net {

/// Link value bounds ReadTopology enforces.
inline constexpr double kMaxLinkDelayMs = 1e9;
inline constexpr double kMinLinkBandwidthKbps = 1.0;

/// Parses a topology; returns std::nullopt and fills *error on malformed
/// input (line number + message).
std::optional<Topology> ReadTopology(std::istream& in, std::string* error);

/// Writes a topology in the format ReadTopology parses; round-trips.
void WriteTopology(const Topology& topology, std::ostream& out);

/// Region <-> token helpers for the file format.
const char* RegionToken(Region region);
std::optional<Region> RegionFromToken(const std::string& token);

}  // namespace radar::net
