// Deterministic synthetic topology generators for internet-scale runs.
//
// Two families, both connectivity-guaranteed and exactly reproducible
// from (spec, seed) — the generator owns the only RNG in src/net (a lint
// rule confines it to topology_gen.cpp so generator randomness cannot
// leak into routing or oracles):
//
//  - transit-stub ("ts:"): the classic hierarchical internet model. T
//    transit domains in a redundant ring, NT transit routers per domain,
//    S stub domains hanging off each transit router, NS nodes per stub.
//    The first node of every stub domain is its gateway (requests enter
//    there); transit and interior stub routers are not gateways. Regions
//    follow transit domains (domain d -> region d mod 4), so the
//    regional workloads run unchanged.
//
//  - scale-free ("sf:"): preferential attachment (Barabasi-Albert). Each
//    new node attaches m edges to existing nodes with probability
//    proportional to degree. Regions are four contiguous id blocks;
//    gateways are spread evenly through every block.
//
// Spec strings (anything else is treated as a topology file path):
//   ts:n=10000,seed=7            10k-node transit-stub, derived stub size
//   ts:domains=4,transit=3,stubs=3,stub=12,seed=1
//   sf:n=1000,m=2,gw=64,seed=1
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "net/topology.h"

namespace radar::net {

struct TopologySpec {
  enum class Family { kTransitStub, kScaleFree };
  Family family = Family::kTransitStub;
  std::uint64_t seed = 1;

  /// Exact total node count ("n="); 0 = derive from structural fields.
  std::int32_t target_nodes = 0;

  // Transit-stub structure.
  int transit_domains = 4;    ///< "domains="
  int transit_per_domain = 3; ///< "transit="
  int stubs_per_transit = 3;  ///< "stubs="
  int stub_size = 4;          ///< "stub=", ignored when target_nodes > 0

  // Scale-free structure.
  int edges_per_node = 2;  ///< "m="
  int num_gateways = 0;    ///< "gw="; 0 = max(4, n/16)

  /// Gateways this spec will produce (what the property tests bound).
  int ExpectedGateways() const;
  /// Nodes this spec will produce.
  std::int32_t ExpectedNodes() const;
};

/// Size caps for generated graphs: far beyond any run this simulator
/// targets, and well inside 32-bit node and link ids.
inline constexpr std::int64_t kMaxGeneratedNodes = std::int64_t{1} << 24;
inline constexpr std::int64_t kMaxGeneratedLinks = std::int64_t{1} << 26;

/// True when the string carries a generator prefix ("ts:" or "sf:").
bool IsTopologySpec(const std::string& spec);

/// Parses a generator spec; returns std::nullopt and fills *error on
/// malformed input: an unknown or repeated key, a value that is not a
/// decimal integer in range, or a structure the generator cannot build.
/// Every spec it accepts generates without aborting.
std::optional<TopologySpec> ParseTopologySpec(const std::string& spec,
                                              std::string* error);

/// Generates the topology for a parsed spec.
Topology GenerateTopology(const TopologySpec& spec);

/// Convenience for constant specs: parse + generate; aborts with the
/// parse error on a malformed spec.
Topology GenerateTopology(const std::string& spec);

}  // namespace radar::net
