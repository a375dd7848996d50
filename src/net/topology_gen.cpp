#include "net/topology_gen.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/types.h"

namespace radar::net {
namespace {

// Link tiers, loosely calibrated against the UUNET builder's 350 KBps
// backbone (net/uunet.h): long-haul transit trunks are faster and
// slower-to-cross than stub access links.
constexpr double kStubBandwidth = 350.0 * 1024.0;
constexpr double kTransitBandwidth = 4.0 * kStubBandwidth;
constexpr double kAccessBandwidth = 2.0 * kStubBandwidth;

SimTime DrawDelayMs(Rng& rng, std::int64_t lo_ms, std::int64_t hi_ms) {
  return MillisToSim(static_cast<double>(rng.NextInRange(lo_ms, hi_ms)));
}

/// Parses a non-empty run of decimal digits no larger than `max`.
bool ParseCount(const std::string& text, std::uint64_t max,
                std::uint64_t* out) {
  if (text.empty()) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (max - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

Topology GenerateTransitStub(const TopologySpec& spec) {
  const int domains = spec.transit_domains;
  const int transit = spec.transit_per_domain;
  const int stubs = spec.stubs_per_transit;
  RADAR_CHECK_GT(domains, 0);
  RADAR_CHECK_GT(transit, 0);
  RADAR_CHECK_GT(stubs, 0);
  const int num_transit = domains * transit;
  const int num_stubs = num_transit * stubs;

  // Per-stub node counts: fixed stub_size, or sized so the grand total
  // hits target_nodes exactly (remainder spread over the first stubs).
  std::vector<std::int32_t> stub_nodes(static_cast<std::size_t>(num_stubs));
  if (spec.target_nodes > 0) {
    const std::int32_t pool = spec.target_nodes - num_transit;
    RADAR_CHECK_MSG(pool >= num_stubs,
                    "ts: target n too small for the domain structure "
                    "(need at least domains*transit*(stubs+1) nodes)");
    const std::int32_t base = pool / num_stubs;
    const std::int32_t rem = pool % num_stubs;
    for (int s = 0; s < num_stubs; ++s) {
      stub_nodes[static_cast<std::size_t>(s)] = base + (s < rem ? 1 : 0);
    }
  } else {
    RADAR_CHECK_GT(spec.stub_size, 0);
    std::fill(stub_nodes.begin(), stub_nodes.end(), spec.stub_size);
  }

  Rng rng(spec.seed);
  TopologyBuilder builder;

  // Transit routers first, so their ids are the dense prefix.
  std::vector<NodeId> transit_id(static_cast<std::size_t>(num_transit));
  for (int d = 0; d < domains; ++d) {
    const auto region = static_cast<Region>(d % kNumRegions);
    for (int i = 0; i < transit; ++i) {
      transit_id[static_cast<std::size_t>(d * transit + i)] = builder.AddNode(
          "t" + std::to_string(d) + "." + std::to_string(i), region,
          /*is_gateway=*/false);
    }
  }

  // Intra-domain transit ring.
  for (int d = 0; d < domains; ++d) {
    for (int i = 0; i + 1 < transit; ++i) {
      builder.Link(transit_id[static_cast<std::size_t>(d * transit + i)],
                   transit_id[static_cast<std::size_t>(d * transit + i + 1)],
                   DrawDelayMs(rng, 5, 15), kTransitBandwidth);
    }
    if (transit >= 3) {
      builder.Link(transit_id[static_cast<std::size_t>(d * transit)],
                   transit_id[static_cast<std::size_t>((d + 1) * transit - 1)],
                   DrawDelayMs(rng, 5, 15), kTransitBandwidth);
    }
  }

  // Inter-domain ring plus skip chords for redundancy.
  for (int d = 0; d + 1 < domains; ++d) {
    builder.Link(transit_id[static_cast<std::size_t>(d * transit)],
                 transit_id[static_cast<std::size_t>((d + 1) * transit)],
                 DrawDelayMs(rng, 20, 60), kTransitBandwidth);
  }
  if (domains >= 3) {
    builder.Link(transit_id[static_cast<std::size_t>((domains - 1) * transit)],
                 transit_id[0], DrawDelayMs(rng, 20, 60), kTransitBandwidth);
  }
  if (domains >= 5) {
    for (int d = 0; d < domains; d += 2) {
      const NodeId a = transit_id[static_cast<std::size_t>(d * transit)];
      const NodeId b = transit_id[static_cast<std::size_t>(
          ((d + 2) % domains) * transit + (transit > 1 ? 1 : 0))];
      if (a != b && !builder.HasLink(a, b)) {
        builder.Link(a, b, DrawDelayMs(rng, 20, 60), kTransitBandwidth);
      }
    }
  }

  // Stub domains: node 0 of each stub is its gateway.
  for (int d = 0; d < domains; ++d) {
    const auto region = static_cast<Region>(d % kNumRegions);
    for (int i = 0; i < transit; ++i) {
      const NodeId attach = transit_id[static_cast<std::size_t>(d * transit + i)];
      for (int j = 0; j < stubs; ++j) {
        const int stub_index = (d * transit + i) * stubs + j;
        const std::int32_t count =
            stub_nodes[static_cast<std::size_t>(stub_index)];
        const std::string prefix = "s" + std::to_string(d) + "." +
                                   std::to_string(i) + "." +
                                   std::to_string(j) + ".";
        NodeId first = kInvalidNode;
        NodeId prev = kInvalidNode;
        for (std::int32_t k = 0; k < count; ++k) {
          const NodeId id = builder.AddNode(prefix + std::to_string(k),
                                            region, /*is_gateway=*/k == 0);
          if (k == 0) {
            first = id;
            builder.Link(attach, id, DrawDelayMs(rng, 2, 8),
                         kAccessBandwidth);
          } else {
            builder.Link(prev, id, DrawDelayMs(rng, 1, 4), kStubBandwidth);
          }
          prev = id;
        }
        if (count >= 3) {
          builder.Link(prev, first, DrawDelayMs(rng, 1, 4), kStubBandwidth);
        }
        if (count >= 6) {
          builder.Link(first, first + count / 2, DrawDelayMs(rng, 1, 4),
                       kStubBandwidth);
        }
      }
    }
  }

  return std::move(builder).Build();
}

Topology GenerateScaleFree(const TopologySpec& spec) {
  const std::int32_t n = spec.target_nodes;
  const int m = spec.edges_per_node;
  RADAR_CHECK_GT(m, 0);
  RADAR_CHECK_MSG(n > m, "sf: needs n > m");
  RADAR_CHECK_GE(n, kNumRegions);

  int gateways = spec.num_gateways;
  if (gateways <= 0) gateways = std::max(kNumRegions, n / 16);
  gateways = std::min(gateways, static_cast<int>(n));
  RADAR_CHECK_GE(gateways, kNumRegions);

  // Gateway ids: spread evenly through each of the four contiguous
  // region blocks so every region keeps request entry points.
  std::vector<char> is_gateway(static_cast<std::size_t>(n), 0);
  {
    int assigned = 0;
    for (int r = 0; r < kNumRegions; ++r) {
      const std::int32_t block_start = static_cast<std::int32_t>(
          (static_cast<std::int64_t>(n) * r) / kNumRegions);
      const std::int32_t block_end = static_cast<std::int32_t>(
          (static_cast<std::int64_t>(n) * (r + 1)) / kNumRegions);
      const int per_block = gateways / kNumRegions +
                            (r < gateways % kNumRegions ? 1 : 0);
      const std::int32_t block_size = block_end - block_start;
      for (int j = 0; j < per_block && j < block_size; ++j) {
        const std::int32_t id = block_start + static_cast<std::int32_t>(
            (static_cast<std::int64_t>(block_size) * j) / per_block);
        if (is_gateway[static_cast<std::size_t>(id)] == 0) {
          is_gateway[static_cast<std::size_t>(id)] = 1;
          ++assigned;
        }
      }
    }
    RADAR_CHECK_GE(assigned, kNumRegions);
  }

  TopologyBuilder builder;
  for (std::int32_t i = 0; i < n; ++i) {
    const auto region = static_cast<Region>(
        (static_cast<std::int64_t>(i) * kNumRegions) / n);
    builder.AddNode("n" + std::to_string(i), region,
                    is_gateway[static_cast<std::size_t>(i)] != 0);
  }

  Rng rng(spec.seed);
  // Preferential attachment over an endpoint list: each link contributes
  // both endpoints, so a uniform draw lands on a node with probability
  // proportional to its degree.
  std::vector<NodeId> endpoints;
  endpoints.reserve(2 * static_cast<std::size_t>(n) *
                    static_cast<std::size_t>(m));

  // Seed clique over the first m+1 nodes.
  for (std::int32_t a = 0; a <= m; ++a) {
    for (std::int32_t b = a + 1; b <= m; ++b) {
      builder.Link(a, b, DrawDelayMs(rng, 5, 40), kStubBandwidth);
      endpoints.push_back(a);
      endpoints.push_back(b);
    }
  }

  std::vector<NodeId> chosen;
  for (std::int32_t i = m + 1; i < n; ++i) {
    chosen.clear();
    for (int e = 0; e < m; ++e) {
      NodeId target = kInvalidNode;
      for (int attempt = 0; attempt < 32; ++attempt) {
        const NodeId candidate =
            endpoints[rng.NextBounded(endpoints.size())];
        if (candidate != i &&
            std::find(chosen.begin(), chosen.end(), candidate) ==
                chosen.end()) {
          target = candidate;
          break;
        }
      }
      if (target == kInvalidNode) {
        // Deterministic fallback: first unchosen node scanning up from 0.
        for (NodeId candidate = 0; candidate < i; ++candidate) {
          if (std::find(chosen.begin(), chosen.end(), candidate) ==
              chosen.end()) {
            target = candidate;
            break;
          }
        }
      }
      RADAR_CHECK(target != kInvalidNode);
      chosen.push_back(target);
      builder.Link(i, target, DrawDelayMs(rng, 5, 40), kStubBandwidth);
      endpoints.push_back(i);
      endpoints.push_back(target);
    }
  }

  return std::move(builder).Build();
}

}  // namespace

int TopologySpec::ExpectedGateways() const {
  if (family == Family::kTransitStub) {
    return transit_domains * transit_per_domain * stubs_per_transit;
  }
  int gateways = num_gateways;
  if (gateways <= 0) gateways = std::max(kNumRegions, target_nodes / 16);
  return std::min(gateways, static_cast<int>(target_nodes));
}

std::int32_t TopologySpec::ExpectedNodes() const {
  if (family == Family::kScaleFree || target_nodes > 0) return target_nodes;
  const int num_transit = transit_domains * transit_per_domain;
  return num_transit + num_transit * stubs_per_transit * stub_size;
}

bool IsTopologySpec(const std::string& spec) {
  return spec.rfind("ts:", 0) == 0 || spec.rfind("sf:", 0) == 0;
}

std::optional<TopologySpec> ParseTopologySpec(const std::string& spec,
                                              std::string* error) {
  const auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    return std::optional<TopologySpec>();
  };
  if (!IsTopologySpec(spec)) {
    return fail("topology spec must start with 'ts:' or 'sf:'");
  }
  TopologySpec out;
  const bool ts = spec.rfind("ts:", 0) == 0;
  out.family = ts ? TopologySpec::Family::kTransitStub
                  : TopologySpec::Family::kScaleFree;
  const std::vector<std::string> keys =
      ts ? std::vector<std::string>{"seed", "n", "domains", "transit",
                                    "stubs", "stub"}
         : std::vector<std::string>{"seed", "n", "m", "gw"};
  std::vector<std::string> seen;
  const std::string body = spec.substr(3);
  constexpr std::size_t kEnd = std::string::npos;
  for (std::size_t pos = 0; !body.empty() && pos != kEnd;) {
    const std::size_t comma = body.find(',', pos);
    const std::string item =
        body.substr(pos, comma == kEnd ? kEnd : comma - pos);
    pos = comma == kEnd ? kEnd : comma + 1;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      return fail("malformed item '" + item + "' (expected key=value)");
    }
    const std::string key = item.substr(0, eq);
    const std::string text = item.substr(eq + 1);
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
      return fail("unknown key '" + key + "' for a " + spec.substr(0, 3) +
                  " spec");
    }
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) {
      return fail("repeated key '" + key + "'");
    }
    seen.push_back(key);
    std::uint64_t value = 0;
    if (key == "seed") {
      if (!ParseCount(text, UINT64_MAX, &value)) {
        return fail("seed must be a non-negative integer, got '" + text + "'");
      }
      out.seed = value;
      continue;
    }
    if (!ParseCount(text, INT32_MAX, &value)) {
      return fail(key + " must be an integer in [0, 2^31), got '" + text +
                  "'");
    }
    const auto v = static_cast<std::int32_t>(value);
    if (key == "gw") {
      if (v != 0 && v < kNumRegions) {
        return fail("gw must be 0 (derive) or at least 4, one per region");
      }
      out.num_gateways = v;
      continue;
    }
    if (v < 1) return fail(key + " must be at least 1");
    if (key == "n") {
      out.target_nodes = v;
    } else if (key == "domains") {
      out.transit_domains = v;
    } else if (key == "transit") {
      out.transit_per_domain = v;
    } else if (key == "stubs") {
      out.stubs_per_transit = v;
    } else if (key == "stub") {
      out.stub_size = v;
    } else {
      out.edges_per_node = v;  // "m"
    }
  }

  // Structure: every accepted spec must generate without tripping a
  // generator invariant, and stay inside the size caps.
  if (ts) {
    const std::int64_t transit =
        static_cast<std::int64_t>(out.transit_domains) *
        out.transit_per_domain;
    const std::int64_t min_nodes =
        transit > kMaxGeneratedNodes
            ? transit
            : transit * (std::int64_t{out.stubs_per_transit} + 1);
    if (min_nodes > kMaxGeneratedNodes) {
      return fail("the transit-stub structure exceeds " +
                  std::to_string(kMaxGeneratedNodes) + " nodes");
    }
    if (out.target_nodes > 0 && out.target_nodes < min_nodes) {
      return fail("n=" + std::to_string(out.target_nodes) +
                  " is too small for the transit-stub structure (needs "
                  "domains*transit*(stubs+1) = " +
                  std::to_string(min_nodes) + " nodes)");
    }
    const std::int64_t nodes =
        out.target_nodes > 0
            ? out.target_nodes
            : transit + transit * out.stubs_per_transit * out.stub_size;
    if (nodes > kMaxGeneratedNodes) {
      return fail("the spec generates more than " +
                  std::to_string(kMaxGeneratedNodes) + " nodes");
    }
  } else {
    if (out.target_nodes == 0) return fail("sf: requires n=<nodes>");
    if (out.target_nodes > kMaxGeneratedNodes) {
      return fail("n exceeds " + std::to_string(kMaxGeneratedNodes) +
                  " nodes");
    }
    if (out.target_nodes < kNumRegions) {
      return fail("sf: needs n >= 4, one block per region");
    }
    if (out.edges_per_node >= out.target_nodes) {
      return fail("sf: needs n > m");
    }
    if (static_cast<std::int64_t>(out.target_nodes) * out.edges_per_node >
        kMaxGeneratedLinks) {
      return fail("n*m exceeds " + std::to_string(kMaxGeneratedLinks) +
                  " links");
    }
  }
  return out;
}

Topology GenerateTopology(const TopologySpec& spec) {
  return spec.family == TopologySpec::Family::kTransitStub
             ? GenerateTransitStub(spec)
             : GenerateScaleFree(spec);
}

Topology GenerateTopology(const std::string& spec) {
  std::string error;
  const std::optional<TopologySpec> parsed = ParseTopologySpec(spec, &error);
  RADAR_CHECK_MSG(parsed.has_value(), (spec + ": " + error).c_str());
  return GenerateTopology(*parsed);
}

}  // namespace radar::net
