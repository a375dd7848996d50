// Static platform description for real-system mode (DESIGN.md §16).
//
// The daemons are configured from one plain-text file every node reads —
// the real-mode stand-in for the simulator's generated topology. One node
// per line, '#' comments:
//
//   <id> <role: host|redirector|client> <address> <port> [weight]
//
// Lines that are empty once the comment and whitespace are stripped are
// skipped; every other line must consist of exactly these tokens, each
// well-formed (integer id and port, positive finite weight).
//
// Ids must be dense 0..n-1 in file order (they double as wire NodeIds and
// as simulator node ids during replay). Exactly one redirector is
// required — real-mode v1 is hub-and-spoke. Clients take port 0 (they
// dial, never listen).
//
// The file also fixes the deterministic initial placement: object x's
// first replica lives on the (x mod num_hosts)-th host entry. Daemons and
// the replay driver both derive placement from this rule, which is what
// makes a capture replayable without any state snapshot.
#pragma once

#include <charconv>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "common/types.h"
#include "core/distance.h"

namespace radar::transport {

/// Matches wire::PeerRole numerically (a Hello carries this value).
enum class NodeRole : std::uint8_t {
  kHost = 0,
  kRedirector = 1,
  kClient = 2,
};

const char* NodeRoleName(NodeRole role);

struct NodeEntry {
  NodeId id = kInvalidNode;
  NodeRole role = NodeRole::kHost;
  std::string address;
  std::uint16_t port = 0;
  /// Relative-power weight (Sec. 2 heterogeneity); hosts only.
  double weight = 1.0;

  friend bool operator==(const NodeEntry&, const NodeEntry&) = default;
};

/// Parses the whole token as a T with std::from_chars: an empty token,
/// trailing characters, or a value that does not fit T fail. The config
/// loader and the real-mode tools' numeric flags both parse through it.
template <class T>
bool ParseToken(std::string_view token, T* out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

class NodeConfig {
 public:
  /// Parses the text format; std::nullopt + *error on bad input.
  static std::optional<NodeConfig> Load(std::istream& in, std::string* error);
  static std::optional<NodeConfig> LoadFile(const std::string& path,
                                            std::string* error);

  const std::vector<NodeEntry>& nodes() const { return nodes_; }
  std::int32_t num_nodes() const {
    return static_cast<std::int32_t>(nodes_.size());
  }
  const NodeEntry& At(NodeId id) const;
  bool Has(NodeId id) const {
    return id >= 0 && id < num_nodes();
  }
  bool IsHost(NodeId id) const {
    return Has(id) && At(id).role == NodeRole::kHost;
  }

  /// The (sole) redirector node.
  NodeId redirector() const { return redirector_; }

  /// Host-role node ids in file order.
  const std::vector<NodeId>& hosts() const { return hosts_; }

  /// Round-robin initial placement: where object x's first replica lives.
  NodeId InitialHome(ObjectId x) const;

  /// The peers a host daemon dials: the redirector and every host with a
  /// higher id, so each pair of hosts shares one connection (opened by the
  /// lower id). Redirectors only accept, and clients dial on demand.
  std::vector<NodeId> PeersToDial(NodeId host) const;

 private:
  std::vector<NodeEntry> nodes_;
  std::vector<NodeId> hosts_;
  NodeId redirector_ = kInvalidNode;
};

/// Real mode has no router database, so proximity degenerates to a clique:
/// distance 1 between distinct nodes, 0 to self. Fig. 2 then reduces to
/// pure unit-request-count balancing, and replay uses the same uniform
/// topology — redirect decisions depend only on request order.
class CliqueDistance final : public core::DistanceOracle {
 public:
  explicit CliqueDistance(std::int32_t num_nodes) : num_nodes_(num_nodes) {}

  std::int32_t Distance(NodeId from, NodeId to) const override;

 private:
  std::int32_t num_nodes_;
};

}  // namespace radar::transport
