#include "transport/node_config.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/check.h"

namespace radar::transport {
namespace {

bool ParseRole(const std::string& word, NodeRole* out) {
  if (word == "host") {
    *out = NodeRole::kHost;
  } else if (word == "redirector") {
    *out = NodeRole::kRedirector;
  } else if (word == "client") {
    *out = NodeRole::kClient;
  } else {
    return false;
  }
  return true;
}

/// Parses the whole token as a T; trailing characters fail.
template <class T>
bool ParseToken(const std::string& token, T* out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

const char* NodeRoleName(NodeRole role) {
  switch (role) {
    case NodeRole::kHost:
      return "host";
    case NodeRole::kRedirector:
      return "redirector";
    case NodeRole::kClient:
      return "client";
  }
  return "?";
}

std::optional<NodeConfig> NodeConfig::Load(std::istream& in,
                                           std::string* error) {
  NodeConfig config;
  std::string line;
  int line_no = 0;
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) {
      *error = "node config line " + std::to_string(line_no) + ": " + what;
    }
    return std::nullopt;
  };
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::vector<std::string> tokens;
    for (std::string token; fields >> token;) tokens.push_back(token);
    if (tokens.empty()) continue;  // blank / comment-only line
    if (tokens.size() < 4 || tokens.size() > 5) {
      return fail("want: <id> <role> <address> <port> [weight]");
    }
    NodeEntry entry;
    std::int64_t id = 0;
    std::int64_t port = 0;
    if (!ParseToken(tokens[0], &id)) {
      return fail("id '" + tokens[0] + "' is not an integer");
    }
    if (id != static_cast<std::int64_t>(config.nodes_.size())) {
      return fail("ids must be dense 0..n-1 in file order");
    }
    if (!ParseRole(tokens[1], &entry.role)) {
      return fail("unknown role '" + tokens[1] + "'");
    }
    entry.address = tokens[2];
    if (!ParseToken(tokens[3], &port) || port < 0 || port > 65535) {
      return fail("port must be an integer in 0..65535");
    }
    if (port == 0 && entry.role != NodeRole::kClient) {
      return fail("only clients may use port 0");
    }
    entry.id = static_cast<NodeId>(id);
    entry.port = static_cast<std::uint16_t>(port);
    if (tokens.size() == 5 &&
        (!ParseToken(tokens[4], &entry.weight) || !(entry.weight > 0.0) ||
         !std::isfinite(entry.weight))) {
      return fail("weight must be a positive finite number");
    }
    if (entry.role == NodeRole::kRedirector) {
      if (config.redirector_ != kInvalidNode) {
        return fail("more than one redirector");
      }
      config.redirector_ = entry.id;
    } else if (entry.role == NodeRole::kHost) {
      config.hosts_.push_back(entry.id);
    }
    config.nodes_.push_back(std::move(entry));
  }
  if (config.nodes_.empty()) {
    if (error != nullptr) *error = "node config: no nodes";
    return std::nullopt;
  }
  if (config.redirector_ == kInvalidNode) {
    if (error != nullptr) *error = "node config: no redirector";
    return std::nullopt;
  }
  return config;
}

std::optional<NodeConfig> NodeConfig::LoadFile(const std::string& path,
                                               std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = path + ": cannot open";
    return std::nullopt;
  }
  return Load(in, error);
}

const NodeEntry& NodeConfig::At(NodeId id) const {
  RADAR_CHECK(Has(id));
  return nodes_[static_cast<std::size_t>(id)];
}

NodeId NodeConfig::InitialHome(ObjectId x) const {
  RADAR_CHECK_GE(x, 0);
  RADAR_CHECK(!hosts_.empty());
  return hosts_[static_cast<std::size_t>(x) % hosts_.size()];
}

std::int32_t CliqueDistance::Distance(NodeId from, NodeId to) const {
  RADAR_CHECK_GE(from, 0);
  RADAR_CHECK_LT(from, num_nodes_);
  RADAR_CHECK_GE(to, 0);
  RADAR_CHECK_LT(to, num_nodes_);
  return from == to ? 0 : 1;
}

}  // namespace radar::transport
