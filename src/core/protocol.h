// Shared protocol types: the CreateObj RPC (Fig. 4), the queries a host's
// placement round reads, and the round itself — a coroutine that suspends
// on each intent it asks of the platform.
#pragma once

#include <coroutine>
#include <cstdint>
#include <exception>
#include <utility>

#include "common/check.h"
#include "common/types.h"

namespace radar::core {

/// Method field of the CreateObj request (Fig. 4).
enum class CreateObjMethod : std::uint8_t {
  kMigrate,
  kReplicate,
};

inline const char* MethodName(CreateObjMethod m) {
  return m == CreateObjMethod::kMigrate ? "MIGRATE" : "REPLICATE";
}

/// Network-level fate of one CreateObj exchange, decided by the fault
/// layer (always kDeliver in a perfect world). kLost means the request
/// never reached the candidate (dead host, or every bounded resend was
/// dropped): the source sees a refusal and keeps its copy.
/// kAcceptedAckLost means the candidate accepted and created its copy but
/// the acceptance ack was lost: the source *also* sees a refusal and keeps
/// its copy — a relocation can duplicate an object, never lose one.
enum class RpcFate : std::uint8_t {
  kDeliver,
  kLost,
  kAcceptedAckLost,
};

/// Outcome of a CreateObj request at the candidate host.
struct CreateObjResponse {
  bool accepted = false;
  /// True when a new physical copy was created (object bytes must be
  /// transferred); false when the candidate already held a replica and
  /// merely incremented its affinity.
  bool created_new_copy = false;
};

/// The world as seen from one host's placement round: the synchronous
/// queries the round reads. Cluster answers them from the simulated
/// platform, HostNode from relayed load reports, unit tests directly.
/// Everything that changes another node's state goes through a
/// PlacementIntent instead (see PlacementRound).
class PlacementContext {
 public:
  virtual ~PlacementContext() = default;

  /// Network distance in hops.
  virtual std::int32_t Distance(NodeId from, NodeId to) const = 0;

  /// Picks an offloading recipient for `self`: a host whose reported load
  /// is below the low watermark (Sec. 4.2.2, "hosts periodically exchange
  /// load reports"). Returns kInvalidNode when no host qualifies.
  virtual NodeId FindOffloadRecipient(NodeId self) = 0;

  /// The load the recipient reported: its admission-load estimate
  /// normalized by its relative-power weight (Sec. 2's heterogeneity
  /// extension; 1.0 for homogeneous platforms).
  virtual double ReportedLoad(NodeId host) const = 0;

  /// Relative-power weight of a host, carried in load reports so senders
  /// can convert absolute load bounds into the recipient's normalized
  /// scale. Homogeneous platforms return 1.0.
  virtual double HostWeight(NodeId /*host*/) const { return 1.0; }
};

/// One request a placement round makes of the platform. The round
/// suspends on it and resumes with the platform's verdict (true = done).
struct PlacementIntent {
  enum class Kind : std::uint8_t {
    /// Fig. 4's CreateObj(method, x, unit_load) to candidate `to`. The
    /// verdict is the candidate's acceptance; on acceptance the platform
    /// has notified x's redirector of the new copy or affinity unit.
    kCreateObj,
    /// Fig. 3's ReduceAffinity(x): the redirector lowers its record of the
    /// source's replica from `affinity` by one unit or, at affinity 1,
    /// arbitrates the drop of the replica. The verdict is true when the
    /// redirector did so; the round then sheds the unit locally.
    kReduceAffinity,
  };
  Kind kind = Kind::kCreateObj;
  ObjectId x = kInvalidObject;
  CreateObjMethod method = CreateObjMethod::kMigrate;  ///< kCreateObj
  NodeId to = kInvalidNode;                            ///< kCreateObj
  double unit_load = 0.0;                              ///< kCreateObj
  int affinity = 0;  ///< kReduceAffinity: the source's affinity before
};

/// What one placement round did (metrics / tests).
struct PlacementStats {
  int affinity_drops = 0;     ///< deletion-threshold affinity reductions
  int geo_migrations = 0;
  int geo_replications = 0;
  int offload_migrations = 0;
  int offload_replications = 0;
  bool offloading_mode = false;
  bool ran_offload = false;

  int TotalRelocations() const {
    return affinity_drops + geo_migrations + geo_replications +
           offload_migrations + offload_replications;
  }

  friend bool operator==(const PlacementStats&,
                         const PlacementStats&) = default;
};

/// One host's placement round (Figs. 3-5) as a C++20 coroutine. The round
/// runs eagerly from HostAgent::Placement until it needs the platform: it
/// then suspends with intent() set, and whoever drives it resolves the
/// intent — inline (Cluster, tests) or over the wire (HostNode) — and
/// calls Resume with the verdict. done() rounds hold their stats().
/// Destroying a suspended round abandons it. The frame is allocated once
/// per round; suspending and resuming allocate nothing.
class PlacementRound {
 public:
  struct promise_type {
    PlacementIntent intent;
    bool verdict = false;
    PlacementStats stats;

    PlacementRound get_return_object() {
      return PlacementRound(
          std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_value(const PlacementStats& s) { stats = s; }
    void unhandled_exception() { std::terminate(); }
  };

  /// `co_await Ask{intent}` inside the round: publishes the intent,
  /// suspends, and evaluates to the verdict passed to Resume.
  struct Ask {
    PlacementIntent intent;
    promise_type* promise = nullptr;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<promise_type> h) noexcept {
      promise = &h.promise();
      promise->intent = intent;
    }
    bool await_resume() const noexcept { return promise->verdict; }
  };

  PlacementRound(PlacementRound&& other) noexcept
      : handle_(std::exchange(other.handle_, {})) {}
  ~PlacementRound() {
    if (handle_) handle_.destroy();
  }

  bool done() const { return handle_.done(); }

  /// What the suspended round waits on. Requires !done().
  const PlacementIntent& intent() const {
    RADAR_CHECK(!done());
    return handle_.promise().intent;
  }

  /// Resumes the suspended round with the verdict on intent(); it runs to
  /// its next intent or to completion. Requires !done().
  void Resume(bool verdict) {
    RADAR_CHECK(!done());
    handle_.promise().verdict = verdict;
    handle_.resume();
  }

  /// What the round did. Requires done().
  const PlacementStats& stats() const {
    RADAR_CHECK(done());
    return handle_.promise().stats;
  }

 private:
  explicit PlacementRound(std::coroutine_handle<promise_type> handle)
      : handle_(handle) {}

  std::coroutine_handle<promise_type> handle_;
};

}  // namespace radar::core
