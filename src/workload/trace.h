// Request traces: recorded or synthesized streams of (time, gateway,
// object) triples.
//
// The paper's companion work drives the same simulator from access traces
// of AT&T's EasyWWW hosting service; this module provides the equivalent
// machinery for synthetic or user-supplied traces. A trace can be
// synthesized from any Workload (capturing the exact request stream a
// live run would generate), saved to / loaded from a plain-text format,
// and replayed through HostingSimulation::SetTrace.
//
// File format, one record per line, '#' comments:
//   <time-microseconds> <gateway-node> <object-id>
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "net/topology.h"
#include "workload/workload.h"

namespace radar::workload {

struct TraceRecord {
  SimTime t = 0;
  NodeId gateway = kInvalidNode;
  ObjectId object = kInvalidObject;

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

class RequestTrace {
 public:
  RequestTrace() = default;

  /// Takes ownership of records; they must be sorted by time (verified).
  explicit RequestTrace(std::vector<TraceRecord> records);

  /// Appends a record; time must be non-decreasing.
  void Append(SimTime t, NodeId gateway, ObjectId object);

  const std::vector<TraceRecord>& records() const { return records_; }
  bool empty() const { return records_.empty(); }
  std::size_t size() const { return records_.size(); }

  /// Duration spanned by the trace (time of the last record).
  SimTime Duration() const;

  /// Largest object id referenced + 1 (0 for an empty trace).
  ObjectId NumObjectsReferenced() const;

  /// Checks the trace against the run it is to drive: it holds a
  /// request, every request arrives at a gateway of `topology`, and every
  /// object id is below `num_objects`. Returns false and fills *error
  /// with the first mismatch. HostingSimulation::SetTrace aborts on a
  /// trace that fails this check.
  bool FitsRun(const net::Topology& topology, ObjectId num_objects,
               std::string* error) const;

  /// Serializes to the plain-text format.
  void Save(std::ostream& out) const;

  /// Parses the plain-text format; std::nullopt + *error on bad input.
  static std::optional<RequestTrace> Load(std::istream& in,
                                          std::string* error);

  /// Synthesizes the exact request stream a simulation run would generate:
  /// every gateway in [0, num_gateways) issues requests at `rate_per_node`
  /// req/s (deterministically spaced, phase-staggered like the driver)
  /// against `workload` for `duration`.
  static RequestTrace Synthesize(Workload& workload,
                                 std::int32_t num_gateways,
                                 double rate_per_node, SimTime duration,
                                 std::uint64_t seed);

 private:
  std::vector<TraceRecord> records_;
};

}  // namespace radar::workload
