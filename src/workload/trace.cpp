#include "workload/trace.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/check.h"

namespace radar::workload {

RequestTrace::RequestTrace(std::vector<TraceRecord> records)
    : records_(std::move(records)) {
  for (std::size_t i = 1; i < records_.size(); ++i) {
    RADAR_CHECK_MSG(records_[i - 1].t <= records_[i].t,
                    "trace records must be time-sorted");
  }
}

void RequestTrace::Append(SimTime t, NodeId gateway, ObjectId object) {
  RADAR_CHECK_GE(t, 0);
  RADAR_CHECK_GE(gateway, 0);
  RADAR_CHECK_GE(object, 0);
  RADAR_CHECK_MSG(records_.empty() || records_.back().t <= t,
                  "trace records must be appended in time order");
  records_.push_back(TraceRecord{t, gateway, object});
}

SimTime RequestTrace::Duration() const {
  return records_.empty() ? 0 : records_.back().t;
}

ObjectId RequestTrace::NumObjectsReferenced() const {
  ObjectId max_id = -1;
  for (const TraceRecord& r : records_) max_id = std::max(max_id, r.object);
  return max_id + 1;
}

bool RequestTrace::FitsRun(const net::Topology& topology,
                           ObjectId num_objects, std::string* error) const {
  std::ostringstream os;
  if (records_.empty()) os << "the trace holds no requests";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const TraceRecord& r = records_[i];
    if (r.object < 0 || r.object >= num_objects) {
      os << "request " << i + 1 << " names object " << r.object
         << ", but the run has " << num_objects << " objects";
      break;
    }
    if (r.gateway < 0 || r.gateway >= topology.num_nodes() ||
        !topology.IsGateway(r.gateway)) {
      os << "request " << i + 1 << " arrives at node " << r.gateway
         << ", which is not a gateway of the topology";
      break;
    }
  }
  if (os.tellp() == 0) return true;
  if (error != nullptr) *error = os.str();
  return false;
}

void RequestTrace::Save(std::ostream& out) const {
  out << "# radar request trace: " << records_.size() << " records\n";
  for (const TraceRecord& r : records_) {
    out << r.t << ' ' << r.gateway << ' ' << r.object << '\n';
  }
}

std::optional<RequestTrace> RequestTrace::Load(std::istream& in,
                                               std::string* error) {
  std::vector<TraceRecord> records;
  std::string line;
  int line_number = 0;
  auto fail = [&](const std::string& message) {
    if (error != nullptr) {
      std::ostringstream os;
      os << "line " << line_number << ": " << message;
      *error = os.str();
    }
    return std::nullopt;
  };
  while (std::getline(in, line)) {
    ++line_number;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream tokens(line);
    TraceRecord record;
    if (!(tokens >> record.t)) continue;  // blank line
    if (!(tokens >> record.gateway >> record.object)) {
      return fail("expected: <time-us> <gateway> <object>");
    }
    if (record.t < 0 || record.gateway < 0 || record.object < 0) {
      return fail("negative field");
    }
    if (!records.empty() && records.back().t > record.t) {
      return fail("records out of time order");
    }
    records.push_back(record);
  }
  return RequestTrace(std::move(records));
}

RequestTrace RequestTrace::Synthesize(Workload& workload,
                                      std::int32_t num_gateways,
                                      double rate_per_node, SimTime duration,
                                      std::uint64_t seed) {
  RADAR_CHECK_GT(num_gateways, 0);
  RADAR_CHECK_GT(rate_per_node, 0.0);
  RADAR_CHECK_GT(duration, 0);
  const auto period = static_cast<SimTime>(
      static_cast<double>(kMicrosPerSecond) / rate_per_node);
  RADAR_CHECK_GT(period, 0);

  Rng root(seed);
  std::vector<Rng> rngs;
  rngs.reserve(static_cast<std::size_t>(num_gateways));
  for (NodeId g = 0; g < num_gateways; ++g) {
    rngs.push_back(root.Fork(static_cast<std::uint64_t>(g)));
  }

  // Merge the per-gateway deterministic arrival processes in time order;
  // phases match the driver's stagger.
  std::vector<TraceRecord> records;
  records.reserve(static_cast<std::size_t>(
      static_cast<double>(num_gateways) * rate_per_node *
      SimToSeconds(duration)));
  struct Cursor {
    SimTime next;
    NodeId gateway;
  };
  std::vector<Cursor> cursors;
  for (NodeId g = 0; g < num_gateways; ++g) {
    cursors.push_back(Cursor{
        period * static_cast<SimTime>(g) / static_cast<SimTime>(num_gateways),
        g});
  }
  while (true) {
    auto* soonest = &cursors.front();
    for (auto& c : cursors) {
      if (c.next < soonest->next ||
          (c.next == soonest->next && c.gateway < soonest->gateway)) {
        soonest = &c;
      }
    }
    if (soonest->next > duration) break;
    const ObjectId x = workload.NextObject(
        soonest->gateway, soonest->next,
        rngs[static_cast<std::size_t>(soonest->gateway)]);
    records.push_back(TraceRecord{soonest->next, soonest->gateway, x});
    soonest->next += period;
  }
  return RequestTrace(std::move(records));
}

}  // namespace radar::workload
