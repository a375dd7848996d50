#include "driver/config.h"

#include "common/check.h"

namespace radar::driver {

const char* WorkloadKindName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kZipf: return "zipf";
    case WorkloadKind::kHotSites: return "hot-sites";
    case WorkloadKind::kHotPages: return "hot-pages";
    case WorkloadKind::kRegional: return "regional";
    case WorkloadKind::kUniform: return "uniform";
  }
  return "?";
}

void SimConfig::Check() const {
  RADAR_CHECK_GT(num_objects, 0);
  RADAR_CHECK_GT(object_bytes, 0);
  RADAR_CHECK_GT(node_request_rate, 0.0);
  RADAR_CHECK_GT(server_capacity, 0.0);
  RADAR_CHECK_GT(duration, 0);
  RADAR_CHECK_GE(num_redirectors, 1);
  RADAR_CHECK_GT(metric_bucket, 0);
  RADAR_CHECK_GE(replica_floor, 0);
  faults.Check();
  protocol.CheckStructure();
}

}  // namespace radar::driver
