// Traced run of a simulator workload: per-layer costs from a replay.
#pragma once

#include "bench_common.h"
#include "sim_workloads.h"

namespace perfbench {

/// Runs the workload in slices and replays each slice's requests through
/// the layers' public functions; prints the per-layer metrics.
int RunTraced(const SimWorkload& w, const Args& args);

}  // namespace perfbench
