#include "net/analysis.h"

#include <algorithm>

#include "common/check.h"

namespace radar::net {

std::vector<FunnelReport> ComputeFunnels(const Topology& topology,
                                         const NetModel& net) {
  const std::int32_t n = topology.num_nodes();
  RADAR_CHECK_EQ(net.num_nodes(), n);
  std::vector<FunnelReport> reports;
  reports.reserve(static_cast<std::size_t>(n));
  std::vector<std::int32_t> transit_count(static_cast<std::size_t>(n));
  std::vector<NodeId> path;
  for (NodeId source = 0; source < n; ++source) {
    std::fill(transit_count.begin(), transit_count.end(), 0);
    for (NodeId dest = 0; dest < n; ++dest) {
      if (dest == source) continue;
      path.clear();
      net.AppendPath(source, dest, &path);
      for (const NodeId via : path) {
        if (via != source) {
          ++transit_count[static_cast<std::size_t>(via)];
        }
      }
    }
    FunnelReport report;
    report.source = source;
    for (NodeId via = 0; via < n; ++via) {
      const double fraction =
          n > 1 ? static_cast<double>(
                      transit_count[static_cast<std::size_t>(via)]) /
                      static_cast<double>(n - 1)
                : 0.0;
      if (fraction > report.fraction) {
        report.fraction = fraction;
        report.funnel = via;
      }
    }
    reports.push_back(report);
  }
  return reports;
}

std::vector<FunnelReport> FunnelsAbove(const Topology& topology,
                                       const NetModel& net, double threshold) {
  std::vector<FunnelReport> out;
  for (const FunnelReport& report : ComputeFunnels(topology, net)) {
    if (report.fraction > threshold) out.push_back(report);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const FunnelReport& a, const FunnelReport& b) {
                     return a.fraction > b.fraction;
                   });
  return out;
}

}  // namespace radar::net
