// Golden determinism pin for the request engine.
//
// The hot-path machinery (precomputed latency matrices, allocation-free
// events, dense distance rows) is pure mechanism: it must not move a
// single bit of simulation output. This test runs a short fig6-style
// simulation and compares the full ReportJson dump byte-for-byte against
// a committed golden produced by the pre-optimization engine, so any
// change to event ordering, latency arithmetic, or replica choice fails
// loudly with a diff.
//
// Regenerate (only for an *intentional* semantic change, with a DESIGN.md
// note):  RADAR_UPDATE_GOLDEN=1 ./determinism_test
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "driver/config.h"
#include "driver/hosting_simulation.h"
#include "driver/report_json.h"
#include "fault/fault_plan.h"

namespace radar {
namespace {

std::string GoldenPath() {
  return std::string(RADAR_GOLDEN_DIR) + "/fig6_short_report.json";
}

// A scaled-down Fig. 6 run: default Table 1 rates on the UUNET backbone
// under Zipf, long enough to cross placement rounds so the replication /
// migration / transfer-hook paths all execute.
driver::SimConfig GoldenConfig() {
  driver::SimConfig config;
  config.duration = SecondsToSim(200.0);
  config.num_objects = 1'000;
  config.seed = 1;
  config.workload = driver::WorkloadKind::kZipf;
  return config;
}

TEST(GoldenDeterminismTest, Fig6ShortRunReportIsByteIdentical) {
  driver::HostingSimulation sim(GoldenConfig());
  const driver::RunReport report = sim.Run();
  const std::string dump = driver::ReportJson(report).Dump(2) + "\n";

  // The run must actually exercise the paths the engine optimizes.
  ASSERT_GT(report.total_requests, 0);
  ASSERT_GT(report.object_copies, 0);

  if (std::getenv("RADAR_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath(), std::ios::binary);
    ASSERT_TRUE(out.is_open()) << "cannot write " << GoldenPath();
    out << dump;
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "golden updated: " << GoldenPath();
  }

  std::ifstream in(GoldenPath(), std::ios::binary);
  ASSERT_TRUE(in.is_open())
      << "missing golden " << GoldenPath()
      << " (generate with RADAR_UPDATE_GOLDEN=1)";
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string golden = buf.str();

  EXPECT_EQ(dump, golden)
      << "engine output drifted from the committed golden; if the change "
         "is intentional, regenerate with RADAR_UPDATE_GOLDEN=1 and "
         "document why in DESIGN.md";
}

std::string RunDump(const driver::SimConfig& config) {
  driver::HostingSimulation sim(config);
  const driver::RunReport report = sim.Run();
  EXPECT_GT(report.total_requests, 0);
  return driver::ReportJson(report).Dump(2);
}

// The golden pins one configuration; repeat runs pin the rest of the
// engine's inputs that have no committed golden: Poisson arrivals (each
// gateway's RNG stream draws its gaps) and a fault plan with a replica
// floor (scripted and stochastic host/link faults, lossy and delayed
// request legs, and the repair pass all draw from the fault RNGs).
struct RepeatCase {
  const char* name;
  driver::SimConfig (*config)();
};

driver::SimConfig PoissonConfig() {
  driver::SimConfig config = GoldenConfig();
  config.arrivals = driver::ArrivalProcess::kPoisson;
  return config;
}

driver::SimConfig FaultConfig() {
  std::istringstream in(
      "crash 3 20\n"
      "recover 3 60\n"
      "link-down 0 1 30\n"
      "link-up 0 1 70\n"
      "host-faults 400 40\n"
      "loss request 0.02\n"
      "delay request 0.05 30\n");
  std::string error;
  auto plan = fault::ParseFaultPlan(in, &error);
  EXPECT_TRUE(plan.has_value()) << error;
  driver::SimConfig config = GoldenConfig();
  config.faults = plan.value_or(fault::FaultPlan{});
  config.replica_floor = 2;
  return config;
}

class GoldenDeterminismTest : public ::testing::TestWithParam<RepeatCase> {};

TEST_P(GoldenDeterminismTest, RepeatRunsAreByteIdentical) {
  const driver::SimConfig config = GetParam().config();
  EXPECT_EQ(RunDump(config), RunDump(config));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, GoldenDeterminismTest,
    ::testing::Values(RepeatCase{"golden", GoldenConfig},
                      RepeatCase{"poisson", PoissonConfig},
                      RepeatCase{"faults", FaultConfig}),
    [](const ::testing::TestParamInfo<RepeatCase>& param_info) {
      return std::string(param_info.param.name);
    });

TEST(GoldenDeterminismTest, SeedChangesTheRun) {
  // Anti-pin: byte-equal repeats must not be vacuous — an engine that
  // ignored its seed would also repeat itself.
  driver::SimConfig seven = GoldenConfig();
  seven.seed = 7;
  driver::SimConfig eight = GoldenConfig();
  eight.seed = 8;
  EXPECT_NE(RunDump(seven), RunDump(eight));
}

}  // namespace
}  // namespace radar
