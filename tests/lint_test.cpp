// Tests for the radar_lint pass framework (tools/lint/linter.h): each
// rule fires on a minimal violating snippet, stays quiet on idiomatic
// code, the tree walker rejects the checked-in violating fixture, and the
// shared-state report round-trips as radar.analysis/1 JSON.
#include "lint/linter.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/analysis_json.h"

namespace radar::lint {
namespace {

std::vector<std::string> RulesOf(const std::vector<Violation>& violations) {
  std::vector<std::string> rules;
  rules.reserve(violations.size());
  for (const auto& v : violations) rules.push_back(v.rule);
  return rules;
}

bool HasRule(const std::vector<Violation>& violations,
             const std::string& rule) {
  const auto rules = RulesOf(violations);
  return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

FileKind Header() { return {/*is_header=*/true, false}; }
FileKind Source() { return {/*is_header=*/false, false}; }

// ---------------------------------------------------------------------
// Comment/string stripping
// ---------------------------------------------------------------------

TEST(StripTest, BlanksLineCommentsButKeepsNewlines) {
  const std::string stripped =
      StripCommentsAndStrings("int a;  // rand()\nint b;\n");
  EXPECT_EQ(stripped.find("rand"), std::string::npos);
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'), 2);
  EXPECT_NE(stripped.find("int b;"), std::string::npos);
}

TEST(StripTest, BlanksBlockCommentsAcrossLines) {
  const std::string stripped =
      StripCommentsAndStrings("/* rand()\n   assert(x) */ int a;\n");
  EXPECT_EQ(stripped.find("rand"), std::string::npos);
  EXPECT_EQ(stripped.find("assert"), std::string::npos);
  EXPECT_NE(stripped.find("int a;"), std::string::npos);
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'), 2);
}

TEST(StripTest, BlanksStringAndCharLiteralBodies) {
  const std::string stripped = StripCommentsAndStrings(
      "auto s = \"call rand() now\"; char c = 'x';\n");
  EXPECT_EQ(stripped.find("rand"), std::string::npos);
  EXPECT_EQ(stripped.find('x'), std::string::npos);
}

TEST(StripTest, EscapedQuoteDoesNotEndString) {
  const std::string stripped =
      StripCommentsAndStrings("auto s = \"a \\\" rand() b\"; int k;\n");
  EXPECT_EQ(stripped.find("rand"), std::string::npos);
  EXPECT_NE(stripped.find("int k;"), std::string::npos);
}

TEST(StripTest, RawStringBlankedEntirely) {
  // The old state machine treated \" inside a raw string as an escape,
  // mis-tracked the terminator, and could leave literal text visible.
  const std::string stripped = StripCommentsAndStrings(
      "auto s = R\"(a \\\" rand() b)\"; int k;\n");
  EXPECT_EQ(stripped.find("rand"), std::string::npos);
  EXPECT_NE(stripped.find("int k;"), std::string::npos);
}

TEST(StripTest, RawStringDelimiterLookalikeDoesNotSwallowCode) {
  // )" inside an R"ab(...)ab" literal is NOT the terminator; the code
  // after the real terminator must survive stripping.
  const std::string stripped = StripCommentsAndStrings(
      "auto s = R\"ab(x)\" inside)ab\"; int keep_me;\n");
  EXPECT_EQ(stripped.find("inside"), std::string::npos);
  EXPECT_NE(stripped.find("int keep_me;"), std::string::npos);
}

TEST(StripTest, SplicedStringKeepsNewlineCount) {
  // The old stripper consumed the backslash-newline inside a string
  // without re-emitting the newline, shifting every later line number.
  const std::string stripped =
      StripCommentsAndStrings("auto s = \"ab\\\ncd\"; int k;\n");
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'), 2);
  EXPECT_NE(stripped.find("int k;"), std::string::npos);
}

TEST(StripTest, SplicedLineCommentBlanksContinuation) {
  // A line comment ending in a backslash continues onto the next physical
  // line; the old stripper ended it at the newline and leaked the
  // continuation as code.
  const std::string stripped =
      StripCommentsAndStrings("// note \\\nrand()\nint k;\n");
  EXPECT_EQ(stripped.find("rand"), std::string::npos);
  EXPECT_NE(stripped.find("int k;"), std::string::npos);
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'), 3);
}

// ---------------------------------------------------------------------
// Banned constructs
// ---------------------------------------------------------------------

TEST(LintSourceTest, FlagsRandAndSrandCalls) {
  EXPECT_TRUE(HasRule(LintSource("f.cpp", "int x = rand() % 7;\n", Source()),
                      "banned-rand"));
  EXPECT_TRUE(HasRule(LintSource("f.cpp", "srand(42);\n", Source()),
                      "banned-rand"));
}

TEST(LintSourceTest, IgnoresIdentifiersContainingRand) {
  EXPECT_FALSE(HasRule(
      LintSource("f.cpp", "int strand(int); int x = strand(3);\n", Source()),
      "banned-rand"));
  EXPECT_FALSE(HasRule(
      LintSource("f.cpp", "double rand_ratio = Grand(3);\n", Source()),
      "banned-rand"));
}

TEST(LintSourceTest, FlagsCoutAndCerr) {
  EXPECT_TRUE(HasRule(LintSource("f.cpp", "std::cout << 1;\n", Source()),
                      "banned-iostream"));
  EXPECT_TRUE(HasRule(LintSource("f.cpp", "std::cerr << 1;\n", Source()),
                      "banned-iostream"));
}

TEST(LintSourceTest, FlagsRawAssertButNotStaticAssert) {
  EXPECT_TRUE(HasRule(LintSource("f.cpp", "assert(n > 0);\n", Source()),
                      "banned-assert"));
  EXPECT_FALSE(HasRule(
      LintSource("f.cpp", "static_assert(sizeof(int) == 4);\n", Source()),
      "banned-assert"));
  EXPECT_FALSE(HasRule(LintSource("f.cpp", "RADAR_CHECK(n > 0);\n", Source()),
                       "banned-assert"));
}

TEST(LintSourceTest, FlagsUsingNamespaceInHeadersOnly) {
  EXPECT_TRUE(HasRule(
      LintSource("f.h", "#pragma once\nusing namespace std;\n", Header()),
      "using-namespace-in-header"));
  EXPECT_FALSE(HasRule(LintSource("f.cpp", "using namespace std;\n", Source()),
                       "using-namespace-in-header"));
}

TEST(LintSourceTest, RequiresPragmaOnceInHeaders) {
  EXPECT_TRUE(HasRule(LintSource("f.h", "int f();\n", Header()),
                      "missing-pragma-once"));
  EXPECT_FALSE(HasRule(LintSource("f.h", "#pragma once\nint f();\n", Header()),
                       "missing-pragma-once"));
  // A #pragma once that only appears inside a comment does not count.
  EXPECT_TRUE(HasRule(
      LintSource("f.h", "// #pragma once\nint f();\n", Header()),
      "missing-pragma-once"));
}

// ---------------------------------------------------------------------
// Thread confinement
// ---------------------------------------------------------------------

TEST(LintSourceTest, FlagsThreadCreationOutsideRunner) {
  EXPECT_TRUE(HasRule(
      LintSource("f.cpp", "std::thread t([] {});\n", Source()),
      "thread-confinement"));
  EXPECT_TRUE(HasRule(
      LintSource("f.cpp", "std::jthread t([] {});\n", Source()),
      "thread-confinement"));
  EXPECT_TRUE(HasRule(LintSource("f.cpp", "worker.detach();\n", Source()),
                      "thread-confinement"));
  EXPECT_TRUE(HasRule(
      LintSource("f.h", "#pragma once\nstd::thread member_;\n", Header()),
      "thread-confinement"));
}

TEST(LintSourceTest, ThreadConfinementQuietOnLookalikes) {
  // std::this_thread (sleeps, yields) is not thread creation.
  EXPECT_FALSE(HasRule(
      LintSource("f.cpp", "std::this_thread::yield();\n", Source()),
      "thread-confinement"));
  // Identifiers merely containing "detach" are not detach() calls.
  EXPECT_FALSE(HasRule(
      LintSource("f.cpp", "bool detached = IsDetached(x);\n", Source()),
      "thread-confinement"));
  EXPECT_FALSE(HasRule(
      LintSource("f.cpp", "#include <thread>\n", Source()),
      "thread-confinement"));
}

TEST(LintSourceTest, RunnerFilesMayCreateThreads) {
  FileKind runner_kind;
  runner_kind.allow_threads = true;
  EXPECT_FALSE(HasRule(
      LintSource("src/runner/thread_pool.cpp",
                 "std::thread t([] {});\nt.detach();\n", runner_kind),
      "thread-confinement"));
}

// ---------------------------------------------------------------------
// std::function ban in simulation code
// ---------------------------------------------------------------------

TEST(LintSourceTest, FlagsStdFunctionInSimCode) {
  FileKind sim_kind;
  sim_kind.forbid_std_function = true;
  EXPECT_TRUE(HasRule(
      LintSource("src/sim/event_queue.h",
                 "std::function<void()> fn_;\n", sim_kind),
      "sim-no-std-function"));
}

TEST(LintSourceTest, StdFunctionAllowedOutsideSim) {
  // Driver config callbacks are cold-path; the ban is scoped to src/sim/.
  EXPECT_FALSE(HasRule(
      LintSource("src/driver/config.h",
                 "#pragma once\nstd::function<int(int)> hook;\n", Header()),
      "sim-no-std-function"));
}

TEST(LintSourceTest, StdFunctionBanQuietOnLookalikes) {
  FileKind sim_kind;
  sim_kind.forbid_std_function = true;
  EXPECT_FALSE(HasRule(
      LintSource("src/sim/simulator.h",
                 "using PeriodicFn = InplaceFunction<void(SimTime), 64>;\n",
                 sim_kind),
      "sim-no-std-function"));
  // Mentions inside comments are stripped before token checks.
  EXPECT_FALSE(HasRule(
      LintSource("src/sim/inplace_function.h",
                 "#pragma once\n// replaces std::function on the hot path\n",
                 sim_kind),
      "sim-no-std-function"));
}

// ---------------------------------------------------------------------
// Shard confinement: synchronization primitives in src/sim/
// ---------------------------------------------------------------------

TEST(LintSourceTest, FlagsSyncPrimitivesInSimCode) {
  FileKind sim_kind;
  sim_kind.forbid_std_function = true;
  EXPECT_TRUE(HasRule(
      LintSource("src/sim/bad.cpp", "std::mutex lock_;\n", sim_kind),
      "shard-confinement"));
  EXPECT_TRUE(HasRule(
      LintSource("src/sim/bad.cpp", "std::atomic<int> n_{0};\n", sim_kind),
      "shard-confinement"));
  EXPECT_TRUE(HasRule(
      LintSource("src/sim/bad.cpp",
                 "void F() { std::lock_guard<std::mutex> g(m_); }\n",
                 sim_kind),
      "shard-confinement"));
}

TEST(LintSourceTest, SyncAllowedOutsideSim) {
  // The rule is scoped to src/sim/: src/runner/, which owns the thread
  // pool, uses the same tokens freely.
  EXPECT_FALSE(HasRule(
      LintSource("src/runner/pool.cpp", "std::mutex lock_;\n", Source()),
      "shard-confinement"));
}

TEST(LintSourceTest, ShardConfinementQuietOnLookalikes) {
  FileKind sim_kind;
  sim_kind.forbid_std_function = true;
  // Not std:: qualified, and mentions in comments, do not fire.
  EXPECT_FALSE(HasRule(
      LintSource("src/sim/x.cpp",
                 "int mutex = 0;\n// std::mutex would be a violation\n",
                 sim_kind),
      "shard-confinement"));
}

// ---------------------------------------------------------------------
// Fault-model confinement
// ---------------------------------------------------------------------

TEST(LintSourceTest, FlagsFaultParametersOutsideFaultModule) {
  EXPECT_TRUE(HasRule(
      LintSource("src/core/x.cpp", "double mtbf_s = 600.0;\n", Source()),
      "fault-confinement"));
  EXPECT_TRUE(HasRule(
      LintSource("src/driver/x.cpp", "config.mttr = 45.0;\n", Source()),
      "fault-confinement"));
  EXPECT_TRUE(HasRule(
      LintSource("src/net/x.h", "#pragma once\ndouble drop_prob[4];\n",
                 Header()),
      "fault-confinement"));
  EXPECT_TRUE(HasRule(
      LintSource("src/core/x.cpp", "double request_delay_prob = 0.5;\n",
                 Source()),
      "fault-confinement"));
}

TEST(LintSourceTest, FaultModuleMayNameFaultParameters) {
  FileKind fault_kind;
  fault_kind.allow_fault_injection = true;
  EXPECT_FALSE(HasRule(
      LintSource("src/fault/fault_plan.h",
                 "#pragma once\ndouble mtbf_s = 0.0; double mttr_s = 0.0;\n"
                 "double drop_prob[4] = {};\n",
                 fault_kind),
      "fault-confinement"));
}

TEST(LintSourceTest, FaultConfinementQuietOnLookalikes) {
  // Identifier-boundary matching: these merely contain the tokens.
  EXPECT_FALSE(HasRule(
      LintSource("src/core/x.cpp", "double mtbf_scaled = Scale();\n",
                 Source()),
      "fault-confinement"));
  EXPECT_FALSE(HasRule(
      LintSource("src/core/x.cpp", "int backdrop_probe = 1;\n", Source()),
      "fault-confinement"));
  // Prose mentions are stripped with the comments.
  EXPECT_FALSE(HasRule(
      LintSource("src/driver/x.cpp", "// tune mtbf via the fault plan\n",
                 Source()),
      "fault-confinement"));
}

// ---------------------------------------------------------------------
// Hash-map ban in core protocol code
// ---------------------------------------------------------------------

TEST(LintSourceTest, FlagsHashMapsInCoreCode) {
  FileKind core_kind;
  core_kind.forbid_hash_maps = true;
  EXPECT_TRUE(HasRule(
      LintSource("src/core/x.h",
                 "#pragma once\nstd::unordered_map<ObjectId, int> m_;\n",
                 core_kind),
      "core-no-hash-maps"));
  EXPECT_TRUE(HasRule(
      LintSource("src/core/x.cpp", "std::map<NodeId, double> load_;\n",
                 core_kind),
      "core-no-hash-maps"));
}

TEST(LintSourceTest, HashMapsAllowedOutsideCore) {
  // The ban is scoped to src/core/: cold-path modules (io, analysis) may
  // still pick the container that reads best.
  EXPECT_FALSE(HasRule(
      LintSource("src/analysis/x.cpp",
                 "std::unordered_map<std::string, int> counts;\n", Source()),
      "core-no-hash-maps"));
}

TEST(LintSourceTest, HashMapBanQuietOnLookalikes) {
  FileKind core_kind;
  core_kind.forbid_hash_maps = true;
  // SlabMap and prose mentions must not trip the token check.
  EXPECT_FALSE(HasRule(
      LintSource("src/core/x.h",
                 "#pragma once\nSlabMap<ReplicaRecord> records_;\n",
                 core_kind),
      "core-no-hash-maps"));
  EXPECT_FALSE(HasRule(
      LintSource("src/core/x.cpp",
                 "// replaced std::unordered_map with SlabMap (§12)\n",
                 core_kind),
      "core-no-hash-maps"));
}

// ---------------------------------------------------------------------
// RNG confinement in src/net/
// ---------------------------------------------------------------------

TEST(LintSourceTest, FlagsRngInNetCode) {
  FileKind net_kind;
  net_kind.forbid_net_rng = true;
  EXPECT_TRUE(HasRule(
      LintSource("src/net/routing.cpp", "Rng rng(7);\n", net_kind),
      "net-rng-confinement"));
  EXPECT_TRUE(HasRule(
      LintSource("src/net/graph.cpp",
                 "std::uint64_t s = 1; auto x = SplitMix64(s);\n", net_kind),
      "net-rng-confinement"));
}

TEST(LintSourceTest, TopologyGeneratorMayUseRng) {
  // net/topology_gen.cpp is the one src/net/ file classified without the
  // flag: the generator owns all net-side randomness.
  EXPECT_FALSE(HasRule(
      LintSource("src/net/topology_gen.cpp", "Rng rng(7);\n", Source()),
      "net-rng-confinement"));
}

TEST(LintSourceTest, NetRngBanQuietOnLookalikesAndOtherModules) {
  FileKind net_kind;
  net_kind.forbid_net_rng = true;
  // Prose mentions and identifier-boundary lookalikes stay quiet.
  EXPECT_FALSE(HasRule(
      LintSource("src/net/routing.cpp",
                 "// SplitMix64-style mix of source, via, and parent\n"
                 "std::uint64_t RngLikeMix(std::uint64_t z) { return z; }\n",
                 net_kind),
      "net-rng-confinement"));
  // Other modules (workloads, fault plans) draw from Rng by design.
  EXPECT_FALSE(HasRule(
      LintSource("src/workload/trace.cpp", "Rng rng(7);\n", Source()),
      "net-rng-confinement"));
}

// ---------------------------------------------------------------------
// Protocol-literal audit
// ---------------------------------------------------------------------

TEST(LintSourceTest, FlagsProtocolThresholdLiterals) {
  EXPECT_TRUE(HasRule(
      LintSource("f.cpp", "double migr_ratio = 0.6;\n", Source()),
      "protocol-literal"));
  EXPECT_TRUE(HasRule(
      LintSource("f.cpp", "double repl = 1.0 / 6.0;\n", Source()),
      "protocol-literal"));
  EXPECT_TRUE(HasRule(LintSource("f.cpp", "unsigned k = 6u;\n", Source()),
                      "protocol-literal"));
  EXPECT_TRUE(HasRule(LintSource("f.cpp", "double u = 0.03;\n", Source()),
                      "protocol-literal"));
  EXPECT_TRUE(HasRule(LintSource("f.cpp", "double m = 0.18;\n", Source()),
                      "protocol-literal"));
}

TEST(LintSourceTest, IgnoresNearbyNonThresholdNumbers) {
  EXPECT_FALSE(HasRule(LintSource("f.cpp", "double x = 0.66;\n", Source()),
                       "protocol-literal"));
  EXPECT_FALSE(HasRule(LintSource("f.cpp", "double x = 10.6;\n", Source()),
                       "protocol-literal"));
  EXPECT_FALSE(HasRule(LintSource("f.cpp", "unsigned x = 16u;\n", Source()),
                       "protocol-literal"));
  EXPECT_FALSE(HasRule(LintSource("f.cpp", "double x = 0.035;\n", Source()),
                       "protocol-literal"));
  EXPECT_FALSE(HasRule(LintSource("f.cpp", "double x = 1.0 / 60.0;\n",
                                  Source()),
                       "protocol-literal"));
}

TEST(LintSourceTest, CommentedThresholdsAreFine) {
  EXPECT_FALSE(HasRule(
      LintSource("f.cpp", "// the paper uses MIGR_RATIO = 0.6 here\n",
                 Source()),
      "protocol-literal"));
}

TEST(LintSourceTest, ParamsHeaderMayDefineThresholds) {
  FileKind params_kind;
  params_kind.is_header = true;
  params_kind.allow_protocol_literals = true;
  EXPECT_FALSE(HasRule(
      LintSource("src/core/params.h",
                 "#pragma once\ndouble migr_ratio = 0.6;\n", params_kind),
      "protocol-literal"));
}

TEST(LintSourceTest, SplicedBannedCallIsStillSeen) {
  // Token-level analysis sees through the phase-2 splice a line/regex
  // checker cannot: "ra\<newline>nd()" is one rand token.
  EXPECT_TRUE(HasRule(
      LintSource("f.cpp", "int x = ra\\\nnd();\n", Source()), "banned-rand"));
}

// ---------------------------------------------------------------------
// Deferred-concurrency confinement (std::async / future / promise / omp)
// ---------------------------------------------------------------------

TEST(LintSourceTest, FlagsDeferredConcurrencyOutsideRunner) {
  EXPECT_TRUE(HasRule(
      LintSource("f.cpp", "auto h = std::async(Work);\n", Source()),
      "thread-confinement"));
  EXPECT_TRUE(HasRule(
      LintSource("f.cpp", "std::future<int> pending_;\n", Source()),
      "thread-confinement"));
  EXPECT_TRUE(HasRule(
      LintSource("f.cpp", "std::promise<int> p;\n", Source()),
      "thread-confinement"));
  EXPECT_TRUE(HasRule(
      LintSource("f.cpp", "#pragma omp parallel for\n", Source()),
      "thread-confinement"));
}

TEST(LintSourceTest, DeferredConcurrencyAllowedInRunner) {
  FileKind runner_kind;
  runner_kind.allow_threads = true;
  EXPECT_FALSE(HasRule(
      LintSource("src/runner/thread_pool.cpp",
                 "std::future<int> f = std::async(Work);\n"
                 "std::promise<int> p;\n#pragma omp parallel\n",
                 runner_kind),
      "thread-confinement"));
}

TEST(LintSourceTest, DeferredConcurrencyQuietOnLookalikes) {
  // `omp` as a plain identifier (no #pragma) and non-std future-like
  // names are not concurrency.
  EXPECT_FALSE(HasRule(LintSource("f.cpp", "int omp = 1;\n", Source()),
                       "thread-confinement"));
  EXPECT_FALSE(HasRule(
      LintSource("f.cpp", "my::future<int> pending_;\n", Source()),
      "thread-confinement"));
}

// ---------------------------------------------------------------------
// Nondeterminism audit
// ---------------------------------------------------------------------

TEST(LintSourceTest, FlagsRangedForOverUnorderedContainer) {
  EXPECT_TRUE(HasRule(
      LintSource("f.cpp",
                 "std::unordered_map<int, double> load_;\n"
                 "double Total() {\n"
                 "  double t = 0;\n"
                 "  for (const auto& [k, v] : load_) t += v;\n"
                 "  return t;\n"
                 "}\n",
                 Source()),
      "nondet-unordered-iteration"));
}

TEST(LintSourceTest, FlagsBeginIterationOverUnorderedContainer) {
  EXPECT_TRUE(HasRule(
      LintSource("f.cpp",
                 "void F(const std::unordered_set<int>& seen) {\n"
                 "  auto it = seen.begin();\n"
                 "  (void)it;\n"
                 "}\n",
                 Source()),
      "nondet-unordered-iteration"));
}

TEST(LintSourceTest, UnorderedLookupAndVectorIterationAreFine) {
  // Point lookups don't depend on iteration order.
  EXPECT_FALSE(HasRule(
      LintSource("f.cpp",
                 "std::unordered_map<int, double> load_;\n"
                 "double Get(int k) { return load_[k]; }\n",
                 Source()),
      "nondet-unordered-iteration"));
  // Ordered containers iterate deterministically.
  EXPECT_FALSE(HasRule(
      LintSource("f.cpp",
                 "std::vector<int> v_;\n"
                 "int Sum() {\n"
                 "  int t = 0;\n"
                 "  for (int x : v_) t += x;\n"
                 "  return t + *v_.begin();\n"
                 "}\n",
                 Source()),
      "nondet-unordered-iteration"));
}

TEST(LintSourceTest, FlagsPointerKeyedOrderedContainers) {
  EXPECT_TRUE(HasRule(
      LintSource("f.cpp", "std::set<Node*> live_;\n", Source()),
      "nondet-pointer-key"));
  EXPECT_TRUE(HasRule(
      LintSource("f.cpp", "std::map<const Node*, int> refs_;\n", Source()),
      "nondet-pointer-key"));
  // Id-keyed containers are deterministic; pointer VALUES are fine.
  EXPECT_FALSE(HasRule(
      LintSource("f.cpp", "std::map<int, Node*> by_id_;\n", Source()),
      "nondet-pointer-key"));
  EXPECT_FALSE(HasRule(
      LintSource("f.cpp", "std::set<NodeId> ids_;\n", Source()),
      "nondet-pointer-key"));
}

TEST(LintSourceTest, FlagsStdHashOfPointerType) {
  EXPECT_TRUE(HasRule(
      LintSource("f.cpp", "std::size_t h = std::hash<Node*>{}(n);\n",
                 Source()),
      "nondet-pointer-hash"));
  EXPECT_FALSE(HasRule(
      LintSource("f.cpp", "std::size_t h = std::hash<int>{}(k);\n", Source()),
      "nondet-pointer-hash"));
}

TEST(LintSourceTest, FlagsWallClockOutsideRunner) {
  EXPECT_TRUE(HasRule(
      LintSource("f.cpp",
                 "auto t = std::chrono::steady_clock::now();\n", Source()),
      "nondet-wall-clock"));
  EXPECT_TRUE(HasRule(
      LintSource("f.cpp", "long t = time(nullptr);\n", Source()),
      "nondet-wall-clock"));
}

TEST(LintSourceTest, RunnerMayReadWallClocks) {
  FileKind runner_kind;
  runner_kind.allow_threads = true;
  runner_kind.allow_wall_clock = true;
  EXPECT_FALSE(HasRule(
      LintSource("src/runner/sweep_runner.cpp",
                 "auto t = std::chrono::steady_clock::now();\n", runner_kind),
      "nondet-wall-clock"));
}

TEST(LintSourceTest, WallClockQuietOnLookalikes) {
  // The simulation's own clock and time-like identifiers are fine.
  EXPECT_FALSE(HasRule(
      LintSource("f.cpp", "SimTime now = sim_.Now();\n", Source()),
      "nondet-wall-clock"));
  EXPECT_FALSE(HasRule(
      LintSource("f.cpp", "double service_time = ServiceTime(x);\n",
                 Source()),
      "nondet-wall-clock"));
  EXPECT_FALSE(HasRule(
      LintSource("f.cpp", "#include <ctime>\n", Source()),
      "nondet-wall-clock"));
}

// ---------------------------------------------------------------------
// Transport confinement: syscalls stay behind the Transport seam
// ---------------------------------------------------------------------

TEST(LintSourceTest, FlagsSocketSyscallsOutsideTransport) {
  EXPECT_TRUE(HasRule(
      LintSource("src/core/x.cpp", "int fd = socket(2, 1, 0);\n", Source()),
      "transport-confinement"));
  EXPECT_TRUE(HasRule(
      LintSource("src/driver/x.cpp", "poll(fds, 3, 100);\n", Source()),
      "transport-confinement"));
  EXPECT_TRUE(HasRule(
      LintSource("src/sim/x.cpp", "fcntl(fd, F_SETFL, flags);\n", Source()),
      "transport-confinement"));
  EXPECT_TRUE(HasRule(
      LintSource("src/workload/x.cpp", "send(fd, buf, n, 0);\n", Source()),
      "transport-confinement"));
}

TEST(LintSourceTest, TransportAndBinlogMaySyscallAndReadClocks) {
  FileKind transport_kind;
  transport_kind.allow_transport_syscalls = true;
  transport_kind.allow_wall_clock = true;
  EXPECT_FALSE(HasRule(
      LintSource("src/transport/tcp_transport.cpp",
                 "int fd = socket(2, 1, 0);\npoll(fds, 3, 100);\n"
                 "clock_gettime(0, &ts);\n",
                 transport_kind),
      "transport-confinement"));
  EXPECT_FALSE(HasRule(
      LintSource("src/binlog/binlog.cpp", "fsync(fd_);\nftruncate(fd_, 0);\n",
                 transport_kind),
      "transport-confinement"));
}

TEST(LintSourceTest, TransportConfinementQuietOnLookalikes) {
  // Method calls and non-call mentions use different tokens or no call
  // position: the brains' Transport::Send / PollOnce wrappers are fine.
  EXPECT_FALSE(HasRule(
      LintSource("f.cpp", "transport_->Send(to, msg);\n", Source()),
      "transport-confinement"));
  EXPECT_FALSE(HasRule(
      LintSource("f.cpp", "transport.PollOnce(20);\n", Source()),
      "transport-confinement"));
  EXPECT_FALSE(HasRule(
      LintSource("f.cpp", "// socket() is confined to src/transport/\n",
                 Source()),
      "transport-confinement"));
  EXPECT_FALSE(HasRule(
      LintSource("f.cpp", "bool shutdown = node.shutdown_requested();\n",
                 Source()),
      "transport-confinement"));
}

// ---------------------------------------------------------------------
// Mutable-global audit
// ---------------------------------------------------------------------

TEST(LintSourceTest, FlagsPlainMutableGlobal) {
  EXPECT_TRUE(HasRule(
      LintSource("src/core/x.cpp", "int g_count = 0;\n", Source()),
      "mutable-global"));
  EXPECT_TRUE(HasRule(
      LintSource("src/core/x.cpp",
                 "namespace radar {\nnamespace {\nstd::vector<int> g_list;\n"
                 "}\n}\n",
                 Source()),
      "mutable-global"));
  // A declarator after a type body is a global of that (possibly
  // anonymous) type.
  EXPECT_TRUE(HasRule(
      LintSource("src/core/x.cpp", "struct { int hits; } g_stats;\n",
                 Source()),
      "mutable-global"));
}

TEST(LintSourceTest, FlagsAtomicGlobalNotInWhitelist) {
  // Race-safe is necessary but not sufficient: every piece of shared
  // state must also be listed, with the reason it exists.
  EXPECT_TRUE(HasRule(
      LintSource("src/core/x.cpp", "std::atomic<int> g_hits{0};\n", Source()),
      "mutable-global"));
}

TEST(LintSourceTest, WhitelistedAtomicGlobalPasses) {
  // The seed whitelist entry: common/log.cpp g_level.
  EXPECT_FALSE(HasRule(
      LintSource("src/common/log.cpp",
                 "namespace radar {\nnamespace {\n"
                 "std::atomic<LogLevel> g_level{LogLevel::kWarn};\n"
                 "}\n}\n",
                 Source()),
      "mutable-global"));
}

TEST(LintSourceTest, FlagsFunctionLocalStatic) {
  EXPECT_TRUE(HasRule(
      LintSource("src/core/x.cpp",
                 "int NextId() {\n  static int g_next = 0;\n"
                 "  return ++g_next;\n}\n",
                 Source()),
      "mutable-global"));
}

TEST(LintSourceTest, ImmutableAndConfinedStateIsFine) {
  EXPECT_FALSE(HasRule(
      LintSource("src/core/x.cpp",
                 "const int kMax = 3;\n"
                 "constexpr double kRatio = 0.25;\n"
                 "inline constexpr char kName[] = \"radar\";\n"
                 "static const char* const kTags[] = {\"a\", \"b\"};\n"
                 "thread_local int t_depth = 0;\n"
                 "extern int g_defined_elsewhere;\n"
                 "int Add(int a, int b) { return a + b; }\n"
                 "int F() { static const int kTable[] = {1, 2}; "
                 "return kTable[0]; }\n",
                 Source()),
      "mutable-global"));
}

TEST(LintSourceTest, ClassMembersAreNotGlobals) {
  EXPECT_FALSE(HasRule(
      LintSource("src/core/x.h",
                 "#pragma once\nclass Counter {\n public:\n"
                 "  void Bump() { ++count_; }\n private:\n"
                 "  int count_ = 0;\n};\n",
                 Header()),
      "mutable-global"));
}

TEST(AnalyzeSourceTest, RecordsGlobalsInInventory) {
  Analysis analysis;
  AnalyzeSource("src/common/log.cpp",
                "namespace radar {\nnamespace {\n"
                "std::atomic<LogLevel> g_level{LogLevel::kWarn};\n"
                "}\n}\n",
                FileKind{}, DefaultGlobalWhitelist(), &analysis);
  ASSERT_EQ(analysis.mutable_globals.size(), 1u);
  EXPECT_EQ(analysis.mutable_globals[0].name, "g_level");
  EXPECT_EQ(analysis.mutable_globals[0].line, 3);
  EXPECT_TRUE(analysis.mutable_globals[0].race_safe);
  EXPECT_TRUE(analysis.mutable_globals[0].whitelisted);
  EXPECT_FALSE(analysis.mutable_globals[0].function_local);
  EXPECT_TRUE(analysis.violations.empty());
}

// ---------------------------------------------------------------------
// Hot-path allocation audit
// ---------------------------------------------------------------------

TEST(LintSourceTest, FlagsAllocationInsideHotRegion) {
  EXPECT_TRUE(HasRule(
      LintSource("f.cpp",
                 "// RADAR_HOT: dispatch\n"
                 "Event* F() { return new Event; }\n"
                 "// RADAR_HOT_END\n",
                 Source()),
      "hot-alloc"));
  EXPECT_TRUE(HasRule(
      LintSource("f.cpp",
                 "// RADAR_HOT: dispatch\n"
                 "auto p = std::make_unique<Event>();\n"
                 "// RADAR_HOT_END\n",
                 Source()),
      "hot-alloc"));
  EXPECT_TRUE(HasRule(
      LintSource("f.cpp",
                 "// RADAR_HOT: dispatch\n"
                 "std::function<void()> fn = [] {};\n"
                 "// RADAR_HOT_END\n",
                 Source()),
      "hot-alloc"));
}

TEST(LintSourceTest, AllocationOutsideHotRegionIsFine) {
  EXPECT_FALSE(HasRule(
      LintSource("f.cpp",
                 "Event* F() { return new Event; }\n"
                 "// RADAR_HOT: dispatch\n"
                 "int G() { return 1; }\n"
                 "// RADAR_HOT_END\n",
                 Source()),
      "hot-alloc"));
}

TEST(LintSourceTest, PlacementNewInHotRegionIsFine) {
  // Placement new constructs into existing storage — no allocation.
  EXPECT_FALSE(HasRule(
      LintSource("f.cpp",
                 "// RADAR_HOT: slab\n"
                 "void F(void* slot) { new (slot) Event(); }\n"
                 "// RADAR_HOT_END\n",
                 Source()),
      "hot-alloc"));
}

TEST(LintSourceTest, ProseMentionDoesNotOpenHotRegion) {
  // Only a comment STARTING with the marker opens a region; prose that
  // mentions RADAR_HOT regions (like the analyzer's own headers) doesn't.
  EXPECT_FALSE(HasRule(
      LintSource("f.cpp",
                 "// allocations inside // RADAR_HOT regions are flagged\n"
                 "Event* F() { return new Event; }\n",
                 Source()),
      "hot-alloc"));
}

TEST(LintSourceTest, UnbalancedHotMarkersAreViolations) {
  EXPECT_TRUE(HasRule(
      LintSource("f.cpp", "// RADAR_HOT: never closed\nint x = 1;\n",
                 Source()),
      "hot-region"));
  EXPECT_TRUE(HasRule(
      LintSource("f.cpp", "int x = 1;\n// RADAR_HOT_END\n", Source()),
      "hot-region"));
}

TEST(AnalyzeSourceTest, RecordsHotRegionsWithLabels) {
  Analysis analysis;
  AnalyzeSource("src/sim/x.cpp",
                "int A();\n// RADAR_HOT: dispatch loop\nint B();\n"
                "// RADAR_HOT_END\n",
                FileKind{}, DefaultGlobalWhitelist(), &analysis);
  ASSERT_EQ(analysis.hot_regions.size(), 1u);
  EXPECT_EQ(analysis.hot_regions[0].label, "dispatch loop");
  EXPECT_EQ(analysis.hot_regions[0].begin_line, 2);
  EXPECT_EQ(analysis.hot_regions[0].end_line, 4);
  EXPECT_TRUE(analysis.violations.empty());
}

// ---------------------------------------------------------------------
// radar.analysis/1 report
// ---------------------------------------------------------------------

TEST(AnalysisJsonTest, ReportRoundTripsAndEnumeratesInventory) {
  Analysis analysis;
  AnalyzeSource("src/common/log.cpp",
                "namespace {\nstd::atomic<int> g_level{0};\n}\n"
                "// RADAR_HOT: probe\nint F() { return 1; }\n"
                "// RADAR_HOT_END\n",
                FileKind{}, DefaultGlobalWhitelist(), &analysis);
  analysis.files_scanned = 1;
  const driver::JsonValue doc =
      AnalysisJson(analysis, {"src"}, DefaultGlobalWhitelist());

  std::string error;
  const auto parsed = driver::ParseJson(doc.Dump(2), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->Find("schema")->string_value(), "radar.analysis/1");
  EXPECT_EQ(parsed->Find("files_scanned")->int_value(), 1);
  EXPECT_EQ(parsed->Find("violation_count")->int_value(), 0);
  ASSERT_EQ(parsed->Find("mutable_globals")->array().size(), 1u);
  const auto& global = parsed->Find("mutable_globals")->array()[0];
  EXPECT_EQ(global.Find("name")->string_value(), "g_level");
  EXPECT_TRUE(global.Find("race_safe")->bool_value());
  EXPECT_TRUE(global.Find("whitelisted")->bool_value());
  ASSERT_EQ(parsed->Find("hot_regions")->array().size(), 1u);
  EXPECT_EQ(parsed->Find("hot_regions")->array()[0].Find("label")
                ->string_value(),
            "probe");
  // Every whitelist entry appears, with its hit flag.
  ASSERT_EQ(parsed->Find("whitelist")->array().size(),
            DefaultGlobalWhitelist().size());
  EXPECT_TRUE(parsed->Find("whitelist")->array()[0].Find("hit")
                  ->bool_value());
}

TEST(LintSourceTest, ViolationsCarryFileAndLine) {
  const auto violations =
      LintSource("src/core/x.cpp", "int F() {\n  return rand();\n}\n",
                 Source());
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].file, "src/core/x.cpp");
  EXPECT_EQ(violations[0].line, 2);
  const std::string formatted = FormatViolation(violations[0]);
  EXPECT_NE(formatted.find("src/core/x.cpp:2"), std::string::npos);
  EXPECT_NE(formatted.find("banned-rand"), std::string::npos);
}

// ---------------------------------------------------------------------
// Tree walking over the checked-in violating fixture
// ---------------------------------------------------------------------

TEST(LintTreeTest, RejectsViolatingFixture) {
  const auto violations = LintTree(std::string(RADAR_LINT_FIXTURE_DIR) +
                                   "/bad/src");
  EXPECT_TRUE(HasRule(violations, "banned-rand"));
  EXPECT_TRUE(HasRule(violations, "banned-iostream"));
  EXPECT_TRUE(HasRule(violations, "banned-assert"));
  EXPECT_TRUE(HasRule(violations, "protocol-literal"));
  EXPECT_TRUE(HasRule(violations, "using-namespace-in-header"));
  EXPECT_TRUE(HasRule(violations, "missing-pragma-once"));
  EXPECT_TRUE(HasRule(violations, "thread-confinement"));
  EXPECT_TRUE(HasRule(violations, "sim-no-std-function"));
  EXPECT_TRUE(HasRule(violations, "shard-confinement"));
  EXPECT_TRUE(HasRule(violations, "fault-confinement"));
  EXPECT_TRUE(HasRule(violations, "core-no-hash-maps"));
  EXPECT_TRUE(HasRule(violations, "net-rng-confinement"));
  EXPECT_TRUE(HasRule(violations, "transport-confinement"));
  EXPECT_TRUE(HasRule(violations, "nondet-unordered-iteration"));
  EXPECT_TRUE(HasRule(violations, "nondet-pointer-key"));
  EXPECT_TRUE(HasRule(violations, "nondet-pointer-hash"));
  EXPECT_TRUE(HasRule(violations, "nondet-wall-clock"));
  EXPECT_TRUE(HasRule(violations, "mutable-global"));
  EXPECT_TRUE(HasRule(violations, "hot-alloc"));
  EXPECT_TRUE(HasRule(violations, "hot-region"));
  for (const auto& v : violations) {
    EXPECT_TRUE(v.file.rfind("src/", 0) == 0) << v.file;
  }
}

TEST(LintTreeTest, RealSourceTreeIsClean) {
  // The same property the radar_lint ctest case enforces, kept here too so
  // a plain `ctest -R lint` covers both the engine and the tree. Beyond
  // zero violations, the shared-state inventory must match the
  // whitelist exactly and the hot regions must be present and closed.
  const Analysis analysis =
      AnalyzeTree({std::string(RADAR_SOURCE_DIR) + "/src",
                   std::string(RADAR_SOURCE_DIR) + "/tools"});
  for (const auto& v : analysis.violations) {
    ADD_FAILURE() << FormatViolation(v);
  }
  EXPECT_GT(analysis.files_scanned, 50);
  ASSERT_GE(analysis.mutable_globals.size(), 1u);
  for (const auto& g : analysis.mutable_globals) {
    EXPECT_TRUE(g.race_safe && g.whitelisted) << g.file << ": " << g.name;
  }
  ASSERT_GE(analysis.hot_regions.size(), 1u);
  for (const auto& r : analysis.hot_regions) {
    EXPECT_GT(r.end_line, r.begin_line) << r.file << ": " << r.label;
    EXPECT_FALSE(r.label.empty()) << r.file;
  }
}

}  // namespace
}  // namespace radar::lint
