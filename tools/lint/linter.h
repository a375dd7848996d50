// radar_lint: project-specific static analyzer.
//
// The compiler cannot see repo conventions or the paper's protocol
// invariants; this analyzer enforces them. It is two layers (DESIGN.md
// §13): a C++ lexer (lint/lexer.h) producing a per-file token stream, and
// a set of passes that walk tokens. Rules:
//   - no rand()/srand() — all randomness goes through common/rng.h
//   - no std::cout/std::cerr in library code — use common/log.h (the
//     tools/ CLI mains are exempt: they ARE the user interface)
//   - no raw assert() — use RADAR_CHECK, which is on in every build type
//   - no `using namespace` at file scope in headers
//   - every header starts with #pragma once
//   - protocol threshold constants (0.6, 1/6, 6u-style multiples, the
//     default u/m thresholds) must live in core/params.h only
//   - thread-confinement: std::thread / std::jthread / detach(), and the
//     deferred-concurrency surface std::async / std::future /
//     std::promise / #pragma omp, only in src/runner/ — all concurrency
//     goes through the experiment engine's ThreadPool so the rest of the
//     tree stays single-threaded by construction
//   - no std::function in src/sim/ — the simulation hot path schedules
//     millions of closures per run and must stay allocation-free; event
//     code uses sim::InplaceFunction (sim/inplace_function.h)
//   - fault-model parameters (MTBF/MTTR, message drop/delay
//     probabilities) only in src/fault/
//   - no std::unordered_map / std::map in src/core/ — hot-path tables use
//     radar::SlabMap or sorted inline vectors (DESIGN.md §12)
//   - shard-confinement: std::mutex / std::atomic and the rest of the
//     <mutex>/<atomic> synchronization vocabulary are banned in all of
//     src/sim/ — a simulation's state is owned by the one thread that
//     runs it (DESIGN.md §14), so a lock there is a design smell
//   - transport-confinement: socket/poll/fcntl-family syscalls (and, via
//     the wall-clock allowance, real-clock reads) only in src/transport/
//     and src/binlog/ — every other layer talks through the Transport
//     seam (transport/transport.h), which is what lets the simulator and
//     the daemons share the protocol brains verbatim (DESIGN.md §16)
//
// Shared-state passes (`--jobs` sweeps run whole simulations concurrently
// in one process, so every run must stay a pure function of its config):
//   - nondeterminism audit: iteration over unordered containers,
//     pointer-keyed ordered containers, std::hash of pointer types, and
//     wall-clock reads outside the runner/bench timing code — each one a
//     way for results to depend on addresses or the host machine
//   - mutable-global audit: every namespace-scope or function-local
//     static mutable object must be race-safe (atomic / mutex) AND appear
//     in the shared-state whitelist, because an unlisted global is a
//     race between the concurrent runs of a sweep
//   - hot-path allocation audit: inside // RADAR_HOT regions, `new`,
//     make_shared/make_unique, and std::function construction are banned
//   - shared-state report: AnalysisJson (lint/analysis_json.h) emits
//     the radar.analysis/1 inventory of globals, whitelist hits, and hot
//     regions
//
// The logic is a library so tests can feed it sources directly; the
// radar_lint binary is a thin filesystem walker around it.
#pragma once

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace radar::lint {

struct Violation {
  std::string file;  // path label as given by the caller
  int line = 0;      // 1-based
  std::string rule;  // short rule id, e.g. "banned-rand"
  std::string message;
};

struct FileKind {
  bool is_header = false;
  /// core/params.h (and only it) may define protocol constants.
  bool allow_protocol_literals = false;
  /// src/runner/ (and only it) may create or detach threads.
  bool allow_threads = false;
  /// src/sim/ must not use std::function (hot path stays allocation-free)
  /// nor synchronization primitives (shard-confinement).
  bool forbid_std_function = false;
  /// src/fault/ (and only it) may name fault-model parameters — MTBF,
  /// MTTR, message drop/delay probabilities. Appended last so positional
  /// FileKind initializers elsewhere keep their meaning.
  bool allow_fault_injection = false;
  /// src/core/ must not use std::unordered_map / std::map — hot-path
  /// tables use radar::SlabMap or sorted inline vectors (DESIGN.md §12).
  /// Appended last so positional FileKind initializers keep their meaning.
  bool forbid_hash_maps = false;
  /// src/runner/ (timing the sweep) and bench code may read wall clocks;
  /// everything else must take time from the simulation clock so paired
  /// runs stay byte-reproducible. Appended last (see above).
  bool allow_wall_clock = false;
  /// tools/ CLI entry points may write to std::cout/std::cerr; library
  /// code may not. Appended last (see above).
  bool allow_cli_output = false;
  /// src/net/ must not use radar::Rng — net/topology_gen.cpp owns the
  /// only generator randomness, so routing, oracles, and fault epoching
  /// stay pure functions of the graph. Appended last (see above).
  bool forbid_net_rng = false;
  /// src/transport/ and src/binlog/ (and only they) may make
  /// socket/poll/fcntl-family syscalls — and they also get the wall-clock
  /// allowance (TcpTransport::Now is CLOCK_MONOTONIC). Everything else
  /// reaches the network through the Transport seam so the protocol
  /// brains stay shareable with the simulator. Appended last (see above).
  bool allow_transport_syscalls = false;
};

/// One sanctioned piece of shared mutable state. A mutable global is
/// accepted only when it is race-safe AND matches an entry here; the
/// entry's reason is carried into the radar.analysis/1 report.
struct GlobalWhitelistEntry {
  std::string file_suffix;  ///< matched against the end of the path label
  std::string name;         ///< declared identifier
  std::string reason;       ///< why this global is allowed to exist
};

/// The built-in whitelist for this repository. Seed: common/log.cpp
/// g_level (process-wide log threshold, std::atomic).
const std::vector<GlobalWhitelistEntry>& DefaultGlobalWhitelist();

/// A mutable global found by the audit (reported whether or not it is
/// whitelisted — the report enumerates ALL shared mutable state).
struct MutableGlobal {
  std::string file;
  int line = 0;
  std::string name;
  bool race_safe = false;       ///< std::atomic / mutex / once_flag type
  bool whitelisted = false;     ///< matched a GlobalWhitelistEntry
  bool function_local = false;  ///< function-local static vs namespace scope
  std::string reason;           ///< whitelist reason when whitelisted
};

/// A // RADAR_HOT ... // RADAR_HOT_END region (allocation-audited code).
struct HotRegion {
  std::string file;
  std::string label;   ///< text after "RADAR_HOT:" on the opening comment
  int begin_line = 0;
  int end_line = 0;    ///< 0 while unterminated (also a violation)
};

/// Everything the analyzer learned about one source or tree: violations
/// plus the shared-state inventory the radar.analysis/1 report serializes.
struct Analysis {
  std::vector<Violation> violations;
  std::vector<MutableGlobal> mutable_globals;
  std::vector<HotRegion> hot_regions;
  int files_scanned = 0;
};

/// Returns `content` with comments and string/char literal bodies blanked
/// out (newlines preserved, plain literals keep their delimiters), so
/// text-level consumers don't trip on prose. Built on the lexer, so raw
/// strings and backslash line-splices blank correctly.
std::string StripCommentsAndStrings(std::string_view content);

/// Runs every pass over one source, appending findings to `*out`.
void AnalyzeSource(const std::string& path_label, std::string_view content,
                   const FileKind& kind,
                   const std::vector<GlobalWhitelistEntry>& whitelist,
                   Analysis* out);

/// AnalyzeSource against the default whitelist, returning violations only.
std::vector<Violation> LintSource(const std::string& path_label,
                                  std::string_view content,
                                  const FileKind& kind);

/// Walks each root recursively, analyzing every .h/.cpp file. Paths in
/// the result are prefixed with the root's basename ("src/...",
/// "tools/..."). A root named "tools" gets the CLI profile; any other
/// root gets the src/ profile (params.h, runner/, sim/, fault/, core/
/// carve-outs).
Analysis AnalyzeTree(const std::vector<std::filesystem::path>& roots);

/// AnalyzeTree over one root, returning violations only (compatibility
/// surface for the original line-based linter's callers).
std::vector<Violation> LintTree(const std::filesystem::path& src_root);

/// Formats a violation as "file:line: [rule] message".
std::string FormatViolation(const Violation& v);

}  // namespace radar::lint
