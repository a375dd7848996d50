// radar_lint: project-specific static analyzer.
//
// The compiler cannot see repo conventions or the paper's protocol
// invariants; this analyzer enforces them. It is two layers (DESIGN.md
// §13): a C++ lexer (lint/lexer.h) producing a per-file token stream, and
// a set of passes that walk tokens:
//   - banned tokens: every rule that bans a token in some part of the
//     tree (rand(), raw assert(), std::cout outside the CLI mains, thread
//     and socket confinement, wall clocks, ...) is one or more rows of
//     kRules in lint/linter.cpp, each scoped by the file's path label;
//   - header hygiene: #pragma once, no file-scope `using namespace`;
//   - protocol literals: the paper's thresholds (0.6, 1/6, 6u, ...) only
//     in src/core/params.h;
//   - nondeterminism audit: unordered-container iteration, pointer keys,
//     std::hash of pointers;
//   - mutable-global audit: shared mutable state must be race-safe AND
//     on DefaultGlobalWhitelist, because `--jobs` sweeps run whole
//     simulations concurrently in one process;
//   - hot-path allocation audit inside // RADAR_HOT regions.
// AnalysisJson (lint/analysis_json.h) emits the radar.analysis/1
// inventory of globals, whitelist hits, and hot regions.
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

/// Runs every pass over one source, appending findings to `*out`. The
/// path label ("src/sim/simulator.h", "tools/radar_sim.cpp") decides
/// which rules apply: kRules scopes, header checks for ".h", and the
/// protocol-literal carve-out for src/core/params.h.
void AnalyzeSource(const std::string& path_label, std::string_view content,
                   Analysis* out);

/// AnalyzeSource, returning violations only.
std::vector<Violation> LintSource(const std::string& path_label,
                                  std::string_view content);

/// Walks each root recursively, analyzing every .h/.cpp file. Each file's
/// path label is the root's basename plus its path below the root
/// ("src/core/params.h", "tools/lint/linter.cpp"), so rule scopes match
/// for roots named src and tools; any other root gets no carve-outs.
Analysis AnalyzeTree(const std::vector<std::filesystem::path>& roots);

/// Formats a violation as "file:line: [rule] message".
std::string FormatViolation(const Violation& v);

}  // namespace radar::lint
