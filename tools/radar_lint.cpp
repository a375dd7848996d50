// radar_lint — walks source trees and enforces repo conventions, the
// paper's protocol-invariant hygiene, and the shared-state passes (see
// tools/lint/linter.h for the rule list). With --report it also writes
// the radar.analysis/1 shared-state inventory (tools/lint/analysis_json.h).
// Exit code 0 means clean, 1 means violations were printed, 2 means usage
// or I/O error. Registered as a ctest case over src/ and tools/.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "driver/report_json.h"
#include "lint/analysis_json.h"
#include "lint/linter.h"

namespace {

void PrintUsage() {
  std::fprintf(stderr,
               "usage: radar_lint [--src <dir>]... [--report <path>]\n"
               "  --src <dir>      source tree to analyze; repeatable\n"
               "                   (default: ./src)\n"
               "  --report <path>  write the radar.analysis/1 JSON report\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::filesystem::path> roots;
  std::string report_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--src" && i + 1 < argc) {
      roots.emplace_back(argv[++i]);
    } else if (arg.rfind("--src=", 0) == 0) {
      roots.emplace_back(arg.substr(6));
    } else if (arg == "--report" && i + 1 < argc) {
      report_path = argv[++i];
    } else if (arg.rfind("--report=", 0) == 0) {
      report_path = arg.substr(9);
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else {
      std::fprintf(stderr, "radar_lint: unknown argument '%s'\n", arg.c_str());
      PrintUsage();
      return 2;
    }
  }
  if (roots.empty()) roots.emplace_back("src");

  for (const auto& root : roots) {
    if (!std::filesystem::is_directory(root)) {
      std::fprintf(stderr, "radar_lint: '%s' is not a directory\n",
                   root.string().c_str());
      return 2;
    }
  }

  const radar::lint::Analysis analysis = radar::lint::AnalyzeTree(roots);
  for (const auto& v : analysis.violations) {
    std::fprintf(stderr, "%s\n", radar::lint::FormatViolation(v).c_str());
  }

  if (!report_path.empty()) {
    const radar::driver::JsonValue doc = radar::lint::AnalysisJson(
        analysis, roots, radar::lint::DefaultGlobalWhitelist());
    std::string error;
    if (!radar::driver::WriteJsonFile(report_path, doc, &error)) {
      std::fprintf(stderr, "radar_lint: cannot write report: %s\n",
                   error.c_str());
      return 2;
    }
    std::fprintf(stderr, "radar_lint: report written to %s\n",
                 report_path.c_str());
  }

  if (!analysis.violations.empty()) {
    std::fprintf(stderr, "radar_lint: %zu violation(s) in %d file(s) scanned\n",
                 analysis.violations.size(), analysis.files_scanned);
    return 1;
  }
  std::fprintf(stderr, "radar_lint: clean (%d files, %zu mutable globals, "
               "%zu hot regions)\n",
               analysis.files_scanned, analysis.mutable_globals.size(),
               analysis.hot_regions.size());
  return 0;
}
