// Shared-state report: serializes a lint::Analysis as the
// radar.analysis/1 JSON document (DESIGN.md §13). It enumerates every
// piece of shared mutable state (whitelisted or not), every RADAR_HOT
// region, and any outstanding violations, so "can concurrent runs of a
// --jobs sweep interfere?" is a machine-checkable question.
//
// Serialization goes through driver::JsonValue, which is deterministic
// (insertion-ordered objects, shortest-round-trip numbers): analyzing the
// same tree twice yields byte-identical reports, so CI can archive and
// diff them.
#pragma once

#include <filesystem>
#include <vector>

#include "driver/report_json.h"
#include "lint/linter.h"

namespace radar::lint {

/// Schema tag of the shared-state report; bump the suffix on any
/// incompatible field change.
inline constexpr std::string_view kAnalysisSchema = "radar.analysis/1";

/// Builds the radar.analysis/1 document:
///   schema, roots[], files_scanned, violation_count, violations[],
///   mutable_globals[] (name/file/line/race_safe/whitelisted/
///   function_local/reason), hot_regions[] (file/label/begin_line/
///   end_line), whitelist[] (file_suffix/name/reason/hit).
driver::JsonValue AnalysisJson(
    const Analysis& analysis,
    const std::vector<std::filesystem::path>& roots,
    const std::vector<GlobalWhitelistEntry>& whitelist);

}  // namespace radar::lint
