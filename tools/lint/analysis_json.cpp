#include "lint/analysis_json.h"

namespace radar::lint {

using driver::JsonValue;

JsonValue AnalysisJson(const Analysis& analysis,
                       const std::vector<std::filesystem::path>& roots) {
  JsonValue doc = JsonValue::MakeObject();
  doc.Set("schema", std::string(kAnalysisSchema));

  JsonValue roots_json = JsonValue::MakeArray();
  for (const std::filesystem::path& root : roots) {
    roots_json.Append(root.filename().generic_string());
  }
  doc.Set("roots", std::move(roots_json));
  doc.Set("files_scanned", static_cast<std::int64_t>(analysis.files_scanned));
  doc.Set("violation_count",
          static_cast<std::int64_t>(analysis.violations.size()));

  JsonValue violations = JsonValue::MakeArray();
  for (const Violation& v : analysis.violations) {
    violations.Append(JsonValue::MakeObject()
                          .Set("file", v.file)
                          .Set("line", static_cast<std::int64_t>(v.line))
                          .Set("rule", v.rule)
                          .Set("message", v.message));
  }
  doc.Set("violations", std::move(violations));

  JsonValue globals = JsonValue::MakeArray();
  for (const MutableGlobal& g : analysis.mutable_globals) {
    globals.Append(JsonValue::MakeObject()
                       .Set("name", g.name)
                       .Set("file", g.file)
                       .Set("line", static_cast<std::int64_t>(g.line))
                       .Set("race_safe", g.race_safe)
                       .Set("whitelisted", g.whitelisted)
                       .Set("function_local", g.function_local)
                       .Set("reason", g.reason));
  }
  doc.Set("mutable_globals", std::move(globals));

  JsonValue regions = JsonValue::MakeArray();
  for (const HotRegion& r : analysis.hot_regions) {
    regions.Append(
        JsonValue::MakeObject()
            .Set("file", r.file)
            .Set("label", r.label)
            .Set("begin_line", static_cast<std::int64_t>(r.begin_line))
            .Set("end_line", static_cast<std::int64_t>(r.end_line)));
  }
  doc.Set("hot_regions", std::move(regions));

  JsonValue entries = JsonValue::MakeArray();
  for (const GlobalWhitelistEntry& e : DefaultGlobalWhitelist()) {
    bool hit = false;
    for (const MutableGlobal& g : analysis.mutable_globals) {
      if (g.whitelisted && g.name == e.name) {
        hit = true;
        break;
      }
    }
    entries.Append(JsonValue::MakeObject()
                       .Set("file_suffix", e.file_suffix)
                       .Set("name", e.name)
                       .Set("reason", e.reason)
                       .Set("hit", hit));
  }
  doc.Set("whitelist", std::move(entries));
  return doc;
}

}  // namespace radar::lint
