// Post-mortem analysis of flight-recorder dumps (FDR_*.json).
//
// A deliberately small, dependency-free JSON reader plus the report
// renderer behind the amber-fdr CLI. The renderer answers "why did this
// run die": the final-window timeline, the dying thread's causal chain
// (who it waited on, transitively, with deadlock-cycle detection), lock
// and RPC state at death, and cross-node discrepancies between suspicion
// views and actual node liveness. Lives in a library so tests can drive
// it against freshly-written dumps without shelling out.

#ifndef AMBER_SRC_APPS_FDR_FDR_REPORT_H_
#define AMBER_SRC_APPS_FDR_FDR_REPORT_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace fdrtool {

// Minimal JSON document tree. Object keys keep file order, so rendering
// a value echoes the dump's deterministic layout.
struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<Json> arr;
  std::vector<std::pair<std::string, Json>> obj;

  // Object member access; nullptr when absent or not an object.
  const Json* Get(const std::string& key) const;
  // Convenience accessors with defaults (for absent/mistyped members).
  int64_t Int(const std::string& key, int64_t def = 0) const;
  std::string Str(const std::string& key, const std::string& def = "") const;
  bool Bool(const std::string& key, bool def = false) const;
};

// Parses a complete JSON document. Returns false (and sets *error, with
// byte offset) on malformed input.
bool ParseJson(const std::string& text, Json* out, std::string* error);

// Reads and parses the JSON file at `path`. On failure *error holds a
// message naming the file: "cannot read <path>", or "<path>: " followed by
// ParseJson's error.
enum class LoadStatus { kOk, kUnreadable, kMalformed };
LoadStatus LoadJson(const std::string& path, Json* out, std::string* error);

// Renders the human "why did this run die" report for a parsed FDR dump.
// `timeline_events` bounds the final-window timeline section.
void RenderReport(const Json& dump, std::ostream& out, size_t timeline_events = 40);

}  // namespace fdrtool

#endif  // AMBER_SRC_APPS_FDR_FDR_REPORT_H_
