// The JSON pieces every dump writer shares: string escaping, number
// rendering and an atomic file write.
//
// Every dump in this repository (BENCH_, PROF_, FDR_, TRACEREQ_, TS_,
// TELEMETRY_ and the Chrome trace) is a deterministic function of its
// inputs, so these helpers are too: same bytes in, same bytes out.

#ifndef AMBER_SRC_BASE_JSON_H_
#define AMBER_SRC_BASE_JSON_H_

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>

namespace amber::json {

// The body of a JSON string holding s (no surrounding quotes). `"` and `\`
// are backslash-escaped, newline, tab and carriage return use their named
// escapes, and every other control byte is written as \u00XX, so any label
// survives a parse.
inline std::string Escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

// s as a quoted JSON string.
inline std::string Quote(std::string_view s) { return "\"" + Escape(s) + "\""; }

// A JSON number: integral values print without a fraction, so counter sums
// and nanosecond timestamps stay exact; everything else uses %.9g; JSON has
// no inf or nan, so those print as 0. Both forms are deterministic
// functions of the value's bit pattern.
inline std::string Num(double v) {
  char buf[40];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.0e15) {
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<int64_t>(v));
  } else if (std::isfinite(v)) {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  } else {
    std::snprintf(buf, sizeof(buf), "0");
  }
  return buf;
}

// Writes `path` through `path.tmp` and a rename, so a reader polling the
// file (amber-top, amber-plot) never sees a partial document. `write`
// renders the content into the stream it is given. Returns false when the
// file could not be written or renamed.
template <typename Write>
bool WriteFileAtomically(const std::string& path, Write&& write) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      return false;
    }
    write(out);
    if (!out.good()) {
      return false;
    }
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace amber::json

#endif  // AMBER_SRC_BASE_JSON_H_
