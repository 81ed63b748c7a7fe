// amber-fdr: render a "why did this run die" report from a flight-recorder
// dump (FDR_*.json), the post-mortem counterpart of amber-prof.
//
// Usage:
//   amber-fdr <FDR_file.json>             full report
//   amber-fdr --timeline=N <file>         show the last N events (default 40)
//
// Exit status: 0 on success, 1 on usage/IO error, 2 on a malformed dump.

#include <iostream>
#include <string>

#include "src/apps/fdr/fdr_report.h"

int main(int argc, char** argv) {
  size_t timeline = 40;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--timeline=", 0) == 0) {
      timeline = static_cast<size_t>(std::stoul(arg.substr(11)));
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown flag: " << arg << "\n";
      return 1;
    } else if (path.empty()) {
      path = arg;
    } else {
      std::cerr << "usage: amber-fdr [--timeline=N] <FDR_file.json>\n";
      return 1;
    }
  }
  if (path.empty()) {
    std::cerr << "usage: amber-fdr [--timeline=N] <FDR_file.json>\n";
    return 1;
  }

  fdrtool::Json dump;
  std::string error;
  switch (fdrtool::LoadJson(path, &dump, &error)) {
    case fdrtool::LoadStatus::kOk:
      break;
    case fdrtool::LoadStatus::kUnreadable:
      std::cerr << "amber-fdr: " << error << "\n";
      return 1;
    case fdrtool::LoadStatus::kMalformed:
      std::cerr << "amber-fdr: malformed dump " << error << "\n";
      return 2;
  }
  fdrtool::RenderReport(dump, std::cout, timeline);
  return 0;
}
