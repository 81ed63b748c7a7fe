// amber-plot: renders virtual-time metric series and saturation curves as
// Unicode terminal charts.
//
//   amber-plot TS_chaos_timeline.json                 # every series in the file
//   amber-plot TS_serve_r5.json --series serve.latency.p99
//   amber-plot TS_file.json --width 80 --height 8
//   amber-plot --sweep BENCH_serve_sweep.json         # p99-vs-offered-load curve
//
// TS mode charts each windowed series (counter deltas, gauge values, and the
// p99 of each histogram) against virtual time, with the file's annotation
// channel — crashes, restarts, migrations, drains, recoveries — rendered as
// markers under the x-axis, so the chart answers "what happened *here*".
// Sweep mode renders the offered-load ladder from BENCH_serve_sweep.json as
// horizontal p99 bars and flags the knee rung.
//
// Pure reader: parses the deterministic JSON dumps, never touches the
// runtime. Exits nonzero on unreadable input or an empty selection, which is
// what lets CI use "amber-plot renders it" as a smoke check.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/apps/fdr/fdr_report.h"

namespace {

using fdrtool::Json;

bool LoadJson(const std::string& path, Json* out) {
  std::string error;
  if (fdrtool::LoadJson(path, out, &error) != fdrtool::LoadStatus::kOk) {
    std::fprintf(stderr, "amber-plot: %s\n", error.c_str());
    return false;
  }
  return true;
}

struct Series {
  std::string name;  // chart title, e.g. "serve.completed" or "serve.latency.p99"
  std::vector<double> values;
};

struct Annotation {
  double t_ns = 0;
  std::string kind;
  std::string detail;
};

std::vector<double> NumberArray(const Json& j) {
  std::vector<double> out;
  for (const Json& v : j.arr) {
    out.push_back(v.num);
  }
  return out;
}

// Marker letter for an annotation kind (legend printed under each chart).
char MarkOf(const std::string& kind) {
  if (kind == "crash") return 'C';
  if (kind == "restart") return 'R';
  if (kind == "migration") return 'M';
  if (kind == "drain") return 'D';
  if (kind == "recover") return 'V';
  return '*';
}

// One column chart: `height` rows of eighth-block columns, 0 at the bottom
// row and the series max at the top. Values are bucketed down to at most
// `width` columns (max within each bucket, so spikes survive downsampling).
void Chart(const Series& s, double window_ns, const std::vector<Annotation>& annotations,
           int width, int height) {
  static const char* kBlocks[] = {" ", "▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  const int n = static_cast<int>(s.values.size());
  const int cols = std::min(width, n);
  if (cols == 0) {
    return;
  }
  std::vector<double> col(cols, 0.0);
  for (int i = 0; i < n; ++i) {
    int c = static_cast<int>(static_cast<int64_t>(i) * cols / n);
    col[c] = std::max(col[c], s.values[i]);
  }
  double vmax = 0.0;
  for (double v : col) {
    vmax = std::max(vmax, v);
  }
  std::printf("%s  (max %g, %d windows)\n", s.name.c_str(), vmax, n);
  for (int row = height - 1; row >= 0; --row) {
    if (row == height - 1) {
      std::printf("%10g ┤", vmax);
    } else if (row == 0) {
      std::printf("%10g └", 0.0);
    } else {
      std::printf("           │");
    }
    for (int c = 0; c < cols; ++c) {
      const int eighths =
          vmax > 0 ? static_cast<int>(std::lround(col[c] / vmax * height * 8.0)) : 0;
      const int below = row * 8;
      std::printf("%s", kBlocks[std::clamp(eighths - below, 0, 8)]);
    }
    std::printf("\n");
  }
  // Annotation markers line up under the column holding their timestamp.
  if (!annotations.empty()) {
    std::string marks(static_cast<size_t>(cols), ' ');
    for (const Annotation& a : annotations) {
      const int win = window_ns > 0 ? static_cast<int>(a.t_ns / window_ns) : 0;
      if (win >= 0 && win < n) {
        marks[static_cast<size_t>(static_cast<int64_t>(win) * cols / n)] = MarkOf(a.kind);
      }
    }
    std::printf("            %s\n", marks.c_str());
  }
  std::printf("            0%*s ms\n\n", cols > 1 ? cols - 1 : 1,
              std::to_string(static_cast<int64_t>(n * window_ns / 1e6)).c_str());
}

int PlotTs(const std::string& path, const std::string& only, int width, int height) {
  Json doc;
  if (!LoadJson(path, &doc)) {
    return 1;
  }
  const Json* series = doc.Get("series");
  if (doc.Get("tseries") == nullptr || series == nullptr) {
    std::fprintf(stderr, "amber-plot: %s is not a TS_*.json time-series dump\n", path.c_str());
    return 1;
  }
  const double window_ns = static_cast<double>(doc.Int("window_ns"));

  std::vector<Series> charts;
  if (const Json* counters = series->Get("counters")) {
    for (const auto& [name, arr] : counters->obj) {
      charts.push_back(Series{name, NumberArray(arr)});
    }
  }
  if (const Json* gauges = series->Get("gauges")) {
    for (const auto& [name, arr] : gauges->obj) {
      charts.push_back(Series{name, NumberArray(arr)});
    }
  }
  if (const Json* hists = series->Get("histograms")) {
    for (const auto& [name, fields] : hists->obj) {
      if (const Json* p99 = fields.Get("p99")) {
        charts.push_back(Series{name + ".p99", NumberArray(*p99)});
      }
    }
  }

  std::vector<Annotation> annotations;
  if (const Json* anns = doc.Get("annotations")) {
    for (const Json& a : anns->arr) {
      annotations.push_back(
          Annotation{static_cast<double>(a.Int("t_ns")), a.Str("kind"), a.Str("detail")});
    }
  }

  std::printf("%s: %lld windows of %.0f ms virtual time\n\n", doc.Str("tseries").c_str(),
              static_cast<long long>(doc.Int("windows")), window_ns / 1e6);
  int rendered = 0;
  for (const Series& s : charts) {
    if (!only.empty() && s.name != only) {
      continue;
    }
    Chart(s, window_ns, annotations, width, height);
    ++rendered;
  }
  if (rendered == 0) {
    std::fprintf(stderr, "amber-plot: no series%s%s in %s\n", only.empty() ? "" : " named ",
                 only.c_str(), path.c_str());
    return 1;
  }
  for (const Annotation& a : annotations) {
    std::printf("  %c  %-9s %8.1f ms  %s\n", MarkOf(a.kind), a.kind.c_str(), a.t_ns / 1e6,
                a.detail.c_str());
  }
  return 0;
}

// --- Saturation curve (--sweep) ----------------------------------------------

int PlotSweep(const std::string& path, int width) {
  Json doc;
  if (!LoadJson(path, &doc)) {
    return 1;
  }
  const Json* metrics = doc.Get("metrics");
  const Json* gauges = metrics != nullptr ? metrics->Get("gauges") : nullptr;
  const Json* offered = gauges != nullptr ? gauges->Get("sweep.offered_per_sec") : nullptr;
  const Json* p99 = gauges != nullptr ? gauges->Get("sweep.p99_us") : nullptr;
  if (offered == nullptr || p99 == nullptr) {
    std::fprintf(stderr, "amber-plot: %s has no sweep.* gauges (not a BENCH_serve_sweep.json?)\n",
                 path.c_str());
    return 1;
  }
  auto value_of = [](const Json* fam, const std::string& label) {
    const Json* v = fam->Get(label);
    return v != nullptr ? v->num : 0.0;
  };
  const Json* thr = gauges->Get("sweep.throughput_per_sec");
  const Json* rej = gauges->Get("sweep.rejection_pct");
  const Json* knee_g = gauges->Get("sweep.knee_offered_per_sec");
  const double knee = knee_g != nullptr ? value_of(knee_g, "total") : 0.0;

  double p99_max = 0.0;
  for (const auto& [label, v] : p99->obj) {
    p99_max = std::max(p99_max, v.num);
  }
  std::printf("%s saturation curve (p99 vs offered load)\n\n", doc.Str("bench").c_str());
  std::printf("%10s %11s %12s %9s\n", "offered/s", "thruput/s", "p99 us", "reject %");
  for (const auto& [label, v] : p99->obj) {
    const double off = value_of(offered, label);
    const int bar = p99_max > 0 ? std::max(1, static_cast<int>(v.num / p99_max * width)) : 0;
    std::printf("%10.0f %11.0f %12.1f %9.1f  %s%s\n", off,
                thr != nullptr ? value_of(thr, label) : 0.0, v.num,
                rej != nullptr ? value_of(rej, label) : 0.0, std::string(bar, '#').c_str(),
                off == knee && knee > 0 ? "  <- knee" : "");
  }
  if (knee > 0) {
    std::printf("\nknee at %.0f offered/s: first rung past the service capacity — p99 "
                "leaves the flat region here\n",
                knee);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::string only;
  bool sweep = false;
  int width = 100;
  int height = 6;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--sweep") {
      sweep = true;
    } else if (arg == "--series" && i + 1 < argc) {
      only = argv[++i];
    } else if (arg == "--width" && i + 1 < argc) {
      width = std::max(8, std::atoi(argv[++i]));
    } else if (arg == "--height" && i + 1 < argc) {
      height = std::max(2, std::atoi(argv[++i]));
    } else if (arg.rfind("--", 0) != 0 && path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr,
                   "usage: amber-plot TS_<name>.json [--series NAME] [--width N] [--height N]\n"
                   "       amber-plot --sweep BENCH_serve_sweep.json [--width N]\n");
      return 2;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "amber-plot: no input file\n");
    return 2;
  }
  return sweep ? PlotSweep(path, width) : PlotTs(path, only, width, height);
}
