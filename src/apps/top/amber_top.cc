// amber-top: live top-style view of simulator self-telemetry.
//
// Reads a TELEMETRY_<name>.json document (written by src/telemetry, and
// rewritten atomically during a run when the profiler's periodic flush is
// on) and renders per-subsystem wall-time buckets, the event rate, heap in
// use, queue depth, and the busiest nodes by dispatch count.
//
// Two modes:
//   --once        render a single frame from the file and exit (CI smoke,
//                 post-mortem inspection of a finished run);
//   default       follow the file: re-read every --interval ms, compute
//                 live rates from successive cumulative counts, and redraw
//                 (like top). --iterations N stops after N frames (0 = run
//                 until interrupted).
//
// Usage: amber-top [--once] [--interval MS] [--iterations N] TELEMETRY_x.json

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/fdr/fdr_report.h"

namespace {

struct Frame {
  std::string name;
  int64_t enabled_wall_ns = 0;
  int64_t events = 0;
  int64_t dispatches = 0;
  int64_t descriptor_lookups = 0;
  int64_t allocations = 0;
  double events_per_sec = 0;  // whole-run average from the file
  struct BucketRow {
    std::string name;
    int64_t calls = 0;
    int64_t wall_ns = 0;
  };
  std::vector<BucketRow> buckets;
  std::vector<int64_t> node_dispatches;
  // Latest sample (for queue depth / heap / virtual time).
  int64_t virtual_time_ns = 0;
  int64_t queue_depth = 0;
  int64_t heap_bytes = -1;
  int64_t sample_wall_ns = 0;
  int64_t sample_events = 0;
  // The whole sample ring as (wall_ns, cumulative events) points — the ev/s
  // sparkline is the successive deltas of the last few of these.
  std::vector<std::pair<int64_t, int64_t>> sample_points;
};

bool LoadFrame(const std::string& path, Frame* out, std::string* error) {
  fdrtool::Json doc;
  if (fdrtool::LoadJson(path, &doc, error) != fdrtool::LoadStatus::kOk) {
    return false;
  }
  Frame f;
  f.name = doc.Str("telemetry", "?");
  f.enabled_wall_ns = doc.Int("enabled_wall_ns");
  if (const fdrtool::Json* counts = doc.Get("counts")) {
    f.events = counts->Int("events");
    f.dispatches = counts->Int("dispatches");
    f.descriptor_lookups = counts->Int("descriptor_lookups");
    f.allocations = counts->Int("allocations");
  }
  if (const fdrtool::Json* totals = doc.Get("totals")) {
    if (const fdrtool::Json* eps = totals->Get("events_per_sec")) {
      f.events_per_sec = eps->num;
    }
  }
  if (const fdrtool::Json* buckets = doc.Get("buckets")) {
    for (const auto& [name, b] : buckets->obj) {
      f.buckets.push_back({name, b.Int("calls"), b.Int("wall_ns")});
    }
  }
  if (const fdrtool::Json* nd = doc.Get("node_dispatches")) {
    for (const fdrtool::Json& v : nd->arr) {
      f.node_dispatches.push_back(static_cast<int64_t>(v.num));
    }
  }
  if (const fdrtool::Json* samples = doc.Get("samples")) {
    for (const fdrtool::Json& s : samples->arr) {
      f.sample_points.emplace_back(s.Int("wall_ns"), s.Int("events"));
    }
    if (!samples->arr.empty()) {
      const fdrtool::Json& last = samples->arr.back();
      f.virtual_time_ns = last.Int("virtual_time_ns");
      f.queue_depth = last.Int("queue_depth");
      f.heap_bytes = last.Int("heap_bytes", -1);
      f.sample_wall_ns = last.Int("wall_ns");
      f.sample_events = last.Int("events");
    }
  }
  *out = f;
  return true;
}

// Trend-at-a-glance: ev/s over the last `n` sample-ring intervals, each
// interval one block scaled against the window's own maximum.
std::string Sparkline(const std::vector<std::pair<int64_t, int64_t>>& points, size_t n) {
  static const char* kBlocks[] = {"▁", "▂", "▃", "▄", "▅", "▆", "▇", "█"};
  std::vector<double> rates;
  const size_t first = points.size() > n ? points.size() - n - 1 : 0;
  for (size_t i = first + 1; i < points.size(); ++i) {
    const int64_t dw = points[i].first - points[i - 1].first;
    const int64_t de = points[i].second - points[i - 1].second;
    if (dw > 0 && de >= 0) {
      rates.push_back(static_cast<double>(de) * 1e9 / static_cast<double>(dw));
    }
  }
  if (rates.size() < 2) {
    return "";
  }
  double vmax = 0;
  for (double r : rates) {
    vmax = std::max(vmax, r);
  }
  std::string out;
  for (double r : rates) {
    const int level =
        vmax > 0 ? std::min(7, static_cast<int>(r / vmax * 8.0)) : 0;
    out += kBlocks[level];
  }
  return out;
}

std::string Eng(double v) {
  char buf[32];
  if (v >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fM", v / 1e6);
  } else if (v >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fk", v / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  }
  return buf;
}

// Renders one frame. `prev` (may be null) supplies the baseline for live
// rates; without it, whole-run averages from the file are shown.
void Render(const Frame& f, const Frame* prev) {
  double live_eps = f.events_per_sec;
  const char* rate_kind = "avg";
  if (prev != nullptr && f.sample_wall_ns > prev->sample_wall_ns &&
      f.sample_events >= prev->sample_events) {
    live_eps = static_cast<double>(f.sample_events - prev->sample_events) * 1e9 /
               static_cast<double>(f.sample_wall_ns - prev->sample_wall_ns);
    rate_kind = "live";
  }
  std::printf("amber-top — %s\n", f.name.c_str());
  const std::string spark = Sparkline(f.sample_points, 16);
  std::printf("events %" PRId64 "  (%s ev/s %s%s%s)  vtime %.3f s  queue %" PRId64, f.events,
              Eng(live_eps).c_str(), rate_kind, spark.empty() ? "" : " ", spark.c_str(),
              static_cast<double>(f.virtual_time_ns) / 1e9, f.queue_depth);
  if (f.heap_bytes >= 0) {
    std::printf("  heap %.1f MB", static_cast<double>(f.heap_bytes) / 1e6);
  }
  std::printf("\nwall %.2f s  dispatches %" PRId64 "  lookups %" PRId64 "  allocs %" PRId64
              "\n\n",
              static_cast<double>(f.enabled_wall_ns) / 1e9, f.dispatches, f.descriptor_lookups,
              f.allocations);

  int64_t loop_wall = 0;
  for (const auto& b : f.buckets) {
    if (b.name == "event_loop") {
      loop_wall = b.wall_ns;
    }
  }
  std::printf("%-16s %12s %12s %9s\n", "subsystem", "calls", "wall ms", "% loop");
  for (const auto& b : f.buckets) {
    const double pct =
        loop_wall > 0 ? 100.0 * static_cast<double>(b.wall_ns) / static_cast<double>(loop_wall)
                      : 0.0;
    std::printf("%-16s %12" PRId64 " %12.1f %8.1f%%\n", b.name.c_str(), b.calls,
                static_cast<double>(b.wall_ns) / 1e6, pct);
  }

  // Busiest nodes by cumulative dispatches (delta against prev when live).
  std::vector<std::pair<int64_t, int>> busy;
  for (size_t n = 0; n < f.node_dispatches.size(); ++n) {
    int64_t d = f.node_dispatches[n];
    if (prev != nullptr && n < prev->node_dispatches.size()) {
      d -= prev->node_dispatches[n];
    }
    busy.push_back({d, static_cast<int>(n)});
  }
  std::sort(busy.begin(), busy.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  const size_t top = std::min<size_t>(busy.size(), 10);
  if (top > 0) {
    std::printf("\n%-8s %12s\n", "node", prev != nullptr ? "dispatches Δ" : "dispatches");
    for (size_t i = 0; i < top; ++i) {
      std::printf("node%-4d %12" PRId64 "\n", busy[i].second, busy[i].first);
    }
  }
}

void Usage() {
  std::fprintf(stderr,
               "usage: amber-top [--once] [--interval MS] [--iterations N] TELEMETRY_x.json\n"
               "  --once          render one frame and exit\n"
               "  --interval MS   follow-mode refresh period (default 1000)\n"
               "  --iterations N  stop after N frames (default 0 = until interrupted)\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool once = false;
  int interval_ms = 1000;
  int iterations = 0;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--once") {
      once = true;
    } else if (arg == "--interval" && i + 1 < argc) {
      interval_ms = std::atoi(argv[++i]);
    } else if (arg == "--iterations" && i + 1 < argc) {
      iterations = std::atoi(argv[++i]);
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (!arg.empty() && arg[0] != '-') {
      path = arg;
    } else {
      Usage();
      return 2;
    }
  }
  if (path.empty()) {
    Usage();
    return 2;
  }

  Frame frame;
  std::string error;
  if (!LoadFrame(path, &frame, &error)) {
    std::fprintf(stderr, "amber-top: %s\n", error.c_str());
    return 1;
  }
  if (once) {
    Render(frame, nullptr);
    return 0;
  }

  Frame prev = frame;
  Render(frame, nullptr);
  for (int i = 0; iterations == 0 || i < iterations; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    Frame next;
    if (!LoadFrame(path, &next, &error)) {
      // The writer may be mid-rename or the run may have ended; keep the
      // last good frame and retry.
      continue;
    }
    std::printf("\x1b[H\x1b[2J");  // clear + home, like top
    Render(next, &prev);
    std::fflush(stdout);
    prev = next;
  }
  return 0;
}
