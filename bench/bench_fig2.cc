// Figure 2: Measured speedup for the Amber Red/Black SOR implementation.
//
// Reproduces the paper's experiment: a 122 × 842 grid partitioned into 8
// section objects (6 for the 3- and 6-node runs), distributed over nN nodes
// with pP processors each; speedup is measured against the sequential C++
// implementation on one processor. The paper's headline observations, which
// this harness regenerates:
//
//   * speedup ≈ 25 at 8N×4P with communication/computation overlap;
//   * the 8N×4P overlap-off run is distinctly slower (the two 8Nx4P points);
//   * all 4-processor configurations (1Nx4P, 2Nx2P, 4Nx1P) achieve nearly
//     identical speedups, and likewise the 8-processor ones (2Nx4P, 4Nx2P):
//     remote communication costs are effectively hidden.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "bench/bench_util.h"
#include "src/apps/sor/sor.h"
#include "src/prof/profiler.h"
#include "src/telemetry/telemetry.h"
#include "src/trace/trace.h"

namespace {

struct Config {
  int nodes;
  int procs;
  bool overlap;
};

}  // namespace

int main() {
  sor::Params params;  // the paper's problem: 122 × 842, 8 sections
  params.max_iterations = 100;
  params.tolerance = 0.0;

  std::printf("Figure 2: Measured speedup, Amber Red/Black SOR (grid %dx%d, %d iterations)\n",
              params.rows, params.cols, params.max_iterations);
  std::printf("Baseline: sequential C++ implementation on one processor.\n\n");

  const sim::CostModel cost;
  const sor::Result seq = sor::RunSequentialOn(params, cost);
  std::printf("sequential solve time: %.2f s (virtual)\n\n", amber::ToSeconds(seq.solve_time));

  const Config configs[] = {
      {1, 1, true}, {1, 2, true}, {1, 4, true},  {2, 1, true},  {2, 2, true},
      {2, 4, true}, {3, 4, true}, {4, 1, true},  {4, 2, true},  {4, 4, true},
      {6, 4, true}, {8, 1, true}, {8, 2, true},  {8, 4, true},  {8, 4, false},
  };

  // Every run must reproduce the sequential grid bit for bit; a mismatch is
  // printed and fails the benchmark.
  bool grid_mismatch = false;
  benchutil::Table table({"config", "sections", "procs total", "speedup", "efficiency",
                          "msgs/iter", "KB/iter"});
  for (const Config& c : configs) {
    sor::Params p = params;
    // The paper ran 6 sections for the 3- and 6-node experiments so the
    // partitioning divides evenly; 8 sections otherwise.
    p.sections = (c.nodes == 3 || c.nodes == 6) ? 6 : 8;
    p.overlap = c.overlap;
    const sor::Result r = sor::RunAmberOn(c.nodes, c.procs, p, cost);
    if (r.grid_hash != seq.grid_hash) {
      std::printf("ERROR: grid mismatch for %dNx%dP\n", c.nodes, c.procs);
      grid_mismatch = true;
    }
    const double speedup =
        static_cast<double>(seq.solve_time) / static_cast<double>(r.solve_time);
    const int total = c.nodes * c.procs;
    std::string label = std::to_string(c.nodes) + "Nx" + std::to_string(c.procs) + "P" +
                        (c.overlap ? "" : " (no overlap)");
    table.AddRow({label, std::to_string(p.sections), std::to_string(total),
                  benchutil::Fmt("%.2f", speedup),
                  benchutil::Fmt("%.2f", speedup / total),
                  benchutil::FmtI(r.net_messages / params.max_iterations),
                  benchutil::Fmt("%.1f", static_cast<double>(r.net_bytes) /
                                             params.max_iterations / 1024.0)});
  }
  table.Print();
  std::printf(
      "\nPaper reference points: 8Nx4P (overlap) speedup ~25; 1Nx4P/2Nx2P/4Nx1P nearly equal;\n"
      "2Nx4P/4Nx2P nearly equal; overlap-off 8Nx4P distinctly below overlap-on.\n");

  // Re-run the headline configuration (8Nx4P, overlap) fully instrumented:
  // per-node metrics to BENCH_fig2.json, execution trace to
  // BENCH_fig2_trace.json (load in https://ui.perfetto.dev).
  {
    amber::Runtime::Config config;
    config.nodes = 8;
    config.procs_per_node = 4;
    config.cost = cost;
    config.arena_bytes = size_t{1} << 30;
    amber::Runtime rt(config);
    metrics::Registry registry;
    trace::Tracer tracer;
    prof::Profiler profiler;
    rt.SetMetrics(&registry);
    rt.AddObserver(&tracer);
    rt.AddObserver(&profiler);  // rides the same bus, zero virtual-time cost
    const sor::Result r = sor::RunAmber(rt, params);
    const double speedup =
        static_cast<double>(seq.solve_time) / static_cast<double>(r.solve_time);
    registry.GetGauge("sor.speedup").Set(speedup);
    registry.GetCounter("sor.iterations").Add(r.iterations);

    benchutil::BenchJson json("fig2");
    json.Config("nodes", int64_t{8});
    json.Config("procs_per_node", int64_t{4});
    json.Config("grid_rows", int64_t{params.rows});
    json.Config("grid_cols", int64_t{params.cols});
    json.Config("sections", int64_t{params.sections});
    json.Config("iterations", int64_t{params.max_iterations});
    json.Config("overlap", true);
    const std::string path = json.Write(r.solve_time, &registry);
    std::ofstream trace_out("BENCH_fig2_trace.json");
    tracer.WriteChromeTrace(trace_out);
    std::printf("\nwrote %s and BENCH_fig2_trace.json (%zu events)\n", path.c_str(),
                tracer.size());

    prof::ProfileReport report = profiler.Finalize();
    report.name = "fig2";
    report.WriteSummary(std::cout);
    std::ofstream prof_out("PROF_fig2.json");
    report.WriteJson(prof_out);
    std::printf("wrote PROF_fig2.json (critical path: %zu steps)\n",
                report.critical_path.size());
  }

  // Self-telemetry overhead check (docs/OBSERVABILITY.md budget: <= 5%).
  // The headline 8Nx4P run is repeated uninstrumented with the host-side
  // profiler off and on, interleaved, taking the best of two each so a
  // stray scheduling hiccup doesn't land on one side only. This block is
  // purely additive: the BENCH/PROF/trace files above are already written.
  {
    telemetry::SelfProfiler::Config tcfg;
    tcfg.name = "fig2";
    tcfg.sample_every_events = 4096;
    telemetry::SelfProfiler prof(tcfg);

    auto timed_run = [&](bool telemetry_on) {
      if (telemetry_on) {
        prof.Enable();
      }
      const int64_t start = telemetry::NowNs();
      const sor::Result r = sor::RunAmberOn(8, 4, params, cost);
      const int64_t wall = telemetry::NowNs() - start;
      if (telemetry_on) {
        prof.Disable();
      }
      if (r.grid_hash != seq.grid_hash) {
        std::printf("ERROR: grid mismatch in overhead run\n");
        grid_mismatch = true;
      }
      return wall;
    };

    int64_t best_off = 0;
    int64_t best_on = 0;
    for (int rep = 0; rep < 2; ++rep) {
      const int64_t off = timed_run(false);
      const int64_t on = timed_run(true);
      best_off = best_off == 0 ? off : std::min(best_off, off);
      best_on = best_on == 0 ? on : std::min(best_on, on);
    }
    const double overhead_pct =
        100.0 * (static_cast<double>(best_on) - static_cast<double>(best_off)) /
        static_cast<double>(best_off);
    std::printf(
        "\ntelemetry overhead on 8Nx4P: off %.1f ms, on %.1f ms => %+.2f%% (budget 5%%)\n",
        static_cast<double>(best_off) / 1e6, static_cast<double>(best_on) / 1e6, overhead_pct);
    std::ofstream tout("TELEMETRY_fig2.json");
    prof.WriteJson(tout);
    std::printf("wrote TELEMETRY_fig2.json (%lld events profiled)\n",
                static_cast<long long>(prof.count(telemetry::Count::kEvents)));
  }
  return grid_mismatch ? 1 : 0;
}
