// Figure 3: Effect of varying SOR problem size (4Nx4P).
//
// Reproduces the paper's sweep: the 4-node × 4-processor configuration from
// Figure 2, with the grid size varied. "For sufficiently small grids
// [communication] will dominate computation and limit speedup. For
// sufficiently large grids computation will dominate and speedup will be
// good." The point marked X is the 122 × 842 grid of Figure 2.

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/apps/sor/sor.h"

int main() {
  struct Size {
    int rows;
    int cols;
    bool is_x;  // the Figure 2 grid
  };
  // Roughly the paper's aspect ratio (122:842), from ~1.7k to ~410k points.
  const Size sizes[] = {
      {16, 106, false},  {30, 210, false},  {44, 306, false}, {62, 422, false},
      {92, 632, false},  {122, 842, true},  {172, 1186, false}, {244, 1684, false},
  };

  const sim::CostModel cost;
  std::printf("Figure 3: Effect of varying SOR problem size (4Nx4P, 8 sections)\n\n");
  bool grid_mismatch = false;  // a parallel grid that differs from the sequential one
  benchutil::Table table(
      {"grid", "points", "speedup", "efficiency", "KB/iter", "seq iter (ms)", ""});
  for (const Size& s : sizes) {
    sor::Params p;
    p.rows = s.rows;
    p.cols = s.cols;
    p.sections = 8;
    p.max_iterations = 60;
    p.tolerance = 0.0;
    const sor::Result seq = sor::RunSequentialOn(p, cost);
    const sor::Result par = sor::RunAmberOn(4, 4, p, cost);
    if (par.grid_hash != seq.grid_hash) {
      std::printf("ERROR: grid mismatch at %dx%d\n", s.rows, s.cols);
      grid_mismatch = true;
    }
    const double speedup =
        static_cast<double>(seq.solve_time) / static_cast<double>(par.solve_time);
    table.AddRow({std::to_string(s.rows) + "x" + std::to_string(s.cols),
                  std::to_string(s.rows * s.cols), benchutil::Fmt("%.2f", speedup),
                  benchutil::Fmt("%.2f", speedup / 16.0),
                  benchutil::Fmt("%.1f", static_cast<double>(par.net_bytes) /
                                             p.max_iterations / 1024.0),
                  benchutil::Fmt("%.1f", amber::ToMillis(seq.solve_time) / p.max_iterations),
                  s.is_x ? "<-- X (Figure 2 grid)" : ""});
  }
  table.Print();
  std::printf(
      "\nPaper shape: speedup rises monotonically with problem size, approaching the\n"
      "16-processor bound for large grids and collapsing for small ones.\n");
  return grid_mismatch ? 1 : 0;
}
