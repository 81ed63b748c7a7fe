// Tests for the Red/Black SOR application: numerical correctness against
// the sequential baseline (bitwise), convergence behaviour, overlap
// equivalence, parallel speedup shape, and recorded grids, residuals and
// solve times for strip shapes at the kernel's edge cases.

#include "src/apps/sor/sor.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>

namespace sor {
namespace {

using amber::Millis;

// A small, fast problem for correctness tests.
Params SmallProblem() {
  Params p;
  p.rows = 18;
  p.cols = 40;
  p.sections = 4;
  p.max_iterations = 12;
  p.tolerance = 0.0;
  p.point_cost = amber::Micros(10);
  return p;
}

sim::CostModel DefaultCost() { return sim::CostModel{}; }

TEST(SorSequentialTest, ConvergesOnSmallGrid) {
  Params p = SmallProblem();
  p.tolerance = 1e-4;
  p.max_iterations = 10000;
  Result r = RunSequentialOn(p, DefaultCost(), /*keep_grid=*/true);
  EXPECT_LT(r.final_delta, 1e-4);
  EXPECT_GT(r.iterations, 10);
  // Physics sanity: temperature decreases monotonically away from the hot
  // top edge along the centre column.
  const int c = p.cols / 2;
  double prev = r.grid[static_cast<size_t>(c)];
  EXPECT_EQ(prev, 100.0);
  for (int row = 1; row < p.rows; ++row) {
    const double v = r.grid[static_cast<size_t>(row) * p.cols + c];
    EXPECT_LE(v, prev + 1e-12) << "row " << row;
    prev = v;
  }
}

TEST(SorSequentialTest, WorkScalesWithGridSize) {
  Params small = SmallProblem();
  Params big = SmallProblem();
  big.rows *= 2;
  big.cols *= 2;
  const Result rs = RunSequentialOn(small, DefaultCost());
  const Result rb = RunSequentialOn(big, DefaultCost());
  // 4× the points → ~4× the time (same iteration count).
  ASSERT_EQ(rs.iterations, rb.iterations);
  const double ratio = static_cast<double>(rb.solve_time) / static_cast<double>(rs.solve_time);
  EXPECT_GT(ratio, 3.5);
  EXPECT_LT(ratio, 4.6);
}

class SorEquivalence : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(SorEquivalence, AmberMatchesSequentialBitwise) {
  const auto [nodes, procs, overlap] = GetParam();
  Params p = SmallProblem();
  p.overlap = overlap;
  const Result seq = RunSequentialOn(p, DefaultCost());
  const Result par = RunAmberOn(nodes, procs, p, DefaultCost());
  EXPECT_EQ(par.iterations, seq.iterations);
  EXPECT_EQ(par.grid_hash, seq.grid_hash)
      << "parallel grid diverged from sequential (nodes=" << nodes << " procs=" << procs
      << " overlap=" << overlap << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SorEquivalence,
    ::testing::Values(std::make_tuple(1, 1, true), std::make_tuple(1, 4, true),
                      std::make_tuple(2, 2, true), std::make_tuple(4, 1, true),
                      std::make_tuple(4, 4, true), std::make_tuple(1, 4, false),
                      std::make_tuple(4, 2, false), std::make_tuple(4, 4, false)),
    [](const auto& info) {
      return std::to_string(std::get<0>(info.param)) + "N" +
             std::to_string(std::get<1>(info.param)) + "P" +
             (std::get<2>(info.param) ? "ov" : "seq");
    });

TEST(SorConvergenceTest, ParallelStopsAtSameIterationAsSequential) {
  Params p = SmallProblem();
  p.tolerance = 1e-3;
  p.max_iterations = 5000;
  const Result seq = RunSequentialOn(p, DefaultCost());
  const Result par = RunAmberOn(2, 2, p, DefaultCost());
  EXPECT_EQ(par.iterations, seq.iterations);
  EXPECT_EQ(par.grid_hash, seq.grid_hash);
  EXPECT_LT(par.final_delta, 1e-3);
}

TEST(SorSpeedupTest, MoreProcessorsFasterSameNode) {
  Params p = SmallProblem();
  p.rows = 34;
  p.cols = 160;
  p.max_iterations = 20;
  const Result r1 = RunAmberOn(1, 1, p, DefaultCost());
  const Result r4 = RunAmberOn(1, 4, p, DefaultCost());
  EXPECT_EQ(r1.grid_hash, r4.grid_hash);
  const double speedup = static_cast<double>(r1.solve_time) / static_cast<double>(r4.solve_time);
  EXPECT_GT(speedup, 2.0) << "4 CPUs should be much faster than 1";
}

TEST(SorSpeedupTest, MultiNodeBeatsSingleNodeOnLargeGrid) {
  Params p;
  p.rows = 62;
  p.cols = 422;  // half the paper grid
  p.sections = 4;
  p.max_iterations = 10;
  const Result r1 = RunAmberOn(1, 1, p, DefaultCost());
  const Result r4 = RunAmberOn(4, 4, p, DefaultCost());
  EXPECT_EQ(r1.grid_hash, r4.grid_hash);
  // A half-size grid over 10 iterations pays relatively more barrier and
  // startup overhead than the paper's full problem (the Figure 2/3 benches
  // measure that shape); still, 16 CPUs must clearly beat 1.
  const double speedup = static_cast<double>(r1.solve_time) / static_cast<double>(r4.solve_time);
  EXPECT_GT(speedup, 4.0) << "16 processors over 4 nodes should give real speedup";
}

TEST(SorOverlapTest, OverlapBeatsNoOverlapAcrossNodes) {
  // The Figure 2 pair: same configuration, overlap on vs off. Overlap hides
  // edge-exchange latency behind interior computation.
  Params p;
  p.rows = 62;
  p.cols = 422;
  p.sections = 4;
  p.max_iterations = 10;
  p.overlap = true;
  const Result on = RunAmberOn(4, 2, p, DefaultCost());
  p.overlap = false;
  const Result off = RunAmberOn(4, 2, p, DefaultCost());
  EXPECT_EQ(on.grid_hash, off.grid_hash) << "overlap must not change the numerics";
  EXPECT_LT(on.solve_time, off.solve_time) << "overlap should hide communication";
}

TEST(SorTrafficTest, EdgeExchangeUsesOneMessagePerEdgePerPhase) {
  Params p = SmallProblem();
  p.sections = 4;
  p.max_iterations = 8;
  const Result r = RunAmberOn(4, 1, p, DefaultCost());
  // 3 interior boundaries × 2 directions × 2 phases × 8 iterations ≈ 96
  // edge transfers; each is one thread migration out and one back, plus
  // convergence traffic. The point: messages scale with edges, not points.
  EXPECT_GT(r.net_messages, 100);
  EXPECT_LT(r.net_messages, 600);
  EXPECT_LT(r.net_bytes, 2'000'000);
}

TEST(SorDeterminismTest, IdenticalRunsProduceIdenticalResults) {
  Params p = SmallProblem();
  const Result a = RunAmberOn(4, 2, p, DefaultCost());
  const Result b = RunAmberOn(4, 2, p, DefaultCost());
  EXPECT_EQ(a.solve_time, b.solve_time);
  EXPECT_EQ(a.grid_hash, b.grid_hash);
  EXPECT_EQ(a.net_messages, b.net_messages);
  EXPECT_EQ(a.net_bytes, b.net_bytes);
}

TEST(SorConfigTest, SixSectionsOnThreeNodes) {
  // The paper's 3-node/6-node runs used 6 sections.
  Params p = SmallProblem();
  p.cols = 42;
  p.sections = 6;
  const Result seq = RunSequentialOn(p, DefaultCost());
  const Result par = RunAmberOn(3, 2, p, DefaultCost());
  EXPECT_EQ(par.grid_hash, seq.grid_hash);
}

TEST(SorConfigTest, ExplicitThreadsPerSection) {
  Params p = SmallProblem();
  p.threads_per_section = 3;
  const Result seq = RunSequentialOn(p, DefaultCost());
  const Result par = RunAmberOn(2, 2, p, DefaultCost());
  EXPECT_EQ(par.grid_hash, seq.grid_hash);
}

// --- Recorded results ------------------------------------------------------------
//
// The equivalence tests above compare the parallel run with the sequential
// one, which would stay equal if both drifted together. These pin each run's
// own grid, iteration count, residual and virtual solve time, recorded from
// the per-point loops the row kernel replaced. The shapes cover strips of
// width 2 (no interior/boundary split under overlap), 3 and 10-11 with odd and
// even first columns, row blocks that end short or are empty, overlap on and
// off, the sequential baseline, and tolerances that stop on the residual.

struct GoldenCase {
  const char* name;
  int nodes;  // 0 = the sequential baseline
  int procs;
  int rows;
  int cols;
  int sections;
  int threads_per_section;
  bool overlap;
  double tolerance;
  int max_iterations;
  uint64_t grid_hash;
  int iterations;
  double final_delta;
  Time solve_time;
};

constexpr GoldenCase kGoldenCases[] = {
    // widths 3,3,3,3,2,2,2,2: first columns 0,3,6,9,12,14,16,18
    {"Widths3And2Overlap", 4, 2, 17, 20, 8, 0, true, 0.0, 9,
     11469233719185007603ULL, 9, 2.7387146315231092, 157460160},
    {"Widths3And2NoOverlap", 4, 2, 17, 20, 8, 0, false, 0.0, 9,
     11469233719185007603ULL, 9, 2.7387146315231092, 188864420},
    // width 3 everywhere, 3 row blocks of 6 with a short last one (17 rows)
    {"Width3ShortBlockOverlap", 4, 2, 17, 24, 8, 3, true, 1e-2, 400,
     8581410749986316166ULL, 70, 0.0092675107962563175, 1030750580},
    {"Width2NoOverlap", 2, 2, 14, 16, 8, 0, false, 1e-2, 400,
     2530814067738839690ULL, 40, 0.0094775486295439748, 606127080},
    // widths 11,11,10,10: first columns 0,11,22,32
    {"Widths11And10ShortBlockOverlap", 2, 2, 18, 42, 4, 4, true, 1e-3, 5000,
     13920979273913299610ULL, 135, 0.00098342429995312841, 1556134920},
    // 7 blocks of 3 rows over 18: the last block is empty
    {"Widths11And10EmptyBlockNoOverlap", 4, 1, 18, 42, 4, 7, false, 1e-3, 5000,
     13920979273913299610ULL, 135, 0.00098342429995312841, 4098354380},
    {"SequentialTolerance", 0, 0, 18, 42, 4, 0, true, 1e-3, 5000,
     13920979273913299610ULL, 135, 0.00098342429995312841, 864000000},
    {"SequentialOddShape", 0, 0, 17, 25, 1, 0, true, 0.0, 11,
     7897737499936859823ULL, 11, 2.3381430141177475, 37950000},
};

void PrintTo(const GoldenCase& g, std::ostream* os) { *os << g.name; }

class SorGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(SorGolden, MatchesRecordedResult) {
  const GoldenCase& g = GetParam();
  Params p;
  p.rows = g.rows;
  p.cols = g.cols;
  p.sections = g.sections;
  p.threads_per_section = g.threads_per_section;
  p.overlap = g.overlap;
  p.tolerance = g.tolerance;
  p.max_iterations = g.max_iterations;
  p.point_cost = amber::Micros(10);
  const Result r = g.nodes == 0 ? RunSequentialOn(p, DefaultCost())
                                : RunAmberOn(g.nodes, g.procs, p, DefaultCost());
  EXPECT_EQ(r.grid_hash, g.grid_hash);
  EXPECT_EQ(r.iterations, g.iterations);
  EXPECT_EQ(r.final_delta, g.final_delta);
  EXPECT_EQ(r.solve_time, g.solve_time);
}

INSTANTIATE_TEST_SUITE_P(Shapes, SorGolden, ::testing::ValuesIn(kGoldenCases),
                         [](const auto& info) { return std::string(info.param.name); });

TEST(SorConfigTest, SingleSectionDegeneratesGracefully) {
  Params p = SmallProblem();
  p.sections = 1;
  const Result seq = RunSequentialOn(p, DefaultCost());
  const Result par = RunAmberOn(1, 2, p, DefaultCost());
  EXPECT_EQ(par.grid_hash, seq.grid_hash);
  EXPECT_EQ(par.net_messages, 0) << "one section on one node: no network traffic";
}

}  // namespace
}  // namespace sor
