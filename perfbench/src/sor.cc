// sor: the paper's Figure 2 headline configuration, Red/Black SOR on the
// 122 x 842 grid over 8 nodes x 4 processors with overlap, no observers.
// The seed sets the hot-edge temperature, so every seed does the same work
// on different values. One op is one grid-point update.

#include "src/apps/sor/sor.h"

#include "perfbench/src/bench.h"
#include "src/core/runtime.h"

namespace perfbench {
namespace {

constexpr int kNodes = 8;
constexpr int kProcs = 4;

sor::Params ParamsFor(const RoundSpec& spec) {
  sor::Params p;  // the paper's grid: 122 x 842, 8 sections
  p.max_iterations = spec.smoke ? 10 : 400;
  p.tolerance = 0.0;
  p.boundary_top = 50.0 + static_cast<double>(Mix(spec.seed) % 1000) / 10.0;
  return p;
}

}  // namespace

RoundResult RunSor(const RoundSpec& spec) {
  RoundResult out;
  const sor::Params params = ParamsFor(spec);
  amber::Runtime::Config config;
  config.nodes = kNodes;
  config.procs_per_node = kProcs;
  config.arena_bytes = size_t{1} << 30;

  sor::Result r;
  {
    amber::Runtime rt(config);
    out.clock.SetupDone();
    // RunAmber places the sections itself, so the populate phase is empty.
    out.clock.WorkBegins();
    r = sor::RunAmber(rt, params);
    out.clock.WorkDone();
    out.shape = ShapeOf(rt);
  }
  out.clock.Finished();

  out.ops = int64_t{r.iterations} * (params.rows - 2) * (params.cols - 2);
  if (r.iterations != params.max_iterations) {
    out.error = "sor: ran the wrong number of iterations";
  }
  AddDigest(out.digest, "solve_ns", r.solve_time);
  AddDigest(out.digest, "grid_hash", r.grid_hash);
  AddDigest(out.digest, "net_messages", r.net_messages);
  AddDigest(out.digest, "net_bytes", r.net_bytes);
  AddDigest(out.digest, "thread_migrations", r.thread_migrations);
  return out;
}

// The parallel grid must equal the sequential baseline's bit for bit.
std::string VerifySor(const RoundSpec& spec, const RoundResult& round) {
  const sor::Result seq = sor::RunSequentialOn(ParamsFor(spec), sim::CostModel{});
  for (const auto& [name, value] : round.digest) {
    if (name == "grid_hash" && value == std::to_string(seq.grid_hash)) {
      return "";
    }
  }
  return "sor: grid differs from the sequential baseline";
}

}  // namespace perfbench
