// Distributed branch-and-bound TSP (see src/apps/tsp/tsp.h).
//
// Irregular, dynamic parallelism — the opposite of SOR's regular static
// decomposition: a central work pool of tour prefixes, worker threads on
// every node, an immutable (replicated) distance matrix, and a shared
// incumbent-bound monitor.
//
// Usage: tsp_solver [nodes procs cities seed [trace.json [metrics.json]]]
// With a trace argument, the parallel run is fully instrumented: Chrome
// trace to trace.json, metrics-registry dump to metrics.json (default
// trace.json.metrics.json), plus a cluster report with the registry's
// lock-contention section (docs/OBSERVABILITY.md).

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "src/apps/tsp/tsp.h"
#include "src/core/cluster_report.h"
#include "src/metrics/metrics.h"
#include "src/trace/trace.h"

int main(int argc, char** argv) {
  int nodes = 4;
  int procs = 2;
  tsp::Params params;
  params.cities = 11;
  if (argc >= 3) {
    nodes = std::atoi(argv[1]);
    procs = std::atoi(argv[2]);
  }
  if (argc >= 4) {
    params.cities = std::atoi(argv[3]);
  }
  if (argc >= 5) {
    params.seed = static_cast<uint64_t>(std::atoll(argv[4]));
  }

  const sim::CostModel cost;
  std::printf("TSP branch-and-bound: %d cities (seed %llu), %d nodes x %d CPUs\n\n",
              params.cities, static_cast<unsigned long long>(params.seed), nodes, procs);

  const tsp::Result seq = tsp::RunSequentialOn(params, cost);

  amber::Runtime::Config config;
  config.nodes = nodes;
  config.procs_per_node = procs;
  config.cost = cost;
  config.arena_bytes = size_t{256} << 20;
  amber::Runtime rt(config);
  trace::Tracer tracer;
  metrics::Registry registry;
  const bool instrument = argc >= 6;
  if (instrument) {
    rt.AddObserver(&tracer);
    rt.SetMetrics(&registry);
  }
  const tsp::Result par = tsp::RunAmber(rt, params);

  std::printf("optimal tour cost: %.2f (sequential) / %.2f (parallel)%s\n", seq.best_cost,
              par.best_cost, seq.best_cost == par.best_cost ? "  [match]" : "  [MISMATCH!]");
  std::printf("tour: ");
  for (int c : par.best_tour) {
    std::printf("%d ", c);
  }
  std::printf("\n\n");
  std::printf("sequential: %8.2f s, %lld expansions\n", amber::ToSeconds(seq.solve_time),
              static_cast<long long>(seq.expansions));
  std::printf("parallel:   %8.2f s, %lld expansions across %lld pool items\n",
              amber::ToSeconds(par.solve_time), static_cast<long long>(par.expansions),
              static_cast<long long>(par.pool_items));
  std::printf("speedup %.2f on %d processors (note: parallel search may expand a\n"
              "different node count — bound propagation is timing-dependent)\n",
              static_cast<double>(seq.solve_time) / static_cast<double>(par.solve_time),
              nodes * procs);
  std::printf("network: %lld messages, %.1f KB\n", static_cast<long long>(par.net_messages),
              static_cast<double>(par.net_bytes) / 1024.0);
  if (instrument) {
    std::printf("\n%s", amber::ClusterReport(rt, par.solve_time).c_str());
    std::ofstream tout(argv[5]);
    tracer.WriteChromeTrace(tout);
    if (!tout) {
      std::fprintf(stderr, "cannot write %s\n", argv[5]);
      return 1;
    }
    std::printf("trace: %zu events written to %s (open in https://ui.perfetto.dev)\n",
                tracer.size(), argv[5]);
    const std::string metrics_path =
        argc >= 7 ? argv[6] : std::string(argv[5]) + ".metrics.json";
    std::ofstream mout(metrics_path);
    registry.WriteJson(mout);
    std::printf("metrics: registry written to %s\n", metrics_path.c_str());
  }
  return 0;
}
