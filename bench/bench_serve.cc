// Open-loop serving benchmark: sharded keyed objects under a deterministic
// Poisson client population, reported as p50/p99/p999 virtual-time latency.
//
// Each node runs a Frontend driver that generates its own arrival process
// (seeded LCG + exponential inversion, paced with amber::SleepUntil) — the
// arrival times never depend on how long requests take to serve, so queueing
// delay shows up in the measured latency instead of silently throttling the
// load (no coordinated omission). Admission is bounded: at most kAdmitCap
// requests in flight per node; an arrival that finds the queue full is
// rejected and counted, not silently absorbed.
//
// Every request is a thread started on its key's shard; a fraction of
// requests also touch a sibling shard on another node, exercising the
// cross-node invocation path. The rtrace::Tracer samples 1-in-N requests:
// latency is recorded into the `serve.latency` histogram with the request's
// trace id, so the p99/p999 buckets carry exemplars naming real traces that
// TRACEREQ_serve.json fully reconstructs (render with amber-tail).
//
// Two scenarios: a clean run, and a chaos run (same workload under lossy
// links plus a mid-run crash/restart of one node). Both derive everything
// from virtual time and seeded RNGs — two runs of this binary produce
// byte-identical BENCH_serve.json and TRACEREQ_serve*.json files.

#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/amber.h"
#include "src/fault/fault.h"
#include "src/metrics/metrics.h"
#include "src/rtrace/rtrace.h"
#include "src/tseries/tseries.h"

namespace {

constexpr int kNodes = 4;
constexpr int kProcs = 2;
constexpr int kShards = 16;
constexpr int kKeysPerShard = 64;
constexpr int kRequestsPerNode = 300;
constexpr size_t kAdmitCap = 32;  // bounded per-node admission queue
constexpr uint64_t kSeed = 42;
constexpr uint64_t kSampleEvery = 5;  // trace 1 in 5 requests
// Must clear the modeled thread-creation cost (~950 us, charged to the
// issuing driver) with headroom: the driver itself is the admission point,
// and Poisson bursts above its issue rate become queueing delay — visible
// in the tail percentiles, as an open-loop benchmark should show.
constexpr amber::Duration kMeanInterarrival = amber::Micros(2500);

// Set per scenario before rt.Run: the request threads record into these.
metrics::Registry* g_registry = nullptr;
rtrace::Tracer* g_tracer = nullptr;

// Offered load for the current run. The default matches kMeanInterarrival,
// so the classic two-scenario mode is byte-identical to before; --sweep
// re-runs the workload across a ladder of these.
amber::Duration g_interarrival = kMeanInterarrival;

class Shard;
std::vector<amber::Ref<Shard>> g_shards;

uint64_t NextRand(uint64_t& state) {
  state = state * 6364136223846793005ull + 1442695040888963407ull;
  return state >> 11;
}

// Exponential inter-arrival with the given mean, from one LCG draw.
amber::Duration ExpInterval(uint64_t& state, amber::Duration mean) {
  const double u = (static_cast<double>(NextRand(state) & 0xFFFFFFFFull) + 1.0) / 4294967297.0;
  return static_cast<amber::Duration>(-static_cast<double>(mean) * std::log(u));
}

// One shard of the keyed store. Handle is the whole request: the request
// thread migrates here, computes, maybe hops to a sibling shard, and records
// its own end-to-end latency (scheduled arrival -> completion) on the way
// out — with its trace id, so sampled requests leave exemplars.
class Shard final : public amber::Object {
 public:
  Shard(int index, int keys) : index_(index), values_(keys, 0) {}

  void Handle(int key, amber::Time arrival) {
    amber::Work(amber::Micros(20 + (key % 13) * 6));
    values_[key % kKeysPerShard] += 1;
    if (key % 4 == 0) {
      // Cross-shard touch: the thread travels to the sibling and back,
      // carrying its trace context across the wire.
      g_shards[(index_ + 1) % kShards].Call(&Shard::Touch, key);
    }
    const double latency = static_cast<double>(amber::Now() - arrival);
    const uint64_t trace_id = g_tracer != nullptr ? g_tracer->CurrentTraceId() : 0;
    g_registry->GetHistogram("serve.latency").Record(latency, trace_id);
    g_registry->GetCounter("serve.completed", amber::Here()).Add(1);
  }

  void Touch(int key) {
    amber::Work(amber::Micros(10 + (key % 7) * 4));
    values_[key % kKeysPerShard] += 1;
  }

  int64_t Checksum() const {
    // Unsigned arithmetic: the hash is meant to wrap (same bits as the old
    // signed formula, without the UB).
    uint64_t h = static_cast<uint64_t>(index_);
    for (int64_t v : values_) {
      h = h * 1099511628211ull + static_cast<uint64_t>(v);
    }
    return static_cast<int64_t>(h);
  }

  int64_t AmberPayloadBytes() const override {
    return static_cast<int64_t>(values_.size() * sizeof(int64_t));
  }

 private:
  int index_;
  std::vector<int64_t> values_;
};

// Per-node client population: one driver object pinned to each node.
class Frontend final : public amber::Object {
 public:
  explicit Frontend(int node) : node_(node) {}

  void Drive() {
    uint64_t rng = kSeed ^ (0x9E3779B97F4A7C15ull * static_cast<uint64_t>(node_ + 1));
    std::deque<amber::ThreadRef<void>> inflight;
    amber::Time next = amber::Now();
    for (int i = 0; i < kRequestsPerNode; ++i) {
      next += ExpInterval(rng, g_interarrival);
      amber::SleepUntil(next);
      // Reap whatever finished while we slept; the queue bound counts only
      // genuinely outstanding requests.
      while (!inflight.empty() && inflight.front().object()->finished()) {
        inflight.front().TryJoin();
        inflight.pop_front();
      }
      if (inflight.size() >= kAdmitCap) {
        g_registry->GetCounter("serve.rejected", node_).Add(1);
        continue;
      }
      const int key = static_cast<int>(NextRand(rng) % (kShards * kKeysPerShard));
      g_registry->GetCounter("serve.offered", node_).Add(1);
      if (g_tracer != nullptr) {
        g_tracer->OpenRequest("get");
      }
      inflight.push_back(
          amber::StartThread(g_shards[key % kShards], &Shard::Handle, key, next));
    }
    while (!inflight.empty()) {
      if (inflight.front().TryJoin()) {
        inflight.pop_front();
      } else {
        amber::Work(amber::Millis(1));  // request lost to a dead node; wait out the restart
      }
    }
  }

 private:
  int node_;
};

struct ServeResult {
  amber::Time end_time = 0;
  int64_t checksum = 0;
};

ServeResult RunServe(const fault::FaultPlan& plan, metrics::Registry* registry,
                     rtrace::Tracer* tracer, fault::Injector* injector,
                     tseries::Collector* collector = nullptr) {
  amber::Runtime::Config config;
  config.nodes = kNodes;
  config.procs_per_node = kProcs;
  config.arena_bytes = size_t{256} << 20;
  amber::Runtime rt(config);
  rt.SetMetrics(registry);
  if (tracer != nullptr) {
    tracer->AttachTo(rt);
  }
  if (collector != nullptr) {
    collector->AttachTo(rt);
  }
  if (injector != nullptr) {
    rt.SetFaultInjector(injector);
    rt.SetFailureHandler([](const amber::FailureEvent&) { return amber::FailureAction::kRetry; });
  }
  g_registry = registry;
  g_tracer = tracer;
  ServeResult out;
  rt.Run([&out] {
    g_shards.clear();
    for (int s = 0; s < kShards; ++s) {
      g_shards.push_back(amber::NewOn<Shard>(s % kNodes, s, kKeysPerShard));
    }
    std::vector<amber::Ref<Frontend>> fronts;
    std::vector<amber::ThreadRef<void>> drivers;
    for (int n = 0; n < kNodes; ++n) {
      fronts.push_back(amber::NewOn<Frontend>(n, n));
    }
    for (int n = 0; n < kNodes; ++n) {
      drivers.push_back(amber::StartThread(fronts[n], &Frontend::Drive));
    }
    for (auto& d : drivers) {
      while (!d.TryJoin()) {
        amber::Work(amber::Millis(1));
      }
    }
    uint64_t sum = 0;
    for (auto& shard : g_shards) {
      sum = sum * 31 + static_cast<uint64_t>(shard.Call(&Shard::Checksum));
    }
    out.checksum = static_cast<int64_t>(sum);
    out.end_time = amber::Now();
  });
  g_shards.clear();
  g_registry = nullptr;
  g_tracer = nullptr;
  return out;
}

// Lossy links plus one mid-run crash/restart, timed against the clean run.
fault::FaultPlan ChaosPlan(amber::Time clean_end) {
  fault::FaultPlan plan;
  plan.seed = kSeed;
  fault::LinkRule rule;
  rule.drop = 0.02;
  rule.duplicate = 0.01;
  rule.delay = 0.03;
  rule.delay_min = amber::Micros(50);
  rule.delay_max = amber::Micros(500);
  plan.links.push_back(rule);
  fault::NodeEvent ev;
  ev.node = kNodes - 1;
  ev.crash_at = clean_end / 3;
  ev.restart_at = clean_end * 2 / 3;
  plan.node_events.push_back(ev);
  return plan;
}

// Every nanosecond of a completed trace must land in exactly one attribution
// category — amber-tail relies on it, so the bench gates on it too.
bool ClosureExact(const rtrace::Tracer& tracer, const char* what) {
  for (const auto& [id, t] : tracer.traces()) {
    if (!t.done) {
      continue;
    }
    amber::Duration sum = 0;
    for (const amber::Duration ns : t.attribution) {
      sum += ns;
    }
    if (sum != t.latency()) {
      std::printf("%s: trace %llu attribution sums to %lld, latency is %lld\n", what,
                  static_cast<unsigned long long>(id), static_cast<long long>(sum),
                  static_cast<long long>(t.latency()));
      return false;
    }
  }
  return true;
}

std::string WriteTraces(const rtrace::Tracer& tracer) {
  const std::string path = "TRACEREQ_" + tracer.config().name + ".json";
  std::ofstream out(path);
  tracer.WriteJson(out);
  return path;
}

// --- Saturation sweep (--sweep) ---------------------------------------------
//
// The same open-loop workload, re-run across a ladder of offered rates from
// well below to past the drivers' issue capacity (~1.05k req/s/node: thread
// creation costs ~950 us charged to the issuing driver). Each rung gets a
// fresh registry plus a tseries::Collector on a 10 ms window; the per-rate
// latency summary is extracted from the *steady-state* windows (middle 60%
// of the run), so ramp-up and drain don't pollute the curve. No tracer is
// attached: Record(v, 0) is byte-equal to Record(v), and the sweep leaves
// the classic mode's outputs untouched.

// Mean interarrival ladder, per-node. ~167/s up to ~1250/s offered per node.
constexpr amber::Duration kLadder[] = {amber::Micros(6000), amber::Micros(4000),
                                       amber::Micros(2500), amber::Micros(1600),
                                       amber::Micros(1100), amber::Micros(800)};
constexpr int kLadderRungs = static_cast<int>(sizeof(kLadder) / sizeof(kLadder[0]));

struct SweepPoint {
  double offered_per_sec = 0.0;  // configured arrival rate, all nodes
  double throughput_per_sec = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double rejection_pct = 0.0;
  int64_t steady_windows = 0;
  int64_t completed = 0;
  int64_t rejected = 0;
  amber::Time end_time = 0;
};

SweepPoint RunSweepRung(int rung) {
  metrics::Registry registry;
  tseries::Collector::Config cfg;
  cfg.name = "serve_r" + std::to_string(rung);
  cfg.flush_path = "TS_serve_r" + std::to_string(rung) + ".json";
  tseries::Collector collector(cfg);
  collector.SetRegistry(&registry);
  collector.WatchCounter("serve.completed");
  collector.WatchCounter("serve.offered");
  collector.WatchCounter("serve.rejected");
  collector.WatchHistogram("serve.latency");

  g_interarrival = kLadder[rung];
  const ServeResult r = RunServe(fault::FaultPlan{}, &registry, nullptr, nullptr, &collector);
  g_interarrival = kMeanInterarrival;
  collector.Finish(r.end_time);

  SweepPoint p;
  p.end_time = r.end_time;
  p.offered_per_sec = 1e9 / static_cast<double>(kLadder[rung]) * kNodes;
  p.completed = registry.CounterTotal("serve.completed");
  p.rejected = registry.CounterTotal("serve.rejected");
  p.rejection_pct =
      100.0 * static_cast<double>(p.rejected) / (static_cast<double>(kNodes) * kRequestsPerNode);

  const size_t frames = collector.frames().size();
  const size_t w0 = frames / 5;            // skip ramp-up
  const size_t w1 = frames - frames / 5;   // and drain
  p.steady_windows = static_cast<int64_t>(w1 - w0);
  const std::vector<double> completed = collector.SeriesValues("counter:serve.completed");
  double steady_completed = 0.0;
  for (size_t i = w0; i < w1; ++i) {
    steady_completed += completed[i];
  }
  const double steady_ns =
      static_cast<double>(p.steady_windows) * static_cast<double>(collector.window_ns());
  p.throughput_per_sec = steady_ns > 0 ? steady_completed / steady_ns * 1e9 : 0.0;
  const metrics::IntervalSummary steady = collector.AggregateHistogram(0, w0, w1);
  p.p50_us = steady.p50 / 1000.0;
  p.p99_us = steady.p99 / 1000.0;
  p.p999_us = steady.p999 / 1000.0;
  return p;
}

int RunSweep() {
  std::printf("Serve sweep: %d-rung offered-load ladder, %d req/node per rung on %dNx%dP, "
              "steady-state = middle 60%% of 10 ms windows\n\n",
              kLadderRungs, kRequestsPerNode, kNodes, kProcs);

  std::vector<SweepPoint> points;
  amber::Time total_vt = 0;
  for (int i = 0; i < kLadderRungs; ++i) {
    points.push_back(RunSweepRung(i));
    total_vt += points.back().end_time;
  }

  benchutil::Table table({"offered/s", "thruput/s", "p50 us", "p99 us", "p999 us", "reject %",
                          "windows"});
  for (const SweepPoint& p : points) {
    table.AddRow({benchutil::Fmt("%.0f", p.offered_per_sec),
                  benchutil::Fmt("%.0f", p.throughput_per_sec), benchutil::Fmt("%.1f", p.p50_us),
                  benchutil::Fmt("%.1f", p.p99_us), benchutil::Fmt("%.1f", p.p999_us),
                  benchutil::Fmt("%.1f", p.rejection_pct), benchutil::FmtI(p.steady_windows)});
  }
  table.Print();

  // Knee: the rung with the largest p99 jump over its predecessor.
  int knee = -1;
  double knee_ratio = 0.0;
  for (int i = 1; i < kLadderRungs; ++i) {
    const double ratio = points[i - 1].p99_us > 0 ? points[i].p99_us / points[i - 1].p99_us : 0.0;
    if (ratio > knee_ratio) {
      knee_ratio = ratio;
      knee = i;
    }
  }
  if (knee >= 0) {
    std::printf("\nknee: %.0f -> %.0f offered/s (p99 x%.2f)\n", points[knee - 1].offered_per_sec,
                points[knee].offered_per_sec, knee_ratio);
  }

  metrics::Registry sweep_registry;
  for (int i = 0; i < kLadderRungs; ++i) {
    const std::string label = "r" + std::to_string(i);
    sweep_registry.GetGauge("sweep.offered_per_sec", label).Set(points[i].offered_per_sec);
    sweep_registry.GetGauge("sweep.throughput_per_sec", label).Set(points[i].throughput_per_sec);
    sweep_registry.GetGauge("sweep.p50_us", label).Set(points[i].p50_us);
    sweep_registry.GetGauge("sweep.p99_us", label).Set(points[i].p99_us);
    sweep_registry.GetGauge("sweep.p999_us", label).Set(points[i].p999_us);
    sweep_registry.GetGauge("sweep.rejection_pct", label).Set(points[i].rejection_pct);
  }
  if (knee >= 0) {
    sweep_registry.GetGauge("sweep.knee_offered_per_sec").Set(points[knee].offered_per_sec);
  }

  benchutil::BenchJson json("serve_sweep");
  json.Config("nodes", int64_t{kNodes});
  json.Config("procs_per_node", int64_t{kProcs});
  json.Config("shards", int64_t{kShards});
  json.Config("requests_per_node", int64_t{kRequestsPerNode});
  json.Config("admit_cap", static_cast<int64_t>(kAdmitCap));
  json.Config("seed", int64_t{kSeed});
  json.Config("rungs", int64_t{kLadderRungs});
  for (int i = 0; i < kLadderRungs; ++i) {
    json.Config("interarrival_r" + std::to_string(i) + "_ns", kLadder[i]);
  }
  const std::string bench_path = json.Write(total_vt, &sweep_registry);
  std::printf("wrote %s and TS_serve_r0..r%d.json — render with amber-plot --sweep\n",
              bench_path.c_str(), kLadderRungs - 1);

  // --- Gates -----------------------------------------------------------------
  bool ok = true;
  for (int i = 0; i < kLadderRungs; ++i) {
    const SweepPoint& p = points[i];
    if (!(p.p50_us > 0 && p.p99_us >= p.p50_us && p.p999_us >= p.p99_us)) {
      std::printf("sweep FAILED: rung %d percentiles out of order\n", i);
      ok = false;
    }
    if (p.completed + p.rejected != int64_t{kNodes} * kRequestsPerNode) {
      std::printf("sweep FAILED: rung %d served + rejected != offered\n", i);
      ok = false;
    }
  }
  for (int i = 1; i < kLadderRungs; ++i) {
    // Monotone non-decreasing p99 along the ladder (2% slack: steady-state
    // percentiles are bucket-interpolated estimates).
    if (points[i].p99_us < points[i - 1].p99_us * 0.98) {
      std::printf("sweep FAILED: p99 not monotone (rung %d: %.1f us < rung %d: %.1f us)\n", i,
                  points[i].p99_us, i - 1, points[i - 1].p99_us);
      ok = false;
    }
  }
  if (knee < 0 || knee_ratio < 1.5) {
    std::printf("sweep FAILED: no visible knee (max p99 jump x%.2f)\n", knee_ratio);
    ok = false;
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--sweep") {
    return RunSweep();
  }
  std::printf("Serve: %d shards x %d keys on %dNx%dP, %d req/node open-loop "
              "(mean interarrival %lld us), admission cap %d, tracing 1 in %llu\n\n",
              kShards, kKeysPerShard, kNodes, kProcs, kRequestsPerNode,
              static_cast<long long>(kMeanInterarrival / 1000), static_cast<int>(kAdmitCap),
              static_cast<unsigned long long>(kSampleEvery));

  metrics::Registry registry;
  rtrace::Tracer tracer({.name = "serve", .sample_every = kSampleEvery});
  const ServeResult clean = RunServe(fault::FaultPlan{}, &registry, &tracer, nullptr);
  const metrics::Histogram& lat = registry.GetHistogram("serve.latency");
  const metrics::PercentileSummary clean_sum = lat.Summary();
  std::printf("clean: %lld served in %.2f ms virtual\n", static_cast<long long>(lat.count()),
              amber::ToMillis(clean.end_time));

  metrics::Registry chaos_registry;
  rtrace::Tracer chaos_tracer({.name = "serve_chaos", .sample_every = kSampleEvery});
  const fault::FaultPlan plan = ChaosPlan(clean.end_time);
  fault::Injector injector(plan);
  const ServeResult chaos = RunServe(plan, &chaos_registry, &chaos_tracer, &injector);
  const metrics::Histogram& chaos_lat = chaos_registry.GetHistogram("serve.latency");
  const metrics::PercentileSummary chaos_sum = chaos_lat.Summary();
  std::printf("chaos: %lld served in %.2f ms virtual (node %d down %.2f-%.2f ms)\n\n",
              static_cast<long long>(chaos_lat.count()), amber::ToMillis(chaos.end_time),
              kNodes - 1, amber::ToMillis(plan.node_events[0].crash_at),
              amber::ToMillis(plan.node_events[0].restart_at));

  benchutil::Table table({"scenario", "p50 us", "p99 us", "p999 us", "max us", "rejected"});
  table.AddRow({"clean", benchutil::Fmt("%.1f", clean_sum.p50 / 1000.0),
                benchutil::Fmt("%.1f", clean_sum.p99 / 1000.0),
                benchutil::Fmt("%.1f", clean_sum.p999 / 1000.0),
                benchutil::Fmt("%.1f", lat.max() / 1000.0),
                benchutil::FmtI(registry.CounterTotal("serve.rejected"))});
  table.AddRow({"chaos", benchutil::Fmt("%.1f", chaos_sum.p50 / 1000.0),
                benchutil::Fmt("%.1f", chaos_sum.p99 / 1000.0),
                benchutil::Fmt("%.1f", chaos_sum.p999 / 1000.0),
                benchutil::Fmt("%.1f", chaos_lat.max() / 1000.0),
                benchutil::FmtI(chaos_registry.CounterTotal("serve.rejected"))});
  table.Print();

  const metrics::Exemplar p99_ex = lat.ExemplarNear(clean_sum.p99);
  const metrics::Exemplar p999_ex = lat.ExemplarNear(clean_sum.p999);
  std::printf("\nexemplars: p99 -> trace %llu (%.1f us), p999 -> trace %llu (%.1f us)\n",
              static_cast<unsigned long long>(p99_ex.trace_id), p99_ex.value / 1000.0,
              static_cast<unsigned long long>(p999_ex.trace_id), p999_ex.value / 1000.0);
  std::printf("traced: %lld of %lld requests (%lld wire hops), chaos %lld of %lld\n",
              static_cast<long long>(tracer.requests_sampled()),
              static_cast<long long>(tracer.requests_seen()),
              static_cast<long long>(tracer.contexts_propagated()),
              static_cast<long long>(chaos_tracer.requests_sampled()),
              static_cast<long long>(chaos_tracer.requests_seen()));

  registry.GetGauge("serve.chaos_p999_us").Set(chaos_sum.p999 / 1000.0);
  registry.GetGauge("serve.chaos_slowdown")
      .Set(clean_sum.p99 > 0 ? chaos_sum.p99 / clean_sum.p99 : 0.0);

  benchutil::BenchJson json("serve");
  json.Config("nodes", int64_t{kNodes});
  json.Config("procs_per_node", int64_t{kProcs});
  json.Config("shards", int64_t{kShards});
  json.Config("keys_per_shard", int64_t{kKeysPerShard});
  json.Config("requests_per_node", int64_t{kRequestsPerNode});
  json.Config("admit_cap", static_cast<int64_t>(kAdmitCap));
  json.Config("mean_interarrival_ns", kMeanInterarrival);
  json.Config("seed", int64_t{kSeed});
  json.Config("sample_every", static_cast<int64_t>(kSampleEvery));
  json.Config("chaos_link_drop", plan.links[0].drop);
  json.Config("chaos_crash_node", int64_t{plan.node_events[0].node});
  json.Config("chaos_crash_at_ns", plan.node_events[0].crash_at);
  json.Config("chaos_restart_at_ns", plan.node_events[0].restart_at);
  const std::string bench_path = json.Write(clean.end_time, &registry);
  std::printf("\nwrote %s\n", bench_path.c_str());

  const std::string trace_path = WriteTraces(tracer);
  const std::string chaos_trace_path = WriteTraces(chaos_tracer);
  std::printf("wrote %s (%zu traces) and %s (%zu traces) — render with amber-tail\n",
              trace_path.c_str(), tracer.traces().size(), chaos_trace_path.c_str(),
              chaos_tracer.traces().size());

  // --- Gates -----------------------------------------------------------------
  bool ok = true;
  if (!(clean_sum.p50 > 0 && clean_sum.p99 >= clean_sum.p50 && clean_sum.p999 >= clean_sum.p99)) {
    std::printf("serve bench FAILED: degenerate latency percentiles\n");
    ok = false;
  }
  if (lat.count() + registry.CounterTotal("serve.rejected") != int64_t{kNodes} * kRequestsPerNode) {
    std::printf("serve bench FAILED: served + rejected != offered\n");
    ok = false;
  }
  if (tracer.requests_sampled() == 0 || p999_ex.trace_id == 0 ||
      tracer.FindTrace(p999_ex.trace_id) == nullptr) {
    std::printf("serve bench FAILED: p999 exemplar names no reconstructible trace\n");
    ok = false;
  }
  if (tracer.contexts_propagated() == 0) {
    std::printf("serve bench FAILED: no trace context crossed the wire\n");
    ok = false;
  }
  if (!ClosureExact(tracer, "clean") || !ClosureExact(chaos_tracer, "chaos")) {
    std::printf("serve bench FAILED: attribution does not sum to latency\n");
    ok = false;
  }
  // The two runs admit different request sets (rejection under chaos), so
  // state checksums are not comparable — the chaos gate is accounting: a
  // crash really happened, and every admitted request still completed.
  if (injector.crashes() == 0) {
    std::printf("serve bench FAILED: chaos run injected no crash\n");
    ok = false;
  }
  if (chaos_lat.count() + chaos_registry.CounterTotal("serve.rejected") !=
      int64_t{kNodes} * kRequestsPerNode) {
    std::printf("serve bench FAILED: chaos served + rejected != offered\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
