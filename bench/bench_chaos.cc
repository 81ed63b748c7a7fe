// Chaos benchmark: the Figure-2 Red/Black SOR workload under a standard
// lossy fault plan — every link drops/duplicates/delays frames, and one node
// fail-stops mid-solve and restarts. Demonstrates the failure-aware runtime
// end to end: the solve completes through retransmission, duplicate
// suppression, forwarding-chain repair and the kRetry failure handler, and
// the answer (grid hash) matches the clean run exactly.
//
// A second scenario crashes a node *without restart*: a checkpointed
// (amber::SetRecoverable) grid strip lives on the victim node; when the node
// dies mid-run the heartbeat membership service suspects it, the kRecover
// failure handler restores the last checkpoint on the buddy node, and the
// driver idempotently re-runs the lost phases — finishing with a grid hash
// bit-identical to the crash-free run.
//
// Emits BENCH_chaos.json with the full metrics registry, including the
// fault.* counters (drops, dups, delays, crashes), member.* detection
// metrics, recovery.* counters and rpc.retries / rpc.timeouts. Everything
// derives from virtual time and one seeded RNG, so two runs of this binary
// produce byte-identical output files.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/sor/sor.h"
#include "src/core/amber.h"
#include "src/fault/fault.h"
#include "src/fdr/fdr.h"
#include "src/metrics/metrics.h"
#include "src/prof/profiler.h"
#include "src/tseries/tseries.h"

namespace {

constexpr int kNodes = 4;
constexpr int kProcs = 2;
constexpr uint64_t kSeed = 42;

sor::Params ReducedProblem() {
  sor::Params p;  // a quarter-scale Figure-2 problem: chaos multiplies runtime
  p.rows = 62;
  p.cols = 210;
  p.sections = 4;
  p.max_iterations = 30;
  p.tolerance = 0.0;
  return p;
}

// The "standard lossy plan": every link is bad in every way the model
// supports, plus one mid-solve crash/restart. Times are picked relative to
// the clean run's solve time so the outage always lands inside the solve.
fault::FaultPlan StandardLossyPlan(amber::Time clean_end) {
  fault::FaultPlan plan;
  plan.seed = kSeed;
  fault::LinkRule rule;  // applies to every directed link
  rule.drop = 0.05;
  rule.duplicate = 0.02;
  rule.delay = 0.05;
  rule.delay_min = amber::Micros(100);
  rule.delay_max = amber::Millis(1);
  plan.links.push_back(rule);
  fault::NodeEvent ev;
  ev.node = kNodes - 1;
  ev.crash_at = clean_end / 4;
  ev.restart_at = clean_end / 2;
  plan.node_events.push_back(ev);
  return plan;
}

// --- Crash-without-restart recovery scenario ---------------------------------

constexpr int kRecPhases = 12;
constexpr int kRecCells = 256;
constexpr amber::NodeId kVictim = kNodes - 1;

// A strip of grid cells relaxed in phases by two worker threads (one per
// half). Phases are committed with amber::Checkpoint, and Step is idempotent
// so crash recovery can re-run a phase from the restored checkpoint without
// changing the answer: each half records the last phase it applied.
class RecStrip final : public amber::Object {
 public:
  explicit RecStrip(int cells) : data_(cells, 1.0) {}

  void Step(int phase, int half) {
    if (done_[half] >= phase) {
      return;  // already applied (recovery re-run)
    }
    const int cells = static_cast<int>(data_.size());
    const int lo = half == 0 ? 0 : cells / 2;
    const int hi = half == 0 ? cells / 2 : cells;
    for (int i = lo; i < hi; ++i) {
      data_[i] = data_[i] * 0.9995 + 0.01 * phase + 1e-7 * i;
    }
    amber::Work(amber::Micros(300));
    done_[half] = phase;
  }

  int PhaseDone() const { return std::min(done_[0], done_[1]); }

  uint64_t Hash() const {  // FNV-1a over the strip bytes
    uint64_t h = 1469598103934665603ull;
    const auto* b = reinterpret_cast<const uint8_t*>(data_.data());
    for (size_t i = 0; i < data_.size() * sizeof(double); ++i) {
      h = (h ^ b[i]) * 1099511628211ull;
    }
    return h;
  }

  int64_t AmberPayloadBytes() const override {
    return static_cast<int64_t>(data_.size() * sizeof(double));
  }

  // data_ is heap-backed, so the default raw-copy checkpoint would capture
  // pointers; serialize the phase markers and the cells explicitly.
  void AmberSaveState(std::vector<uint8_t>* out) const override {
    out->resize(sizeof(done_) + data_.size() * sizeof(double));
    std::memcpy(out->data(), done_, sizeof(done_));
    std::memcpy(out->data() + sizeof(done_), data_.data(), data_.size() * sizeof(double));
  }
  void AmberLoadState(const uint8_t* data, size_t size) override {
    std::memcpy(done_, data, sizeof(done_));
    data_.resize((size - sizeof(done_)) / sizeof(double));
    std::memcpy(data_.data(), data + sizeof(done_), data_.size() * sizeof(double));
  }

 private:
  std::vector<double> data_;
  int done_[2] = {0, 0};
};

struct RecoveryResult {
  uint64_t hash = 0;
  amber::Time end_time = 0;
  bool completed = false;
};

// Runs the phase driver. The strip is pinned to the victim node; under the
// crash plan the driver loses it mid-run and finishes on the buddy. The
// driver itself never migrates to the strip — on-strip reads go through
// worker threads reaped with TryJoin — so it cannot freeze with the victim.
RecoveryResult RunRecovery(const fault::FaultPlan& plan, metrics::Registry* registry,
                           fault::Injector* injector, prof::Profiler* profiler,
                           fdr::Recorder* recorder = nullptr) {
  amber::Runtime::Config config;
  config.nodes = kNodes;
  config.procs_per_node = kProcs;
  amber::Runtime rt(config);
  if (registry != nullptr) {
    rt.SetMetrics(registry);
  }
  if (profiler != nullptr) {
    rt.AddObserver(profiler);
  }
  if (recorder != nullptr) {
    recorder->AttachTo(rt);
  }
  if (injector != nullptr) {
    rt.SetFaultInjector(injector);
    rt.SetFailureHandler(
        [](const amber::FailureEvent&) { return amber::FailureAction::kRecover; });
  }
  RecoveryResult out;
  rt.Run([&out] {
    auto strip = amber::New<RecStrip>(kRecCells);
    amber::SetRecoverable(strip);

    // Invokes `method` on the strip from a disposable worker thread; a false
    // TryJoin means the worker froze with the crashed node — the next worker
    // triggers checkpoint recovery and reads the restored strip.
    auto probe = [&strip](auto method) {
      for (;;) {
        auto p = amber::StartThread(strip, method);
        if (p.TryJoin()) {
          return p.result();
        }
      }
    };

    for (int phase = 1; phase <= kRecPhases; ++phase) {
      amber::MoveTo(strip, kVictim);  // best effort: fails once the victim dies
      for (;;) {
        if (probe(&RecStrip::PhaseDone) < phase) {
          auto w0 = amber::StartThread(strip, &RecStrip::Step, phase, 0);
          auto w1 = amber::StartThread(strip, &RecStrip::Step, phase, 1);
          w0.TryJoin();  // false: the worker froze mid-phase on the victim —
          w1.TryJoin();  // the next probe recovers the strip and we re-run
          continue;
        }
        if (amber::Checkpoint(strip)) {
          break;  // phase committed to the buddy node
        }
        amber::Work(amber::Micros(100));  // transfer lost; retry
      }
    }
    out.hash = probe(&RecStrip::Hash);
    out.end_time = amber::Now();
    out.completed = true;
  });
  return out;
}

// Same lossy links as the SOR scenario, plus a crash the victim never
// returns from, timed to land mid-run while the strip lives on it.
fault::FaultPlan RecoveryPlan(amber::Time clean_end) {
  fault::FaultPlan plan;
  plan.seed = kSeed;
  fault::LinkRule rule;
  rule.drop = 0.05;
  rule.duplicate = 0.02;
  rule.delay = 0.05;
  rule.delay_min = amber::Micros(100);
  rule.delay_max = amber::Millis(1);
  plan.links.push_back(rule);
  fault::NodeEvent ev;
  ev.node = kVictim;
  ev.crash_at = clean_end * 45 / 100;
  ev.restart_at = -1;  // never
  plan.node_events.push_back(ev);
  return plan;
}

// --- Recovery timeline: measured MTTR ----------------------------------------
//
// A fixed-cadence open-loop pinger (one request every 2 ms from node 0,
// round-robin over one Echo service per node) turns availability into a
// per-window completions signal that a tseries::Collector rolls up on a
// 10 ms cadence. The victim node crashes at 300 ms and restarts at 500 ms;
// requests routed to it freeze (kRetry) and complete in a burst after the
// restart. MeasureMttr reads the timeline back: the signal must leave its
// pre-crash band (~5 completions/window) and re-enter it for good — the
// virtual time from crash to that stable re-entry is the measured MTTR,
// gated against the configured outage plus a settling-time cap. The scenario
// uses its own registry and emits only TS_chaos_timeline.json, so
// BENCH_chaos.json stays byte-identical to a tree without it.

constexpr int kTimelineReqs = 500;
constexpr amber::Duration kTimelineCadence = amber::Millis(2);
constexpr amber::Time kTimelineCrashAt = amber::Millis(300);
constexpr amber::Time kTimelineRestartAt = amber::Millis(500);
constexpr amber::Duration kMttrSettleCap = amber::Millis(100);  // MTTR <= outage + this

metrics::Registry* g_tl_registry = nullptr;
class EchoSvc;
std::vector<amber::Ref<EchoSvc>> g_echo;

class EchoSvc final : public amber::Object {
 public:
  void Ping(amber::Time arrival) {
    amber::Work(amber::Micros(80));
    g_tl_registry->GetHistogram("timeline.latency")
        .Record(static_cast<double>(amber::Now() - arrival));
    g_tl_registry->GetCounter("timeline.completed", amber::Here()).Add(1);
  }
};

class Pinger final : public amber::Object {
 public:
  void Drive() {
    std::deque<amber::ThreadRef<void>> inflight;
    amber::Time next = amber::Now();
    for (int i = 0; i < kTimelineReqs; ++i) {
      next += kTimelineCadence;
      amber::SleepUntil(next);
      while (!inflight.empty() && inflight.front().object()->finished()) {
        inflight.front().TryJoin();
        inflight.pop_front();
      }
      inflight.push_back(amber::StartThread(g_echo[i % kNodes], &EchoSvc::Ping, next));
    }
    while (!inflight.empty()) {
      if (inflight.front().TryJoin()) {
        inflight.pop_front();
      } else {
        amber::Work(amber::Millis(1));  // frozen on the dead node; wait out the restart
      }
    }
  }
};

struct TimelineResult {
  amber::Time end_time = 0;
  int64_t crashes = 0;
  int64_t completed = 0;
};

TimelineResult RunTimeline(metrics::Registry* registry, tseries::Collector* collector) {
  fault::FaultPlan plan;
  plan.seed = kSeed;
  fault::NodeEvent ev;
  ev.node = kNodes - 1;
  ev.crash_at = kTimelineCrashAt;
  ev.restart_at = kTimelineRestartAt;
  plan.node_events.push_back(ev);
  fault::Injector injector(plan);

  amber::Runtime::Config config;
  config.nodes = kNodes;
  config.procs_per_node = kProcs;
  amber::Runtime rt(config);
  rt.SetMetrics(registry);
  rt.SetFaultInjector(&injector);
  rt.SetFailureHandler([](const amber::FailureEvent&) { return amber::FailureAction::kRetry; });
  collector->AttachTo(rt);
  g_tl_registry = registry;
  TimelineResult out;
  rt.Run([&out] {
    g_echo.clear();
    for (int n = 0; n < kNodes; ++n) {
      g_echo.push_back(amber::NewOn<EchoSvc>(n));
    }
    auto pinger = amber::NewOn<Pinger>(0);
    auto driver = amber::StartThread(pinger, &Pinger::Drive);
    while (!driver.TryJoin()) {
      amber::Work(amber::Millis(1));
    }
    out.end_time = amber::Now();
  });
  g_echo.clear();
  g_tl_registry = nullptr;
  collector->Finish(out.end_time);
  out.crashes = injector.crashes();
  out.completed = registry->CounterTotal("timeline.completed");
  return out;
}

sor::Result RunOnce(const sor::Params& params, const fault::FaultPlan& plan,
                    metrics::Registry* registry, fault::Injector* injector,
                    prof::Profiler* profiler = nullptr, fdr::Recorder* recorder = nullptr) {
  amber::Runtime::Config config;
  config.nodes = kNodes;
  config.procs_per_node = kProcs;
  config.arena_bytes = size_t{512} << 20;
  amber::Runtime rt(config);
  if (registry != nullptr) {
    rt.SetMetrics(registry);
  }
  if (profiler != nullptr) {
    rt.AddObserver(profiler);
  }
  if (recorder != nullptr) {
    recorder->AttachTo(rt);
  }
  if (injector != nullptr) {
    rt.SetFaultInjector(injector);
    rt.SetFailureHandler([](const amber::FailureEvent&) { return amber::FailureAction::kRetry; });
  }
  return sor::RunAmber(rt, params);
}

}  // namespace

int main() {
  const sor::Params params = ReducedProblem();
  std::printf("Chaos: Red/Black SOR (grid %dx%d, %d sections, %d iterations) on %dNx%dP\n",
              params.rows, params.cols, params.sections, params.max_iterations, kNodes, kProcs);
  std::printf("under per-link loss/duplication/delay and a mid-solve node crash.\n\n");

  // Clean reference run: no plan, no injector — the unperturbed solve.
  const sor::Result clean = RunOnce(params, fault::FaultPlan{}, nullptr, nullptr);
  std::printf("clean solve: %.2f ms (virtual)\n", amber::ToMillis(clean.solve_time));

  const fault::FaultPlan plan = StandardLossyPlan(clean.solve_time);
  metrics::Registry registry;
  fault::Injector injector(plan);
  prof::Profiler profiler;
  // Flight recorder rides along as an observer-only tap: if either scenario
  // diverges from its clean run, the black box is flushed before exiting
  // nonzero so the failure can be post-mortemed with amber-fdr.
  fdr::Recorder recorder({.name = "chaos"});
  const sor::Result chaos = RunOnce(params, plan, &registry, &injector, &profiler, &recorder);

  const double slowdown =
      static_cast<double>(chaos.solve_time) / static_cast<double>(clean.solve_time);
  std::printf("chaos solve: %.2f ms (virtual), %.2fx the clean run\n",
              amber::ToMillis(chaos.solve_time), slowdown);
  std::printf("grid hash:   %s\n",
              chaos.grid_hash == clean.grid_hash ? "matches clean run" : "MISMATCH");

  benchutil::Table table({"fault", "count"});
  table.AddRow({"frames dropped", benchutil::FmtI(injector.drops())});
  table.AddRow({"frames duplicated", benchutil::FmtI(injector.duplicates())});
  table.AddRow({"frames delayed", benchutil::FmtI(injector.delays())});
  table.AddRow({"node crashes", benchutil::FmtI(injector.crashes())});
  table.AddRow({"node restarts", benchutil::FmtI(injector.restarts())});
  std::printf("\n");
  table.Print();

  registry.GetGauge("chaos.slowdown").Set(slowdown);
  registry.GetGauge("chaos.grid_hash_matches").Set(chaos.grid_hash == clean.grid_hash ? 1 : 0);

  // Crash-without-restart: clean reference pass, then the same strip driver
  // with lossy links and a victim node that dies mid-run and never returns.
  std::printf("\nRecovery: checkpointed strip (%d cells, %d phases) on node %d, "
              "crash without restart.\n",
              kRecCells, kRecPhases, int{kVictim});
  const RecoveryResult rec_clean = RunRecovery(fault::FaultPlan{}, nullptr, nullptr, nullptr);
  std::printf("clean strip run: %.2f ms (virtual)\n", amber::ToMillis(rec_clean.end_time));

  const fault::FaultPlan rec_plan = RecoveryPlan(rec_clean.end_time);
  fault::Injector rec_injector(rec_plan);
  prof::Profiler rec_profiler;
  fdr::Recorder rec_recorder({.name = "chaos_recovery"});
  const RecoveryResult rec =
      RunRecovery(rec_plan, &registry, &rec_injector, &rec_profiler, &rec_recorder);
  std::printf("crash strip run: %.2f ms (virtual), node %d dead from %.2f ms; %s\n",
              amber::ToMillis(rec.end_time), int{kVictim},
              amber::ToMillis(rec_plan.node_events[0].crash_at),
              rec.completed && rec.hash == rec_clean.hash ? "strip hash matches clean run"
                                                          : "strip hash MISMATCH");

  registry.GetGauge("chaos.recovery_hash_matches")
      .Set(rec.completed && rec.hash == rec_clean.hash ? 1 : 0);

  // Recovery timeline: own registry, own output file — BENCH_chaos.json
  // below is written from `registry` and must stay byte-identical.
  std::printf("\nTimeline: %d pings at %.0f ms cadence, node %d down %.0f-%.0f ms.\n",
              kTimelineReqs, amber::ToMillis(kTimelineCadence), kNodes - 1,
              amber::ToMillis(kTimelineCrashAt), amber::ToMillis(kTimelineRestartAt));
  metrics::Registry tl_registry;
  tseries::Collector::Config tl_cfg;
  tl_cfg.name = "chaos_timeline";
  tl_cfg.flush_path = "TS_chaos_timeline.json";
  tseries::Collector tl_collector(tl_cfg);
  tl_collector.SetRegistry(&tl_registry);
  tl_collector.WatchCounter("timeline.completed");
  tl_collector.WatchHistogram("timeline.latency");
  const TimelineResult tl = RunTimeline(&tl_registry, &tl_collector);

  const tseries::MttrResult mttr =
      tseries::MeasureMttr(tl_collector.SeriesValues("counter:timeline.completed"),
                           tl_collector.FirstFrameStart(), tl_collector.window_ns(),
                           kTimelineCrashAt);
  const amber::Duration outage = kTimelineRestartAt - kTimelineCrashAt;
  if (mttr.measured) {
    std::printf("measured MTTR: %.1f ms (outage %.0f ms, band [%.1f, %.1f] completions/window, "
                "recovered at %.1f ms)\n",
                amber::ToMillis(mttr.mttr), amber::ToMillis(outage), mttr.band_lo, mttr.band_hi,
                amber::ToMillis(mttr.recovered_at));
  } else {
    std::printf("measured MTTR: NOT MEASURED (dipped=%d)\n", mttr.dipped ? 1 : 0);
  }
  std::printf("wrote TS_chaos_timeline.json — render with amber-plot\n");

  benchutil::BenchJson json("chaos");
  json.Config("nodes", int64_t{kNodes});
  json.Config("procs_per_node", int64_t{kProcs});
  json.Config("grid_rows", int64_t{params.rows});
  json.Config("grid_cols", int64_t{params.cols});
  json.Config("sections", int64_t{params.sections});
  json.Config("iterations", int64_t{params.max_iterations});
  json.Config("seed", int64_t{kSeed});
  json.Config("link_drop", plan.links[0].drop);
  json.Config("link_duplicate", plan.links[0].duplicate);
  json.Config("link_delay", plan.links[0].delay);
  json.Config("crash_node", int64_t{plan.node_events[0].node});
  json.Config("crash_at_ns", plan.node_events[0].crash_at);
  json.Config("restart_at_ns", plan.node_events[0].restart_at);
  json.Config("recovery_phases", int64_t{kRecPhases});
  json.Config("recovery_cells", int64_t{kRecCells});
  json.Config("recovery_crash_node", int64_t{rec_plan.node_events[0].node});
  json.Config("recovery_crash_at_ns", rec_plan.node_events[0].crash_at);
  json.Config("recovery_restart_at_ns", rec_plan.node_events[0].restart_at);
  const std::string path = json.Write(chaos.solve_time, &registry);
  std::printf("\nwrote %s\n", path.c_str());

  prof::ProfileReport report = profiler.Finalize();
  report.name = "chaos";
  report.WriteSummary(std::cout);
  std::ofstream prof_out("PROF_chaos.json");
  report.WriteJson(prof_out);
  std::printf("wrote PROF_chaos.json (fault share of critical path: %.1f%%)\n",
              report.total_ns > 0
                  ? 100.0 * static_cast<double>(report.breakdown.count("fault")
                                                    ? report.breakdown.at("fault")
                                                    : 0) /
                        static_cast<double>(report.total_ns)
                  : 0.0);

  prof::ProfileReport rec_report = rec_profiler.Finalize();
  rec_report.name = "chaos_recovery";
  std::ofstream rec_prof_out("PROF_chaos_recovery.json");
  rec_report.WriteJson(rec_prof_out);
  std::printf("wrote PROF_chaos_recovery.json (recovery share of critical path: %.1f%%)\n",
              rec_report.total_ns > 0
                  ? 100.0 * static_cast<double>(rec_report.breakdown.count("recovery")
                                                    ? rec_report.breakdown.at("recovery")
                                                    : 0) /
                        static_cast<double>(rec_report.total_ns)
                  : 0.0);

  // Divergence from the clean run is exactly the situation the black box
  // exists for: flush the final window before exiting nonzero so CI can
  // archive it and `amber-fdr` can explain what the run was doing.
  auto dump_divergence = [](fdr::Recorder& rec_box, const std::string& detail) {
    const std::string path = "FDR_" + rec_box.name() + ".json";
    std::ofstream out(path);
    rec_box.WriteDump(out, "divergence", detail);
    std::printf("wrote %s — inspect with: amber-fdr %s\n", path.c_str(), path.c_str());
  };
  if (injector.drops() == 0 || chaos.grid_hash != clean.grid_hash) {
    std::printf("chaos bench FAILED: no faults injected or wrong answer\n");
    dump_divergence(recorder, "chaos grid hash diverged from clean run");
    return 1;
  }
  if (rec_injector.crashes() == 0 || !rec.completed || rec.hash != rec_clean.hash) {
    std::printf("recovery scenario FAILED: no crash injected or wrong answer\n");
    dump_divergence(rec_recorder, "recovery strip hash diverged from clean run");
    return 1;
  }
  // The timeline gates make MTTR a number a regression can move, not a
  // boolean: the signal must actually dip, recovery must be measurable, and
  // it must land between the configured outage and outage + settling cap.
  if (tl.crashes == 0 || tl.completed != kTimelineReqs) {
    std::printf("timeline FAILED: no crash injected or %lld of %d pings completed\n",
                static_cast<long long>(tl.completed), kTimelineReqs);
    return 1;
  }
  if (!mttr.dipped || !mttr.measured) {
    std::printf("timeline FAILED: completions signal never dipped or never re-entered band\n");
    return 1;
  }
  if (mttr.mttr < outage || mttr.mttr > outage + kMttrSettleCap) {
    std::printf("timeline FAILED: MTTR %.1f ms outside [%.0f, %.0f] ms\n",
                amber::ToMillis(mttr.mttr), amber::ToMillis(outage),
                amber::ToMillis(outage + kMttrSettleCap));
    return 1;
  }
  return 0;
}
