// perfbench: host speed of the Amber simulator, one workload per process.
//
//   perfbench --workload scale|sor|serve|migrate --seed N --seconds S
//             --trace 0|1 [--smoke] [--spans PATH]
//
// Runs rounds of the workload (see bench.h) until S seconds have passed and
// prints one JSON line: the rounds' common virtual digest, whether every
// round agreed with it and passed its invariants, and the metrics.
//
// --trace 0 reports the end-to-end metrics: ops_per_s (work-phase ops per
// work-phase host second, pooled over every round after the first), setup_s
// (median setup + populate time), both scaled to a reference host speed by
// the calibration samples taken between rounds, and peak_rss_mb. --trace 1
// spends half the time on untraced rounds and half with the
// telemetry::SelfProfiler enabled (serve also runs bare rounds without
// observers), then runs the layer probes, and reports the per-layer metrics.
// perfbench/README.md defines each metric.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "perfbench/src/probes.h"
#include "src/core/runtime.h"
#include "src/telemetry/telemetry.h"

namespace perfbench {

void AddDigest(Digest& d, const char* name, int64_t v) { d.emplace_back(name, std::to_string(v)); }
void AddDigest(Digest& d, const char* name, uint64_t v) {
  d.emplace_back(name, std::to_string(v));
}

LayerCounts LayerCounts::Read() {
  const telemetry::SelfProfiler* p = telemetry::SelfProfiler::active();
  if (p == nullptr) {
    return {};
  }
  return {p->count(telemetry::Count::kEvents), p->count(telemetry::Count::kDispatches),
          p->count(telemetry::Count::kDescriptorLookups),
          p->count(telemetry::Count::kAllocations)};
}

Shape ShapeOf(amber::Runtime& rt) {
  Shape s;
  s.nodes = rt.nodes();
  s.topology = rt.network().topology();
  int64_t entries = 0;
  for (int n = 0; n < rt.nodes(); ++n) {
    entries += static_cast<int64_t>(rt.table(n).entries());
  }
  s.table_entries = std::max<int64_t>(1, entries / rt.nodes());
  return s;
}

namespace {

constexpr Workload kWorkloads[] = {
    {"scale", &RunScale, nullptr},
    {"sor", &RunSor, &VerifySor},
    {"serve", &RunServe, nullptr},
    {"migrate", &RunMigrate, nullptr},
};
constexpr size_t kMaxRounds = 1000;
// Leading rounds of a batch left out of its timings: they run on cold caches.
constexpr size_t kWarmupRounds = 1;

// The host speed the end-to-end times are scaled to: Calibration::SampleNs,
// the median over 30 runs on a shared 4-vCPU Xeon VM.
constexpr double kReferenceCalibNs = 80.0;

struct Options {
  const Workload* workload = nullptr;
  RoundSpec spec;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is KiB
}

// Rounds of one kind (untraced, traced or bare) with their common digest.
struct Batch {
  std::vector<RoundResult> rounds;
  std::string error;  // first invariant violation or digest disagreement
  double first_round_rss_mb = 0;  // process peak RSS when the first round ended
  std::vector<double> calib_ns;  // a calibration sample after each round

  // How much slower than the reference the host ran this batch's code.
  double Slowdown() const { return Median(calib_ns) / kReferenceCalibNs; }

  // Work-phase ops of the measured rounds over their work-phase host time.
  // On a shared host the round rates swing by a fifth from one round to the
  // next and drift over minutes; the pooled rate moves less than the best
  // round or the median round (perfbench/README.md).
  double OpsPerSec() const {
    int64_t ops = 0;
    double seconds = 0;
    for (size_t i = kWarmupRounds; i < rounds.size(); ++i) {
      ops += rounds[i].ops;
      seconds += rounds[i].clock.work_s();
    }
    return static_cast<double>(ops) / seconds;
  }
  template <typename F>
  double MedianOf(F&& f) const {
    std::vector<double> v;
    for (size_t i = kWarmupRounds; i < rounds.size(); ++i) {
      v.push_back(f(rounds[i]));
    }
    return Median(v);
  }
  int64_t ops() const {
    int64_t total = 0;
    for (const auto& r : rounds) {
      total += r.ops;
    }
    return total;
  }
};

Batch RunFor(const Workload& w, const RoundSpec& spec, double seconds, size_t min_rounds,
             Calibration& calibration) {
  Batch b;
  const int64_t start = telemetry::NowNs();
  while (b.rounds.size() < kMaxRounds &&
         (b.rounds.size() < min_rounds ||
          static_cast<double>(telemetry::NowNs() - start) / 1e9 < seconds)) {
    b.rounds.push_back(w.run(spec));
    if (b.rounds.size() == 1) {
      b.first_round_rss_mb = PeakRssMb();
    }
    b.calib_ns.push_back(calibration.SampleNs());
    const RoundResult& r = b.rounds.back();
    if (b.error.empty() && !r.error.empty()) {
      b.error = r.error;
    }
    if (b.error.empty() && r.digest != b.rounds.front().digest) {
      b.error = "round " + std::to_string(b.rounds.size() - 1) + " digest differs from round 0";
    }
  }
  return b;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void WriteSpans(const std::string& path, const std::vector<const Batch*>& batches) {
  std::ofstream out(path);
  out << "[";
  const char* sep = "\n";
  const char* kinds[] = {"untraced", "traced", "bare"};
  for (size_t k = 0; k < batches.size(); ++k) {
    for (size_t r = 0; r < batches[k]->rounds.size(); ++r) {
      for (const auto& s : batches[k]->rounds[r].clock.spans()) {
        out << sep << "{\"batch\": " << Quote(kinds[k]) << ", \"round\": " << r
            << ", \"name\": " << Quote(s.name) << ", \"parent\": \"round\", \"begin_ns\": "
            << s.begin_ns << ", \"end_ns\": " << s.end_ns << "}";
        sep = ",\n";
      }
    }
  }
  out << "\n]\n";
}

// Host times are scaled to the reference host speed: the host's speed for
// this kind of code drifts by a quarter over minutes, and the calibration
// samples taken between the rounds move with it (perfbench/README.md).
std::vector<Metric> EndToEnd(const Batch& b) {
  return {
      {"ops_per_s", b.OpsPerSec() * b.Slowdown(), "ops/s"},
      {"setup_s", b.MedianOf([](const RoundResult& r) {
         return r.clock.setup_s() + r.clock.populate_s();
       }) / b.Slowdown(),
       "s"},
      {"peak_rss_mb", b.first_round_rss_mb, "MB"},
  };
}

std::vector<Metric> PerLayer(const Batch& untraced, const Batch& traced, const Batch* bare,
                             const telemetry::SelfProfiler& prof) {
  using telemetry::Bucket;
  using telemetry::Count;
  const double rounds = static_cast<double>(traced.rounds.size());
  auto per_round = [&](Count c) { return static_cast<double>(prof.count(c)) / rounds; };
  auto bucket_s = [&](Bucket b) {
    return static_cast<double>(prof.bucket_wall_ns(b)) / rounds / 1e9;
  };

  std::vector<double> depths;
  double heap_peak = 0;
  for (const auto& s : prof.SamplesChronological()) {
    depths.push_back(static_cast<double>(s.queue_depth));
    heap_peak = std::max(heap_peak, static_cast<double>(s.heap_bytes));
  }
  const double depth_p50 = Median(depths);

  const Shape& shape = traced.rounds.front().shape;
  const double allocs = per_round(Count::kAllocations);
  const double alloc_bytes = per_round(Count::kAllocBytes);
  const auto mean_alloc = static_cast<int64_t>(allocs > 0 ? alloc_bytes / allocs : 64);

  const double post_run_ns = PostRunNs(std::max<int64_t>(1, static_cast<int64_t>(depth_p50)));
  const double switch_ns = SwitchNs();
  const double lookup_ns = LookupNs(shape.nodes, shape.table_entries);
  const double update_ns = UpdateNs(shape.nodes, shape.table_entries);
  const double alloc_ns =
      AllocNs(mean_alloc, std::min<int64_t>(static_cast<int64_t>(allocs), int64_t{1} << 20));
  const double send_ns = SendNs(shape.nodes, shape.topology);
  const CoreCosts core = CoreNs(shape.nodes, shape.topology);
  const double counter_ns = CounterAddNs(shape.nodes);
  const double hist_ns = HistRecordNs(shape.nodes);

  // Work-phase counts are identical in every traced round; the wall time
  // they are set against is the untraced rounds' median work phase.
  const LayerCounts& work = traced.rounds.front().clock.work_counts();
  const double work_ns =
      untraced.MedianOf([](const RoundResult& r) { return r.clock.work_s(); }) * 1e9;
  auto share = [work_ns](int64_t count, double cost_ns) {
    return static_cast<double>(count) * cost_ns / work_ns;
  };
  const double untraced_ops = untraced.OpsPerSec();
  const double traced_ops = traced.OpsPerSec();

  std::vector<Metric> m = {
      {"host.calib_ns", Median(untraced.calib_ns), "ns"},
      {"host.unscaled_ops_per_s", untraced_ops, "ops/s"},
      {"sim.events", per_round(Count::kEvents), "count"},
      {"sim.dispatches", per_round(Count::kDispatches), "count"},
      {"sim.events_per_s", prof.EventsPerSec(), "1/s"},
      {"sim.loop_s", bucket_s(Bucket::kEventLoop), "s"},
      {"sim.fiber_run_s", bucket_s(Bucket::kFiberRun), "s"},
      {"sim.queue_depth_p50", depth_p50, "count"},
      {"sim.post_run_ns", post_run_ns, "ns"},
      {"sim.switch_ns", switch_ns, "ns"},
      {"kernel.lookups", per_round(Count::kDescriptorLookups), "count"},
      {"kernel.lookup_ns", lookup_ns, "ns"},
      {"kernel.update_ns", update_ns, "ns"},
      {"mem.allocs", allocs, "count"},
      {"mem.alloc_bytes", alloc_bytes, "bytes"},
      {"mem.heap_peak_mb", heap_peak / 1e6, "MB"},
      {"mem.alloc_ns", alloc_ns, "ns"},
      {"net.delivery_s", bucket_s(Bucket::kNetDelivery), "s"},
      {"net.send_ns", send_ns, "ns"},
      {"core.local_call_ns", core.local_call_ns, "ns"},
      {"core.remote_call_ns", core.remote_call_ns, "ns"},
      {"core.move_ns", core.move_ns, "ns"},
      {"core.thread_ns", core.thread_ns, "ns"},
      {"obs.fanout_s", bucket_s(Bucket::kObserverFanout), "s"},
      {"obs.stack_overhead_pct",
       bare != nullptr ? (bare->OpsPerSec() / untraced_ops - 1.0) * 100.0 : 0.0, "%"},
      {"metrics.counter_add_ns", counter_ns, "ns"},
      {"metrics.hist_record_ns", hist_ns, "ns"},
      {"kernel.lookup.share", share(work.lookups, lookup_ns), "ratio"},
      {"sim.post_run.share", share(work.events, post_run_ns), "ratio"},
      {"sim.switch.share", share(work.dispatches, switch_ns), "ratio"},
      {"mem.alloc.share", share(work.allocs, alloc_ns), "ratio"},
      {"trace.overhead_pct", (untraced_ops / traced_ops - 1.0) * 100.0, "%"},
  };
  const char* phases[] = {"setup", "populate", "work", "drain"};
  for (size_t p = 0; p < 4; ++p) {
    m.push_back({std::string("span.") + phases[p] + "_s",
                 untraced.MedianOf([p](const RoundResult& r) {
                   const auto s = r.clock.spans()[p];
                   return static_cast<double>(s.end_ns - s.begin_ns) / 1e9;
                 }),
                 "s"});
  }
  return m;
}

bool Parse(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--smoke") {
      opt->spec.smoke = true;
    } else if (v == nullptr) {
      return false;
    } else if (a == "--workload") {
      for (const auto& w : kWorkloads) {
        if (std::strcmp(w.name, v) == 0) {
          opt->workload = &w;
        }
      }
      ++i;
    } else if (a == "--seed") {
      opt->spec.seed = std::strtoull(v, nullptr, 10);
      ++i;
    } else if (a == "--seconds") {
      opt->seconds = std::atof(v);
      ++i;
    } else if (a == "--trace") {
      opt->trace = std::atoi(v) != 0;
      ++i;
    } else if (a == "--spans") {
      opt->spans_path = v;
      ++i;
    } else {
      return false;
    }
  }
  return opt->workload != nullptr && opt->seconds > 0;
}

int Main(int argc, char** argv) {
  Options opt;
  if (!Parse(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload scale|sor|serve|migrate --seed N --seconds S "
                 "--trace 0|1 [--smoke] [--spans PATH]\n");
    return 2;
  }
  const Workload& w = *opt.workload;
  Calibration calibration;

  std::vector<Metric> metrics;
  std::vector<const Batch*> batches;
  Batch untraced;
  Batch traced;
  Batch bare;
  telemetry::SelfProfiler::Config prof_config;
  prof_config.name = "perfbench";
  prof_config.ring_capacity = 4096;
  telemetry::SelfProfiler prof(prof_config);
  if (!opt.trace) {
    untraced = RunFor(w, opt.spec, opt.seconds, 3, calibration);
    batches = {&untraced};
    metrics = EndToEnd(untraced);
  } else {
    const bool with_bare = std::strcmp(w.name, "serve") == 0;
    const double slice = opt.seconds / (with_bare ? 3 : 2);
    untraced = RunFor(w, opt.spec, slice, 2, calibration);
    prof.Enable();
    traced = RunFor(w, opt.spec, slice, 2, calibration);
    prof.Disable();
    batches = {&untraced, &traced};
    if (with_bare) {
      RoundSpec bare_spec = opt.spec;
      bare_spec.observers = false;
      bare = RunFor(w, bare_spec, slice, 2, calibration);
      batches.push_back(&bare);
    }
    metrics = PerLayer(untraced, traced, with_bare ? &bare : nullptr, prof);
  }

  std::string error;
  for (const Batch* b : batches) {
    if (error.empty()) {
      error = b->error;
    }
  }
  if (error.empty() && traced.rounds.size() > 0 &&
      traced.rounds.front().digest != untraced.rounds.front().digest) {
    error = "traced rounds' digest differs from untraced rounds'";
  }
  if (error.empty() && w.verify != nullptr) {
    error = w.verify(opt.spec, untraced.rounds.front());
  }
  if (!opt.spans_path.empty()) {
    WriteSpans(opt.spans_path, batches);
  }

  int64_t ops = 0;
  for (const Batch* b : batches) {
    ops += b->ops();
  }
  std::string line = "{\"workload\": " + Quote(w.name) +
                     ", \"seed\": " + std::to_string(opt.spec.seed) +
                     ", \"attempted\": " + std::to_string(ops) + ", \"error\": " + Quote(error) +
                     ", \"digest\": {";
  const char* sep = "";
  for (const auto& [name, value] : untraced.rounds.front().digest) {
    line += sep + Quote(name) + ": " + Quote(value);
    sep = ", ";
  }
  if (!bare.rounds.empty()) {
    for (const auto& [name, value] : bare.rounds.front().digest) {
      line += sep + Quote("bare." + name) + ": " + Quote(value);
    }
  }
  line += "}, \"metrics\": {";
  sep = "";
  for (const auto& m : metrics) {
    line += sep + Quote(m.name) + ": {\"value\": " + Number(m.value) +
            ", \"unit\": " + Quote(m.unit) + "}";
    sep = ", ";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
