// Scale harness: how fast does the *simulator* go?
//
// Every other harness reports virtual time; this one reports wall-clock
// events per second while simulating a large cluster — the first-class gauge
// ROADMAP item 1 optimizes. The default geometry is 512 nodes with one
// million objects: each node hosts a shard that populates its share of small
// objects, then churns them with local invocations plus an occasional
// remote poke at its ring neighbor (thread migration + network delivery),
// so the run exercises the DES hot loop, the descriptor tables, the
// allocator, and the switched-topology network at scale.
//
// The run is self-profiled by src/telemetry (the point of the exercise):
// TELEMETRY_scale.json carries the per-subsystem wall buckets and the
// sample ring, and BENCH_scale.json the headline scale.wall.events_per_sec gauge that
// tools/bench_compare.py gates (higher is better, wide band — wall clock is
// noisy; see docs/BENCHMARKS.md).
//
// Usage: bench_scale [nodes objects rounds]   (defaults: 512 1000000 4)

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/amber.h"
#include "src/telemetry/telemetry.h"

namespace {

using namespace amber;

// Deterministic 64-bit mixer for workload decisions (splitmix64 step).
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// A small leaf object — the unit the "1M objects" target counts.
class Slot : public Object {
 public:
  explicit Slot(uint64_t seed) : value_(seed) {}

  uint64_t Touch(uint64_t x) {
    Work(kMicrosecond);
    value_ = value_ * 6364136223846793005ULL + x;
    return value_;
  }

 private:
  uint64_t value_;
};

// One shard per node: owns that node's slots and churns them.
class NodeShard : public Object {
 public:
  NodeShard(int index, int64_t slots, int rounds)
      : index_(index), slot_count_(slots), rounds_(rounds) {}

  void SetNeighbor(Ref<NodeShard> n) { neighbor_ = n; }

  // Called with the worker thread resident here, so every New is local.
  void Populate() {
    slots_.reserve(static_cast<size_t>(slot_count_));
    for (int64_t i = 0; i < slot_count_; ++i) {
      slots_.push_back(New<Slot>(Mix(static_cast<uint64_t>(index_) << 32 | i)));
    }
  }

  // Cheap remote target: the caller's thread migrates here and back.
  uint64_t Poke(uint64_t x) {
    Work(kMicrosecond / 2);
    return pokes_ += (x | 1);
  }

  int64_t ChurnAll() {
    int64_t remote = 0;
    for (int round = 0; round < rounds_; ++round) {
      uint64_t rng = Mix(static_cast<uint64_t>(index_) * 1000003u + round);
      for (int64_t i = 0; i < slot_count_; ++i) {
        rng = Mix(rng);
        slots_[rng % slots_.size()].Call(&Slot::Touch, rng);
        if (i % 64 == 0 && neighbor_.object() != nullptr) {
          neighbor_.Call(&NodeShard::Poke, rng);
          ++remote;
        }
      }
    }
    return remote;
  }

 private:
  int index_;
  int64_t slot_count_;
  int rounds_;
  int64_t pokes_ = 0;
  Ref<NodeShard> neighbor_;
  std::vector<Ref<Slot>> slots_;
};

}  // namespace

int main(int argc, char** argv) {
  int nodes = 512;
  int64_t objects = 1000000;
  int rounds = 4;
  if (argc > 1) {
    nodes = std::atoi(argv[1]);
  }
  if (argc > 2) {
    objects = std::atoll(argv[2]);
  }
  if (argc > 3) {
    rounds = std::atoi(argv[3]);
  }
  if (nodes < 2 || objects < nodes || rounds < 1) {
    std::fprintf(stderr, "usage: bench_scale [nodes>=2 objects>=nodes rounds>=1]\n");
    return 2;
  }
  const int64_t slots_per_node = objects / nodes;

  Runtime::Config config;
  config.nodes = nodes;
  config.procs_per_node = 1;
  config.topology = net::Topology::kSwitched;
  // One up-front region per node: committing the default 8 would cost
  // nodes x 8 MiB of resident memory before the first object exists.
  config.initial_regions_per_node = 1;
  config.arena_bytes = size_t{2} << 30;

  telemetry::SelfProfiler::Config tcfg;
  tcfg.name = "scale";
  tcfg.sample_every_events = 8192;
  tcfg.ring_capacity = 1024;
  tcfg.flush_path = "TELEMETRY_scale.json";
  tcfg.flush_every_samples = 64;  // live file for `amber-top --follow`
  telemetry::SelfProfiler prof(tcfg);

  std::printf("bench_scale: %d nodes x %lld objects, %d churn rounds (switched topology)\n",
              nodes, static_cast<long long>(nodes * slots_per_node), rounds);

  amber::Time virtual_end = 0;
  int64_t remote_pokes = 0;
  int64_t wall_ns = 0;
  {
    Runtime rt(config);
    prof.Enable();
    const int64_t wall_start = telemetry::NowNs();
    rt.Run([&] {
      std::vector<Ref<NodeShard>> shards;
      shards.reserve(static_cast<size_t>(nodes));
      for (int n = 0; n < nodes; ++n) {
        shards.push_back(NewOn<NodeShard>(n, n, slots_per_node, rounds));
      }
      for (int n = 0; n < nodes; ++n) {
        shards[n].Call(&NodeShard::SetNeighbor, shards[(n + 1) % nodes]);
      }
      std::vector<ThreadRef<void>> fill;
      fill.reserve(static_cast<size_t>(nodes));
      for (int n = 0; n < nodes; ++n) {
        fill.push_back(StartThread(shards[n], &NodeShard::Populate));
      }
      for (auto& t : fill) {
        t.Join();
      }
      std::vector<ThreadRef<int64_t>> churn;
      churn.reserve(static_cast<size_t>(nodes));
      for (int n = 0; n < nodes; ++n) {
        churn.push_back(StartThread(shards[n], &NodeShard::ChurnAll));
      }
      for (auto& t : churn) {
        remote_pokes += t.Join();
      }
      virtual_end = Now();
    });
    wall_ns = telemetry::NowNs() - wall_start;
    prof.Disable();
  }

  // Final telemetry dump (the periodic flush may have lagged the last
  // samples).
  {
    std::ofstream out("TELEMETRY_scale.json");
    prof.WriteJson(out);
  }

  const int64_t events = prof.count(telemetry::Count::kEvents);
  const double events_per_sec =
      wall_ns > 0 ? static_cast<double>(events) * 1e9 / static_cast<double>(wall_ns) : 0.0;

  // Per-event host cost distribution from the sample ring: each sample
  // interval contributes its mean ns/event. Tail percentiles expose stalls
  // (allocation bursts, queue growth) that the overall rate hides.
  metrics::Histogram event_cost;
  {
    const auto samples = prof.SamplesChronological();
    for (size_t i = 1; i < samples.size(); ++i) {
      const int64_t devents = samples[i].events - samples[i - 1].events;
      const int64_t dwall = samples[i].wall_ns - samples[i - 1].wall_ns;
      if (devents > 0 && dwall >= 0) {
        event_cost.Record(static_cast<double>(dwall) / static_cast<double>(devents));
      }
    }
  }
  const metrics::PercentileSummary cost = event_cost.Summary();

  metrics::Registry reg;
  reg.GetGauge("scale.wall.events_per_sec").Set(events_per_sec);
  reg.GetGauge("scale.wall.run_ns").Set(static_cast<double>(wall_ns));
  reg.GetGauge("scale.wall.event_ns_p50").Set(cost.p50);
  reg.GetGauge("scale.wall.event_ns_p99").Set(cost.p99);
  reg.GetGauge("scale.wall.event_ns_p999").Set(cost.p999);
  reg.GetCounter("scale.events").Add(events);
  reg.GetCounter("scale.dispatches").Add(prof.count(telemetry::Count::kDispatches));
  reg.GetCounter("scale.descriptor_lookups")
      .Add(prof.count(telemetry::Count::kDescriptorLookups));
  reg.GetCounter("scale.allocations").Add(prof.count(telemetry::Count::kAllocations));
  reg.GetCounter("scale.objects").Add(nodes * slots_per_node);
  reg.GetCounter("scale.remote_pokes").Add(remote_pokes);

  benchutil::Table table({"metric", "value"});
  table.AddRow({"events", benchutil::FmtI(events)});
  table.AddRow({"wall", benchutil::Fmt("%.2f s", static_cast<double>(wall_ns) / 1e9)});
  table.AddRow({"events/sec", benchutil::Fmt("%.0f", events_per_sec)});
  table.AddRow({"event cost p50", benchutil::Fmt("%.0f ns", cost.p50)});
  table.AddRow({"event cost p99", benchutil::Fmt("%.0f ns", cost.p99)});
  table.AddRow({"event cost p999", benchutil::Fmt("%.0f ns", cost.p999)});
  table.AddRow({"virtual time", benchutil::Fmt("%.2f s", amber::ToSeconds(virtual_end))});
  table.AddRow({"remote pokes", benchutil::FmtI(remote_pokes)});
  table.Print();

  benchutil::BenchJson json("scale");
  json.Config("nodes", int64_t{nodes});
  json.Config("procs_per_node", int64_t{1});
  json.Config("objects", nodes * slots_per_node);
  json.Config("rounds", int64_t{rounds});
  json.Config("topology", "switched");
  json.Config("telemetry", true);
  const std::string path = json.Write(virtual_end, &reg);
  std::printf("\nwrote %s, TELEMETRY_scale.json\n", path.c_str());
  return 0;
}
