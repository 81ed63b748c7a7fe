// serve: bench_serve's sharded keyed store on 4 nodes x 2 processors under
// seeded open-loop Poisson arrivals (open loop in virtual time; host-side it
// is a batch run), with the full observer stack attached: a metrics
// registry, rtrace at 1 in 5, a tseries collector, the flight recorder and
// the critical-path profiler. One op is one offered request.
//
// Latency is measured from each request's scheduled arrival, so a late
// request generator counts as queueing. The benchmark keeps its own copy of every
// latency to compute the digest's p50/p99, so the bare variant (no
// observers, used by the traced run) reports the same digest fields.

#include <algorithm>
#include <cmath>
#include <deque>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/core/amber.h"
#include "src/fdr/fdr.h"
#include "src/metrics/metrics.h"
#include "src/prof/profiler.h"
#include "src/rtrace/rtrace.h"
#include "src/tseries/tseries.h"

namespace perfbench {
namespace {

constexpr int kNodes = 4;
constexpr int kProcs = 2;
constexpr int kShards = 16;
constexpr int kKeysPerShard = 64;
constexpr size_t kAdmitCap = 32;
constexpr uint64_t kSampleEvery = 5;
constexpr amber::Duration kMeanInterarrival = amber::Micros(2500);

class Shard;

// The request threads of the round in progress record into these.
struct ServeState {
  std::vector<amber::Ref<Shard>> shards;
  std::vector<int64_t> latencies;
  metrics::Registry* registry = nullptr;
  rtrace::Tracer* tracer = nullptr;
};
ServeState* g_state = nullptr;

uint64_t NextRand(uint64_t& state) {
  state = state * 6364136223846793005ull + 1442695040888963407ull;
  return state >> 11;
}

amber::Duration ExpInterval(uint64_t& state, amber::Duration mean) {
  const double u = (static_cast<double>(NextRand(state) & 0xFFFFFFFFull) + 1.0) / 4294967297.0;
  return static_cast<amber::Duration>(-static_cast<double>(mean) * std::log(u));
}

class Shard final : public amber::Object {
 public:
  Shard(int index, int keys) : index_(index), values_(keys, 0) {}

  void Handle(int key, amber::Time arrival) {
    amber::Work(amber::Micros(20 + (key % 13) * 6));
    values_[key % kKeysPerShard] += 1;
    if (key % 4 == 0) {
      g_state->shards[(index_ + 1) % kShards].Call(&Shard::Touch, key);
    }
    const int64_t latency = amber::Now() - arrival;
    g_state->latencies.push_back(latency);
    if (g_state->registry != nullptr) {
      const uint64_t trace_id = g_state->tracer->CurrentTraceId();
      g_state->registry->GetHistogram("serve.latency").Record(static_cast<double>(latency),
                                                              trace_id);
      g_state->registry->GetCounter("serve.completed", amber::Here()).Add(1);
    }
  }

  void Touch(int key) {
    amber::Work(amber::Micros(10 + (key % 7) * 4));
    values_[key % kKeysPerShard] += 1;
  }

  uint64_t Checksum() const {
    uint64_t h = static_cast<uint64_t>(index_);
    for (int64_t v : values_) {
      h = h * 1099511628211ull + static_cast<uint64_t>(v);
    }
    return h;
  }

  int64_t AmberPayloadBytes() const override {
    return static_cast<int64_t>(values_.size() * sizeof(int64_t));
  }

 private:
  int index_;
  std::vector<int64_t> values_;
};

class Frontend final : public amber::Object {
 public:
  Frontend(int node, uint64_t seed, int requests)
      : node_(node), seed_(seed), requests_(requests) {}

  void Drive() {
    uint64_t rng = Mix(seed_ ^ (0x9E3779B97F4A7C15ull * static_cast<uint64_t>(node_ + 1)));
    std::deque<amber::ThreadRef<void>> inflight;
    amber::Time next = amber::Now();
    for (int i = 0; i < requests_; ++i) {
      next += ExpInterval(rng, kMeanInterarrival);
      amber::SleepUntil(next);
      while (!inflight.empty() && inflight.front().object()->finished()) {
        inflight.front().TryJoin();
        inflight.pop_front();
      }
      if (inflight.size() >= kAdmitCap) {
        ++rejected_;
        if (g_state->registry != nullptr) {
          g_state->registry->GetCounter("serve.rejected", node_).Add(1);
        }
        continue;
      }
      const int key = static_cast<int>(NextRand(rng) % (kShards * kKeysPerShard));
      if (g_state->registry != nullptr) {
        g_state->registry->GetCounter("serve.offered", node_).Add(1);
        g_state->tracer->OpenRequest("get");
      }
      inflight.push_back(
          amber::StartThread(g_state->shards[key % kShards], &Shard::Handle, key, next));
    }
    while (!inflight.empty()) {
      inflight.front().Join();
      inflight.pop_front();
    }
  }

  int64_t rejected() const { return rejected_; }

 private:
  int node_;
  uint64_t seed_;
  int requests_;
  int64_t rejected_ = 0;
};

int64_t Percentile(std::vector<int64_t> v, double p) {
  if (v.empty()) {
    return 0;
  }
  const size_t k = static_cast<size_t>(p / 100.0 * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(k), v.end());
  return v[k];
}

}  // namespace

RoundResult RunServe(const RoundSpec& spec) {
  RoundResult out;
  const int requests = spec.smoke ? 400 : 16000;

  ServeState state;
  metrics::Registry registry;
  rtrace::Tracer tracer({.name = "perfbench_serve", .sample_every = kSampleEvery});
  tseries::Collector::Config collector_config;
  collector_config.name = "perfbench_serve";
  tseries::Collector collector(collector_config);
  fdr::Recorder recorder({.name = "perfbench_serve"});
  prof::Profiler profiler;

  amber::Runtime::Config config;
  config.nodes = kNodes;
  config.procs_per_node = kProcs;
  config.arena_bytes = size_t{256} << 20;

  amber::Time end = 0;
  uint64_t checksum = 0;
  int64_t rejected = 0;
  {
    amber::Runtime rt(config);
    if (spec.observers) {
      rt.SetMetrics(&registry);
      tracer.AttachTo(rt);
      collector.WatchCounter("serve.completed");
      collector.WatchCounter("serve.offered");
      collector.WatchCounter("serve.rejected");
      collector.WatchHistogram("serve.latency");
      collector.AttachTo(rt);
      recorder.AttachTo(rt);
      rt.AddObserver(&profiler);
      state.registry = &registry;
      state.tracer = &tracer;
    }
    g_state = &state;
    out.clock.SetupDone();
    rt.Run([&] {
      for (int s = 0; s < kShards; ++s) {
        state.shards.push_back(amber::NewOn<Shard>(s % kNodes, s, kKeysPerShard));
      }
      std::vector<amber::Ref<Frontend>> fronts;
      for (int n = 0; n < kNodes; ++n) {
        fronts.push_back(amber::NewOn<Frontend>(n, n, spec.seed, requests));
      }
      out.clock.WorkBegins();
      std::vector<amber::ThreadRef<void>> drivers;
      for (int n = 0; n < kNodes; ++n) {
        drivers.push_back(amber::StartThread(fronts[n], &Frontend::Drive));
      }
      for (auto& d : drivers) {
        d.Join();
      }
      out.clock.WorkDone();
      for (auto& f : fronts) {
        rejected += f.Call(&Frontend::rejected);
      }
      for (auto& shard : state.shards) {
        checksum = checksum * 31 + shard.Call(&Shard::Checksum);
      }
      end = amber::Now();
    });
    if (spec.observers) {
      collector.Finish(end);
    }
    out.shape = ShapeOf(rt);
  }
  g_state = nullptr;
  out.clock.Finished();

  const int64_t offered = int64_t{kNodes} * requests;
  const int64_t served = static_cast<int64_t>(state.latencies.size());
  out.ops = offered;
  if (served + rejected != offered) {
    out.error = "serve: served + rejected != offered";
  } else if (spec.observers && registry.GetHistogram("serve.latency").count() != served) {
    out.error = "serve: latency histogram lost requests";
  }
  AddDigest(out.digest, "virtual_end_ns", end);
  AddDigest(out.digest, "checksum", checksum);
  AddDigest(out.digest, "served", served);
  AddDigest(out.digest, "rejected", rejected);
  AddDigest(out.digest, "p50_ns", Percentile(state.latencies, 50));
  AddDigest(out.digest, "p99_ns", Percentile(state.latencies, 99));
  return out;
}

}  // namespace perfbench
