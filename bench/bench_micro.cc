// M1: host-level microbenchmarks (google-benchmark) of the runtime's own
// mechanisms — the costs the *simulator* pays per simulated event, not
// virtual-time results. Useful for keeping the simulation fast enough to
// sweep the paper's parameter space.

#include <benchmark/benchmark.h>

#include <chrono>
#include <deque>
#include <memory>
#include <vector>

#include "src/base/rng.h"
#include "src/core/amber.h"
#include "src/kernel/descriptor_table.h"
#include "src/mem/address_space.h"
#include "src/mem/region_server.h"
#include "src/mem/segment_alloc.h"
#include "src/rpc/wire.h"
#include "src/rtrace/rtrace.h"
#include "src/sim/context.h"
#include "src/sim/event_queue.h"
#include "src/sim/kernel.h"
#include "src/sim/stack_pool.h"

namespace {

// --- Context switching -------------------------------------------------------

struct SwitchPair {
  sim::Context main_ctx;
  sim::Context fiber_ctx;
};
SwitchPair* g_pair = nullptr;

void SwitchEntry(void*) {
  for (;;) {
    sim::Context::Switch(&g_pair->fiber_ctx, &g_pair->main_ctx);
  }
}

void BM_ContextSwitch(benchmark::State& state) {
  sim::StackPool pool(64 * 1024);
  SwitchPair pair;
  g_pair = &pair;
  void* stack = pool.Allocate();
  pair.fiber_ctx.Init(stack, pool.stack_size(), &SwitchEntry, nullptr);
  for (auto _ : state) {
    sim::Context::Switch(&pair.main_ctx, &pair.fiber_ctx);  // there and back
  }
  pool.Free(stack);
  g_pair = nullptr;
  state.SetItemsProcessed(state.iterations() * 2);  // two switches per round
}
BENCHMARK(BM_ContextSwitch);

// --- Event queue ---------------------------------------------------------------

// The kernel's regime: 512 pending events (scale's lockstep population) and
// 40-byte captures, the size of the kernel's processor-release closure.
// Smaller captures on a shallow queue stay in L1 and time a regime the
// simulator never runs in.
constexpr int kQueueDepth = 512;

struct Capture40 {
  int64_t* sink;
  uint64_t a;
  uint64_t b;
  uint64_t c;
  uint64_t d;
  void operator()() const { *sink += static_cast<int64_t>(a ^ b ^ c ^ d); }
};
static_assert(sizeof(Capture40) == 40);

// One Post + RunOne at a steady depth, posting at random offsets ahead.
void BM_EventQueuePostRun(benchmark::State& state) {
  sim::EventQueue q;
  int64_t sink = 0;
  amber::Rng rng(1);
  auto post = [&] {
    const uint64_t r = rng.Next();
    q.Post(q.now() + static_cast<amber::Duration>(r % 4096),
           Capture40{&sink, r, r >> 7, r >> 13, r >> 19});
  };
  for (int i = 0; i < kQueueDepth; ++i) {
    post();
  }
  for (auto _ : state) {
    post();
    q.RunOne();
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueuePostRun);

// Drains a queue of kQueueDepth events; reports time per event.
void BM_EventQueueDrain512(benchmark::State& state) {
  int64_t sink = 0;
  sim::EventQueue q;
  for (auto _ : state) {
    state.PauseTiming();
    const amber::Time base = q.now();
    for (int i = 0; i < kQueueDepth; ++i) {
      const auto u = static_cast<uint64_t>(i);
      q.Post(base + kQueueDepth - i, Capture40{&sink, u, u << 3, u << 5, u << 7});
    }
    state.ResumeTiming();
    while (q.RunOne()) {
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kQueueDepth);
}
BENCHMARK(BM_EventQueueDrain512);

// Kernel::Sync in scale's regime, through a real kernel: 512 single-processor
// nodes whose fibers loop Charge(1 us) + Sync in lockstep, so each re-entry
// finds the other nodes' resumes pending at the same time. Reports host ns
// per Sync (the run's few dispatches and exits included).
void BM_SyncLockstep(benchmark::State& state) {
  constexpr int kNodes = 512;
  constexpr int kSyncsPerFiber = 200;
  sim::Kernel::Config config;
  config.nodes = kNodes;
  config.procs_per_node = 1;
  sim::StackPool pool(32 * 1024);
  std::vector<void*> stacks;
  for (int n = 0; n < kNodes; ++n) {
    stacks.push_back(pool.Allocate());
  }
  int64_t run_ns = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto kernel = std::make_unique<sim::Kernel>(config);
    for (int n = 0; n < kNodes; ++n) {
      kernel->Spawn(n, stacks[n], pool.stack_size(), [k = kernel.get()] {
        for (int i = 0; i < kSyncsPerFiber; ++i) {
          k->Charge(amber::Micros(1));
          k->Sync();
        }
      });
    }
    state.ResumeTiming();
    const auto start = std::chrono::steady_clock::now();
    kernel->Run();
    run_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count();
    state.PauseTiming();
    kernel.reset();
    state.ResumeTiming();
  }
  for (void* s : stacks) {
    pool.Free(s);
  }
  const int64_t syncs = state.iterations() * kNodes * kSyncsPerFiber;
  state.SetItemsProcessed(syncs);
  state.counters["ns_per_sync"] = static_cast<double>(run_ns) / static_cast<double>(syncs);
}
BENCHMARK(BM_SyncLockstep);

// --- Descriptor table -------------------------------------------------------------

// bench_scale's working set: 512 nodes' tables of 512 descriptors each (262k
// objects), keys 16 bytes apart like small objects in a region, visited in a
// random table and key order. One small hot table would sit in L1 and time a
// regime the simulator never runs in.
constexpr int kDescriptorTables = 512;
constexpr uint32_t kDescriptorsPerTable = 512;
constexpr size_t kDescriptorVisits = size_t{1} << 20;  // power of two

struct DescriptorTables {
  std::vector<std::unique_ptr<amber::DescriptorTable>> tables;
  std::vector<uint32_t> visits;  // global descriptor indices, random order

  DescriptorTables() {
    for (int t = 0; t < kDescriptorTables; ++t) {
      tables.push_back(std::make_unique<amber::DescriptorTable>(t));
      for (uint32_t i = 0; i < kDescriptorsPerTable; ++i) {
        tables.back()->SetResident(Key(static_cast<uint32_t>(t) * kDescriptorsPerTable + i));
      }
    }
    amber::Rng rng(1);
    visits.resize(kDescriptorVisits);
    for (uint32_t& v : visits) {
      v = static_cast<uint32_t>(rng.Below(uint64_t{kDescriptorTables} * kDescriptorsPerTable));
    }
  }

  static const void* Key(uint32_t index) {
    return reinterpret_cast<const void*>(uintptr_t{0x7f0000000000} + 16 * uintptr_t{index});
  }
  amber::DescriptorTable& TableOf(uint32_t index) { return *tables[index / kDescriptorsPerTable]; }
};

void BM_DescriptorLookup(benchmark::State& state) {
  DescriptorTables d;
  size_t i = 0;
  for (auto _ : state) {
    const uint32_t k = d.visits[i++ & (kDescriptorVisits - 1)];
    auto desc = d.TableOf(k).Lookup(DescriptorTables::Key(k));
    benchmark::DoNotOptimize(desc);
  }
}
BENCHMARK(BM_DescriptorLookup);

// The write path of a move: alternately leave a forwarding address and mark
// a descriptor resident again.
void BM_DescriptorUpdate(benchmark::State& state) {
  DescriptorTables d;
  size_t i = 0;
  for (auto _ : state) {
    const uint32_t k = d.visits[i & (kDescriptorVisits - 1)];
    amber::DescriptorTable& table = d.TableOf(k);
    if (i++ % 2 == 0) {
      table.SetForward(DescriptorTables::Key(k), (table.node() + 1) % kDescriptorTables);
    } else {
      table.SetResident(DescriptorTables::Key(k));
    }
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_DescriptorUpdate);

// --- Segment allocator --------------------------------------------------------------

// scale's population: 262k Slot-sized blocks (80 bytes usable) carved from
// 512 nodes' fresh regions in round-robin node order, then freed, so the
// timing includes the first touch of every page, as a run's populate phase
// pays it. One block allocated and freed in a hot loop would time a single
// cached free-list entry.
constexpr int kAllocNodes = 512;
constexpr int kBlocksPerNode = 512;
constexpr size_t kBlockBytes = 80;

void BM_SegmentAllocFree(benchmark::State& state) {
  std::vector<void*> blocks(size_t{kAllocNodes} * kBlocksPerNode);
  for (auto _ : state) {
    state.PauseTiming();
    mem::GlobalAddressSpace gas(size_t{kAllocNodes} * mem::kRegionSize);
    mem::RegionServer server(&gas, kAllocNodes, 1);  // node n owns region n
    std::vector<std::unique_ptr<mem::SegmentAllocator>> allocs;
    for (int n = 0; n < kAllocNodes; ++n) {
      allocs.push_back(std::make_unique<mem::SegmentAllocator>(&gas, n));
      allocs.back()->AddRegion(n);
    }
    state.ResumeTiming();
    for (size_t i = 0; i < blocks.size(); ++i) {
      blocks[i] = allocs[i % kAllocNodes]->Allocate(kBlockBytes);
    }
    benchmark::DoNotOptimize(blocks.data());
    for (size_t i = 0; i < blocks.size(); ++i) {
      allocs[i % kAllocNodes]->Free(blocks[i]);
    }
    benchmark::ClobberMemory();
    state.PauseTiming();
    allocs.clear();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(blocks.size()));
}
BENCHMARK(BM_SegmentAllocFree)->Unit(benchmark::kMillisecond);

// --- Object creation ----------------------------------------------------------------

// New<T> end to end at scale's size: 64 nodes, one thread each, creating
// 4096 objects of one word past Object (perfbench's Slot), 262k in all. Only
// the creation is timed: from the first creating thread's start to the last
// one's end, host clock, inside a fresh Runtime per iteration.
class Slot : public amber::Object {
 public:
  explicit Slot(uint64_t v) : value_(v) {}
  uint64_t value() const { return value_; }

 private:
  uint64_t value_;
};

struct CreateClock {
  std::chrono::steady_clock::time_point start;
  std::chrono::steady_clock::time_point end;
  int running = 0;
  bool started = false;
};

class Creator : public amber::Object {
 public:
  explicit Creator(CreateClock* clock) : clock_(clock) {}

  uint64_t Create(int count) {
    if (!clock_->started) {
      clock_->started = true;
      clock_->start = std::chrono::steady_clock::now();
    }
    ++clock_->running;
    uint64_t sum = 0;
    for (int i = 0; i < count; ++i) {
      sum += amber::New<Slot>(static_cast<uint64_t>(i)).unchecked()->value();
    }
    if (--clock_->running == 0) {
      clock_->end = std::chrono::steady_clock::now();
    }
    return sum;
  }

 private:
  CreateClock* clock_;
};

void BM_ObjectCreate(benchmark::State& state) {
  constexpr int kNodes = 64;
  constexpr int kObjectsPerNode = 4096;
  amber::Runtime::Config config;
  config.nodes = kNodes;
  config.procs_per_node = 1;
  config.initial_regions_per_node = 1;
  config.arena_bytes = size_t{256} << 20;
  uint64_t sum = 0;
  for (auto _ : state) {
    CreateClock clock;
    {
      amber::Runtime rt(config);
      rt.Run([&] {
        std::vector<amber::ThreadRef<uint64_t>> threads;
        for (int n = 0; n < kNodes; ++n) {
          auto creator = amber::NewOn<Creator>(n, &clock);
          threads.push_back(amber::StartThread(creator, &Creator::Create, kObjectsPerNode));
        }
        for (auto& t : threads) {
          sum += t.Join();
        }
      });
    }
    state.SetIterationTime(std::chrono::duration<double>(clock.end - clock.start).count());
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations() * kNodes * kObjectsPerNode);
}
BENCHMARK(BM_ObjectCreate)->UseManualTime()->Unit(benchmark::kMillisecond);

// --- Request tracing ---------------------------------------------------------------------

// rtrace on a serve-like run: 4 nodes x 2 processors, one driver per node
// starting 1024 request threads (4096 in all, at most 16 in flight per
// driver), each making one call into a shard on the next node. Timed from
// the first request to the last one's join, host clock, inside a fresh
// Runtime per iteration; the argument is the tracer's sample_every (5 as in
// serve, 1 traces every request, 0 attaches it without sampling).
constexpr int kTracedNodes = 4;
constexpr int kRequestsPerDriver = 1024;
constexpr size_t kInflightPerDriver = 16;

class RequestShard : public amber::Object {
 public:
  int Handle(int key) {
    amber::Work(amber::Micros(20));
    return key & 7;
  }
};

class RequestDriver : public amber::Object {
 public:
  RequestDriver(rtrace::Tracer* tracer, amber::Ref<RequestShard> shard)
      : tracer_(tracer), shard_(shard) {}

  int64_t Drive() {
    std::deque<amber::ThreadRef<int>> inflight;
    int64_t sum = 0;
    for (int i = 0; i < kRequestsPerDriver; ++i) {
      if (inflight.size() == kInflightPerDriver) {
        sum += inflight.front().Join();
        inflight.pop_front();
      }
      tracer_->OpenRequest("get");
      inflight.push_back(amber::StartThread(shard_, &RequestShard::Handle, i));
    }
    for (auto& t : inflight) {
      sum += t.Join();
    }
    return sum;
  }

 private:
  rtrace::Tracer* tracer_;
  amber::Ref<RequestShard> shard_;
};

void BM_TracedRequests(benchmark::State& state) {
  amber::Runtime::Config config;
  config.nodes = kTracedNodes;
  config.procs_per_node = 2;
  config.arena_bytes = size_t{128} << 20;
  int64_t sum = 0;
  for (auto _ : state) {
    rtrace::Tracer tracer({.name = "micro", .sample_every = static_cast<uint64_t>(state.range(0))});
    std::chrono::steady_clock::time_point start;
    std::chrono::steady_clock::time_point end;
    {
      amber::Runtime rt(config);
      tracer.AttachTo(rt);
      rt.Run([&] {
        std::vector<amber::Ref<RequestDriver>> drivers;
        for (int n = 0; n < kTracedNodes; ++n) {
          auto shard = amber::NewOn<RequestShard>((n + 1) % kTracedNodes);
          drivers.push_back(amber::NewOn<RequestDriver>(n, &tracer, shard));
        }
        start = std::chrono::steady_clock::now();
        std::vector<amber::ThreadRef<int64_t>> threads;
        for (auto& d : drivers) {
          threads.push_back(amber::StartThread(d, &RequestDriver::Drive));
        }
        for (auto& t : threads) {
          sum += t.Join();
        }
        end = std::chrono::steady_clock::now();
      });
    }
    state.SetIterationTime(std::chrono::duration<double>(end - start).count());
  }
  benchmark::DoNotOptimize(sum);
  const int64_t requests = state.iterations() * kTracedNodes * kRequestsPerDriver;
  state.SetItemsProcessed(requests);
  state.counters["per_request"] = benchmark::Counter(
      static_cast<double>(requests), benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_TracedRequests)
    ->Arg(5)
    ->Arg(1)
    ->Arg(0)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// --- Wire serialization ----------------------------------------------------------------

void BM_WireRoundTrip(benchmark::State& state) {
  std::vector<double> row(122, 3.25);
  for (auto _ : state) {
    rpc::WireBuffer w;
    w.PutU64(42);
    w.PutBytes(row.data(), row.size() * sizeof(double));
    auto bytes = w.GetU64();
    auto blob = w.GetBytes();
    benchmark::DoNotOptimize(bytes);
    benchmark::DoNotOptimize(blob.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(row.size() * sizeof(double)));
}
BENCHMARK(BM_WireRoundTrip);

void BM_WireChecksum1K(benchmark::State& state) {
  rpc::WireBuffer w;
  std::vector<uint8_t> blob(1024, 0x5a);
  w.PutBytes(blob.data(), blob.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.Checksum());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_WireChecksum1K);

// --- Whole-kernel throughput -------------------------------------------------------------

void BM_KernelFiberChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Kernel::Config config;
    config.nodes = 4;
    config.procs_per_node = 2;
    sim::Kernel kernel(config);
    sim::StackPool pool(32 * 1024);
    std::vector<void*> stacks;
    for (int i = 0; i < 32; ++i) {
      void* stack = pool.Allocate();
      stacks.push_back(stack);
      kernel.Spawn(i % 4, stack, pool.stack_size(), [&kernel] {
        for (int r = 0; r < 10; ++r) {
          kernel.Charge(amber::Micros(100));
          kernel.Sync();
        }
      });
    }
    kernel.Run();
    for (void* s : stacks) {
      pool.Free(s);
    }
  }
  state.SetItemsProcessed(state.iterations() * 32 * 10);  // sync events
}
BENCHMARK(BM_KernelFiberChurn);

}  // namespace

BENCHMARK_MAIN();
