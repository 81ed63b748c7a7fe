#include "perfbench/src/probes.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "src/core/amber.h"
#include "src/kernel/descriptor_table.h"
#include "src/mem/address_space.h"
#include "src/mem/segment_alloc.h"
#include "src/metrics/metrics.h"
#include "src/sim/context.h"
#include "src/sim/event_queue.h"
#include "src/sim/kernel.h"

namespace perfbench {
namespace {

constexpr int kReps = 3;

// One calibration pass: events through a queue this deep, each walking
// kCalibrationHops slots of a 16-byte-slot table of 256 KiB.
constexpr int kCalibrationEvents = 1 << 15;
constexpr uint32_t kCalibrationQueue = 4096;
constexpr size_t kCalibrationSlots = size_t{1} << 14;
constexpr int kCalibrationHops = 4;
// Orders the calibration queue as a min-heap on time.
constexpr auto CalibrationLater = [](const auto& a, const auto& b) { return a.time > b.time; };

// Keeps a value alive so the loop computing it is not optimized away.
inline void Keep(uint64_t v) { asm volatile("" : : "r"(v) : "memory"); }

inline uint64_t XorShift(uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

// Median over `reps` repetitions of body(n)'s wall time, per operation.
template <typename F>
double MedianNsPerOp(int reps, int64_t n, F&& body) {
  std::vector<double> per_op;
  for (int r = 0; r < reps; ++r) {
    const int64_t t0 = telemetry::NowNs();
    body(n);
    per_op.push_back(static_cast<double>(telemetry::NowNs() - t0) / static_cast<double>(n));
  }
  std::sort(per_op.begin(), per_op.end());
  return per_op[per_op.size() / 2];
}

const void* FakeObject(uint64_t i) {
  // Keys are never dereferenced; spacing them like small heap blocks keeps
  // the pointer hash's input realistic.
  return reinterpret_cast<const void*>(uintptr_t{0x7f0000000000} + i * 64);
}

struct Tables {
  std::vector<std::unique_ptr<amber::DescriptorTable>> tables;
  std::vector<uint32_t> access;  // random global entry indices
  int64_t entries;

  Tables(int count, int64_t per_table) : entries(std::max<int64_t>(per_table, 1)) {
    for (int t = 0; t < count; ++t) {
      tables.push_back(std::make_unique<amber::DescriptorTable>(t));
      for (int64_t i = 0; i < entries; ++i) {
        const uint64_t key = static_cast<uint64_t>(t) * static_cast<uint64_t>(entries) +
                             static_cast<uint64_t>(i);
        if (i % 2 == 0) {
          tables.back()->SetResident(FakeObject(key));
        } else {
          tables.back()->SetForward(FakeObject(key), (t + 1) % std::max(count, 2));
        }
      }
    }
    uint64_t rng = 0x2545F4914F6CDD1DULL;
    const uint64_t total = static_cast<uint64_t>(count) * static_cast<uint64_t>(entries);
    access.resize(size_t{1} << 20);
    for (auto& a : access) {
      a = static_cast<uint32_t>(XorShift(rng) % total);
    }
  }

  amber::DescriptorTable& TableOf(uint32_t index) {
    return *tables[static_cast<size_t>(index / static_cast<uint64_t>(entries))];
  }
};

class Cell : public amber::Object {
 public:
  uint64_t Bump(uint64_t x) { return value_ += x; }

 private:
  uint64_t value_ = 0;
};

struct PingPong {
  sim::Context main;
  sim::Context fiber;
};

void Bounce(void* arg) {
  auto* p = static_cast<PingPong*>(arg);
  for (;;) {
    sim::Context::Switch(&p->fiber, &p->main);
  }
}

}  // namespace

Calibration::Calibration() : table_(2 * kCalibrationSlots) {
  // One random cycle through every slot, which the prefetchers cannot follow.
  std::vector<uint64_t> order(kCalibrationSlots);
  std::iota(order.begin(), order.end(), uint64_t{0});
  uint64_t rng = 99;
  for (size_t i = kCalibrationSlots - 1; i > 0; --i) {
    rng = Mix(rng);
    std::swap(order[i], order[rng % (i + 1)]);
  }
  for (size_t i = 0; i < kCalibrationSlots; ++i) {
    table_[2 * order[i]] = order[(i + 1) % kCalibrationSlots];
  }
  for (uint32_t i = 0; i < kCalibrationQueue; ++i) {
    rng = Mix(rng);
    queue_.push_back({rng % 100000, rng % kCalibrationSlots});
  }
  std::make_heap(queue_.begin(), queue_.end(), CalibrationLater);
}

double Calibration::SampleNs() {
  uint64_t warm = 0;
  for (uint64_t v : table_) {
    warm += v;
  }
  for (const Event& e : queue_) {
    warm += e.time;
  }
  Keep(warm);
  const int64_t t0 = telemetry::NowNs();
  // Take the earliest event, walk a few slots from it, and schedule it again.
  for (int i = 0; i < kCalibrationEvents; ++i) {
    std::pop_heap(queue_.begin(), queue_.end(), CalibrationLater);
    Event e = queue_.back();
    queue_.pop_back();
    uint64_t h = e.time;
    for (int hop = 0; hop < kCalibrationHops; ++hop) {
      table_[2 * e.slot + 1] += h;
      h = Mix(h ^ table_[2 * e.slot + 1]);
      e.slot = table_[2 * e.slot];
    }
    sink_ += h;
    e.time += 1 + h % 4096;
    queue_.push_back(e);
    std::push_heap(queue_.begin(), queue_.end(), CalibrationLater);
  }
  const int64_t t1 = telemetry::NowNs();
  Keep(sink_);
  return static_cast<double>(t1 - t0) / kCalibrationEvents;
}

double PostRunNs(int64_t depth) {
  return MedianNsPerOp(kReps, int64_t{1} << 18, [depth](int64_t n) {
    sim::EventQueue q;
    uint64_t sink = 0;
    uint64_t rng = 88172645463325252ULL;
    auto post = [&] {
      const uint64_t r = XorShift(rng);
      // Four captured words: past std::function's 16-byte small buffer, as
      // the kernel's own closures are.
      q.Post(q.now() + static_cast<amber::Duration>(r % 4096),
             [&sink, a = r, b = r >> 7, c = r >> 13] { sink += a ^ b ^ c; });
    };
    for (int64_t i = 0; i < depth; ++i) {
      post();
    }
    for (int64_t i = 0; i < n; ++i) {
      post();
      q.RunOne();
    }
    Keep(sink);
  });
}

double SwitchNs() {
  std::vector<char> stack(64 * 1024);
  PingPong p;
  p.fiber.Init(stack.data(), stack.size(), &Bounce, &p);
  return MedianNsPerOp(kReps, int64_t{1} << 20, [&p](int64_t n) {
    for (int64_t i = 0; i < n; ++i) {
      sim::Context::Switch(&p.main, &p.fiber);
    }
  });
}

double LookupNs(int tables, int64_t entries) {
  Tables t(tables, entries);
  return MedianNsPerOp(kReps, static_cast<int64_t>(t.access.size()), [&t](int64_t n) {
    uint64_t sum = 0;
    for (int64_t i = 0; i < n; ++i) {
      const uint32_t k = t.access[static_cast<size_t>(i)];
      sum += static_cast<uint64_t>(t.TableOf(k).Lookup(FakeObject(k)).forward);
    }
    Keep(sum);
  });
}

double UpdateNs(int tables, int64_t entries) {
  Tables t(tables, entries);
  return MedianNsPerOp(kReps, static_cast<int64_t>(t.access.size()), [&t, tables](int64_t n) {
    for (int64_t i = 0; i < n; ++i) {
      const uint32_t k = t.access[static_cast<size_t>(i)];
      amber::DescriptorTable& table = t.TableOf(k);
      if (i % 2 == 0) {
        table.SetForward(FakeObject(k), (table.node() + 1) % std::max(tables, 2));
      } else {
        table.SetResident(FakeObject(k));
      }
    }
  });
}

double AllocNs(int64_t size, int64_t count) {
  size = std::clamp<int64_t>((size + 15) & ~int64_t{15}, 16,
                             static_cast<int64_t>(mem::SegmentAllocator::MaxAllocation()));
  // At most 64 MiB of segments: large blocks (thread stacks) are few.
  count = std::clamp<int64_t>(count, 1, (int64_t{64} << 20) / (size + 16) + 1);
  const int64_t per_region = static_cast<int64_t>(mem::kRegionSize) / (size + 16);
  const int64_t regions = count / per_region + 2;
  return MedianNsPerOp(kReps, count, [size, regions](int64_t n) {
    mem::GlobalAddressSpace space(static_cast<size_t>(regions) * mem::kRegionSize);
    mem::SegmentAllocator alloc(&space, 0);
    int64_t next_region = 0;
    for (int64_t i = 0; i < n; ++i) {
      void* p = alloc.Allocate(static_cast<size_t>(size));
      if (p == nullptr) {
        space.CommitRegion(next_region, 0);
        alloc.AddRegion(next_region++);
        p = alloc.Allocate(static_cast<size_t>(size));
      }
      Keep(reinterpret_cast<uintptr_t>(p));
    }
  });
}

double SendNs(int nodes, net::Topology topology) {
  nodes = std::max(nodes, 2);
  return MedianNsPerOp(kReps, int64_t{1} << 16, [nodes, topology](int64_t n) {
    sim::Kernel::Config config;
    config.nodes = nodes;
    sim::Kernel kernel(config);
    net::Network net(&kernel, topology);
    uint64_t delivered = 0;
    uint64_t rng = 0x9E3779B97F4A7C15ULL;
    for (int64_t i = 0; i < n; ++i) {
      const uint64_t r = XorShift(rng);
      const auto src = static_cast<sim::NodeId>(r % static_cast<uint64_t>(nodes));
      const auto dst = static_cast<sim::NodeId>(
          (static_cast<uint64_t>(src) + 1 + (r >> 20) % static_cast<uint64_t>(nodes - 1)) %
          static_cast<uint64_t>(nodes));
      net.Send(src, dst, 64, 0, [&delivered] { ++delivered; });
    }
    kernel.Run();
    Keep(delivered);
  });
}

CoreCosts CoreNs(int nodes, net::Topology topology) {
  amber::Runtime::Config config;
  config.nodes = std::max(nodes, 3);
  config.procs_per_node = 1;
  config.topology = topology;
  config.initial_regions_per_node = 1;
  config.arena_bytes = size_t{1} << 30;
  CoreCosts out;
  amber::Runtime rt(config);
  rt.Run([&out] {
    auto local = amber::New<Cell>();
    auto remote = amber::NewOn<Cell>(1);
    auto mobile = amber::NewOn<Cell>(1);
    out.local_call_ns = MedianNsPerOp(kReps, int64_t{1} << 16, [&](int64_t n) {
      for (int64_t i = 0; i < n; ++i) {
        local.Call(&Cell::Bump, static_cast<uint64_t>(i));
      }
    });
    out.remote_call_ns = MedianNsPerOp(kReps, int64_t{1} << 13, [&](int64_t n) {
      for (int64_t i = 0; i < n; ++i) {
        remote.Call(&Cell::Bump, static_cast<uint64_t>(i));
      }
    });
    out.move_ns = MedianNsPerOp(kReps, int64_t{1} << 12, [&](int64_t n) {
      for (int64_t i = 0; i < n; ++i) {
        amber::MoveTo(mobile, i % 2 == 0 ? 2 : 1);
      }
    });
    out.thread_ns = MedianNsPerOp(kReps, int64_t{1} << 12, [&](int64_t n) {
      for (int64_t i = 0; i < n; ++i) {
        amber::StartThread(local, &Cell::Bump, static_cast<uint64_t>(i)).Join();
      }
    });
  });
  return out;
}

double CounterAddNs(int nodes) {
  nodes = std::max(nodes, 1);
  return MedianNsPerOp(kReps, int64_t{1} << 18, [nodes](int64_t n) {
    metrics::Registry registry;
    for (int64_t i = 0; i < n; ++i) {
      registry.GetCounter("perfbench.counter", static_cast<int>(i % nodes)).Add(1);
    }
  });
}

double HistRecordNs(int nodes) {
  nodes = std::max(nodes, 1);
  return MedianNsPerOp(kReps, int64_t{1} << 18, [nodes](int64_t n) {
    metrics::Registry registry;
    for (int64_t i = 0; i < n; ++i) {
      registry.GetHistogram("perfbench.hist", static_cast<int>(i % nodes))
          .Record(static_cast<double>(i & 1023));
    }
  });
}

}  // namespace perfbench
