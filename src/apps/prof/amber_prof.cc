// amber-prof: run a registered example/bench scenario under the causal
// critical-path profiler and report where the virtual time went.
//
// For each requested scenario the tool builds a Runtime, attaches a
// prof::Profiler to the event bus (AddObserver — zero virtual-time cost),
// runs the workload, and then:
//   * prints the human-readable summary (attribution table, per-lock
//     contention, ranked placement advice) to stdout;
//   * writes the machine-readable report to PROF_<scenario>.json in the
//     current directory (byte-identical across same-seed runs).
//
// Scenarios:
//   serial        single node, single processor: pure compute; the critical
//                 path is the run (sanity baseline)
//   lock-convoy   four nodes hammering one lock-protected object
//   hotspot       an object placed on node 0 but invoked almost entirely
//                 from node 2 — the advisor recommends MoveTo(2)
//   hotspot-moved the same workload with the recommended MoveTo applied:
//                 reported virtual time drops
//
// With no arguments every scenario runs, in the order above. The paper's
// SOR runs are profiled by the benches whose reports are gated: bench_fig2
// and bench_chaos print the summary and write PROF_fig2.json and
// PROF_chaos.json.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/core/amber.h"
#include "src/policy/policy.h"
#include "src/prof/profiler.h"

namespace {

using amber::kMicrosecond;
using amber::NodeId;
using amber::Ref;
using amber::Time;

// Writes the report for `name`, prints the summary, returns the run's
// virtual end time.
Time Emit(prof::Profiler& profiler, const std::string& name, Time end) {
  prof::ProfileReport report = profiler.Finalize();
  report.name = name;
  report.WriteSummary(std::cout);
  const std::string path = "PROF_" + name + ".json";
  std::ofstream out(path);
  report.WriteJson(out);
  std::printf("wrote %s\n\n", path.c_str());
  return end;
}

// --- Workload objects ----------------------------------------------------------

class Spinner : public amber::Object {
 public:
  int Step() {
    amber::Work(kMicrosecond * 100);
    return ++steps_;
  }

 private:
  int steps_ = 0;
};

class Protected : public amber::Object {
 public:
  void Update() {
    lock_.Acquire();
    const int v = value_;
    amber::Work(kMicrosecond * 200);
    value_ = v + 1;
    lock_.Release();
  }
  int value() const { return value_; }

 private:
  amber::Lock lock_;
  int value_ = 0;
};

class NodeWorker : public amber::Object {
 public:
  int Run(Ref<Protected> p, int rounds) {
    for (int i = 0; i < rounds; ++i) {
      p.Call(&Protected::Update);
      amber::Work(kMicrosecond * 500);
    }
    return rounds;
  }
};

class Counter : public amber::Object {
 public:
  int Bump() {
    amber::Work(kMicrosecond * 50);
    return ++value_;
  }

 private:
  int value_ = 0;
};

class Driver : public amber::Object {
 public:
  int Run(Ref<Counter> c, int rounds) {
    for (int i = 0; i < rounds; ++i) {
      c.Call(&Counter::Bump);
      amber::Work(kMicrosecond * 20);
    }
    return rounds;
  }
};

// --- Scenarios -----------------------------------------------------------------

void RunSerial() {
  amber::Runtime::Config config;
  config.nodes = 1;
  config.procs_per_node = 1;
  config.arena_bytes = size_t{128} << 20;
  amber::Runtime rt(config);
  prof::Profiler profiler;
  rt.AddObserver(&profiler);
  const Time end = rt.Run([] {
    auto s = amber::New<Spinner>();
    for (int i = 0; i < 50; ++i) {
      s.Call(&Spinner::Step);
      amber::Work(kMicrosecond * 40);
    }
  });
  Emit(profiler, "serial", end);
}

void RunLockConvoy() {
  constexpr int kNodes = 4;
  constexpr int kRounds = 16;
  amber::Runtime::Config config;
  config.nodes = kNodes;
  config.procs_per_node = 2;
  amber::Runtime rt(config);
  prof::Profiler profiler;
  rt.AddObserver(&profiler);
  const Time end = rt.Run([&] {
    auto prot = amber::New<Protected>();
    amber::MoveTo(prot, 1);
    std::vector<Ref<NodeWorker>> workers;
    for (NodeId n = 0; n < kNodes; ++n) {
      workers.push_back(amber::NewOn<NodeWorker>(n));
    }
    std::vector<amber::ThreadRef<int>> ts;
    for (auto& w : workers) {
      ts.push_back(amber::StartThread(w, &NodeWorker::Run, prot, kRounds));
    }
    for (auto& t : ts) {
      t.Join();
    }
  });
  Emit(profiler, "lock_convoy", end);
}

// The placement-advice demo. `moved` applies the advisor's recommendation
// (MoveTo the counter to its heaviest caller's node) before the hot loop.
Time RunHotspot(bool moved) {
  amber::Runtime::Config config;
  config.nodes = 4;
  config.procs_per_node = 2;
  config.arena_bytes = size_t{128} << 20;
  amber::Runtime rt(config);
  prof::Profiler profiler;
  rt.AddObserver(&profiler);
  // Observe-only placement policy (default config: disabled): it tracks
  // per-object invocation-origin heat from the same bus without issuing any
  // migrations, and prints the hot-object table below — the live view of
  // what the advisor's MoveTo advice is based on (docs/PLACEMENT.md).
  policy::PlacementPolicy heatwatch;
  heatwatch.AttachTo(rt);
  const Time end = rt.Run([&] {
    auto counter = amber::New<Counter>();  // lives on node 0
    auto driver = amber::NewOn<Driver>(2);
    for (int i = 0; i < 4; ++i) {
      counter.Call(&Counter::Bump);  // a few local calls from node 0
    }
    if (moved) {
      amber::MoveTo(counter, 2);  // the advisor's recommendation
    }
    auto t = amber::StartThread(driver, &Driver::Run, counter, 64);
    t.Join();
  });
  heatwatch.WriteHeatSummary(std::cout);
  std::printf("\n");
  return Emit(profiler, moved ? "hotspot_moved" : "hotspot", end);
}

void RunHotspotPair() {
  const Time before = RunHotspot(/*moved=*/false);
  const Time after = RunHotspot(/*moved=*/true);
  std::printf("hotspot: applying the advisor's MoveTo cut virtual time %.3f ms -> %.3f ms\n\n",
              amber::ToMillis(before), amber::ToMillis(after));
}

struct Scenario {
  const char* name;
  void (*run)();
};

const Scenario kScenarios[] = {
    {"serial", RunSerial},
    {"lock-convoy", RunLockConvoy},
    {"hotspot", RunHotspotPair},
};

void Usage() {
  std::printf("usage: amber-prof [scenario...]\nscenarios:");
  for (const Scenario& s : kScenarios) {
    std::printf(" %s", s.name);
  }
  std::printf("\n(no arguments: run all)\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Scenario*> todo;
  if (argc <= 1) {
    for (const Scenario& s : kScenarios) {
      todo.push_back(&s);
    }
  } else {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
        Usage();
        return 0;
      }
      const Scenario* found = nullptr;
      for (const Scenario& s : kScenarios) {
        if (std::strcmp(argv[i], s.name) == 0) {
          found = &s;
        }
      }
      if (found == nullptr) {
        std::printf("unknown scenario '%s'\n", argv[i]);
        Usage();
        return 1;
      }
      todo.push_back(found);
    }
  }
  for (const Scenario* s : todo) {
    s->run();
  }
  return 0;
}
