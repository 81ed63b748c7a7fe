// Shared types of the host-speed benchmark.
//
// A workload run is a sequence of identical *rounds*. Each round builds a
// fresh amber::Runtime from the seed, populates it, runs the timed
// operations and tears it down, dropping host-clock marks at the phase
// boundaries. Every round of a run must produce the same virtual digest;
// perfbench/run.py additionally compares it with the golden digests.

#ifndef AMBER_PERFBENCH_SRC_BENCH_H_
#define AMBER_PERFBENCH_SRC_BENCH_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/net/network.h"
#include "src/telemetry/telemetry.h"

namespace amber {
class Runtime;
}

namespace perfbench {

// splitmix64 step: every workload derives its inputs from the seed with it.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Virtual-time outputs of a round, as (name, value) pairs in a fixed order.
// Identical seeds give identical digests.
using Digest = std::vector<std::pair<std::string, std::string>>;

void AddDigest(Digest& d, const char* name, int64_t v);
void AddDigest(Digest& d, const char* name, uint64_t v);

struct RoundSpec {
  uint64_t seed = 1;
  bool smoke = false;      // small sizes, for the benchmark's own tests
  bool observers = true;   // serve only: attach the full observer stack
};

// Telemetry counts read at a phase boundary (zero when no SelfProfiler is
// enabled).
struct LayerCounts {
  int64_t events = 0;
  int64_t dispatches = 0;
  int64_t lookups = 0;
  int64_t allocs = 0;

  static LayerCounts Read();
  LayerCounts operator-(const LayerCounts& o) const {
    return {events - o.events, dispatches - o.dispatches, lookups - o.lookups,
            allocs - o.allocs};
  }
};

// Host-clock marks at the phase boundaries of one round:
//   setup    Runtime construction and observer attach
//   populate object creation, up to the first timed operation
//   work     the timed operations
//   drain    joins, checksums and Runtime teardown
class PhaseClock {
 public:
  PhaseClock() : start_(telemetry::NowNs()) {}
  void SetupDone() { setup_end_ = telemetry::NowNs(); }
  void WorkBegins() {
    populate_end_ = telemetry::NowNs();
    work_begin_ = LayerCounts::Read();
  }
  void WorkDone() {
    work_end_ = telemetry::NowNs();
    work_counts_ = LayerCounts::Read() - work_begin_;
  }
  void Finished() { end_ = telemetry::NowNs(); }

  struct Span {
    const char* name;
    int64_t begin_ns;
    int64_t end_ns;
  };
  std::vector<Span> spans() const {
    return {{"setup", start_, setup_end_},
            {"populate", setup_end_, populate_end_},
            {"work", populate_end_, work_end_},
            {"drain", work_end_, end_}};
  }

  double setup_s() const { return Seconds(start_, setup_end_); }
  double populate_s() const { return Seconds(setup_end_, populate_end_); }
  double work_s() const { return Seconds(populate_end_, work_end_); }
  const LayerCounts& work_counts() const { return work_counts_; }

 private:
  static double Seconds(int64_t a, int64_t b) { return static_cast<double>(b - a) / 1e9; }

  int64_t start_;
  int64_t setup_end_ = 0;
  int64_t populate_end_ = 0;
  int64_t work_end_ = 0;
  int64_t end_ = 0;
  LayerCounts work_begin_;
  LayerCounts work_counts_;
};

// The working set a round built, which sizes the layer probes.
struct Shape {
  int nodes = 1;
  net::Topology topology = net::Topology::kSharedBus;
  int64_t table_entries = 1;  // mean descriptor-table entries per node
};

struct RoundResult {
  PhaseClock clock;
  int64_t ops = 0;
  Digest digest;
  std::string error;  // a violated invariant; empty when the round is sound
  Shape shape;
};

struct Workload {
  const char* name;
  RoundResult (*run)(const RoundSpec& spec);
  // Optional once-per-run check of a round's outputs against an independent
  // reference; returns an error or "".
  std::string (*verify)(const RoundSpec& spec, const RoundResult& round);
};

RoundResult RunScale(const RoundSpec& spec);
RoundResult RunSor(const RoundSpec& spec);
std::string VerifySor(const RoundSpec& spec, const RoundResult& round);
RoundResult RunServe(const RoundSpec& spec);
RoundResult RunMigrate(const RoundSpec& spec);

// The working set of a runtime whose Run has returned.
Shape ShapeOf(amber::Runtime& rt);

}  // namespace perfbench

#endif  // AMBER_PERFBENCH_SRC_BENCH_H_
