// Layer probes: each times calls into one layer's public interface, sized
// from the working set a workload's rounds built (node count, descriptor
// table size, event-queue depth), so the cost is measured at the size the
// workload runs at rather than on a hot toy table. Every probe returns host
// nanoseconds per operation, the median of a few repetitions.

#ifndef AMBER_PERFBENCH_SRC_PROBES_H_
#define AMBER_PERFBENCH_SRC_PROBES_H_

#include <cstdint>
#include <vector>

#include "perfbench/src/bench.h"

namespace perfbench {

// The calibration kernel: a fixed loop of the kinds of work the simulator
// does (a binary-heap event queue, dependent loads through a table the size
// of L2, multiply-heavy hashing), written here and calling nothing in src/,
// so no change to the simulator moves it. It allocates nothing and warms
// its own data before it is timed, so what the round before it left in the
// caches and the heap does not move it either. Sampled between rounds, it
// measures how fast the host runs such code at that moment; on a shared
// host that drifts by a quarter over minutes.
class Calibration {
 public:
  Calibration();
  Calibration(const Calibration&) = delete;
  Calibration& operator=(const Calibration&) = delete;

  // Times one pass of the loop (a few ms): host ns per event.
  double SampleNs();

 private:
  struct Event {
    uint64_t time;
    uint64_t slot;
  };
  std::vector<Event> queue_;     // a min-heap on time
  std::vector<uint64_t> table_;  // slot i: next slot at 2i, payload at 2i+1
  uint64_t sink_ = 0;
};

// sim::EventQueue::Post + RunOne at a queue holding `depth` events, with a
// closure larger than std::function's small-buffer.
double PostRunNs(int64_t depth);

// sim::Context::Switch there and back.
double SwitchNs();

// amber::DescriptorTable::Lookup, and SetForward/SetResident, on `tables`
// tables of `entries` entries each, at random keys.
double LookupNs(int tables, int64_t entries);
double UpdateNs(int tables, int64_t entries);

// mem::SegmentAllocator::Allocate of `size`-byte segments, `count` of them,
// committing regions as the allocator asks for them.
double AllocNs(int64_t size, int64_t count);

// net::Network::Send between random node pairs, including running the
// delivery event.
double SendNs(int nodes, net::Topology topology);

// Ref::Call on a local and on a remote object, MoveTo between two remote
// nodes, and StartThread + Join, in a runtime of `nodes` nodes.
struct CoreCosts {
  double local_call_ns = 0;
  double remote_call_ns = 0;
  double move_ns = 0;
  double thread_ns = 0;
};
CoreCosts CoreNs(int nodes, net::Topology topology);

// metrics::Registry::GetCounter(family, node).Add and
// GetHistogram(family, node).Record over `nodes` labels.
double CounterAddNs(int nodes);
double HistRecordNs(int nodes);

}  // namespace perfbench

#endif  // AMBER_PERFBENCH_SRC_PROBES_H_
