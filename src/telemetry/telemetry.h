// Host-side self-telemetry: wall-clock profiling of the simulator itself.
//
// Every other observability layer in this repo (metrics, profiler, flight
// recorder) measures *virtual* time. This library measures what the DES core
// costs on the host — wall-clock time per subsystem, events per second, heap
// in use — which is what ROADMAP item 1 (scale to 256–1024 nodes) needs to
// optimize against.
//
// The contract that keeps the rest of the system honest:
//
//   * Telemetry never touches virtual time. Hooks read CLOCK_MONOTONIC and
//     feed host-side aggregates only; enabling or disabling the profiler
//     cannot change any simulation result, event order, or the bytes of any
//     BENCH/PROF/FDR output.
//   * Zero cost when disabled: every hot-path hook is one inline null-check
//     of a process-global pointer. The simulation is single-host-threaded,
//     so a plain global (no atomics) is correct.
//   * Deterministic schema: TELEMETRY_<name>.json has a fixed key set, and
//     the sample ring is keyed to *event counts*, not wall time — so the
//     virtual-time / event / queue-depth fields are identical across
//     identical runs and only the wall-clock readings differ.
//     WriteJson(out, /*scrub_wall=*/true) zeroes exactly those readings,
//     which is what the byte-compare tests diff.
//
// Layering: this is a base-level library (std only) so src/sim can link it.

#ifndef AMBER_SRC_TELEMETRY_TELEMETRY_H_
#define AMBER_SRC_TELEMETRY_TELEMETRY_H_

#include <cstddef>
#include <cstdint>
#include <ctime>
#include <ostream>
#include <string>
#include <vector>

namespace telemetry {

// Host monotonic clock, nanoseconds. Via vDSO this is ~20ns per call — cheap
// in isolation, but the DES core turns an event in a few hundred ns, so even
// one read per event would be a measurable tax. The profiler therefore reads
// the clock sparsely: the event loop takes one telescoped reading every
// kLoopClockEvery iterations (consecutive differences still sum to the exact
// total), scoped timers sample 1 in kScopeSampleEvery calls and extrapolate,
// and the hottest sites (descriptor lookups, allocation accounting) use pure
// counter tallies with no clock at all.
inline int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
}

// Wall-time buckets, one per instrumented subsystem. kEventLoop is the
// umbrella (a whole event-queue iteration, including any fiber slice and
// observer fan-out it contains); the others are nested subsets, so bucket
// times overlap by design and do not sum to the run's wall time.
enum class Bucket : int {
  kEventLoop = 0,      // one event: a RunOne iteration or a Sync handoff pop
  kFiberRun = 1,       // one fiber slice: switch-in until it yields the slice
  kObserverFanout = 2, // RuntimeObserver / metrics bridge emission
  kNetDelivery = 3,    // net::Network delivery closure execution
};
inline constexpr int kBucketCount = 4;
const char* BucketName(Bucket b);

// Pure counters for hot sites where even one clock read would dominate.
enum class Count : int {
  kEvents = 0,            // event-loop iterations
  kDispatches = 1,        // fiber switch-ins from TryDispatch
  kDescriptorLookups = 2, // residency checks and descriptor reads: DescriptorTable::Lookup
                          // calls plus the header's answers where `owner` is the node
  kAllocations = 3,       // SegmentAllocator::Allocate calls
  kAllocBytes = 4,        // bytes requested from SegmentAllocator
};
inline constexpr int kCountCount = 5;
const char* CountName(Count c);

class SelfProfiler {
 public:
  struct Config {
    std::string name = "amber";     // TELEMETRY_<name>.json
    // Take a time-series sample every N event-loop iterations. Event-count
    // cadence (not wall time) keeps the sampled virtual times deterministic.
    uint64_t sample_every_events = 8192;
    // Ring of most-recent samples kept in memory (fixed size; old samples
    // are overwritten — sized so a dump stays small at any run length).
    size_t ring_capacity = 1024;
    // Optional live export: rewrite TELEMETRY_<name>.json (atomically, via
    // tmp+rename) every `flush_every_samples` samples so `amber-top` can
    // follow the run. Empty path or 0 disables.
    std::string flush_path;
    uint64_t flush_every_samples = 0;
  };

  struct Sample {
    int64_t virtual_time_ns = 0;  // deterministic
    int64_t wall_ns = 0;          // since Enable(); host-dependent
    int64_t events = 0;           // cumulative event-loop iterations (deterministic)
    int64_t queue_depth = 0;      // pending events after this one (deterministic)
    int64_t heap_bytes = 0;       // mallinfo2 in-use bytes (kHeapSampleEvery); -1 if none
  };

  explicit SelfProfiler(Config config);
  ~SelfProfiler();

  SelfProfiler(const SelfProfiler&) = delete;
  SelfProfiler& operator=(const SelfProfiler&) = delete;

  // Makes this the process-global active profiler (hot paths see it through
  // active()). Disable() detaches and accumulates the enabled wall time.
  void Enable();
  void Disable();
  bool enabled() const { return g_active_ == this; }

  static SelfProfiler* active() { return g_active_; }

  // --- Hot paths (inline; callers have already null-checked active()) ------

  // Telescoped event-loop clock: read every kLoopClockEvery iterations. The
  // deltas between consecutive readings sum to the exact elapsed wall time,
  // so coarse reads lose sample granularity but never total accuracy.
  static constexpr int64_t kLoopClockEvery = 32;
  // Scoped timers (fiber_run, observer_fanout, net_delivery) read the clock
  // on 1 of every kScopeSampleEvery calls and extrapolate; calls are always
  // counted exactly.
  static constexpr uint32_t kScopeSampleEvery = 32;  // power of two
  // mallinfo2 walks the allocator's arenas, so the heap is read on the first
  // sample and every kHeapSampleEvery-th after it; others carry the reading.
  static constexpr int64_t kHeapSampleEvery = 64;

  void Add(Count c, int64_t n = 1) { counts_[static_cast<int>(c)] += n; }

  // One event finished with the virtual clock at `virtual_now_ns` and
  // `queue_depth` events pending. The kernel's loop calls this after each
  // RunOne; a Sync handoff calls it with the values the loop would have
  // seen when it takes the next event itself. Counts the event, advances
  // the telescoped loop clock, and feeds the sample ring on its event-count
  // cadence. Countdown counters (not modulo) keep the per-event cost to
  // increments and predictable branches.
  void OnEventLoopIteration(int64_t virtual_now_ns, size_t queue_depth) {
    ++buckets_[static_cast<int>(Bucket::kEventLoop)].calls;
    ++counts_[static_cast<int>(Count::kEvents)];
    if (--until_clock_ == 0) {
      until_clock_ = kLoopClockEvery;
      const int64_t now = NowNs();
      buckets_[static_cast<int>(Bucket::kEventLoop)].wall_ns += now - last_loop_ns_;
      last_loop_ns_ = now;
    }
    if (--until_sample_ == 0) {
      until_sample_ = static_cast<int64_t>(sample_every_);
      TakeSample(virtual_now_ns, static_cast<int64_t>(queue_depth));
    }
  }

  // Re-anchors the telescoped loop clock without attributing anything — the
  // kernel calls this when its loop starts, so setup time between Enable()
  // and the first event never lands in the event_loop bucket.
  void ResetLoopClock() {
    last_loop_ns_ = NowNs();
    until_clock_ = kLoopClockEvery;
  }

  // Closes the current telescoped block, attributing the tail since the last
  // reading to the event-loop bucket. The kernel calls this when its loop
  // drains.
  void SyncLoopClock() {
    const int64_t now = NowNs();
    buckets_[static_cast<int>(Bucket::kEventLoop)].wall_ns += now - last_loop_ns_;
    last_loop_ns_ = now;
  }

  // Begin/End for sampled scoped timing (used by ScopedWallTimer). Begin
  // counts the call and returns a start timestamp for sampled calls, 0 for
  // the rest; End adds the measured span to the bucket's sampled pool.
  int64_t BeginScope(Bucket b) {
    BucketAcc& acc = buckets_[static_cast<int>(b)];
    ++acc.calls;
    if ((acc.tick++ & (kScopeSampleEvery - 1)) == 0) {
      ++acc.sampled_calls;
      return NowNs();
    }
    return 0;
  }
  void EndScope(Bucket b, int64_t start) {
    buckets_[static_cast<int>(b)].sampled_ns += NowNs() - start;
  }

  // A fiber was switched in on `node` (per-node dispatch attribution).
  void NodeDispatch(int node) {
    Add(Count::kDispatches);
    if (node >= 0 && node < static_cast<int>(node_dispatches_.size())) {
      ++node_dispatches_[node];
    }
  }

  // Sizes the per-node dispatch table (idempotent; keeps existing counts
  // when the node count is unchanged). The kernel calls this at Run() start.
  void SetNodeCount(int nodes);

  // --- Results --------------------------------------------------------------

  const std::string& name() const { return config_.name; }
  int64_t count(Count c) const { return counts_[static_cast<int>(c)]; }
  int64_t bucket_calls(Bucket b) const { return buckets_[static_cast<int>(b)].calls; }
  // Exact accumulation plus the sampled-scope extrapolation
  // (sampled_ns * calls / sampled_calls).
  int64_t bucket_wall_ns(Bucket b) const {
    const BucketAcc& acc = buckets_[static_cast<int>(b)];
    int64_t total = acc.wall_ns;
    if (acc.sampled_calls > 0) {
      total += acc.sampled_ns * acc.calls / acc.sampled_calls;
    }
    return total;
  }
  const std::vector<int64_t>& node_dispatches() const { return node_dispatches_; }
  int64_t samples_taken() const { return total_samples_; }

  // Total wall time spent enabled (closed periods plus the current one).
  int64_t EnabledWallNs() const;
  // count(kEvents) / EnabledWallNs, 0 if no wall time has accrued.
  double EventsPerSec() const;

  // Samples oldest-first (at most ring_capacity; earlier ones overwritten).
  std::vector<Sample> SamplesChronological() const;

  // Fixed-schema JSON document. With scrub_wall, every host-dependent field
  // (wall times, heap bytes, events/sec) renders as 0 — the remaining bytes
  // are a deterministic function of the simulation.
  void WriteJson(std::ostream& out, bool scrub_wall = false) const;

  // Writes the (unscrubbed) JSON document to `path` atomically, via a .tmp
  // sibling and rename, so a concurrent reader never sees a torn file.
  bool FlushTo(const std::string& path) const;

 private:
  struct BucketAcc {
    int64_t calls = 0;
    int64_t wall_ns = 0;       // exact accumulation (event_loop telescoping)
    int64_t sampled_ns = 0;    // measured spans from sampled scope calls
    int64_t sampled_calls = 0; // how many calls contributed to sampled_ns
    uint32_t tick = 0;         // rotates the 1-in-kScopeSampleEvery choice
  };

  void TakeSample(int64_t virtual_now_ns, int64_t queue_depth);

  inline static SelfProfiler* g_active_ = nullptr;

  Config config_;
  uint64_t sample_every_;
  int64_t until_sample_;         // countdown to the next ring sample
  int64_t until_clock_ = kLoopClockEvery;  // countdown to the next loop clock read
  int64_t last_loop_ns_ = 0;     // previous telescoped clock reading
  BucketAcc buckets_[kBucketCount] = {};
  int64_t counts_[kCountCount] = {};
  std::vector<int64_t> node_dispatches_;
  std::vector<Sample> ring_;
  int64_t total_samples_ = 0;
  int64_t until_heap_ = 1;       // countdown to the next heap reading
  int64_t heap_bytes_ = -1;      // the last heap reading
  int64_t enabled_wall_ns_ = 0;  // closed enable..disable periods
  int64_t enable_start_ns_ = 0;  // NowNs() at Enable, 0 when disabled
};

// Adds `n` to counter `c` iff a profiler is active. The disabled cost is one
// global load and branch — safe for the hottest sites (descriptor lookups,
// allocation accounting).
inline void CountIfActive(Count c, int64_t n = 1) {
  SelfProfiler* p = SelfProfiler::active();
  if (p != nullptr) {
    p->Add(c, n);
  }
}

// Times a scope into `bucket` iff a profiler is active at construction.
// Disabled cost: one global load and branch, no clock reads. Enabled cost:
// an exact call tally always, clock reads only on the 1-in-kScopeSampleEvery
// sampled calls (the bucket's wall time is extrapolated from those).
class ScopedWallTimer {
 public:
  explicit ScopedWallTimer(Bucket bucket)
      : prof_(SelfProfiler::active()),
        bucket_(bucket),
        start_(prof_ != nullptr ? prof_->BeginScope(bucket) : 0) {}
  ~ScopedWallTimer() {
    if (start_ != 0) {
      prof_->EndScope(bucket_, start_);
    }
  }

  ScopedWallTimer(const ScopedWallTimer&) = delete;
  ScopedWallTimer& operator=(const ScopedWallTimer&) = delete;

 private:
  SelfProfiler* prof_;
  Bucket bucket_;
  int64_t start_;
};

}  // namespace telemetry

#endif  // AMBER_SRC_TELEMETRY_TELEMETRY_H_
