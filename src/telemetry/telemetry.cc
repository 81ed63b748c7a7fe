#include "src/telemetry/telemetry.h"

#include <cstdio>
#include <limits>
#include <sstream>

#include "src/base/json.h"

#if defined(__GLIBC__) && defined(__GLIBC_PREREQ)
#if __GLIBC_PREREQ(2, 33)
#include <malloc.h>
#define AMBER_HAVE_MALLINFO2 1
#endif
#endif

namespace telemetry {
namespace {

// In-use heap bytes as glibc sees them; -1 where mallinfo2 is unavailable.
// Advisory only — never part of the deterministic schema fields.
int64_t HeapInUseBytes() {
#ifdef AMBER_HAVE_MALLINFO2
  struct mallinfo2 mi = mallinfo2();
  return static_cast<int64_t>(mi.uordblks);
#else
  return -1;
#endif
}

// Deterministic double rendering for the few non-integral JSON values.
std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

const char* BucketName(Bucket b) {
  switch (b) {
    case Bucket::kEventLoop:
      return "event_loop";
    case Bucket::kFiberRun:
      return "fiber_run";
    case Bucket::kObserverFanout:
      return "observer_fanout";
    case Bucket::kNetDelivery:
      return "net_delivery";
  }
  return "unknown";
}

const char* CountName(Count c) {
  switch (c) {
    case Count::kEvents:
      return "events";
    case Count::kDispatches:
      return "dispatches";
    case Count::kDescriptorLookups:
      return "descriptor_lookups";
    case Count::kAllocations:
      return "allocations";
    case Count::kAllocBytes:
      return "alloc_bytes";
  }
  return "unknown";
}

SelfProfiler::SelfProfiler(Config config)
    : config_(std::move(config)),
      sample_every_(config_.sample_every_events),
      // A zero cadence means "never sample": park the countdown far away.
      until_sample_(config_.sample_every_events > 0
                        ? static_cast<int64_t>(config_.sample_every_events)
                        : std::numeric_limits<int64_t>::max()) {
  ring_.reserve(config_.ring_capacity);
}

SelfProfiler::~SelfProfiler() {
  if (enabled()) {
    Disable();
  }
}

void SelfProfiler::Enable() {
  if (enabled()) {
    return;
  }
  g_active_ = this;
  enable_start_ns_ = NowNs();
  last_loop_ns_ = enable_start_ns_;  // anchor the telescoped loop clock
  until_clock_ = kLoopClockEvery;
}

void SelfProfiler::Disable() {
  if (!enabled()) {
    return;
  }
  enabled_wall_ns_ += NowNs() - enable_start_ns_;
  enable_start_ns_ = 0;
  g_active_ = nullptr;
}

void SelfProfiler::SetNodeCount(int nodes) {
  if (nodes > static_cast<int>(node_dispatches_.size())) {
    node_dispatches_.resize(nodes, 0);
  }
}

int64_t SelfProfiler::EnabledWallNs() const {
  int64_t total = enabled_wall_ns_;
  if (enable_start_ns_ != 0) {
    total += NowNs() - enable_start_ns_;
  }
  return total;
}

double SelfProfiler::EventsPerSec() const {
  const int64_t wall = EnabledWallNs();
  if (wall <= 0) {
    return 0.0;
  }
  return static_cast<double>(count(Count::kEvents)) * 1e9 / static_cast<double>(wall);
}

void SelfProfiler::TakeSample(int64_t virtual_now_ns, int64_t queue_depth) {
  if (config_.ring_capacity == 0) {
    return;
  }
  if (--until_heap_ == 0) {
    until_heap_ = kHeapSampleEvery;
    heap_bytes_ = HeapInUseBytes();
  }
  Sample s;
  s.virtual_time_ns = virtual_now_ns;
  s.wall_ns = enable_start_ns_ != 0 ? NowNs() - enable_start_ns_ : EnabledWallNs();
  s.events = count(Count::kEvents);
  s.queue_depth = queue_depth;
  s.heap_bytes = heap_bytes_;
  if (ring_.size() < config_.ring_capacity) {
    ring_.push_back(s);
  } else {
    ring_[static_cast<size_t>(total_samples_) % config_.ring_capacity] = s;
  }
  ++total_samples_;
  if (!config_.flush_path.empty() && config_.flush_every_samples > 0 &&
      static_cast<uint64_t>(total_samples_) % config_.flush_every_samples == 0) {
    FlushTo(config_.flush_path);
  }
}

std::vector<SelfProfiler::Sample> SelfProfiler::SamplesChronological() const {
  std::vector<Sample> out;
  out.reserve(ring_.size());
  if (ring_.size() < config_.ring_capacity || config_.ring_capacity == 0) {
    out = ring_;  // not yet wrapped: ring order is chronological
  } else {
    const size_t start = static_cast<size_t>(total_samples_) % config_.ring_capacity;
    for (size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(start + i) % ring_.size()]);
    }
  }
  return out;
}

void SelfProfiler::WriteJson(std::ostream& out, bool scrub_wall) const {
  auto wall = [scrub_wall](int64_t v) { return scrub_wall ? int64_t{0} : v; };
  out << "{\n";
  out << "  \"telemetry\": \"" << config_.name << "\",\n";
  out << "  \"schema\": 1,\n";
  out << "  \"enabled_wall_ns\": " << wall(EnabledWallNs()) << ",\n";
  out << "  \"counts\": {";
  for (int c = 0; c < kCountCount; ++c) {
    out << (c == 0 ? "" : ", ") << "\"" << CountName(static_cast<Count>(c))
        << "\": " << counts_[c];
  }
  out << "},\n";
  out << "  \"buckets\": {";
  for (int b = 0; b < kBucketCount; ++b) {
    out << (b == 0 ? "\n" : ",\n") << "    \"" << BucketName(static_cast<Bucket>(b))
        << "\": {\"calls\": " << buckets_[b].calls
        << ", \"wall_ns\": " << wall(bucket_wall_ns(static_cast<Bucket>(b))) << "}";
  }
  out << "\n  },\n";
  out << "  \"node_dispatches\": [";
  for (size_t n = 0; n < node_dispatches_.size(); ++n) {
    out << (n == 0 ? "" : ", ") << node_dispatches_[n];
  }
  out << "],\n";
  out << "  \"samples\": [";
  const std::vector<Sample> samples = SamplesChronological();
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"virtual_time_ns\": " << s.virtual_time_ns
        << ", \"wall_ns\": " << wall(s.wall_ns) << ", \"events\": " << s.events
        << ", \"queue_depth\": " << s.queue_depth
        << ", \"heap_bytes\": " << wall(s.heap_bytes) << "}";
  }
  out << (samples.empty() ? "" : "\n  ") << "],\n";
  out << "  \"totals\": {\"events_per_sec\": " << (scrub_wall ? "0" : Num(EventsPerSec()))
      << "}\n";
  out << "}\n";
}

bool SelfProfiler::FlushTo(const std::string& path) const {
  return amber::json::WriteFileAtomically(
      path, [this](std::ostream& out) { WriteJson(out, /*scrub_wall=*/false); });
}

}  // namespace telemetry
