// Metrics registry: named counters, gauges and virtual-time histograms.
//
// A Registry is a flat, deterministic store of named metric families, each
// holding one instance per *label* — "total" for the scalar case, "node3"
// for per-node dimensions, "0->2" for per-link / migration-matrix cells.
// The Amber runtime registers its core metrics (invocation latency,
// migration traffic, run-queue wait, lock contention, per-link bytes) when
// a registry is attached with Runtime::SetMetrics(); applications and
// benchmarks register their own through the same Get* calls.
//
// All values are derived from virtual time and deterministic event order,
// so WriteJson() output is byte-identical across identical runs — the
// machine-readable stats document benchmarks dump as BENCH_<name>.json and
// future changes diff against.
//
// Registries are not thread-safe; the simulation is single-host-threaded.

#ifndef AMBER_SRC_METRICS_METRICS_H_
#define AMBER_SRC_METRICS_METRICS_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/base/stats.h"

namespace metrics {

// Monotonic integer counter.
class Counter {
 public:
  void Add(int64_t n = 1) { value_ += n; }
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

// Last-value-wins instantaneous measurement.
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

// Fixed set of tail quantiles reports care about. Extracted in one call so a
// consumer (bench tables, the scale harness's per-event dispatch cost) takes
// a consistent snapshot instead of four lazy sorts.
struct PercentileSummary {
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

// Cumulative state of a histogram at one instant: total count, total sum,
// and the per-power-of-two-bucket counts Record maintains. Snapshots are
// cheap value copies; diffing two of them recovers the *interval* between
// the snapshot points without resetting anything — the histogram keeps
// accumulating and its cumulative WriteJson rendering stays byte-identical.
// This is what the windowed-rollup collector (src/tseries) is built on.
struct HistogramSnapshot {
  int64_t count = 0;
  double sum = 0.0;
  std::map<int, int64_t> buckets;  // BucketOf(v) -> cumulative observations
};

// Summary of the observations that landed between two snapshots. The
// percentiles are estimated from the bucket-count deltas by linear
// interpolation inside the matched power-of-two bucket — coarser than the
// sample-exact cumulative Percentile(), but computable from two O(buckets)
// snapshots, and ordered by construction (p50 <= p99 <= p999).
struct IntervalSummary {
  int64_t count = 0;
  double sum = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

// OpenMetrics-style exemplar: one concrete observation retained per
// power-of-two bucket, carrying the trace id of the request that produced
// it. The p999 bucket of a latency histogram thereby names a real trace a
// tool (amber-tail) can reconstruct, instead of an anonymous quantile.
struct Exemplar {
  double value = 0.0;
  uint64_t trace_id = 0;
};

// Sample-retaining distribution with percentile queries, built on
// amber::Samples. Values are virtual-time durations in nanoseconds unless a
// family documents otherwise.
class Histogram {
 public:
  void Record(double v) {
    samples_.Add(v);
    acc_.Add(v);
    if (bucket_counts_ == nullptr) {
      bucket_counts_ = std::make_unique<Buckets>();
    }
    ++(*bucket_counts_)[BucketOf(v)];
  }

  // Records v and, when trace_id is nonzero (a sampled trace), retains it as
  // the exemplar of v's power-of-two bucket (most recent observation wins).
  // Record(v, 0) is byte-for-byte equivalent to Record(v): exemplars render
  // only when at least one exists, so unsampled runs emit unchanged JSON.
  void Record(double v, uint64_t trace_id) {
    Record(v);
    if (trace_id != 0) {
      exemplars_[BucketOf(v)] = Exemplar{v, trace_id};
    }
  }

  int64_t count() const { return acc_.count(); }
  double sum() const { return acc_.sum(); }
  double min() const { return acc_.min(); }
  double max() const { return acc_.max(); }
  double mean() const { return acc_.mean(); }
  // p in [0, 100]. Returns 0 for an empty histogram.
  double Percentile(double p) const {
    return samples_.count() > 0 ? samples_.Percentile(p) : 0.0;
  }
  // p50/p90/p99/p999 in one snapshot (all 0 for an empty histogram).
  PercentileSummary Summary() const {
    return PercentileSummary{Percentile(50), Percentile(90), Percentile(99), Percentile(99.9)};
  }

  // Bucket index: floor(log2(v)) for v >= 1, 0 below — at most 63, so the
  // buckets fit a fixed array of kBuckets.
  static constexpr int kBuckets = 64;
  static int BucketOf(double v) {
    const uint64_t n = v >= 1.0 ? static_cast<uint64_t>(v) : 1;
    return std::bit_width(n) - 1;
  }

  // Cumulative snapshot for interval diffing (see HistogramSnapshot): the
  // nonzero buckets in ascending order. Pure read: takes nothing out of the
  // histogram, so cumulative dumps taken before and after a snapshot render
  // byte-identically.
  HistogramSnapshot Snapshot() const;

  // The observations that landed between `prev` and `cur` (prev must be the
  // earlier snapshot of the same histogram). Zero summary for an empty
  // interval.
  static IntervalSummary Diff(const HistogramSnapshot& prev, const HistogramSnapshot& cur);

  // Interval summary straight from a bucket-delta map (count = sum of the
  // deltas). This is Diff's core, exposed so a consumer that accumulates
  // bucket deltas across several intervals (steady-state extraction in
  // bench_serve --sweep) can summarize the union without re-snapshotting.
  static IntervalSummary SummaryFromBuckets(const std::map<int, int64_t>& bucket_deltas,
                                            double sum);

  // Exemplars by bucket index (empty unless Record(v, trace_id) ran).
  const std::map<int, Exemplar>& exemplars() const { return exemplars_; }

  // The retained exemplar whose value lies closest to v — how a consumer
  // resolves "which trace is my p999" — or a zero Exemplar when none exist.
  Exemplar ExemplarNear(double v) const;

 private:
  mutable amber::Samples samples_;  // Percentile() sorts lazily
  amber::Accumulator acc_;
  // Cumulative per-bucket counts, for Snapshot(). Allocated by the first
  // Record, so registering a family that may never record (SetMetrics
  // registers dozens up front) costs no more than it did with a map.
  using Buckets = std::array<int64_t, kBuckets>;
  std::unique_ptr<Buckets> bucket_counts_;
  std::map<int, Exemplar> exemplars_;
};

class Registry {
 public:
  using CounterFamily = std::map<std::string, Counter>;
  using GaugeFamily = std::map<std::string, Gauge>;
  using HistogramFamily = std::map<std::string, Histogram>;

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // --- Registration / lookup (creates the instance on first use) -----------
  //
  // Per-family label cardinality is capped (SetLabelCap, default 4096): the
  // first lookup past the cap warns once per family on stderr, bumps the
  // `metrics.dropped_labels` counter, and returns a family-shared sink
  // instance that WriteJson never renders — so a per-object or per-trace
  // label dimension gone wrong degrades one family instead of blowing up
  // the JSON document or the host heap.

  Counter& GetCounter(const std::string& name) { return GetCounter(name, std::string("total")); }
  Counter& GetCounter(const std::string& name, int node) {
    return GetCounter(name, NodeLabel(node));
  }
  Counter& GetCounter(const std::string& name, const std::string& label);

  Gauge& GetGauge(const std::string& name) { return GetGauge(name, std::string("total")); }
  Gauge& GetGauge(const std::string& name, int node) { return GetGauge(name, NodeLabel(node)); }
  Gauge& GetGauge(const std::string& name, const std::string& label);

  Histogram& GetHistogram(const std::string& name) {
    return GetHistogram(name, std::string("total"));
  }
  Histogram& GetHistogram(const std::string& name, int node) {
    return GetHistogram(name, NodeLabel(node));
  }
  Histogram& GetHistogram(const std::string& name, const std::string& label);

  // GetCounter / GetHistogram by metric type, for code templated on it
  // (FamilyHandles).
  template <typename Metric>
  Metric& Get(const std::string& name, const std::string& label);

  // True when `metric` is one of the label-cap sinks.
  bool IsSink(const void* metric) const {
    return metric == &counter_sink_ || metric == &gauge_sink_ || metric == &histogram_sink_;
  }

  // Maximum distinct labels per family before new labels drop to the sink.
  void SetLabelCap(size_t cap) { label_cap_ = cap; }
  size_t label_cap() const { return label_cap_; }
  int64_t dropped_labels() const { return dropped_labels_; }

  // --- Read-only access (reports) ------------------------------------------

  // Returns the family, or nullptr if no metric with that name exists.
  const CounterFamily* FindCounters(const std::string& name) const;
  const GaugeFamily* FindGauges(const std::string& name) const;
  const HistogramFamily* FindHistograms(const std::string& name) const;

  // Sum of a counter family across all labels (0 if absent).
  int64_t CounterTotal(const std::string& name) const;

  const std::map<std::string, CounterFamily>& counters() const { return counters_; }
  const std::map<std::string, GaugeFamily>& gauges() const { return gauges_; }
  const std::map<std::string, HistogramFamily>& histograms() const { return histograms_; }

  // --- Rendering ------------------------------------------------------------

  // Stable machine-readable document:
  //   {"counters": {name: {label: value}},
  //    "gauges":   {name: {label: value}},
  //    "histograms": {name: {label: {count,sum,min,max,mean,p50,p90,p99,p999}}}}
  // Families and labels render in lexicographic order; identical runs
  // produce byte-identical output.
  void WriteJson(std::ostream& out) const;

  static std::string NodeLabel(int node) { return "node" + std::to_string(node); }
  static std::string LinkLabel(int src, int dst) {
    return std::to_string(src) + "->" + std::to_string(dst);
  }

 private:
  // Shared lookup-with-cap: existing labels always resolve; a new label in a
  // full family drops to `sink` (never rendered) and is counted.
  template <typename Family>
  typename Family::mapped_type& Lookup(std::map<std::string, Family>& families,
                                       const std::string& name, const std::string& label,
                                       typename Family::mapped_type& sink);
  void NoteDroppedLabel(const std::string& name);

  std::map<std::string, CounterFamily> counters_;
  std::map<std::string, GaugeFamily> gauges_;
  std::map<std::string, HistogramFamily> histograms_;
  size_t label_cap_ = 4096;
  int64_t dropped_labels_ = 0;
  std::map<std::string, bool> warned_families_;
  Counter counter_sink_;
  Gauge gauge_sink_;
  Histogram histogram_sink_;
};

template <>
inline Counter& Registry::Get<Counter>(const std::string& name, const std::string& label) {
  return GetCounter(name, label);
}
template <>
inline Histogram& Registry::Get<Histogram>(const std::string& name, const std::string& label) {
  return GetHistogram(name, label);
}

// One metric family's instances, resolved once per dense index — a node id,
// a link index, a lock id — so a per-event record is one indexed load
// instead of a name-and-label map walk plus a label string build. The first
// use of an index goes through the registry's Get* call, so each label is
// created at exactly the moment an uncached lookup would create it. A
// lookup the label cap dropped into the sink is never kept: the next use
// looks up again and counts as another dropped label, as it would uncached.
template <typename Metric>
class FamilyHandles {
 public:
  FamilyHandles() = default;
  FamilyHandles(Registry* registry, const char* name) : registry_(registry), name_(name) {}

  Metric& Total() { return At(0, [] { return std::string("total"); }); }
  Metric& Node(int node) {
    return At(static_cast<size_t>(node), [node] { return Registry::NodeLabel(node); });
  }
  // The "src->dst" instance of a cluster of `nodes` nodes.
  Metric& Link(int src, int dst, int nodes) {
    return At(static_cast<size_t>(src) * static_cast<size_t>(nodes) + static_cast<size_t>(dst),
              [src, dst] { return Registry::LinkLabel(src, dst); });
  }

  // The instance of `index`; `label()` builds its label and runs only while
  // the index is unresolved.
  template <typename Label>
  Metric& At(size_t index, Label&& label) {
    if (index < handles_.size() && handles_[index] != nullptr) {
      return *handles_[index];
    }
    Metric& m = registry_->Get<Metric>(name_, label());
    if (!registry_->IsSink(&m)) {
      if (index >= handles_.size()) {
        handles_.resize(index + 1, nullptr);
      }
      handles_[index] = &m;
    }
    return m;
  }

 private:
  Registry* registry_ = nullptr;
  const char* name_ = "";
  std::vector<Metric*> handles_;
};

}  // namespace metrics

#endif  // AMBER_SRC_METRICS_METRICS_H_
