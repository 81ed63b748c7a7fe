#include "src/metrics/metrics.h"

#include <cmath>
#include <iostream>

#include "src/base/json.h"

namespace metrics {

using amber::json::Num;
using amber::json::Quote;

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot s{acc_.count(), acc_.sum(), {}};
  if (bucket_counts_ == nullptr) {
    return s;
  }
  for (int b = 0; b < kBuckets; ++b) {
    if ((*bucket_counts_)[b] != 0) {
      s.buckets.emplace_hint(s.buckets.end(), b, (*bucket_counts_)[b]);
    }
  }
  return s;
}

IntervalSummary Histogram::Diff(const HistogramSnapshot& prev, const HistogramSnapshot& cur) {
  std::map<int, int64_t> deltas;
  for (const auto& [bucket, count] : cur.buckets) {
    auto it = prev.buckets.find(bucket);
    const int64_t d = count - (it != prev.buckets.end() ? it->second : 0);
    if (d > 0) {
      deltas[bucket] = d;
    }
  }
  return SummaryFromBuckets(deltas, cur.sum - prev.sum);
}

namespace {

// Percentile estimate over bucketed counts: find the bucket holding the
// target rank, interpolate linearly inside its value range. Bucket 0 covers
// [0, 2), bucket b >= 1 covers [2^b, 2^(b+1)). The bounds are exact powers
// of two as doubles, so the top buckets (62, 63) need no 64-bit shift.
double BucketPercentile(const std::map<int, int64_t>& buckets, int64_t total, double p) {
  const double rank = (p / 100.0) * static_cast<double>(total - 1);
  int64_t below = 0;
  for (const auto& [bucket, count] : buckets) {
    if (static_cast<double>(below + count) > rank) {
      const double lo = bucket == 0 ? 0.0 : std::ldexp(1.0, bucket);
      const double hi = std::ldexp(1.0, bucket + 1);
      const double frac = (rank - static_cast<double>(below)) / static_cast<double>(count);
      return lo + frac * (hi - lo);
    }
    below += count;
  }
  return buckets.empty() ? 0.0 : std::ldexp(1.0, buckets.rbegin()->first + 1);
}

}  // namespace

IntervalSummary Histogram::SummaryFromBuckets(const std::map<int, int64_t>& bucket_deltas,
                                              double sum) {
  IntervalSummary out;
  for (const auto& [bucket, count] : bucket_deltas) {
    out.count += count;
  }
  out.sum = sum;
  if (out.count <= 0) {
    return IntervalSummary{};
  }
  out.p50 = BucketPercentile(bucket_deltas, out.count, 50.0);
  out.p99 = BucketPercentile(bucket_deltas, out.count, 99.0);
  out.p999 = BucketPercentile(bucket_deltas, out.count, 99.9);
  return out;
}

Exemplar Histogram::ExemplarNear(double v) const {
  Exemplar best;
  double best_dist = 0.0;
  for (const auto& [bucket, ex] : exemplars_) {
    const double dist = std::fabs(ex.value - v);
    if (best.trace_id == 0 || dist < best_dist) {
      best = ex;
      best_dist = dist;
    }
  }
  return best;
}

template <typename Family>
typename Family::mapped_type& Registry::Lookup(std::map<std::string, Family>& families,
                                               const std::string& name, const std::string& label,
                                               typename Family::mapped_type& sink) {
  Family& fam = families[name];
  auto it = fam.find(label);
  if (it != fam.end()) {
    return it->second;
  }
  if (fam.size() >= label_cap_) {
    NoteDroppedLabel(name);
    return sink;
  }
  return fam[label];
}

void Registry::NoteDroppedLabel(const std::string& name) {
  ++dropped_labels_;
  // Bypass the capped lookup: the drop counter itself must always land.
  counters_["metrics.dropped_labels"]["total"].Add(1);
  bool& warned = warned_families_[name];
  if (!warned) {
    warned = true;
    std::cerr << "metrics: family \"" << name << "\" hit the label cap (" << label_cap_
              << "); further new labels are dropped (metrics.dropped_labels counts them)\n";
  }
}

Counter& Registry::GetCounter(const std::string& name, const std::string& label) {
  return Lookup(counters_, name, label, counter_sink_);
}

Gauge& Registry::GetGauge(const std::string& name, const std::string& label) {
  return Lookup(gauges_, name, label, gauge_sink_);
}

Histogram& Registry::GetHistogram(const std::string& name, const std::string& label) {
  return Lookup(histograms_, name, label, histogram_sink_);
}

const Registry::CounterFamily* Registry::FindCounters(const std::string& name) const {
  auto it = counters_.find(name);
  return it != counters_.end() ? &it->second : nullptr;
}

const Registry::GaugeFamily* Registry::FindGauges(const std::string& name) const {
  auto it = gauges_.find(name);
  return it != gauges_.end() ? &it->second : nullptr;
}

const Registry::HistogramFamily* Registry::FindHistograms(const std::string& name) const {
  auto it = histograms_.find(name);
  return it != histograms_.end() ? &it->second : nullptr;
}

int64_t Registry::CounterTotal(const std::string& name) const {
  const CounterFamily* fam = FindCounters(name);
  if (fam == nullptr) {
    return 0;
  }
  int64_t total = 0;
  for (const auto& [label, c] : *fam) {
    total += c.value();
  }
  return total;
}

void Registry::WriteJson(std::ostream& out) const {
  out << "{\n  \"counters\": {";
  bool first_fam = true;
  for (const auto& [name, fam] : counters_) {
    out << (first_fam ? "\n" : ",\n") << "    " << Quote(name) << ": {";
    first_fam = false;
    bool first = true;
    for (const auto& [label, c] : fam) {
      out << (first ? "" : ", ") << Quote(label) << ": " << c.value();
      first = false;
    }
    out << "}";
  }
  out << (first_fam ? "" : "\n  ") << "},\n  \"gauges\": {";
  first_fam = true;
  for (const auto& [name, fam] : gauges_) {
    out << (first_fam ? "\n" : ",\n") << "    " << Quote(name) << ": {";
    first_fam = false;
    bool first = true;
    for (const auto& [label, g] : fam) {
      out << (first ? "" : ", ") << Quote(label) << ": " << Num(g.value());
      first = false;
    }
    out << "}";
  }
  out << (first_fam ? "" : "\n  ") << "},\n  \"histograms\": {";
  first_fam = true;
  for (const auto& [name, fam] : histograms_) {
    out << (first_fam ? "\n" : ",\n") << "    " << Quote(name) << ": {";
    first_fam = false;
    bool first = true;
    for (const auto& [label, h] : fam) {
      out << (first ? "\n      " : ",\n      ") << Quote(label) << ": {\"count\": " << h.count()
          << ", \"sum\": " << Num(h.sum()) << ", \"min\": " << Num(h.min())
          << ", \"max\": " << Num(h.max()) << ", \"mean\": " << Num(h.mean())
          << ", \"p50\": " << Num(h.Percentile(50)) << ", \"p90\": " << Num(h.Percentile(90))
          << ", \"p99\": " << Num(h.Percentile(99)) << ", \"p999\": " << Num(h.Percentile(99.9));
      // Exemplars render only when present, so histograms recorded without
      // trace ids emit exactly the pre-exemplar document.
      if (!h.exemplars().empty()) {
        out << ", \"exemplars\": {";
        bool first_ex = true;
        for (const auto& [bucket, ex] : h.exemplars()) {
          out << (first_ex ? "" : ", ") << "\"" << bucket << "\": {\"value\": " << Num(ex.value)
              << ", \"trace_id\": " << ex.trace_id << "}";
          first_ex = false;
        }
        out << "}";
      }
      out << "}";
      first = false;
    }
    out << (first ? "}" : "\n    }");
  }
  out << (first_fam ? "" : "\n  ") << "}\n}\n";
}

}  // namespace metrics
