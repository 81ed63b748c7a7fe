#include "src/tseries/tseries.h"

#include "src/base/json.h"

namespace tseries {
namespace {

using amber::json::Num;
using amber::json::Quote;

std::string SeriesKey(const std::string& name, const std::string& label) {
  return label == "total" ? name : name + "/" + label;
}

}  // namespace

MttrResult MeasureMttr(const std::vector<double>& values, amber::Time start_ns,
                       amber::Duration window_ns, amber::Time crash_ns,
                       const MttrParams& params) {
  MttrResult out;
  if (window_ns <= 0 || crash_ns < start_ns) {
    return out;
  }
  const size_t crash_window =
      static_cast<size_t>((crash_ns - start_ns) / window_ns);  // window containing the crash
  if (crash_window <= params.warmup_windows || crash_window > values.size()) {
    return out;  // no steady pre-crash windows to take a band from
  }
  double lo = values[params.warmup_windows];
  double hi = lo;
  for (size_t i = params.warmup_windows; i < crash_window; ++i) {
    lo = std::min(lo, values[i]);
    hi = std::max(hi, values[i]);
  }
  // Widen each side; the 0.5 floor keeps flat integer signals (e.g. a
  // constant requests-per-window count) from demanding exact equality.
  const double expand = std::max(params.band_expand * (hi - lo), 0.5);
  out.band_lo = lo - expand;
  out.band_hi = hi + expand;

  // MTTR is measured to the first *stable re-entry after the dip*: skip
  // forward to the first out-of-band window at or after the crash, then find
  // hold_windows consecutive in-band windows. A signal that never left the
  // band was never perturbed — dipped stays false and nothing is measured.
  size_t i = crash_window;
  while (i < values.size() && values[i] >= out.band_lo && values[i] <= out.band_hi) {
    ++i;
  }
  if (i >= values.size()) {
    return out;
  }
  out.dipped = true;
  for (; i + params.hold_windows <= values.size(); ++i) {
    bool stable = true;
    for (size_t j = i; j < i + params.hold_windows; ++j) {
      if (values[j] < out.band_lo || values[j] > out.band_hi) {
        stable = false;
        break;
      }
    }
    if (stable) {
      out.measured = true;
      out.recovered_at = start_ns + static_cast<amber::Time>(i + 1) * window_ns;
      out.mttr = out.recovered_at - crash_ns;
      return out;
    }
  }
  return out;
}

Collector::Collector(Config config) : config_(std::move(config)) {
  until_flush_ = config_.flush_every_windows;
}

void Collector::WatchCounter(const std::string& name) {
  counters_.push_back(CounterWatch{name});
  counter_last_.push_back(0);
}

void Collector::WatchGauge(const std::string& name, const std::string& label) {
  gauges_.push_back(GaugeWatch{name, label});
}

void Collector::WatchHistogram(const std::string& name, const std::string& label) {
  hists_.push_back(HistWatch{name, label, metrics::HistogramSnapshot{}});
}

void Collector::AttachTo(amber::Runtime& rt) {
  if (registry_ == nullptr) {
    registry_ = rt.metrics();
  }
  rt.AddObserver(this);
}

void Collector::Advance(amber::Time now) {
  if (finished_ || config_.window_ns <= 0) {
    return;
  }
  while (now >= (windows_closed_ + 1) * config_.window_ns) {
    CloseWindow();
  }
}

void Collector::Finish(amber::Time end) {
  if (finished_) {
    return;
  }
  Advance(end);
  if (end > windows_closed_ * config_.window_ns) {
    CloseWindow();  // the final partial window [k*w, end)
  }
  finished_ = true;
  if (!config_.flush_path.empty()) {
    FlushTo(config_.flush_path);
  }
}

void Collector::Annotate(amber::Time when, const std::string& kind, const std::string& detail) {
  AddAnnotation(when, kind, detail);
}

void Collector::AddAnnotation(amber::Time when, const std::string& kind,
                              const std::string& detail) {
  Advance(when);
  if (annotations_.size() >= config_.max_annotations) {
    ++dropped_annotations_;
    return;
  }
  annotations_.push_back(Annotation{when, kind, detail});
}

void Collector::CloseWindow() {
  Frame frame;
  frame.index = windows_closed_;
  frame.counter_deltas.reserve(counters_.size());
  for (size_t i = 0; i < counters_.size(); ++i) {
    // Read-only lookups throughout: Get* would create empty families in the
    // registry and change its (byte-compared) rendering.
    const int64_t total =
        registry_ != nullptr ? registry_->CounterTotal(counters_[i].name) : 0;
    frame.counter_deltas.push_back(total - counter_last_[i]);
    counter_last_[i] = total;
  }
  frame.gauge_values.reserve(gauges_.size());
  for (const GaugeWatch& w : gauges_) {
    double v = 0.0;
    if (registry_ != nullptr) {
      if (const metrics::Registry::GaugeFamily* fam = registry_->FindGauges(w.name)) {
        auto it = fam->find(w.label);
        if (it != fam->end()) {
          v = it->second.value();
        }
      }
    }
    frame.gauge_values.push_back(v);
  }
  frame.hists.reserve(hists_.size());
  for (HistWatch& w : hists_) {
    metrics::HistogramSnapshot cur;
    if (registry_ != nullptr) {
      if (const metrics::Registry::HistogramFamily* fam = registry_->FindHistograms(w.name)) {
        auto it = fam->find(w.label);
        if (it != fam->end()) {
          cur = it->second.Snapshot();
        }
      }
    }
    HistFrame hf;
    hf.summary = metrics::Histogram::Diff(w.last, cur);
    for (const auto& [bucket, count] : cur.buckets) {
      auto it = w.last.buckets.find(bucket);
      const int64_t d = count - (it != w.last.buckets.end() ? it->second : 0);
      if (d > 0) {
        hf.bucket_deltas[bucket] = d;
      }
    }
    w.last = std::move(cur);
    frame.hists.push_back(std::move(hf));
  }
  frames_.push_back(std::move(frame));
  if (frames_.size() > config_.max_frames) {
    frames_.pop_front();
    ++dropped_frames_;
  }
  ++windows_closed_;
  if (config_.flush_every_windows > 0 && !config_.flush_path.empty() && --until_flush_ == 0) {
    until_flush_ = config_.flush_every_windows;
    FlushTo(config_.flush_path);
  }
}

std::vector<double> Collector::SeriesValues(const std::string& series) const {
  std::vector<double> out;
  auto collect = [&](auto getter) {
    out.reserve(frames_.size());
    for (const Frame& f : frames_) {
      out.push_back(getter(f));
    }
  };
  for (size_t i = 0; i < counters_.size(); ++i) {
    if (series == "counter:" + counters_[i].name) {
      collect([i](const Frame& f) { return static_cast<double>(f.counter_deltas[i]); });
      return out;
    }
  }
  for (size_t i = 0; i < gauges_.size(); ++i) {
    if (series == "gauge:" + SeriesKey(gauges_[i].name, gauges_[i].label)) {
      collect([i](const Frame& f) { return f.gauge_values[i]; });
      return out;
    }
  }
  for (size_t i = 0; i < hists_.size(); ++i) {
    const std::string base = "hist:" + SeriesKey(hists_[i].name, hists_[i].label) + ".";
    if (series.rfind(base, 0) != 0) {
      continue;
    }
    const std::string comp = series.substr(base.size());
    auto field = [comp](const metrics::IntervalSummary& s) {
      if (comp == "count") return static_cast<double>(s.count);
      if (comp == "sum") return s.sum;
      if (comp == "p50") return s.p50;
      if (comp == "p99") return s.p99;
      if (comp == "p999") return s.p999;
      return 0.0;
    };
    if (comp == "count" || comp == "sum" || comp == "p50" || comp == "p99" || comp == "p999") {
      collect([i, field](const Frame& f) { return field(f.hists[i].summary); });
      return out;
    }
  }
  return out;
}

metrics::IntervalSummary Collector::AggregateHistogram(size_t hist_series, size_t from,
                                                       size_t to) const {
  std::map<int, int64_t> buckets;
  double sum = 0.0;
  if (hist_series >= hists_.size()) {
    return metrics::IntervalSummary{};
  }
  to = std::min(to, frames_.size());
  for (size_t i = from; i < to; ++i) {
    const HistFrame& hf = frames_[i].hists[hist_series];
    sum += hf.summary.sum;
    for (const auto& [bucket, count] : hf.bucket_deltas) {
      buckets[bucket] += count;
    }
  }
  return metrics::Histogram::SummaryFromBuckets(buckets, sum);
}

void Collector::WriteJson(std::ostream& out) const {
  out << "{\n  \"tseries\": " << Quote(config_.name) << ",\n  \"window_ns\": " << config_.window_ns
      << ",\n  \"first_window\": " << (frames_.empty() ? 0 : frames_.front().index)
      << ",\n  \"windows\": " << frames_.size() << ",\n  \"dropped_frames\": " << dropped_frames_
      << ",\n  \"series\": {\n    \"counters\": {";
  for (size_t i = 0; i < counters_.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "      " << Quote(counters_[i].name) << ": [";
    bool first = true;
    for (const Frame& f : frames_) {
      out << (first ? "" : ", ") << f.counter_deltas[i];
      first = false;
    }
    out << "]";
  }
  out << (counters_.empty() ? "" : "\n    ") << "},\n    \"gauges\": {";
  for (size_t i = 0; i < gauges_.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "      "
        << Quote(SeriesKey(gauges_[i].name, gauges_[i].label)) << ": [";
    bool first = true;
    for (const Frame& f : frames_) {
      out << (first ? "" : ", ") << Num(f.gauge_values[i]);
      first = false;
    }
    out << "]";
  }
  out << (gauges_.empty() ? "" : "\n    ") << "},\n    \"histograms\": {";
  for (size_t i = 0; i < hists_.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "      "
        << Quote(SeriesKey(hists_[i].name, hists_[i].label)) << ": {";
    const char* fields[] = {"count", "sum", "p50", "p99", "p999"};
    for (size_t fi = 0; fi < 5; ++fi) {
      out << (fi == 0 ? "\n" : ",\n") << "        \"" << fields[fi] << "\": [";
      bool first = true;
      for (const Frame& f : frames_) {
        const metrics::IntervalSummary& s = f.hists[i].summary;
        const double v = fi == 0   ? static_cast<double>(s.count)
                         : fi == 1 ? s.sum
                         : fi == 2 ? s.p50
                         : fi == 3 ? s.p99
                                   : s.p999;
        out << (first ? "" : ", ") << Num(v);
        first = false;
      }
      out << "]";
    }
    out << "\n      }";
  }
  out << (hists_.empty() ? "" : "\n    ") << "}\n  },\n  \"annotations\": [";
  for (size_t i = 0; i < annotations_.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    {\"t_ns\": " << annotations_[i].when
        << ", \"kind\": " << Quote(annotations_[i].kind)
        << ", \"detail\": " << Quote(annotations_[i].detail) << "}";
  }
  out << (annotations_.empty() ? "" : "\n  ")
      << "],\n  \"dropped_annotations\": " << dropped_annotations_ << "\n}\n";
}

bool Collector::FlushTo(const std::string& path) const {
  return amber::json::WriteFileAtomically(path, [this](std::ostream& out) { WriteJson(out); });
}

}  // namespace tseries
