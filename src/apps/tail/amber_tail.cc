// amber-tail: renders one request's span tree from a TRACEREQ_*.json dump.
//
//   amber-tail TRACEREQ_serve.json                     # slowest trace
//   amber-tail TRACEREQ_serve.json --trace 17          # a specific trace id
//   amber-tail TRACEREQ_serve.json --exemplar BENCH_serve.json [--hist serve.latency]
//                                                      # the p999 exemplar's trace
//
// The third form closes the observability loop: a latency histogram's p999
// bucket carries an exemplar naming a real traced request; amber-tail looks
// the exemplar up in the benchmark's metrics dump, finds that trace in the
// TRACEREQ document, and shows where the nanoseconds went — queueing vs
// compute vs RPC vs retries vs migration — with the span tree underneath.
//
// The per-hop attribution is checked, not trusted: the category sums must
// equal the trace's end-to-end latency exactly (the tracer tiles the root
// thread's lifetime), and amber-tail exits nonzero if they do not.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/apps/fdr/fdr_report.h"

namespace {

using fdrtool::Json;

bool LoadJson(const std::string& path, Json* out) {
  std::string error;
  if (fdrtool::LoadJson(path, out, &error) != fdrtool::LoadStatus::kOk) {
    std::fprintf(stderr, "amber-tail: %s\n", error.c_str());
    return false;
  }
  return true;
}

std::string Us(double ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", ns / 1000.0);
  return buf;
}

// Finds the exemplar nearest the histogram's p999 in a BENCH_*.json metrics
// section. Returns 0 when the family has no exemplars.
uint64_t ExemplarTraceId(const Json& bench, const std::string& family) {
  const Json* metrics = bench.Get("metrics");
  const Json* hists = metrics != nullptr ? metrics->Get("histograms") : nullptr;
  const Json* fam = hists != nullptr ? hists->Get(family) : nullptr;
  if (fam == nullptr) {
    std::fprintf(stderr, "amber-tail: no histogram family \"%s\" in benchmark dump\n",
                 family.c_str());
    return 0;
  }
  uint64_t best_id = 0;
  double best_dist = 0;
  for (const auto& [label, h] : fam->obj) {
    const Json* exemplars = h.Get("exemplars");
    if (exemplars == nullptr) {
      continue;
    }
    const double p999 = h.Get("p999") != nullptr ? h.Get("p999")->num : 0;
    for (const auto& [bucket, ex] : exemplars->obj) {
      const double dist = std::abs(ex.Int("value") - p999);
      const uint64_t id = static_cast<uint64_t>(ex.Int("trace_id"));
      if (id != 0 && (best_id == 0 || dist < best_dist)) {
        best_id = id;
        best_dist = dist;
      }
    }
  }
  return best_id;
}

const Json* FindTrace(const Json& dump, uint64_t trace_id) {
  const Json* traces = dump.Get("traces");
  if (traces == nullptr) {
    return nullptr;
  }
  for (const Json& t : traces->arr) {
    if (trace_id == 0 || static_cast<uint64_t>(t.Int("trace_id")) == trace_id) {
      return &t;  // trace_id 0: caller wants the first candidate
    }
  }
  return nullptr;
}

const Json* SlowestTrace(const Json& dump) {
  const Json* traces = dump.Get("traces");
  const Json* best = nullptr;
  if (traces == nullptr) {
    return nullptr;
  }
  for (const Json& t : traces->arr) {
    if (best == nullptr || t.Int("latency_ns") > best->Int("latency_ns")) {
      best = &t;
    }
  }
  return best;
}

void RenderSpanTree(const Json& trace) {
  const Json* spans = trace.Get("spans");
  if (spans == nullptr) {
    return;
  }
  // parent id -> children, in file (creation) order.
  std::map<int64_t, std::vector<const Json*>> children;
  for (const Json& s : spans->arr) {
    children[s.Int("parent")].push_back(&s);
  }
  const int64_t start0 = trace.Int("start_ns");
  // Recursive descent without recursion: explicit stack of (span, depth).
  std::vector<std::pair<const Json*, int>> stack;
  const auto push_children = [&](int64_t id, int depth) {
    auto it = children.find(id);
    if (it == children.end()) {
      return;
    }
    for (auto rit = it->second.rbegin(); rit != it->second.rend(); ++rit) {
      stack.emplace_back(*rit, depth);
    }
  };
  push_children(0, 0);
  while (!stack.empty()) {
    const auto [s, depth] = stack.back();
    stack.pop_back();
    const int64_t start = s->Int("start_ns");
    const int64_t end = s->Int("end_ns");
    std::string line(static_cast<size_t>(depth) * 2, ' ');
    line += s->Str("kind");
    const std::string label = s->Str("label");
    if (!label.empty()) {
      line += " \"" + label + "\"";
    }
    std::printf("  %-44s +%8s us  %8s us  node %lld", line.c_str(),
                Us(static_cast<double>(start - start0)).c_str(),
                Us(static_cast<double>(end - start)).c_str(),
                static_cast<long long>(s->Int("node")));
    if (s->Int("aux") != 0) {
      std::printf("  aux %lld", static_cast<long long>(s->Int("aux")));
    }
    if (s->Int("retries") > 0) {
      std::printf("  retries %lld", static_cast<long long>(s->Int("retries")));
    }
    if (s->Bool("failed")) {
      std::printf("  FAILED");
    }
    std::printf("\n");
    push_children(s->Int("id"), depth + 1);
  }
}

// Renders the trace; returns false when the attribution does not tile the
// latency exactly (a tracer bug worth failing CI over).
bool RenderTrace(const Json& trace) {
  const int64_t latency = trace.Int("latency_ns");
  std::printf("trace %lld \"%s\"  latency %s us  (root thread %lld, %lld wire hops)\n",
              static_cast<long long>(trace.Int("trace_id")), trace.Str("name").c_str(),
              Us(static_cast<double>(latency)).c_str(),
              static_cast<long long>(trace.Int("root_thread")),
              static_cast<long long>(trace.Int("hops")));

  const Json* attr = trace.Get("attribution");
  int64_t sum = 0;
  if (attr != nullptr) {
    std::printf("\n  %-12s %12s %8s\n", "category", "us", "share");
    std::vector<std::pair<std::string, int64_t>> rows;
    for (const auto& [cat, v] : attr->obj) {
      rows.emplace_back(cat, static_cast<int64_t>(v.num));
      sum += static_cast<int64_t>(v.num);
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [](const auto& a, const auto& b) { return a.second > b.second; });
    for (const auto& [cat, ns] : rows) {
      if (ns == 0) {
        continue;
      }
      std::printf("  %-12s %12s %7.1f%%\n", cat.c_str(), Us(static_cast<double>(ns)).c_str(),
                  latency > 0 ? 100.0 * static_cast<double>(ns) / static_cast<double>(latency)
                              : 0.0);
    }
  }

  std::printf("\n  %-44s %11s %12s\n", "span", "at", "took");
  RenderSpanTree(trace);

  if (sum != latency) {
    std::printf("\namber-tail: ATTRIBUTION MISMATCH: categories sum to %lld ns, latency is "
                "%lld ns\n",
                static_cast<long long>(sum), static_cast<long long>(latency));
    return false;
  }
  std::printf("\nattribution sums to latency exactly (%lld ns).\n",
              static_cast<long long>(latency));
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: amber-tail TRACEREQ_<name>.json [--trace ID] "
               "[--exemplar BENCH_<name>.json [--hist FAMILY]]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dump_path;
  std::string bench_path;
  std::string family = "serve.latency";
  uint64_t trace_id = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace" && i + 1 < argc) {
      trace_id = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--exemplar" && i + 1 < argc) {
      bench_path = argv[++i];
    } else if (arg == "--hist" && i + 1 < argc) {
      family = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else if (dump_path.empty()) {
      dump_path = arg;
    } else {
      return Usage();
    }
  }
  if (dump_path.empty()) {
    return Usage();
  }

  Json dump;
  if (!LoadJson(dump_path, &dump)) {
    return 1;
  }
  std::printf("rtrace \"%s\": %lld requests seen, %lld sampled, %lld contexts propagated\n\n",
              dump.Str("rtrace").c_str(), static_cast<long long>(dump.Int("requests_seen")),
              static_cast<long long>(dump.Int("requests_sampled")),
              static_cast<long long>(dump.Int("contexts_propagated")));

  if (!bench_path.empty()) {
    Json bench;
    if (!LoadJson(bench_path, &bench)) {
      return 1;
    }
    trace_id = ExemplarTraceId(bench, family);
    if (trace_id == 0) {
      std::fprintf(stderr, "amber-tail: histogram \"%s\" carries no exemplars\n", family.c_str());
      return 1;
    }
    std::printf("p999 exemplar of %s names trace %llu:\n\n", family.c_str(),
                static_cast<unsigned long long>(trace_id));
  }

  const Json* trace = trace_id != 0 ? FindTrace(dump, trace_id) : SlowestTrace(dump);
  if (trace == nullptr) {
    std::fprintf(stderr, "amber-tail: trace %llu not found in %s%s\n",
                 static_cast<unsigned long long>(trace_id), dump_path.c_str(),
                 trace_id != 0 ? " (evicted, or sampling missed it)" : "");
    return 1;
  }
  return RenderTrace(*trace) ? 0 : 1;
}
