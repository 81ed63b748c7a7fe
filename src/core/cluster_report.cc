#include "src/core/cluster_report.h"

#include <cstdio>
#include <sstream>

#include "src/metrics/metrics.h"

namespace amber {

std::string ClusterReport(Runtime& rt, Time elapsed) {
  std::ostringstream out;
  char buf[160];
  const metrics::Registry* reg = rt.metrics();
  std::snprintf(buf, sizeof(buf), "cluster report (%d nodes x %d CPUs, %.2f ms virtual)\n",
                rt.nodes(), rt.procs_per_node(), ToMillis(elapsed));
  out << buf;

  out << "  node | utilization | migrations out\n";
  const double capacity =
      static_cast<double>(elapsed) * rt.procs_per_node();
  for (NodeId n = 0; n < rt.nodes(); ++n) {
    int64_t out_migrations = 0;
    for (NodeId d = 0; d < rt.nodes(); ++d) {
      out_migrations += rt.MigrationCount(n, d);
    }
    const double util =
        capacity > 0 ? 100.0 * static_cast<double>(rt.sim().NodeBusyTime(n)) / capacity : 0.0;
    std::snprintf(buf, sizeof(buf), "  %4d | %9.1f%% | %lld\n", n, util,
                  static_cast<long long>(out_migrations));
    out << buf;
  }

  // Migration matrix (only if anything migrated).
  if (rt.thread_migrations() > 0) {
    out << "  thread-migration matrix (row = from, col = to):\n      ";
    for (NodeId d = 0; d < rt.nodes(); ++d) {
      std::snprintf(buf, sizeof(buf), "%6d", d);
      out << buf;
    }
    out << "\n";
    for (NodeId s = 0; s < rt.nodes(); ++s) {
      std::snprintf(buf, sizeof(buf), "  %4d", s);
      out << buf;
      for (NodeId d = 0; d < rt.nodes(); ++d) {
        std::snprintf(buf, sizeof(buf), "%6lld",
                      static_cast<long long>(rt.MigrationCount(s, d)));
        out << buf;
      }
      out << "\n";
    }
  }

  // Lock contention, when a metrics registry is attached (SetMetrics).
  if (reg != nullptr && reg->CounterTotal("sync.lock.blocked") > 0) {
    std::snprintf(buf, sizeof(buf), "  lock contention: %lld contended acquires\n",
                  static_cast<long long>(reg->CounterTotal("sync.lock.blocked")));
    out << buf;
    if (const auto* blocked = reg->FindCounters("sync.lock.blocked")) {
      out << "    blocked per lock:";
      for (const auto& [label, counter] : *blocked) {
        std::snprintf(buf, sizeof(buf), " %s=%lld", label.c_str(),
                      static_cast<long long>(counter.value()));
        out << buf;
      }
      out << "\n";
    }
    if (const auto* waits = reg->FindHistograms("sync.lock.wait")) {
      for (const auto& [label, h] : *waits) {
        if (h.count() == 0) {
          continue;
        }
        std::snprintf(buf, sizeof(buf),
                      "    wait at %s: %lld waits, mean %.1f us, p99 %.1f us\n", label.c_str(),
                      static_cast<long long>(h.count()), h.mean() / 1000.0,
                      h.Percentile(99) / 1000.0);
        out << buf;
      }
    }
    if (const auto* holds = reg->FindHistograms("sync.lock.hold")) {
      if (auto it = holds->find("total"); it != holds->end() && it->second.count() > 0) {
        const auto& h = it->second;
        std::snprintf(buf, sizeof(buf), "    hold: %lld holds, mean %.1f us, p99 %.1f us\n",
                      static_cast<long long>(h.count()), h.mean() / 1000.0,
                      h.Percentile(99) / 1000.0);
        out << buf;
      }
    }
  }

  std::snprintf(buf, sizeof(buf),
                "  objects: %lld created, %lld moved, %lld replicas; threads: %lld migrations, "
                "%lld chain hops\n",
                static_cast<long long>(rt.objects_created()),
                static_cast<long long>(rt.objects_moved()),
                static_cast<long long>(rt.replicas_installed()),
                static_cast<long long>(rt.thread_migrations()),
                static_cast<long long>(rt.forward_hops()));
  out << buf;
  std::snprintf(buf, sizeof(buf), "  network: %lld messages, %.1f KB, bus busy %.2f ms\n",
                static_cast<long long>(rt.network().messages()),
                static_cast<double>(rt.network().bytes_sent()) / 1024.0,
                ToMillis(rt.network().busy_time()));
  out << buf;
  std::snprintf(buf, sizeof(buf),
                "  simulator: %llu events, %llu dispatches, %llu preemptions\n",
                static_cast<unsigned long long>(rt.sim().events_run()),
                static_cast<unsigned long long>(rt.sim().dispatches()),
                static_cast<unsigned long long>(rt.sim().preemptions()));
  out << buf;
  return out.str();
}

}  // namespace amber
