// Quickstart: the Amber programming model in one file.
//
// Creates a small cluster, places objects on nodes, invokes them with
// location transparency (the calling thread migrates to remote objects),
// uses threads + Join, and exercises the mobility primitives MoveTo /
// Locate / Attach / MakeImmutable.
//
// Build & run:  ./build/examples/quickstart [trace.json [metrics.json]]
// With an argument, writes a chrome://tracing / perfetto trace of the full
// event bus (scheduling, invocations, migrations, moves, messages, lock
// contention) plus a metrics-registry JSON dump (docs/OBSERVABILITY.md).

#include <cstdio>
#include <fstream>
#include <string>

#include "src/core/amber.h"
#include "src/metrics/metrics.h"
#include "src/trace/trace.h"

namespace {

using namespace amber;

// Any class deriving amber::Object lives in the network-wide object space.
class Counter : public Object {
 public:
  int Add(int delta) {
    value_ += delta;
    return value_;
  }
  int Get() const { return value_; }
  NodeId WhereDidIRun() { return Here(); }

 private:
  int value_ = 0;
};

// A bank account whose lock is a member object: the lock is always
// co-resident with the data it protects and moves with it (§3.6).
class Account : public Object {
 public:
  void Deposit(int amount) {
    MonitorGuard g(lock_);
    balance_ += amount;
  }
  int Balance() {
    MonitorGuard g(lock_);
    return balance_;
  }

 private:
  Lock lock_;
  int balance_ = 0;
};

void Main() {
  std::printf("== Amber quickstart on %d nodes x %d processors ==\n\n", Nodes(), ProcsPerNode());

  // --- Objects and invocation -------------------------------------------------
  auto counter = New<Counter>();  // created on the current node (0)
  std::printf("counter created on node %d\n", Locate(counter));
  counter.Call(&Counter::Add, 5);

  MoveTo(counter, 2);  // explicit placement (§2.3)
  std::printf("counter moved to node %d\n", Locate(counter));

  // Invoking a remote object ships this thread to it and back: the call
  // below runs on node 2 even though we started it from node 0.
  std::printf("invocation executed on node %d (value now %d)\n",
              counter.Call(&Counter::WhereDidIRun), counter.Call(&Counter::Get));

  // --- Threads -----------------------------------------------------------------
  auto account = NewOn<Account>(1);  // create-and-place
  std::vector<ThreadRef<void>> depositors;
  for (int i = 0; i < 8; ++i) {
    // Each thread starts here, migrates to the account on node 1, and
    // synchronizes through the account's member lock.
    depositors.push_back(StartThread(account, &Account::Deposit, 100));
  }
  for (auto& t : depositors) {
    t.Join();
  }
  std::printf("8 depositors x 100 => balance %d (on node %d)\n",
              account.Call(&Account::Balance), Locate(account));

  // --- Attachment: structures that move as a unit -------------------------------
  auto index = New<Counter>();
  auto data = New<Counter>();
  Attach(data, index);  // co-located from now on
  MoveTo(index, 3);
  std::printf("attached pair now on nodes %d and %d (always equal)\n", Locate(index),
              Locate(data));

  // --- Immutability: read-only data replicates instead of migrating -------------
  auto config = New<Counter>();
  config.Call(&Counter::Add, 42);
  MakeImmutable(config);
  MoveTo(config, 1);  // installs a *copy*; the original stays put
  std::printf("immutable config readable everywhere; a replica now lives on node 1\n");

  std::printf("\nvirtual time elapsed: %.2f ms\n", ToMillis(Now()));
}

}  // namespace

int main(int argc, char** argv) {
  Runtime::Config config;
  config.nodes = 4;
  config.procs_per_node = 4;
  Runtime rt(config);
  trace::Tracer tracer;
  metrics::Registry registry;
  if (argc > 1) {
    rt.AddObserver(&tracer);
    rt.SetMetrics(&registry);
  }
  rt.Run(Main);
  std::printf("network: %lld messages, %lld bytes\n",
              static_cast<long long>(rt.network().messages()),
              static_cast<long long>(rt.network().bytes_sent()));
  if (argc > 1) {
    std::ofstream out(argv[1]);
    tracer.WriteChromeTrace(out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", argv[1]);
      return 1;
    }
    std::printf("trace: %zu events written to %s (open in https://ui.perfetto.dev)\n",
                tracer.size(), argv[1]);
    const std::string metrics_path =
        argc > 2 ? argv[2] : std::string(argv[1]) + ".metrics.json";
    std::ofstream mout(metrics_path);
    registry.WriteJson(mout);
    std::printf("metrics: registry written to %s\n", metrics_path.c_str());
  }
  return 0;
}
