// migrate: 64 nodes x 1024 small Item objects each. Every node's thread
// makes 2000 ops: invocations of random items anywhere, and (one op in
// four) a MoveTo of a random item it created to a random node. This is the
// write side of the descriptor tables (SetForward/SetResident),
// forwarding-chain walks, the rpc move protocol and payload transfer. No
// observers are attached. One op is one invocation or one move.
//
// Only an item's creator moves it. Letting every thread move any item at a
// denser shape panics with "forwarding chain did not terminate"; see
// perfbench/README.md.

#include <vector>

#include "perfbench/src/bench.h"
#include "src/core/amber.h"

namespace perfbench {
namespace {

using amber::Ref;

class Item : public amber::Object {
 public:
  explicit Item(uint64_t v) : value_(v) {}

  uint64_t Touch(uint64_t x) {
    amber::Work(amber::Micros(2));
    value_ += x;
    return value_;
  }

  uint64_t value() const { return value_; }

 private:
  uint64_t value_;
  uint64_t pad_[3] = {};  // a small object, but not a trivial one
};

std::vector<Ref<Item>>* g_items = nullptr;

class Mover : public amber::Object {
 public:
  Mover(int node, int items, int ops, uint64_t seed)
      : node_(node),
        items_(items),
        ops_(ops),
        seed_(Mix(seed ^ Mix(static_cast<uint64_t>(node)))) {}

  // Creates this node's items, in the slice of the global table it owns.
  void Populate() {
    for (int i = 0; i < items_; ++i) {
      (*g_items)[static_cast<size_t>(node_) * items_ + i] =
          amber::New<Item>(Mix(seed_ + static_cast<uint64_t>(i)));
    }
  }

  void Run() {
    uint64_t rng = seed_;
    const uint64_t nodes = static_cast<uint64_t>(amber::Nodes());
    for (int i = 0; i < ops_; ++i) {
      rng = Mix(rng);
      if ((rng & 3) == 0) {
        const uint64_t own = (rng >> 8) % static_cast<uint64_t>(items_);
        const auto dst = static_cast<amber::NodeId>((rng >> 40) % nodes);
        amber::MoveTo((*g_items)[static_cast<size_t>(node_) * items_ + own], dst);
        ++moves_;
      } else {
        const uint64_t target = (rng >> 8) % g_items->size();
        const uint64_t x = rng >> 48;
        hash_ = hash_ * 31 + (*g_items)[target].Call(&Item::Touch, x);
        added_ += x;
      }
    }
  }

  int64_t moves() const { return moves_; }
  uint64_t added() const { return added_; }
  uint64_t hash() const { return hash_; }
  uint64_t seed_sum() const {
    uint64_t sum = 0;
    for (int i = 0; i < items_; ++i) {
      sum += Mix(seed_ + static_cast<uint64_t>(i));
    }
    return sum;
  }

 private:
  int node_;
  int items_;
  int ops_;
  uint64_t seed_;
  int64_t moves_ = 0;
  uint64_t added_ = 0;
  uint64_t hash_ = 0;
};

}  // namespace

RoundResult RunMigrate(const RoundSpec& spec) {
  RoundResult out;
  const int nodes = spec.smoke ? 16 : 64;
  const int items = spec.smoke ? 128 : 1024;
  const int ops = spec.smoke ? 200 : 2000;

  amber::Runtime::Config config;
  config.nodes = nodes;
  config.procs_per_node = 1;
  config.initial_regions_per_node = 1;
  config.arena_bytes = size_t{1} << 30;

  std::vector<Ref<Item>> all(static_cast<size_t>(nodes) * items);
  std::vector<Ref<Mover>> movers;
  amber::Time end = 0;
  int64_t objects_moved = 0;
  int64_t forward_hops = 0;
  int64_t thread_migrations = 0;
  uint64_t added = 0;
  uint64_t call_hash = 0;
  uint64_t state_sum = 0;
  int64_t moves = 0;
  {
    amber::Runtime rt(config);
    g_items = &all;
    out.clock.SetupDone();
    rt.Run([&] {
      for (int n = 0; n < nodes; ++n) {
        movers.push_back(amber::NewOn<Mover>(n, n, items, ops, spec.seed));
      }
      std::vector<amber::ThreadRef<void>> fill;
      for (auto& m : movers) {
        fill.push_back(amber::StartThread(m, &Mover::Populate));
      }
      for (auto& t : fill) {
        t.Join();
      }
      out.clock.WorkBegins();
      std::vector<amber::ThreadRef<void>> work;
      for (auto& m : movers) {
        work.push_back(amber::StartThread(m, &Mover::Run));
      }
      for (auto& t : work) {
        t.Join();
      }
      out.clock.WorkDone();
      end = amber::Now();
    });
    // The run is over: read the final object state host-side. Every item
    // holds its seed plus everything added to it.
    uint64_t expected = 0;
    for (int n = 0; n < nodes; ++n) {
      const auto* mover = static_cast<const Mover*>(movers[n].object());
      added += mover->added();
      call_hash = call_hash * 1099511628211ULL + mover->hash();
      moves += mover->moves();
      expected += mover->seed_sum();
    }
    for (const auto& item : all) {
      state_sum += static_cast<const Item*>(item.object())->value();
    }
    if (state_sum != expected + added) {
      out.error = "migrate: item values do not add up to the invocations made";
    }
    objects_moved = rt.objects_moved();
    forward_hops = rt.forward_hops();
    thread_migrations = rt.thread_migrations();
    out.shape = ShapeOf(rt);
    g_items = nullptr;
  }
  out.clock.Finished();

  out.ops = int64_t{nodes} * ops;
  AddDigest(out.digest, "virtual_end_ns", end);
  AddDigest(out.digest, "call_hash", call_hash);
  AddDigest(out.digest, "state_sum", state_sum);
  AddDigest(out.digest, "moves", moves);
  AddDigest(out.digest, "objects_moved", objects_moved);
  AddDigest(out.digest, "forward_hops", forward_hops);
  AddDigest(out.digest, "thread_migrations", thread_migrations);
  return out;
}

}  // namespace perfbench
