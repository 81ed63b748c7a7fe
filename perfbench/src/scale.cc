// scale: bench_scale's shape. Many nodes each populate a shard of small Slot
// objects and churn them with local calls plus a remote poke at the ring
// neighbour every 64th call. No observers are attached. One op is one churn
// invocation (a Touch or a Poke).

#include <vector>

#include "perfbench/src/bench.h"
#include "src/core/amber.h"

namespace perfbench {
namespace {

using amber::Ref;

class Slot : public amber::Object {
 public:
  explicit Slot(uint64_t seed) : value_(seed) {}

  uint64_t Touch(uint64_t x) {
    amber::Work(amber::kMicrosecond);
    value_ = value_ * 6364136223846793005ULL + x;
    return value_;
  }

  uint64_t value() const { return value_; }

 private:
  uint64_t value_;
};

class NodeShard : public amber::Object {
 public:
  NodeShard(int index, int64_t slots, uint64_t seed)
      : index_(index), slot_count_(slots), seed_(Mix(seed ^ Mix(static_cast<uint64_t>(index)))) {}

  void SetNeighbor(Ref<NodeShard> n) { neighbor_ = n; }

  void Populate() {
    slots_.reserve(static_cast<size_t>(slot_count_));
    for (int64_t i = 0; i < slot_count_; ++i) {
      slots_.push_back(amber::New<Slot>(Mix(seed_ + static_cast<uint64_t>(i))));
    }
  }

  uint64_t Poke(uint64_t x) {
    amber::Work(amber::kMicrosecond / 2);
    return pokes_ += (x | 1);
  }

  // One pass over the shard; returns a hash of every Touch result.
  uint64_t Churn() {
    uint64_t rng = seed_;
    uint64_t hash = 0;
    for (int64_t i = 0; i < slot_count_; ++i) {
      rng = Mix(rng);
      hash = hash * 31 + slots_[rng % slots_.size()].Call(&Slot::Touch, rng);
      if (i % 64 == 0) {
        hash ^= neighbor_.Call(&NodeShard::Poke, rng);
        ++remote_;
      }
    }
    return hash;
  }

  int64_t remote() const { return remote_; }
  uint64_t pokes() const { return pokes_; }
  const std::vector<Ref<Slot>>& slots() const { return slots_; }

 private:
  int index_;  // part of the shard's migrated bytes, so of the virtual digest
  int64_t slot_count_;
  uint64_t seed_;
  uint64_t pokes_ = 0;
  int64_t remote_ = 0;
  Ref<NodeShard> neighbor_;
  std::vector<Ref<Slot>> slots_;
};

}  // namespace

RoundResult RunScale(const RoundSpec& spec) {
  RoundResult out;
  const int nodes = spec.smoke ? 16 : 512;
  const int64_t slots_per_node = spec.smoke ? 256 : 512;

  amber::Runtime::Config config;
  config.nodes = nodes;
  config.procs_per_node = 1;
  config.topology = net::Topology::kSwitched;
  config.initial_regions_per_node = 1;
  config.arena_bytes = size_t{2} << 30;

  amber::Time end = 0;
  uint64_t churn_hash = 0;
  uint64_t state_hash = 0;
  int64_t remote = 0;
  {
    amber::Runtime rt(config);
    out.clock.SetupDone();
    std::vector<Ref<NodeShard>> shards;
    rt.Run([&] {
      shards.reserve(static_cast<size_t>(nodes));
      for (int n = 0; n < nodes; ++n) {
        shards.push_back(amber::NewOn<NodeShard>(n, n, slots_per_node, spec.seed));
      }
      for (int n = 0; n < nodes; ++n) {
        shards[n].Call(&NodeShard::SetNeighbor, shards[(n + 1) % nodes]);
      }
      std::vector<amber::ThreadRef<void>> fill;
      for (int n = 0; n < nodes; ++n) {
        fill.push_back(amber::StartThread(shards[n], &NodeShard::Populate));
      }
      for (auto& t : fill) {
        t.Join();
      }
      out.clock.WorkBegins();
      std::vector<amber::ThreadRef<uint64_t>> churn;
      for (int n = 0; n < nodes; ++n) {
        churn.push_back(amber::StartThread(shards[n], &NodeShard::Churn));
      }
      for (auto& t : churn) {
        churn_hash = churn_hash * 1099511628211ULL + t.Join();
      }
      out.clock.WorkDone();
      end = amber::Now();
    });
    // The run is over: read the final object state host-side.
    for (const auto& s : shards) {
      const auto* shard = static_cast<const NodeShard*>(s.object());
      remote += shard->remote();
      state_hash = state_hash * 1099511628211ULL + shard->pokes();
      for (const auto& slot : shard->slots()) {
        state_hash = state_hash * 31 + static_cast<const Slot*>(slot.object())->value();
      }
    }
    out.shape = ShapeOf(rt);
  }
  out.clock.Finished();

  const int64_t pokes_per_node = (slots_per_node + 63) / 64;
  out.ops = int64_t{nodes} * (slots_per_node + pokes_per_node);
  if (remote != int64_t{nodes} * pokes_per_node) {
    out.error = "scale: remote pokes do not match the churn schedule";
  }
  AddDigest(out.digest, "virtual_end_ns", end);
  AddDigest(out.digest, "churn_hash", churn_hash);
  AddDigest(out.digest, "state_hash", state_hash);
  AddDigest(out.digest, "remote_pokes", remote);
  return out;
}

}  // namespace perfbench
