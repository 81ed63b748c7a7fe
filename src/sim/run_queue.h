// Per-node run queues.
//
// The scheduling *policy* of each node is pluggable, mirroring Amber/Presto's
// replaceable scheduler objects (§2.1): "An application can install a custom
// scheduling discipline at runtime by replacing the system scheduler object."
// amber::SetScheduler() installs one of these (or a user subclass) per node.

#ifndef AMBER_SRC_SIM_RUN_QUEUE_H_
#define AMBER_SRC_SIM_RUN_QUEUE_H_

#include <algorithm>
#include <deque>
#include <map>
#include <vector>

#include "src/base/panic.h"
#include "src/sim/fiber.h"

namespace sim {

class RunQueue {
 public:
  virtual ~RunQueue() = default;

  virtual void Enqueue(Fiber* f) = 0;
  // Returns the next fiber to run, or nullptr if empty.
  virtual Fiber* Dequeue() = 0;
  virtual bool Empty() const = 0;
  virtual size_t Size() const = 0;
  // Removes a specific fiber (used when a queued thread migrates away).
  virtual bool Remove(Fiber* f) = 0;
};

// Default policy: FIFO with round-robin timeslicing (the Amber default).
class FifoRunQueue : public RunQueue {
 public:
  void Enqueue(Fiber* f) override { q_.push_back(f); }
  Fiber* Dequeue() override {
    if (q_.empty()) {
      return nullptr;
    }
    Fiber* f = q_.front();
    q_.pop_front();
    return f;
  }
  bool Empty() const override { return q_.empty(); }
  size_t Size() const override { return q_.size(); }
  bool Remove(Fiber* f) override {
    for (auto it = q_.begin(); it != q_.end(); ++it) {
      if (*it == f) {
        q_.erase(it);
        return true;
      }
    }
    return false;
  }

 private:
  std::deque<Fiber*> q_;
};

// LIFO: favours cache-warm recently-preempted threads.
class LifoRunQueue : public RunQueue {
 public:
  void Enqueue(Fiber* f) override { q_.push_back(f); }
  Fiber* Dequeue() override {
    if (q_.empty()) {
      return nullptr;
    }
    Fiber* f = q_.back();
    q_.pop_back();
    return f;
  }
  bool Empty() const override { return q_.empty(); }
  size_t Size() const override { return q_.size(); }
  bool Remove(Fiber* f) override {
    for (auto it = q_.begin(); it != q_.end(); ++it) {
      if (*it == f) {
        q_.erase(it);
        return true;
      }
    }
    return false;
  }

 private:
  std::vector<Fiber*> q_;
};

// Adaptive multilevel feedback (§2.1's "adaptive policies tuned to the
// specific application"): a fiber that keeps getting requeued (a CPU hog
// burning full quanta) sinks to lower levels; fibers that block (I/O- or
// communication-bound) re-enter at the top, so short interactive work
// overtakes long computations without explicit priorities.
class FeedbackRunQueue : public RunQueue {
 public:
  explicit FeedbackRunQueue(int levels = 3) : queues_(static_cast<size_t>(levels)) {}

  void Enqueue(Fiber* f) override {
    // Involuntary requeues (quantum expiry) arrive with the flag set by the
    // kernel *after* this call, so classify by history: a fiber seen again
    // without having blocked in between is demoted one level. The level
    // lives on the Fiber, so it dies with it.
    f->feedback_level = std::min(f->feedback_level + 1, static_cast<int>(queues_.size()) - 1);
    queues_[static_cast<size_t>(f->feedback_level)].push_back(f);
    ++size_;
  }

  Fiber* Dequeue() override {
    for (auto& q : queues_) {
      if (!q.empty()) {
        Fiber* f = q.front();
        q.pop_front();
        --size_;
        return f;
      }
    }
    return nullptr;
  }

  // A blocked-then-woken fiber signals interactivity: promote to the top.
  // (The kernel calls Enqueue for wakes too; callers wanting the boost use
  // Boost() from a wrapper, or simply rely on demotion being slow.)
  void Boost(Fiber* f) { f->feedback_level = 0; }

  bool Empty() const override { return size_ == 0; }
  size_t Size() const override { return size_; }
  bool Remove(Fiber* f) override {
    for (auto& q : queues_) {
      for (auto it = q.begin(); it != q.end(); ++it) {
        if (*it == f) {
          q.erase(it);
          --size_;
          return true;
        }
      }
    }
    return false;
  }

 private:
  std::vector<std::deque<Fiber*>> queues_;
  size_t size_ = 0;
};

// Strict priority (higher Fiber::priority first), FIFO within a level.
class PriorityRunQueue : public RunQueue {
 public:
  void Enqueue(Fiber* f) override {
    levels_[-f->priority].push_back(f);
    ++size_;
  }
  Fiber* Dequeue() override {
    if (size_ == 0) {
      return nullptr;
    }
    auto it = levels_.begin();
    while (it->second.empty()) {
      it = levels_.erase(it);
    }
    Fiber* f = it->second.front();
    it->second.pop_front();
    --size_;
    return f;
  }
  bool Empty() const override { return size_ == 0; }
  size_t Size() const override { return size_; }
  bool Remove(Fiber* f) override {
    auto level = levels_.find(-f->priority);
    if (level == levels_.end()) {
      return false;
    }
    for (auto it = level->second.begin(); it != level->second.end(); ++it) {
      if (*it == f) {
        level->second.erase(it);
        --size_;
        return true;
      }
    }
    return false;
  }

 private:
  std::map<int, std::deque<Fiber*>> levels_;  // keyed by -priority: highest first
  size_t size_ = 0;
};

}  // namespace sim

#endif  // AMBER_SRC_SIM_RUN_QUEUE_H_
