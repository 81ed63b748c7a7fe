#include "src/sim/kernel.h"

#include <algorithm>

#include "src/base/logging.h"
#include "src/base/panic.h"
#include "src/telemetry/telemetry.h"

namespace sim {

using amber::RuntimeObserver;

Kernel::Kernel(const Config& config) : cost_(config.cost), procs_per_node_(config.procs_per_node) {
  AMBER_CHECK(config.nodes >= 1);
  AMBER_CHECK(config.procs_per_node >= 1);
  queue_.SetResumeHandler(&Kernel::ResumeHandler, this);
  nodes_.resize(config.nodes);
  for (auto& node : nodes_) {
    node.procs.resize(config.procs_per_node);
    for (int p = config.procs_per_node - 1; p >= 0; --p) {
      node.free_procs.push_back(p);
    }
    node.queue = std::make_unique<FifoRunQueue>();
  }
}

Kernel::~Kernel() = default;

void Kernel::FiberEntry(void* arg) {
  auto* f = static_cast<Fiber*>(arg);
  f->entry();
  f->kernel->Exit();
}

Fiber* Kernel::Spawn(NodeId node, void* stack_base, size_t stack_size, std::function<void()> fn,
                     std::string name) {
  AMBER_CHECK(node >= 0 && node < nodes());
  auto owned = std::make_unique<Fiber>();
  Fiber* f = owned.get();
  f->id = next_fiber_id_++;
  f->name = name.empty() ? "fiber-" + std::to_string(f->id) : std::move(name);
  f->node = node;
  f->kernel = this;
  f->entry = std::move(fn);
  f->stack_base = stack_base;
  f->stack_size = stack_size;
  f->vtime = Now();
  f->ctx.Init(stack_base, stack_size, &FiberEntry, f);
  f->slot = fibers_.size();
  fibers_.push_back(std::move(owned));
  ++live_fibers_;
  // Spawn runs in the creating fiber's context (host context for the
  // initial thread), so current_ is the parent — the causal creation edge
  // the critical-path profiler walks.
  Emit(&RuntimeObserver::OnThreadCreate, Now(), node, f->id, f->name,
       current_ != nullptr ? current_->id : amber::ThreadId{0});
  Post(Now(), [this, f] {
    EnqueueReady(f, queue_.now());
    TryDispatch(f->node);
  });
  return f;
}

void Kernel::DestroyFiber(Fiber* f) {
  AMBER_CHECK(f->state == FiberState::kFinished) << "destroying live fiber " << f->name;
  AMBER_CHECK(f->slot < fibers_.size() && fibers_[f->slot].get() == f);
  fibers_[f->slot].reset();
  // Squeeze the holes out once they are half the table: O(1) amortized per
  // destroy, and the survivors keep their creation order.
  if (++dead_fibers_ * 2 > fibers_.size()) {
    std::erase(fibers_, nullptr);
    for (size_t i = 0; i < fibers_.size(); ++i) {
      fibers_[i]->slot = i;
    }
    dead_fibers_ = 0;
  }
}

void Kernel::ForEachFiber(const std::function<void(const Fiber&)>& fn) const {
  for (const auto& f : fibers_) {
    if (f != nullptr) {
      fn(*f);
    }
  }
}

void Kernel::SetRunQueue(NodeId node, std::unique_ptr<RunQueue> queue) {
  AMBER_CHECK(node >= 0 && node < nodes());
  RunQueue& old = *nodes_[node].queue;
  while (Fiber* f = old.Dequeue()) {
    queue->Enqueue(f);
  }
  nodes_[node].queue = std::move(queue);
}

RunQueue& Kernel::run_queue(NodeId node) {
  AMBER_CHECK(node >= 0 && node < nodes());
  return *nodes_[node].queue;
}

void Kernel::AddObserver(RuntimeObserver* observer) {
  AMBER_CHECK(observer != nullptr);
  AMBER_CHECK(std::find(observers_.begin(), observers_.end(), observer) == observers_.end())
      << "observer already attached";
  observers_.push_back(observer);
}

void Kernel::RemoveObserver(RuntimeObserver* observer) {
  std::erase(observers_, observer);
}

Time Kernel::Now() const { return current_ != nullptr ? current_->vtime : queue_.now(); }

// --- Dispatch machinery -----------------------------------------------------

void Kernel::EnqueueReady(Fiber* f, Time t) {
  AMBER_DCHECK(f->state != FiberState::kRunning && f->state != FiberState::kFinished);
  f->state = FiberState::kReady;
  f->vtime = std::max(f->vtime, t);
  f->ready_since = f->vtime;
  // Every pass through the run queue implies a context switch in, which in
  // Amber performs the §3.5 residency re-check via the resume hook.
  f->involuntary_resume = true;
  nodes_[f->node].queue->Enqueue(f);
}

void Kernel::TryDispatch(NodeId node) {
  AMBER_DCHECK(current_ == nullptr) << "TryDispatch from fiber context";
  NodeState& ns = nodes_[node];
  if (!ns.up) {
    return;  // crashed node: ready fibers park until restart
  }
  while (!ns.free_procs.empty() && !ns.queue->Empty()) {
    Fiber* f = ns.queue->Dequeue();
    AMBER_DCHECK(f->state == FiberState::kReady);
    const int proc = ns.free_procs.back();
    ns.free_procs.pop_back();
    f->processor = proc;
    f->state = FiberState::kRunning;
    const Time start = std::max(f->vtime, queue_.now());
    f->vtime = start + cost_.context_switch;
    f->quantum_end = f->vtime + cost_.quantum;
    ns.procs[proc].running = f;
    ns.procs[proc].busy_since = start;
    ++dispatches_;
    Emit(&RuntimeObserver::OnThreadDispatch, start, node, f->id, start - f->ready_since);
    if (telemetry::SelfProfiler* prof = telemetry::SelfProfiler::active()) {
      prof->NodeDispatch(node);
    }
    RunFiberSlice(f, node);
    // A handoff chain runs no event handler, so the state that allowed it
    // still holds and the loop ends here (the handoff rule, kernel.h).
    AMBER_DCHECK(!handed_off_ || ns.free_procs.empty() || ns.queue->Empty())
        << "a fiber handed off while TryDispatch(" << node << ") still had work";
  }
}

void Kernel::RunFiberSlice(Fiber* f, NodeId frame_node) {
  current_ = f;
  frame_node_ = frame_node;
  handed_off_ = false;
  BeginSliceScope();
  Context::Switch(&kernel_ctx_, &f->ctx);
  EndSliceScope();
  current_ = nullptr;
}

void Kernel::BeginSliceScope() {
  if (telemetry::SelfProfiler* prof = telemetry::SelfProfiler::active()) {
    slice_scope_ = prof->BeginScope(telemetry::Bucket::kFiberRun);
  }
}

void Kernel::EndSliceScope() {
  if (slice_scope_ != 0) {
    if (telemetry::SelfProfiler* prof = telemetry::SelfProfiler::active()) {
      prof->EndScope(telemetry::Bucket::kFiberRun, slice_scope_);
    }
    slice_scope_ = 0;
  }
}

void Kernel::ResumeHandler(void* kernel, Fiber* f) {
  auto* k = static_cast<Kernel*>(kernel);
  k->StartResume(f);
  k->RunFiberSlice(f, kNoNode);
}

void Kernel::StartResume(Fiber* f) {
  AMBER_DCHECK(f->state == FiberState::kRunning);
  f->vtime = std::max(f->vtime, queue_.now());
}

bool Kernel::KernelFrameDone() const {
  if (frame_node_ == kNoNode) {
    return true;  // a resume handler: RunFiberSlice is its last statement
  }
  const NodeState& ns = nodes_[frame_node_];
  return ns.free_procs.empty() || ns.queue->Empty();  // TryDispatch's loop exits
}

void Kernel::HandOff(Fiber* f, Fiber* next, Time finished) {
  // What the loop would have recorded for the finished event before its
  // next RunOne, with f's resume still pending.
  if (loop_prof_ != nullptr) {
    loop_prof_->OnEventLoopIteration(finished, queue_.Size() + 1);
  }
  StartResume(next);
  handed_off_ = true;
  EndSliceScope();
  BeginSliceScope();
  current_ = next;
  if (next != f) {
    Context::Switch(&f->ctx, &next->ctx);
  }
}

void Kernel::SwitchToKernel(Fiber* f) { Context::Switch(&f->ctx, &kernel_ctx_); }

void Kernel::AfterResume(Fiber* f) {
  if (f->involuntary_resume) {
    f->involuntary_resume = false;
    if (resume_hook_) {
      resume_hook_(f);
    }
  }
}

void Kernel::ReleaseProcessorAndMaybeRequeue(Fiber* f, bool requeue) {
  const NodeId node = f->node;
  const int proc = f->processor;
  const Time t = f->vtime;
  AMBER_DCHECK(proc >= 0);
  f->state = requeue ? FiberState::kReady : FiberState::kBlocked;
  f->processor = -1;
  Post(t, [this, node, proc, f, requeue, t] {
    NodeState& ns = nodes_[node];
    ns.busy_ns += t - ns.procs[proc].busy_since;
    ns.procs[proc].running = nullptr;
    ns.free_procs.push_back(proc);
    Emit(requeue ? &RuntimeObserver::OnThreadPreempt : &RuntimeObserver::OnThreadBlock, t, node,
         f->id);
    if (requeue) {
      EnqueueReady(f, queue_.now());
    }
    TryDispatch(node);
  });
  SwitchToKernel(f);
  AfterResume(f);
}

// --- Fiber-facing primitives --------------------------------------------------

void Kernel::Charge(Duration d) {
  AMBER_DCHECK(current_ != nullptr) << "Charge outside fiber context";
  AMBER_DCHECK(d >= 0);
  Fiber* f = current_;
  while (d > 0) {
    if (f->preempt_requested) {
      // An object move is preempting this node (§3.5): reschedule now so the
      // residency re-check runs on the next switch-in.
      f->preempt_requested = false;
      f->vtime += cost_.preempt_ipi;
      ++preemptions_;
      ReleaseProcessorAndMaybeRequeue(f, /*requeue=*/true);
      continue;
    }
    // A spin can outlast the quantum (SpinResume moves vtime past its
    // end); the quantum then expires at the first charge boundary, not in
    // the past.
    const Duration slice = std::max<Duration>(f->quantum_end - f->vtime, 0);
    if (d < slice) {
      f->vtime += d;
      return;
    }
    f->vtime += slice;
    d -= slice;
    // Quantum expired. Re-enter the event queue so the clock catches up —
    // this bounds how far a computing fiber can run ahead of virtual time
    // (and therefore the latency of §3.5 move-time preemption) to one
    // quantum. Sync() also honours any preemption request that arrived.
    Sync();
    if (nodes_[f->node].queue->Empty()) {
      f->quantum_end = f->vtime + cost_.quantum;
      continue;
    }
    ++preemptions_;
    f->vtime += cost_.context_switch;
    ReleaseProcessorAndMaybeRequeue(f, /*requeue=*/true);
  }
  if (f->preempt_requested) {
    f->preempt_requested = false;
    f->vtime += cost_.preempt_ipi;
    ++preemptions_;
    ReleaseProcessorAndMaybeRequeue(f, /*requeue=*/true);
  }
}

void Kernel::Sync() {
  AMBER_DCHECK(current_ != nullptr) << "Sync outside fiber context";
  Fiber* f = current_;
  const Time finished = queue_.now();
  Fiber* next = nullptr;
  if (KernelFrameDone()) {
    next = queue_.PostResumeAndTakeNext(f->vtime, f);
  } else {
    queue_.PostResume(f->vtime, f);
  }
  if (next != nullptr) {
    HandOff(f, next, finished);
  } else {
    SwitchToKernel(f);
  }
  if (f->preempt_requested) {
    f->preempt_requested = false;
    f->vtime += cost_.preempt_ipi;
    ++preemptions_;
    ReleaseProcessorAndMaybeRequeue(f, /*requeue=*/true);
  }
}

void Kernel::Yield() {
  AMBER_DCHECK(current_ != nullptr);
  ReleaseProcessorAndMaybeRequeue(current_, /*requeue=*/true);
}

void Kernel::Block() {
  AMBER_DCHECK(current_ != nullptr);
  ReleaseProcessorAndMaybeRequeue(current_, /*requeue=*/false);
}

void Kernel::SleepUntil(Time t) {
  AMBER_DCHECK(current_ != nullptr) << "SleepUntil outside fiber context";
  Sync();  // the timer must be armed at an ordered point
  Fiber* f = current_;
  if (t <= f->vtime) {
    return;
  }
  Post(t, [this, f] { Wake(f, queue_.now()); });
  Block();
}

void Kernel::TravelTo(NodeId node, Time arrive) {
  AMBER_DCHECK(current_ != nullptr);
  AMBER_CHECK(node >= 0 && node < nodes());
  Fiber* f = current_;
  AMBER_DCHECK(arrive >= f->vtime);
  const NodeId src = f->node;
  const int proc = f->processor;
  const Time t = f->vtime;
  f->state = FiberState::kBlocked;
  f->processor = -1;
  Post(t, [this, src, proc, t, f] {
    NodeState& ns = nodes_[src];
    ns.busy_ns += t - ns.procs[proc].busy_since;
    ns.procs[proc].running = nullptr;
    ns.free_procs.push_back(proc);
    Emit(&RuntimeObserver::OnThreadBlock, t, src, f->id);  // in flight to another node
    TryDispatch(src);
  });
  Post(arrive, [this, f, node] {
    f->node = node;
    Emit(&RuntimeObserver::OnThreadUnblock, queue_.now(), node, f->id, amber::ThreadId{0},
         queue_.now());
    EnqueueReady(f, queue_.now());
    TryDispatch(node);
  });
  SwitchToKernel(f);
  AfterResume(f);
}

void Kernel::SpinWait() {
  AMBER_DCHECK(current_ != nullptr);
  Fiber* f = current_;
  // State stays kRunning and the processor stays assigned: the CPU is
  // burning cycles on the lock word. Only SpinResume may switch back in.
  SwitchToKernel(f);
}

void Kernel::SpinResume(Fiber* f, Time t) {
  AMBER_DCHECK(t >= Now());
  AMBER_DCHECK(f->state == FiberState::kRunning && f->processor >= 0)
      << "SpinResume target is not spinning";
  queue_.PostResume(t, f);
}

void Kernel::Exit() {
  AMBER_DCHECK(current_ != nullptr);
  Fiber* f = current_;
  if (f->on_exit) {
    f->on_exit();
  }
  f->state = FiberState::kFinished;
  --live_fibers_;
  const NodeId node = f->node;
  const int proc = f->processor;
  const Time t = f->vtime;
  f->processor = -1;
  // Emitted from fiber context: the posted release below may run after a
  // joiner has already reclaimed the Fiber record.
  Emit(&RuntimeObserver::OnThreadExit, t, node, f->id);
  Post(t, [this, node, proc, t] {
    NodeState& ns = nodes_[node];
    ns.busy_ns += t - ns.procs[proc].busy_since;
    ns.procs[proc].running = nullptr;
    ns.free_procs.push_back(proc);
    TryDispatch(node);
  });
  SwitchToKernel(f);
  AMBER_PANIC("finished fiber resumed");
}

// --- Kernel-facing primitives --------------------------------------------------

void Kernel::Wake(Fiber* f, Time t) {
  AMBER_DCHECK(t >= Now()) << "waking in the past";
  // Capture the waker's identity now: by delivery time the waker may have
  // exited (ids outlive Fiber records) and current_ is no longer it.
  const uint64_t waker_id = current_ != nullptr ? current_->id : 0;
  const Time wake_time = Now();
  Post(t, [this, f, waker_id, wake_time] {
    AMBER_DCHECK(f->state == FiberState::kBlocked)
        << "waking fiber " << f->name << " in state " << static_cast<int>(f->state);
    Emit(&RuntimeObserver::OnThreadUnblock, queue_.now(), f->node, f->id, waker_id, wake_time);
    EnqueueReady(f, queue_.now());
    TryDispatch(f->node);
  });
}

void Kernel::SetNodeUp(NodeId node, bool up) {
  AMBER_CHECK(node >= 0 && node < nodes());
  NodeState& ns = nodes_[node];
  if (ns.up == up) {
    return;
  }
  ns.up = up;
  if (!up) {
    // Running fibers halt at their next charge boundary or sync point and
    // requeue; TryDispatch then refuses to run them until restart.
    RequestPreempt(node);
  } else {
    Post(Now(), [this, node] { TryDispatch(node); });
  }
}

bool Kernel::NodeUp(NodeId node) const {
  AMBER_CHECK(node >= 0 && node < nodes());
  return nodes_[node].up;
}

int Kernel::RequestPreempt(NodeId node) {
  AMBER_CHECK(node >= 0 && node < nodes());
  int flagged = 0;
  for (auto& proc : nodes_[node].procs) {
    if (proc.running != nullptr && proc.running != current_ &&
        proc.running->state == FiberState::kRunning) {
      proc.running->preempt_requested = true;
      ++flagged;
    }
  }
  return flagged;
}

// --- Run loop -------------------------------------------------------------------

Time Kernel::Run() {
  // The disabled path must stay exactly the bare loop: one branch decides
  // which loop runs, and the instrumented one adds a single clock read per
  // iteration (consecutive timestamps are differenced, so each iteration's
  // wall cost needs only one NowNs call).
  telemetry::SelfProfiler* prof = telemetry::SelfProfiler::active();
  loop_prof_ = prof;
  if (prof == nullptr) {
    while (queue_.RunOne()) {
    }
  } else {
    prof->SetNodeCount(nodes());
    prof->ResetLoopClock();
    while (queue_.RunOne()) {
      prof->OnEventLoopIteration(queue_.now(), queue_.Size());
    }
    prof->SyncLoopClock();
  }
  loop_prof_ = nullptr;
  if (live_fibers_ > 0) {
    AMBER_LOG(kWarn) << "simulation ended with " << live_fibers_
                     << " live fibers (deadlock or leaked threads)";
    ForEachFiber([](const Fiber& f) {
      if (f.state != FiberState::kFinished) {
        AMBER_LOG(kWarn) << "  live fiber: " << f.name << " state=" << static_cast<int>(f.state)
                         << " node=" << f.node;
      }
    });
  }
  return queue_.now();
}

bool Kernel::AnyLiveFiberOnUpNode() const {
  for (const auto& f : fibers_) {
    if (f != nullptr && f->state != FiberState::kFinished && nodes_[f->node].up) {
      return true;
    }
  }
  return false;
}

Duration Kernel::NodeBusyTime(NodeId node) const {
  AMBER_CHECK(node >= 0 && node < nodes());
  return nodes_[node].busy_ns;
}

int Kernel::RunQueueLength(NodeId node) const {
  AMBER_CHECK(node >= 0 && node < nodes());
  return static_cast<int>(nodes_[node].queue->Size());
}

int Kernel::BusyProcessors(NodeId node) const {
  AMBER_CHECK(node >= 0 && node < nodes());
  return procs_per_node_ - static_cast<int>(nodes_[node].free_procs.size());
}

}  // namespace sim
