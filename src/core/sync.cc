#include "src/core/sync.h"

#include "src/base/panic.h"
#include "src/core/thread.h"

namespace amber {
namespace {

sim::Kernel& K() { return Runtime::Current().sim(); }

}  // namespace

// --- SpinLock -----------------------------------------------------------------

void SpinLock::Acquire() {
  sim::Kernel& k = K();
  k.Charge(k.cost().spin_op);
  k.Sync();
  Runtime& rt = Runtime::Current();
  ThreadObject* self = rt.current_thread();
  if (holder_ == nullptr) {
    holder_ = self;
    rt.NotifyLockHeldSince(this, k.Now(), self);
    return;
  }
  AMBER_CHECK(holder_ != self) << "SpinLock is not recursive";
  const Time blocked_at = k.Now();
  if (rt.instrumented()) {
    rt.NotifyLockBlocked(this);
  }
  // Spin: keep the processor, wait for handoff. The processor stays busy
  // for the whole wait — the defining cost/latency tradeoff of a
  // non-relinquishing lock.
  spinners_.push_back(k.current());
  k.SpinWait();
  AMBER_DCHECK(holder_ == self);  // FIFO handoff installed us
  if (rt.instrumented()) {
    rt.NotifyLockAcquired(this, k.Now() - blocked_at);
  }
}

bool SpinLock::TryAcquire() {
  sim::Kernel& k = K();
  k.Charge(k.cost().spin_op);
  k.Sync();
  if (holder_ != nullptr) {
    return false;
  }
  Runtime& rt = Runtime::Current();
  holder_ = rt.current_thread();
  rt.NotifyLockHeldSince(this, k.Now(), holder_);
  return true;
}

void SpinLock::Release() {
  sim::Kernel& k = K();
  k.Charge(k.cost().spin_op);
  k.Sync();
  Runtime& rt = Runtime::Current();
  AMBER_CHECK(holder_ == rt.current_thread()) << "SpinLock released by non-holder";
  rt.NotifyLockReleased(this);
  if (spinners_.empty()) {
    holder_ = nullptr;
    return;
  }
  sim::Fiber* next = spinners_.front();
  spinners_.pop_front();
  holder_ = static_cast<ThreadObject*>(next->user_data);
  const Time resume = k.Now() + k.cost().spin_op;
  rt.NotifyLockHeldSince(this, resume, holder_);  // next holder's hold starts at handoff
  k.SpinResume(next, resume);
}

// --- Lock ----------------------------------------------------------------------

void Lock::Acquire() {
  sim::Kernel& k = K();
  k.Charge(k.cost().lock_op);
  k.Sync();
  Runtime& rt = Runtime::Current();
  ThreadObject* self = rt.current_thread();
  if (holder_ == nullptr) {
    holder_ = self;
    rt.NotifyLockHeldSince(this, k.Now(), self);
    return;
  }
  AMBER_CHECK(holder_ != self) << "Lock is not recursive";
  const Time blocked_at = k.Now();
  if (rt.instrumented()) {
    rt.NotifyLockBlocked(this);
  }
  waiters_.push_back(k.current());
  k.Block();
  // Woken by a FIFO handoff that already installed us as holder.
  AMBER_DCHECK(holder_ == self);
  if (rt.instrumented()) {
    rt.NotifyLockAcquired(this, k.Now() - blocked_at);
  }
}

bool Lock::TryAcquire() {
  sim::Kernel& k = K();
  k.Charge(k.cost().lock_op);
  k.Sync();
  if (holder_ != nullptr) {
    return false;
  }
  Runtime& rt = Runtime::Current();
  holder_ = rt.current_thread();
  rt.NotifyLockHeldSince(this, k.Now(), holder_);
  return true;
}

bool Lock::HeldByCaller() const {
  return holder_ != nullptr && holder_ == Runtime::Current().current_thread();
}

void Lock::ReleaseInternal() {
  sim::Kernel& k = K();
  Runtime& rt = Runtime::Current();
  rt.NotifyLockReleased(this);
  if (waiters_.empty()) {
    holder_ = nullptr;
    return;
  }
  sim::Fiber* next = waiters_.front();
  waiters_.pop_front();
  holder_ = static_cast<ThreadObject*>(next->user_data);
  const Time resume = k.Now() + k.cost().lock_op;
  rt.NotifyLockHeldSince(this, resume, holder_);  // next holder's hold starts at handoff
  k.Wake(next, resume);
}

void Lock::Release() {
  sim::Kernel& k = K();
  k.Charge(k.cost().lock_op);
  k.Sync();
  AMBER_CHECK(holder_ == Runtime::Current().current_thread()) << "Lock released by non-holder";
  ReleaseInternal();
}

// --- Condition -------------------------------------------------------------------

void Condition::Wait(Lock& lock) {
  sim::Kernel& k = K();
  k.Charge(k.cost().lock_op);
  k.Sync();
  AMBER_CHECK(lock.HeldByCaller()) << "Condition::Wait without holding the lock";
  waiters_.push_back(k.current());
  lock.ReleaseInternal();  // atomic with the wait: we are at an ordered point
  k.Block();
  // Signalled: re-acquire before returning (Mesa semantics — re-check your
  // predicate in a loop).
  lock.Acquire();
}

void Condition::Signal() {
  sim::Kernel& k = K();
  k.Charge(k.cost().lock_op);
  k.Sync();
  if (waiters_.empty()) {
    return;
  }
  sim::Fiber* f = waiters_.front();
  waiters_.pop_front();
  Runtime& rt = Runtime::Current();
  if (rt.instrumented()) {
    rt.NotifyConditionWake(this, 1);
  }
  k.Wake(f, k.Now() + k.cost().lock_op);
}

void Condition::Broadcast() {
  sim::Kernel& k = K();
  k.Charge(k.cost().lock_op);
  k.Sync();
  if (waiters_.empty()) {
    return;
  }
  Runtime& rt = Runtime::Current();
  if (rt.instrumented()) {
    rt.NotifyConditionWake(this, static_cast<int>(waiters_.size()));
  }
  for (sim::Fiber* f : waiters_) {
    k.Wake(f, k.Now() + k.cost().lock_op);
  }
  waiters_.clear();
}

// --- Barrier ----------------------------------------------------------------------

Barrier::Barrier(int parties) : parties_(parties) {
  AMBER_CHECK(parties >= 1) << "barrier needs at least one party";
}

int64_t Barrier::Wait() {
  sim::Kernel& k = K();
  k.Charge(k.cost().barrier_op);
  k.Sync();
  k.Emit(&RuntimeObserver::OnBarrierWait, k.Now(), k.current()->node, k.current()->id);
  const int64_t my_phase = phase_;
  if (++arrived_ < parties_) {
    waiting_.push_back(k.current());
    k.Block();
    AMBER_DCHECK(phase_ > my_phase);
  } else {
    // Last arrival releases everyone and advances the phase.
    arrived_ = 0;
    ++phase_;
    for (sim::Fiber* f : waiting_) {
      k.Wake(f, k.Now() + k.cost().barrier_op);
    }
    waiting_.clear();
  }
  return my_phase;
}

}  // namespace amber
