// Hypervisor spinlocks and the static-lock registry.
//
// Because microreset (and microreboot) discard every execution thread in
// the hypervisor, any lock held at detection time would otherwise stay
// locked forever; the next acquirer spins until the watchdog declares the
// CPU hung. Recovery therefore must force-release all locks:
//   - heap-allocated locks: tracked by the heap allocator (both mechanisms,
//     inherited from ReHype),
//   - static locks: ReHype re-initializes them by rebooting; NiLiHype
//     instead relies on the linker-script trick of Section V-A ("Unlock
//     static locks") that places every statically-defined lock in one
//     segment. StaticLockRegistry models that segment.
#pragma once

#include <string>
#include <vector>

#include "forensics/record.h"
#include "hv/panic.h"
#include "hw/cpu.h"

namespace nlh::hv {

class SpinLock {
 public:
  explicit SpinLock(std::string name) : name_(std::move(name)) {}

  SpinLock(const SpinLock&) = delete;
  SpinLock& operator=(const SpinLock&) = delete;

  // Acquire by `cpu`. In the simulator, handler executions are serialized,
  // so a lock observed held was left behind by an abandoned or preempted
  // thread; a real CPU would spin on it forever -> simulated hang.
  void Acquire(hw::CpuId cpu) {
    if (holder_ != kUnheld) [[unlikely]] ThrowDeadlock();
    NLH_RECORD(forensics::EventKind::kLockAcquire, cpu, 0, 0, name_);
    holder_ = cpu;
    ++acquisitions_;
  }

  void Release(hw::CpuId cpu) {
    HvAssert(holder_ == cpu, "releasing lock not held by this CPU");
    NLH_RECORD(forensics::EventKind::kLockRelease, cpu, 0, 0, name_);
    holder_ = kUnheld;
  }

  // Recovery path: unconditional unlock regardless of holder.
  void ForceRelease() { holder_ = kUnheld; }

  bool held() const { return holder_ != kUnheld; }
  hw::CpuId holder() const { return holder_; }
  const std::string& name() const { return name_; }
  std::uint64_t acquisitions() const { return acquisitions_; }

  // Snapshot/restore (sim/state_image.h): lock *state* only — the lock
  // object itself is non-copyable and its address is what matters to
  // holders, so restore writes into the existing instance.
  template <typename V>
  void VisitState(V&& v) {
    v(holder_);
    v(acquisitions_);
  }

 private:
  static constexpr hw::CpuId kUnheld = -1;
  // The throw half of Acquire, kept out of line.
  [[noreturn, gnu::cold, gnu::noinline]] void ThrowDeadlock() const {
    throw HvHang("deadlock on lock '" + name_ + "' held by CPU" +
                 std::to_string(holder_));
  }
  std::string name_;
  hw::CpuId holder_ = kUnheld;
  std::uint64_t acquisitions_ = 0;
};

// Models the dedicated linker segment holding all statically-defined locks.
// In Xen this is achieved by modifying the lock-definition macro and the
// linker script; here, static locks register themselves at construction.
class StaticLockRegistry {
 public:
  void Register(SpinLock* lock) { locks_.push_back(lock); }

  // The NiLiHype "Unlock static locks" enhancement: iterate the segment and
  // unlock everything. Returns how many locks were actually held.
  int ForceReleaseAll() {
    int released = 0;
    for (SpinLock* lock : locks_) {
      if (lock->held()) {
        lock->ForceRelease();
        ++released;
      }
    }
    return released;
  }

  int HeldCount() const {
    int held = 0;
    for (const SpinLock* lock : locks_) {
      if (lock->held()) ++held;
    }
    return held;
  }

  std::size_t size() const { return locks_.size(); }
  const std::vector<SpinLock*>& locks() const { return locks_; }

 private:
  std::vector<SpinLock*> locks_;
};

// RAII guard used by handler code on the normal (non-recovery) path.
class LockGuard {
 public:
  LockGuard(SpinLock& lock, hw::CpuId cpu) : lock_(&lock), cpu_(cpu) {
    lock_->Acquire(cpu_);
  }
  ~LockGuard() { Unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

  // Explicit early unlock.
  void Unlock() {
    if (lock_ != nullptr && lock_->held() && lock_->holder() == cpu_) {
      lock_->Release(cpu_);
    }
    lock_ = nullptr;
  }

  // Abandonment: when a simulated fault unwinds a handler, the guard is
  // destroyed by C++ unwinding, but the *simulated* thread never ran its
  // unlock path. Call Leak() while unwinding to model the lock staying held.
  void Leak() { lock_ = nullptr; }

 private:
  SpinLock* lock_;
  hw::CpuId cpu_;
};

}  // namespace nlh::hv
