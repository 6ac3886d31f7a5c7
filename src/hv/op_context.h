// Execution context for one hypervisor operation (hypercall handler, IRQ
// path, scheduler invocation, idle poll, recovery step).
//
// Handlers are written as sequences of Step() calls that mutate real
// hypervisor structures. Step() adds to the context's instruction total and
// invokes the platform's step hook, which is where the fault injector's
// instruction-counting trigger lives — so a simulated fault lands *between*
// two real mutations, leaving genuine partial state behind when the thread
// is abandoned (C++ unwinding carries the abandonment; locks acquired via
// Lock() deliberately stay held). The total is retired on the owning CPU's
// counter once, when the context closes — unwinding included — so the
// counter reads the same sum per-step charging would, and nothing reads it
// while a context is open.
#pragma once

#include <cstdint>

#include "hv/costs.h"
#include "hv/options.h"
#include "hv/spinlock.h"
#include "hv/undo_log.h"
#include "hv/vcpu.h"
#include "hw/platform.h"

namespace nlh::hv {

enum class HvContextKind {
  kHypercall,
  kSyscallForward,
  kIrq,
  kTimerSoftirq,
  kSchedule,
  kIdle,
  kRecovery,
};

class OpContext {
 public:
  OpContext(hw::Platform& platform, hw::Cpu& cpu, const RuntimeOptions& options,
            HvContextKind kind, Vcpu* current_vcpu, UndoLog* undo)
      : platform_(platform),
        cpu_(cpu),
        options_(options),
        kind_(kind),
        vcpu_(current_vcpu),
        undo_(undo) {}

  OpContext(const OpContext&) = delete;
  OpContext& operator=(const OpContext&) = delete;

  ~OpContext() { cpu_.RetireHvInstructions(instructions_); }

  // Executes `n` hypervisor instructions. May throw HvPanic/HvHang — either
  // from the injector hook (a fault fires here) or from a mutation that a
  // previous corruption made invalid. Counted before the hook runs, so a
  // fault firing on this step still charges it.
  [[gnu::always_inline]] void Step(std::uint64_t n, const char* what) {
    (void)what;
    instructions_ += n;
    platform_.OnHvStep(cpu_, n);
  }

  // Lock acquisition through the context. NOT RAII: if the handler is
  // abandoned mid-execution, the lock stays held — the abandoned simulated
  // thread never runs its unlock path. Recovery must force-release it.
  [[gnu::always_inline]] void Lock(SpinLock& lock) {
    Step(25, "lock");
    lock.Acquire(cpu_.id());
  }
  [[gnu::always_inline]] void Unlock(SpinLock& lock) {
    lock.Release(cpu_.id());
    Step(15, "unlock");
  }

  // Write-ahead undo record for a critical variable (Section IV). The
  // `restore` closure must capture the OLD value. Costs normal-operation
  // instructions only when undo logging is compiled in — this is the
  // NiLiHype-vs-NiLiHype* overhead of Figure 3. Templated so the closure
  // goes straight into the undo log's SmallFn storage (no std::function
  // materialization on the hypercall hot path).
  template <typename F>
  void LogUndo(F&& restore) {
    if (!options_.undo_logging || undo_ == nullptr) return;
    undo_->Record(std::forward<F>(restore));
    Step(cost::kUndoLogRecord, "undo-log");
  }

  // Logs completion of multicall component `index` (Section IV
  // fine-granularity batched retry).
  void LogBatchComponentDone(int index) {
    if (!options_.batch_completion_logging || vcpu_ == nullptr) return;
    vcpu_->inflight.multicall_progress = index + 1;
    vcpu_->inflight.progress_logged = true;
    Step(cost::kBatchCompletionLog, "batch-log");
  }

  // ReHype-only normal-operation shadowing of IO-APIC writes.
  void ShadowIoApicWrite() {
    if (!options_.rehype_ioapic_shadow) return;
    Step(cost::kIoApicShadowWrite, "ioapic-shadow");
  }

  HvContextKind kind() const { return kind_; }
  Vcpu* vcpu() { return vcpu_; }
  hw::Cpu& cpu() { return cpu_; }
  std::uint64_t instructions() const { return instructions_; }

 private:
  hw::Platform& platform_;
  hw::Cpu& cpu_;
  const RuntimeOptions& options_;
  HvContextKind kind_;
  Vcpu* vcpu_;
  UndoLog* undo_;
  std::uint64_t instructions_ = 0;
};

}  // namespace nlh::hv
