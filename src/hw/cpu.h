// A simulated physical CPU.
//
// The CPU carries only *hardware* state; what the hypervisor is doing on it
// (current vCPU, hypercall in flight, IRQ nesting) lives in the hypervisor's
// per-CPU structures (hv/percpu.h), mirroring the real split between
// architectural state and Xen's per-CPU data.
#pragma once

#include <cstdint>

#include "forensics/record.h"
#include "hw/registers.h"
#include "sim/time.h"

namespace nlh::hw {

using CpuId = int;

// The hypervisor stack of a CPU. Microreset "discards the execution thread
// by resetting the stack pointer" (Section III-C); we model the stack as a
// depth counter plus the top-of-stack pointer so that discarding is exactly
// a pointer reset.
struct HvStack {
  std::uint64_t base = 0;   // initial stack pointer value
  std::uint64_t top = 0;    // current stack pointer
  int frames = 0;           // pushed frames (nested entries)

  void Reset() {
    top = base;
    frames = 0;
  }
  bool Clean() const { return top == base && frames == 0; }
};

class Cpu {
 public:
  explicit Cpu(CpuId id) : id_(id) {
    // Give each CPU a distinct, recognizable hypervisor stack base.
    stack_.base = 0xffff800000000000ULL + static_cast<std::uint64_t>(id) * 0x10000;
    stack_.Reset();
  }

  CpuId id() const { return id_; }

  RegisterFile& regs() { return regs_; }
  const RegisterFile& regs() const { return regs_; }

  HvStack& hv_stack() { return stack_; }
  const HvStack& hv_stack() const { return stack_; }

  // --- Interrupt flag -------------------------------------------------
  bool interrupts_enabled() const { return interrupts_enabled_; }
  void set_interrupts_enabled(bool on) { interrupts_enabled_ = on; }

  // --- Execution states ------------------------------------------------
  // halted: parked (e.g. non-recovering CPUs during ReHype recovery).
  // hung:   stuck making no progress (spinning on a dead lock, corrupt
  //         list walk); only an NMI-based detector can notice.
  bool halted() const { return halted_; }
  void set_halted(bool h) { halted_ = h; }
  bool hung() const { return hung_; }
  void set_hung(bool h) {
    if (h && !hung_) NLH_RECORD(forensics::EventKind::kCpuHung, id_);
    hung_ = h;
  }

  bool online() const { return online_; }

  // --- Counters ---------------------------------------------------------
  // Retired-instruction count while executing hypervisor code; the fault
  // injector's second-level trigger counts these (Section VI-C) through the
  // step hook. hv::OpContext charges an entry's total when the entry ends,
  // so the counter is exact between hypervisor entries, not inside one.
  std::uint64_t hv_instructions() const { return hv_instructions_; }
  void RetireHvInstructions(std::uint64_t n) { hv_instructions_ += n; }

  // Unhalted cycles spent executing hypervisor code; used for the Figure 3
  // hypervisor-processing-overhead measurement.
  std::uint64_t hv_cycles() const { return hv_cycles_; }
  void AccumulateHvCycles(std::uint64_t c) { hv_cycles_ += c; }
  std::uint64_t total_cycles() const { return total_cycles_; }
  void AccumulateTotalCycles(std::uint64_t c) { total_cycles_ += c; }

  // --- Resume bookkeeping ------------------------------------------------
  // True while a run-slice event for this CPU is pending in the event queue;
  // prevents interrupt delivery from flooding the queue with wakeups.
  bool resume_pending() const { return resume_pending_; }
  void set_resume_pending(bool p) { resume_pending_ = p; }

  // Snapshot/restore (sim/state_image.h): the full architectural state.
  template <typename V>
  void VisitState(V&& v) {
    v(regs_);
    v(stack_);
    v(interrupts_enabled_);
    v(halted_);
    v(hung_);
    v(online_);
    v(resume_pending_);
    v(hv_instructions_);
    v(hv_cycles_);
    v(total_cycles_);
  }

 private:
  CpuId id_;
  RegisterFile regs_;
  HvStack stack_;
  bool interrupts_enabled_ = true;
  bool halted_ = false;
  bool hung_ = false;
  bool online_ = true;
  bool resume_pending_ = false;
  std::uint64_t hv_instructions_ = 0;
  std::uint64_t hv_cycles_ = 0;
  std::uint64_t total_cycles_ = 0;
};

}  // namespace nlh::hw
