// Base class for simulated paravirtual guest kernels.
//
// Guests are explicit state machines driven by the hypervisor scheduler
// through RunSlice. The Hcall/Syscall helpers make hypercall issue points
// resumable: a simulated fault unwinds straight through RunSlice, and after
// recovery the abandoned call is either re-executed by the hypervisor
// (completion arrives via OnHypercallResult/OnSyscallResult), treated as
// committed (OnResumedAfterRecovery), or lost (OnHypercallLost) — in which
// case the kernel reacts the way a PV Linux call site would: tolerate,
// record an I/O or syscall failure, or BUG out.
#pragma once

#include <cstdint>
#include <string>

#include "hv/guest_iface.h"
#include "hv/hypervisor.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace nlh::guest {

class GuestKernel : public hv::GuestInterface {
 public:
  GuestKernel(hv::Hypervisor& hv, std::string name, std::uint64_t seed)
      : hv_(hv), name_(std::move(name)), rng_(seed) {}

  // Associates the kernel with its domain/vCPU (after domain creation).
  void Bind(hv::DomainId dom, hv::VcpuId vcpu) {
    domain_ = dom;
    vcpu_ = vcpu;
  }

  hv::DomainId domain() const { return domain_; }
  hv::VcpuId vcpu_id() const { return vcpu_; }
  const std::string& name() const { return name_; }

  // Re-derives the kernel's RNG stream for a new campaign seed (warm-fork
  // runner, core/campaign.cc). Only valid at a point where a cold boot
  // with that seed would also have drawn nothing yet.
  void ReseedRng(std::uint64_t seed) { rng_.Reseed(seed); }

  // --- Failure-state accessors (run outcome classification) ----------------
  bool crashed() const { return crashed_; }
  const std::string& crash_reason() const { return crash_reason_; }
  bool memory_corrupted() const { return memory_corrupted_; }
  int syscall_failures() const { return syscall_failures_; }
  int io_errors() const { return io_errors_; }
  bool process_failed() const { return process_failed_; }

  // The paper's per-benchmark failure criteria fold into this:
  // VM affected = kernel crash, corrupted output, failed syscalls, or a
  // failed user process.
  bool Affected() const {
    return crashed_ || memory_corrupted_ || syscall_failures_ > 0 ||
           io_errors_ > 0 || process_failed_;
  }

  // --- hv::GuestInterface ---------------------------------------------------
  hv::GuestRunResult RunSlice(hv::VcpuId vcpu, sim::Duration budget) final;
  void OnHypercallResult(hv::VcpuId vcpu, hv::HypercallCode code,
                         std::uint64_t ret) final;
  void OnSyscallResult(hv::VcpuId vcpu) final;
  void OnHypercallLost(hv::VcpuId vcpu, hv::HypercallCode code,
                       bool was_syscall) final;
  void OnFsGsLost(hv::VcpuId vcpu) final;
  void OnMemoryCorrupted(hv::VcpuId vcpu) final;
  void OnShutdown(hv::VcpuId vcpu) override;
  void OnResumedAfterRecovery(hv::VcpuId vcpu) final;

  // Snapshot/restore (sim/state_image.h): the base kernel state machine.
  // Subclasses chain this from their own VisitState.
  template <typename V>
  void VisitState(V&& v) {
    rng_.VisitState(v);
    v(domain_);
    v(vcpu_);
    v(awaiting_);
    v(awaiting_syscall_);
    v(awaiting_code_);
    v(pending_done_);
    v(pending_ret_);
    v(slice_budget_);
    v(slice_used_);
    v(block_requested_);
    v(crashed_);
    v(crash_reason_);
    v(memory_corrupted_);
    v(process_failed_);
    v(syscall_failures_);
    v(io_errors_);
  }

 protected:
  // Advance the workload. Called with the remaining slice budget; use
  // Compute()/Hcall()/Syscall()/Block() and return when out of budget, out
  // of work, or blocked.
  virtual void OnRun(sim::Duration budget) = 0;
  // Pending event-channel bits were consumed (bit 0 = timer virq).
  virtual void OnEvents(std::uint64_t bits) { (void)bits; }

  // --- Resumable trap helpers -------------------------------------------------
  // Issues a hypercall. Returns true when the call has completed (fresh or
  // via a recovery retry) and stores the return value; returns false when
  // the caller must back off and re-attempt at the same state-machine point
  // on a later slice. May throw (the fault unwinds the world).
  bool Hcall(hv::HypercallCode code, const hv::HypercallArgs& args,
             std::uint64_t* ret = nullptr);
  bool Hcall0(hv::HypercallCode code, std::uint64_t* ret = nullptr) {
    return Hcall(code, hv::HypercallArgs{}, ret);
  }
  bool Hcall1(hv::HypercallCode code, std::uint64_t a0,
              std::uint64_t* ret = nullptr) {
    hv::HypercallArgs a;
    a.arg0 = a0;
    return Hcall(code, a, ret);
  }
  bool Hcall2(hv::HypercallCode code, std::uint64_t a0, std::uint64_t a1,
              std::uint64_t* ret = nullptr) {
    hv::HypercallArgs a;
    a.arg0 = a0;
    a.arg1 = a1;
    return Hcall(code, a, ret);
  }

  // Issues a forwarded system call (x86-64 PV path). Same contract.
  bool Syscall(std::uint64_t sysno);

  // HVM: takes a hardware VM exit into the hypervisor. Same contract.
  bool TakeVmExit(hv::VmExitReason reason, std::uint64_t arg);

  // Requests blocking until an event arrives. Returns true if the vCPU
  // actually blocked (the caller should return from OnRun).
  bool Block();

  // Burns guest-mode CPU time within the current slice.
  void Compute(sim::Duration d) { slice_used_ += d; }
  bool BudgetLeft() const { return slice_used_ < slice_budget_; }

  void CrashKernel(const std::string& why);
  void RecordSyscallFailure() { ++syscall_failures_; }
  void RecordIoError() { ++io_errors_; }
  void FailProcess() { process_failed_ = true; }

 public:
  // Microreboot entry point (Candea-style component restart): clears the
  // crash state and every in-flight trap so the kernel can be restarted
  // from a clean boot-equivalent point. Subclasses reset their own workload
  // state on top of this (PrivVmKernel::ResetForRecovery). Benchmark
  // progress counters (io_errors_, syscall_failures_, ...) survive — the
  // run verdict must still see the damage the failure caused.
  void ResetKernelForRecovery() {
    crashed_ = false;
    crash_reason_.clear();
    awaiting_ = false;
    awaiting_syscall_ = false;
    awaiting_code_ = hv::HypercallCode::kXenVersion;
    pending_done_ = false;
    pending_ret_ = 0;
    block_requested_ = false;
    slice_budget_ = 0;
    slice_used_ = 0;
  }

 protected:

  hv::Domain& dom() { return *hv_.FindDomain(domain_); }

  hv::Hypervisor& hv_;
  std::string name_;
  sim::Rng rng_;

 private:
  hv::DomainId domain_ = hv::kInvalidDomain;
  hv::VcpuId vcpu_ = hv::kInvalidVcpu;

  // In-flight trap bookkeeping (the guest-side mirror of InFlightRequest).
  bool awaiting_ = false;
  bool awaiting_syscall_ = false;
  hv::HypercallCode awaiting_code_ = hv::HypercallCode::kXenVersion;
  bool pending_done_ = false;
  std::uint64_t pending_ret_ = 0;

  sim::Duration slice_budget_ = 0;
  sim::Duration slice_used_ = 0;
  bool block_requested_ = false;

  bool crashed_ = false;
  std::string crash_reason_;
  bool memory_corrupted_ = false;
  bool process_failed_ = false;
  int syscall_failures_ = 0;
  int io_errors_ = 0;
};

}  // namespace nlh::guest
