#include "guest/guest_kernel.h"

namespace nlh::guest {

hv::GuestRunResult GuestKernel::RunSlice(hv::VcpuId vcpu,
                                         sim::Duration budget) {
  (void)vcpu;
  hv::GuestRunResult r;
  if (crashed_) {
    r.action = hv::GuestRunResult::Action::kIdle;
    return r;
  }
  slice_budget_ = budget;
  slice_used_ = 0;
  block_requested_ = false;

  const std::uint64_t events = hv_.ConsumePendingEvents(vcpu_);
  if (events != 0) OnEvents(events);

  OnRun(budget);

  r.used = slice_used_;
  if (crashed_) {
    r.action = hv::GuestRunResult::Action::kIdle;
  } else if (block_requested_) {
    r.action = hv::GuestRunResult::Action::kBlock;
  } else if (slice_used_ == 0) {
    // No forward progress and no block request: nothing to do until an
    // event arrives (or a recovery retry completes) — do not busy-spin.
    r.action = hv::GuestRunResult::Action::kIdle;
  } else {
    r.action = hv::GuestRunResult::Action::kContinue;
  }
  return r;
}

bool GuestKernel::Hcall(hv::HypercallCode code, const hv::HypercallArgs& args,
                        std::uint64_t* ret) {
  if (pending_done_) {
    // A recovery-retried (or committed-at-boundary) call completed.
    pending_done_ = false;
    if (awaiting_code_ == code) {
      if (ret != nullptr) *ret = pending_ret_;
      return true;
    }
    // Stale completion for a different site; drop it and issue fresh.
  }
  if (awaiting_) return false;  // retry still pending; back off

  awaiting_ = true;
  awaiting_syscall_ = false;
  awaiting_code_ = code;
  const std::uint64_t r = hv_.Hypercall(vcpu_, code, args);  // may throw
  awaiting_ = false;
  if (ret != nullptr) *ret = r;
  return true;
}

bool GuestKernel::Syscall(std::uint64_t sysno) {
  if (pending_done_) {
    pending_done_ = false;
    return true;
  }
  if (awaiting_) return false;

  awaiting_ = true;
  awaiting_syscall_ = true;
  hv_.ForwardedSyscall(vcpu_, sysno);  // may throw
  awaiting_ = false;
  return true;
}

bool GuestKernel::TakeVmExit(hv::VmExitReason reason, std::uint64_t arg) {
  if (pending_done_) {
    pending_done_ = false;
    return true;
  }
  if (awaiting_) return false;

  awaiting_ = true;
  awaiting_syscall_ = false;
  hv_.VmExit(vcpu_, reason, arg);  // may throw
  awaiting_ = false;
  return true;
}

bool GuestKernel::Block() {
  std::uint64_t ret = 1;
  if (!Hcall0(hv::HypercallCode::kSchedOpBlock, &ret)) return false;
  if (ret == 0) {
    block_requested_ = true;
    return true;
  }
  return false;  // events already pending; keep running
}

void GuestKernel::CrashKernel(const std::string& why) {
  if (crashed_) return;
  crashed_ = true;
  crash_reason_ = why;
}

void GuestKernel::OnHypercallResult(hv::VcpuId vcpu, hv::HypercallCode code,
                                    std::uint64_t ret) {
  (void)vcpu;
  awaiting_ = false;
  awaiting_code_ = code;
  pending_done_ = true;
  pending_ret_ = ret;
}

void GuestKernel::OnSyscallResult(hv::VcpuId vcpu) {
  (void)vcpu;
  awaiting_ = false;
  pending_done_ = true;
  pending_ret_ = 0;
}

void GuestKernel::OnHypercallLost(hv::VcpuId vcpu, hv::HypercallCode code,
                                  bool was_syscall) {
  (void)vcpu;
  awaiting_ = false;

  if (was_syscall) {
    // The user process sees a failed system call (the benchmarks log these;
    // a logged syscall failure fails the benchmark, Section VI-A).
    RecordSyscallFailure();
    pending_done_ = true;
    pending_ret_ = ~0ULL;
    return;
  }

  const hv::HypercallTraits& traits = hv::TraitsOf(code);
  if (rng_.Chance(traits.lost_tolerated)) {
    // The call site tolerates the loss (guest-level retry or benign error
    // path); resume as if it returned.
    pending_done_ = true;
    pending_ret_ = 0;
    return;
  }
  switch (code) {
    case hv::HypercallCode::kMmuUpdate:
    case hv::HypercallCode::kPageTablePin:
    case hv::HypercallCode::kPageTableUnpin:
    case hv::HypercallCode::kUpdateVaMapping:
    case hv::HypercallCode::kMemoryOpIncrease:
    case hv::HypercallCode::kMemoryOpDecrease:
    case hv::HypercallCode::kMulticall:
      // PV Linux BUG()s when its page-table view diverges from Xen's.
      CrashKernel("lost " + std::string(hv::HypercallName(code)) +
                  " left page tables inconsistent");
      break;
    case hv::HypercallCode::kGrantMap:
    case hv::HypercallCode::kGrantUnmap:
    case hv::HypercallCode::kGrantCopy:
    case hv::HypercallCode::kEventChannelSend:
      RecordIoError();
      pending_done_ = true;
      pending_ret_ = ~0ULL;
      break;
    case hv::HypercallCode::kDomctlCreate:
    case hv::HypercallCode::kDomctlDestroy:
    case hv::HypercallCode::kDomctlUnpause:
    case hv::HypercallCode::kPhysdevOp:
      // Toolstack wedged: the call never completes from its point of view.
      FailProcess();
      pending_done_ = true;
      pending_ret_ = ~0ULL;
      break;
    default:
      pending_done_ = true;
      pending_ret_ = 0;
      break;
  }
}

void GuestKernel::OnFsGsLost(hv::VcpuId vcpu) {
  (void)vcpu;
  // Clobbered FS/GS breaks user-level TLS; whether the active process dies
  // depends on what it was doing at the instant of the fault (kernel
  // context and TLS-free stretches survive).
  if (rng_.Chance(0.5)) {
    FailProcess();
  }
}

void GuestKernel::OnMemoryCorrupted(hv::VcpuId vcpu) {
  (void)vcpu;
  memory_corrupted_ = true;
}

void GuestKernel::OnShutdown(hv::VcpuId vcpu) {
  (void)vcpu;
  crashed_ = true;
  crash_reason_ = "domain shut down";
}

void GuestKernel::OnResumedAfterRecovery(hv::VcpuId vcpu) {
  if (!awaiting_) return;
  // If the hypervisor will retry our call, completion arrives later.
  const hv::InFlightRequest& req = hv_.vcpu(vcpu).inflight;
  if (req.needs_retry || req.lost) return;
  // The call committed right at the abandonment boundary: we resume after
  // the trap instruction with a garbage return value.
  awaiting_ = false;
  pending_done_ = true;
  pending_ret_ = 0;
  if (awaiting_syscall_) pending_ret_ = 0;
}

}  // namespace nlh::guest
