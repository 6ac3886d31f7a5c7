#include "hv/hypercall_defs.h"

namespace nlh::hv {

std::string_view HypercallName(HypercallCode c) {
  switch (c) {
    case HypercallCode::kMmuUpdate: return "mmu_update";
    case HypercallCode::kPageTablePin: return "pt_pin";
    case HypercallCode::kPageTableUnpin: return "pt_unpin";
    case HypercallCode::kUpdateVaMapping: return "update_va_mapping";
    case HypercallCode::kMemoryOpIncrease: return "memory_op_increase";
    case HypercallCode::kMemoryOpDecrease: return "memory_op_decrease";
    case HypercallCode::kGrantMap: return "grant_map";
    case HypercallCode::kGrantUnmap: return "grant_unmap";
    case HypercallCode::kGrantCopy: return "grant_copy";
    case HypercallCode::kEventChannelSend: return "evtchn_send";
    case HypercallCode::kEventChannelAllocUnbound: return "evtchn_alloc_unbound";
    case HypercallCode::kEventChannelBindInterdomain: return "evtchn_bind";
    case HypercallCode::kEventChannelClose: return "evtchn_close";
    case HypercallCode::kSchedOpYield: return "sched_yield";
    case HypercallCode::kSchedOpBlock: return "sched_block";
    case HypercallCode::kSchedOpShutdown: return "sched_shutdown";
    case HypercallCode::kSetTimerOp: return "set_timer_op";
    case HypercallCode::kConsoleIo: return "console_io";
    case HypercallCode::kDomctlCreate: return "domctl_create";
    case HypercallCode::kDomctlDestroy: return "domctl_destroy";
    case HypercallCode::kDomctlUnpause: return "domctl_unpause";
    case HypercallCode::kVcpuOpUp: return "vcpu_op_up";
    case HypercallCode::kXenVersion: return "xen_version";
    case HypercallCode::kMulticall: return "multicall";
    case HypercallCode::kPhysdevOp: return "physdev_op";
    case HypercallCode::kCount: break;
  }
  return "?";
}

namespace {

constexpr std::array<HypercallTraits, kNumHypercalls> BuildTraits() {
  std::array<HypercallTraits, kNumHypercalls> t{};
  auto set = [](HypercallTraits& tr, bool idem, bool enhanced,
                double tolerated, bool priv) {
    tr.idempotent = idem;
    tr.retry_enhanced = enhanced;
    tr.lost_tolerated = tolerated;
    tr.priv_only = priv;
  };
  auto at = [&t](HypercallCode c) -> HypercallTraits& {
    return t[static_cast<std::size_t>(c)];
  };

  // Memory-management calls: losing one leaves the guest kernel's view of
  // its page tables out of sync with reality; Linux BUG()s on most of these
  // error paths.
  set(at(HypercallCode::kMmuUpdate), false, true, 0.05, false);
  set(at(HypercallCode::kPageTablePin), false, true, 0.05, false);
  set(at(HypercallCode::kPageTableUnpin), false, true, 0.10, false);
  set(at(HypercallCode::kUpdateVaMapping), false, true, 0.20, false);
  set(at(HypercallCode::kMemoryOpIncrease), false, true, 0.10, false);
  set(at(HypercallCode::kMemoryOpDecrease), false, true, 0.10, false);

  // Grant operations: blkback/netback check return codes; a lost map/copy
  // becomes an I/O error surfaced to the frontend (benchmark failure), but
  // it occasionally falls in a slot the backend retries on its own.
  // grant_copy is one of the "infrequently-used non-idempotent handlers we
  // have not properly enhanced" (Section IV).
  set(at(HypercallCode::kGrantMap), false, true, 0.25, false);
  set(at(HypercallCode::kGrantUnmap), false, true, 0.30, false);
  set(at(HypercallCode::kGrantCopy), false, /*enhanced=*/false, 0.25, false);

  // Event-channel send: losing a notification may or may not matter — ring
  // consumers re-check producer indices on their next kick. Setup/teardown
  // calls are rare and fatal-ish if lost mid-boot.
  set(at(HypercallCode::kEventChannelSend), true, true, 0.60, false);
  set(at(HypercallCode::kEventChannelAllocUnbound), false, true, 0.20, false);
  set(at(HypercallCode::kEventChannelBindInterdomain), false, true, 0.20, false);
  set(at(HypercallCode::kEventChannelClose), false, true, 0.50, false);

  // Scheduling calls: fully tolerable if lost — the guest simply runs again
  // and re-issues (a lost block looks like a spurious wakeup).
  set(at(HypercallCode::kSchedOpYield), true, true, 1.0, false);
  set(at(HypercallCode::kSchedOpBlock), true, true, 1.0, false);
  set(at(HypercallCode::kSchedOpShutdown), true, true, 0.9, false);
  set(at(HypercallCode::kSetTimerOp), true, true, 0.95, false);
  set(at(HypercallCode::kConsoleIo), true, true, 1.0, false);

  // Toolstack operations (PrivVM only): complex, multi-step, not fully
  // enhanced; a lost domain-create wedges the toolstack.
  set(at(HypercallCode::kDomctlCreate), false, /*enhanced=*/false, 0.10, true);
  set(at(HypercallCode::kDomctlDestroy), false, /*enhanced=*/false, 0.10, true);
  set(at(HypercallCode::kDomctlUnpause), true, true, 0.50, true);
  set(at(HypercallCode::kVcpuOpUp), true, true, 0.50, true);

  set(at(HypercallCode::kXenVersion), true, true, 1.0, false);
  set(at(HypercallCode::kMulticall), false, true, 0.05, false);
  set(at(HypercallCode::kPhysdevOp), false, /*enhanced=*/false, 0.30, true);
  return t;
}

}  // namespace

constexpr std::array<HypercallTraits, kNumHypercalls> kHypercallTraits =
    BuildTraits();

}  // namespace nlh::hv
