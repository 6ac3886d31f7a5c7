// The state-audit engine: a sweep over every recovery-critical hypervisor
// structure that emits typed findings (finding.h) instead of panicking.
//
// The recovery mechanisms restore *internal* consistency (e.g. the frame
// scan makes the validation bit, type, and use counter of each descriptor
// agree with each other) but cannot restore *referential* consistency —
// whether the use counter matches the references that actually exist in
// page tables and grant entries. The auditor checks both, which is what
// lets a campaign split "successful recovery" into audit-clean vs
// latent-corruption (the residual-failure class the ReHype follow-up
// analysis identifies).
//
// The auditor must be runnable on an arbitrarily-damaged platform without
// itself panicking or hanging: every walk it performs is bounded and
// validity-checked (it uses FreeChunkExtents(), not the throwing free-list
// walk; it skips runqueue reachability on a runqueue whose linkage already
// failed validation). It runs at event-queue boundaries — a quiescent
// instant with no handler mid-flight — so held locks and nonzero IRQ
// nesting are findings, not transient states; both checks are skipped when
// the platform is frozen for recovery.
//
// Audit cost is modeled, not free: each pass charges a per-entry cost into
// AuditReport::modeled_cost and records an audit_pass span inside the
// sweep's audit_sweep span (flight recorder), so campaigns can account
// audit overhead alongside recovery latency.
#pragma once

#include <vector>

#include "audit/finding.h"
#include "audit/snapshot.h"
#include "guest/appvm.h"
#include "guest/privvm.h"
#include "hv/hypervisor.h"

namespace nlh::audit {

class StateAuditor {
 public:
  explicit StateAuditor(hv::Hypervisor& hv) : hv_(hv) {}

  StateAuditor(const StateAuditor&) = delete;
  StateAuditor& operator=(const StateAuditor&) = delete;

  // Guest context for the component-level passes (privvm_backend, io_ring):
  // the PrivVM backend and the frontends whose driver bookkeeping is the
  // ground truth the backend state is checked against. Without context the
  // two passes do not run, so hypervisor-only audits are unchanged.
  void SetGuestContext(guest::PrivVmKernel* privvm,
                       std::vector<guest::AppVmKernel*> frontends) {
    privvm_ = privvm;
    frontends_ = std::move(frontends);
  }

  // Full sweep over every subsystem.
  AuditReport Audit();
  // Full sweep plus differential findings against a golden snapshot
  // (divergence classes are informational; functional invariants decide
  // cleanliness).
  AuditReport Audit(const GoldenSnapshot& snapshot);

  // The pass for one subsystem: appends its findings and charges its
  // modeled cost into `r`. kDiff compares against `snapshot` and does
  // nothing without one; the guest-context passes need SetGuestContext.
  void RunPass(AuditSubsystem subsystem, AuditReport& r,
               const GoldenSnapshot* snapshot = nullptr);

  // Individual passes, exposed so tests can exercise one subsystem's
  // invariants in isolation. Each appends findings and charges its modeled
  // cost into `r`.
  void AuditFrameTable(AuditReport& r);
  void AuditHeap(AuditReport& r);
  void AuditTimers(AuditReport& r);
  void AuditScheduler(AuditReport& r);
  void AuditLocks(AuditReport& r);
  void AuditEventChannels(AuditReport& r);
  void AuditGrantTables(AuditReport& r);
  void AuditPerCpu(AuditReport& r);
  void AuditStatics(AuditReport& r);
  void AuditDiff(AuditReport& r, const GoldenSnapshot& snapshot);
  // Guest-context passes; no-ops until SetGuestContext is called.
  void AuditPrivVmBackend(AuditReport& r);
  void AuditIoRings(AuditReport& r);

 private:
  AuditReport Run(const GoldenSnapshot* snapshot);
  void Emit(AuditReport& r, AuditSubsystem subsystem, const char* invariant,
            AuditSeverity severity, std::string detail);

  hv::Hypervisor& hv_;
  guest::PrivVmKernel* privvm_ = nullptr;
  std::vector<guest::AppVmKernel*> frontends_;
};

}  // namespace nlh::audit
