// PrivVM (Dom0) component recovery.
//
// The hypervisor mechanisms (NiLiHype / ReHype / SnapRes) repair the
// hypervisor; a fault that damaged the PrivVM itself — its kernel state,
// the backend request pipeline, or the shared I/O rings — survives them as
// latent damage (ReHype tech report §PrivVM: recovery must extend beyond
// the VMM). This component path reconstructs the backend side of the
// paravirtual I/O plane from what provably survives:
//
//   - the shared rings live in guest memory: entries are ground truth,
//     producer/consumer indices are repairable against them,
//   - the frontends' driver bookkeeping (outstanding-I/O tables) names
//     every request that was ever submitted and not yet answered,
//   - the grant tables carry per-entry map/transfer evidence of how far
//     the dead backend got with each request.
//
// The repair is evidence-driven: a lost request whose grant shows a
// completed transfer is answered directly (the data already moved); one
// with no transfer is re-queued for the rebuilt backend to execute. It
// composes with any hypervisor mechanism — the core layer runs
// it after the mechanism's resume point for correlated failures, or alone
// for PrivVM-only failures.
#pragma once

#include <cstdint>
#include <vector>

#include "guest/appvm.h"
#include "guest/privvm.h"
#include "hv/hypervisor.h"
#include "recovery/recovery_common.h"

namespace nlh::recovery {

// What one PrivVM recovery pass actually repaired (diagnostics + audit
// cross-checks + the EXPERIMENTS.md table).
struct PrivVmRepairStats {
  int rings_resynced = 0;          // counter/window repairs (RepairCounters)
  int duplicates_dropped = 0;      // duplicate ring requests/responses removed
  int grants_unmapped = 0;         // leaked backend mappings force-released
  int inflight_requeued = 0;       // in-flight/lost requests re-queued
  int responses_synthesized = 0;   // completed-from-evidence responses
  bool kernel_reset = false;

  template <typename V>
  void VisitState(V&& v) {
    v(rings_resynced);
    v(duplicates_dropped);
    v(grants_unmapped);
    v(inflight_requeued);
    v(responses_synthesized);
    v(kernel_reset);
  }
};

class PrivVmRecovery {
 public:
  PrivVmRecovery(hv::Hypervisor& hv, guest::PrivVmKernel& privvm)
      : hv_(hv), privvm_(privvm) {}

  // Registers a frontend whose driver state backs the reconstruction.
  void AddFrontend(guest::AppVmKernel* frontend) {
    frontends_.push_back(frontend);
  }
  // Drops every registered frontend; the owner re-registers after a fork
  // restore truncates the VM list the pointers lead into.
  void ClearFrontends() { frontends_.clear(); }

  // Runs the three repair phases (ring repair, backend rebuild, kernel
  // reset) synchronously and wakes the repaired component. The report's
  // timeline starts at event.when — for correlated failures the caller
  // passes the hypervisor mechanism's resume point so the component phases
  // extend the recovery window instead of overlapping it.
  // Returns the report, which it also keeps.
  RecoveryReport Recover(const hv::DetectionEvent& event);

  const std::vector<RecoveryReport>& reports() const { return reports_; }
  int recoveries() const { return static_cast<int>(reports_.size()); }
  const PrivVmRepairStats& last_stats() const { return stats_; }

  // Snapshot/restore (sim/state_image.h) for warm-fork campaign images.
  template <typename V>
  void VisitState(V&& v) {
    v(reports_);
    stats_.VisitState(v);
  }

 private:
  void RepairRings(PrivVmRepairStats& stats);
  void RebuildBackend(PrivVmRepairStats& stats);
  // Either re-queues the request or answers it directly, depending on the
  // grant-table transfer evidence. Returns true if anything was done.
  bool CompleteOrRequeue(guest::BlkRing& ring, const guest::BlkRequest& req,
                         hv::DomainId frontend, PrivVmRepairStats& stats);

  hv::Hypervisor& hv_;
  guest::PrivVmKernel& privvm_;
  std::vector<guest::AppVmKernel*> frontends_;
  std::vector<RecoveryReport> reports_;
  PrivVmRepairStats stats_;
};

}  // namespace nlh::recovery
