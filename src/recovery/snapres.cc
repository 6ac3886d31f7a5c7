#include "recovery/snapres.h"

#include <string>

namespace nlh::recovery {

SnapRes::SnapRes(hv::Hypervisor& hv, const EnhancementSet& enh,
                 sim::Duration period)
    : RecoveryMechanism(hv, enh), period_(period) {
  Capture();
  ScheduleNextCapture();
}

void SnapRes::Capture() {
  snapshot_.Clear();
  sim::StateSaver saver{snapshot_};
  hv_.VisitControlState(saver);
  captured_at_ = hv_.Now();
  ++captures_;

  // The capture cost is runtime overhead, not recovery latency: charge it
  // to CPU 0's cycle accounting (the same counters the Figure-3 hypervisor
  // CPU-overhead measurement sums). Counters are bumped directly, not via
  // the instruction-step hook, so the injector's instruction-counting
  // trigger is unperturbed.
  const std::uint64_t cycles =
      hv_.platform().CyclesForDuration(capture_cost());
  hw::Cpu& cpu0 = hv_.platform().cpu(0);
  cpu0.RetireHvInstructions(cycles);
  cpu0.AccumulateHvCycles(cycles);
  cpu0.AccumulateTotalCycles(cycles);
}

sim::Duration SnapRes::capture_cost() const {
  return latency::PerFrame(latency::kSrCaptureNsPerFrame,
                           hv_.platform().memory().num_frames());
}

void SnapRes::ScheduleNextCapture() {
  if (hv_.dead()) return;
  hv_.platform().queue().ScheduleAfter(period_, [this] {
    if (hv_.dead()) return;
    // Mid-recovery epochs are skipped, not captured: the frozen state is
    // exactly what a rollback must not re-institute.
    if (!hv_.frozen()) Capture();
    ScheduleNextCapture();
  });
}

bool SnapRes::Repair(hw::CpuId cpu, sim::Time detected_at,
                     steps::StepRecorder& rec) {
  const std::uint64_t frames = hv_.platform().memory().num_frames();

  // 1. Freeze, exactly as NiLiHype: IPI all CPUs, park them in busy waits.
  hv_.FreezeForRecovery(cpu);
  rec.Add(RecoveryPhase::kFreeze, "freeze CPUs (IPIs, disable interrupts)",
          latency::kFreeze);

  // 2. Discard every hypervisor execution thread (microreset core).
  hv_.DiscardAllHvStacks();
  rec.Add(RecoveryPhase::kDiscardThreads,
          "discard hypervisor execution threads", latency::kNlDiscardThreads);

  // 3. Rollback: copy the last control-state snapshot back in place.
  //    prune_new=false keeps structures allocated after the capture (live
  //    guests and pending events still reference them); the stale snapshot
  //    values of scheduling metadata and timer state are reconciled by the
  //    roll-forward steps below. Locks roll back to the capture-time state,
  //    which is quiescent (captures run between events), so every lock the
  //    failed thread held comes back free.
  snapshot_.Rewind();
  sim::StateLoader loader{snapshot_, /*prune_new=*/false};
  hv_.VisitControlState(loader);
  rec.Add(RecoveryPhase::kRollback,
          "roll back control state to snapshot (age " +
              std::to_string(sim::ToMillisF(detected_at - captured_at_)) +
              " ms)",
          latency::PerFrame(latency::kSrRollbackNsPerFrame, frames));

  // 4. Reconcile the preserved guest-facing state against the rolled-back
  //    control state. Scheduling metadata is rebuilt from the live vCPU
  //    array (mandatory: the rolled-back run queues are stale, not merely
  //    possibly-corrupted as under NiLiHype).
  const int repaired = hv::RepairSchedMetadata(hv_.percpu(), hv_.vcpus());
  rec.Add(RecoveryPhase::kSchedMetadataRepair,
          "rebuild scheduling metadata from preserved vCPUs (" +
              std::to_string(repaired) + " fields)",
          latency::kNlSchedRepair);

  // In-flight requests are *current-timeline* state: their undo logs are
  // replayed so guest-visible critical variables reflect the request
  // boundary, then retries are armed — NiLiHype's machinery, reused.
  const steps::RetrySetupStats st = steps::SetupRequestRetries(hv_, enh_);
  rec.Add(RecoveryPhase::kReplayInFlight,
          "replay undo logs, re-arm in-flight requests (" +
              std::to_string(st.undo_records_replayed) + " records, " +
              std::to_string(st.hypercalls_retried + st.syscalls_retried) +
              " retried, " + std::to_string(st.requests_lost) + " lost)",
          latency::kSrReplayInflight);

  if (enh_.frame_table_scan) {
    hv_.frames().ScanAndRepair();
    rec.Add(RecoveryPhase::kFrameTableScan,
            "restore page-frame descriptor consistency",
            latency::FrameScan(frames, enh_.frame_scan_parallelism));
  }

  // Timer wheels rolled back to the snapshot: recurring events that fired
  // since the capture must be re-inserted and vCPU one-shots re-derived
  // from the preserved vCPU deadlines. Mandatory for snapres.
  const int reinserted = hv_.ReactivateRecurringEvents();
  hv_.RearmVcpuTimers();
  rec.Add(RecoveryPhase::kReactivateTimers,
          "reactivate recurring timer events (" + std::to_string(reinserted) +
              " missing)",
          latency::kNlReactivate);

  // 5. Ack pending/in-service interrupts shortly after the freeze, then
  //    reprogram the APICs from the rolled-back (now reconciled) timer
  //    state — both intrinsic to the mechanism, not enhancement-gated.
  hv_.platform().queue().ScheduleAt(detected_at + latency::kAckDelay,
                                    [this] { hv_.AckAllInterrupts(); });
  rec.Add(RecoveryPhase::kAckInterrupts,
          "acknowledge pending/in-service interrupts", sim::Microseconds(20));
  rec.Add(RecoveryPhase::kReprogramApic, "reprogram hardware (APIC) timers",
          latency::kNlReprogram);
  rec.Add(RecoveryPhase::kResume, "resume (exit busy waits)",
          latency::kNlResume);
  return true;
}

}  // namespace nlh::recovery
