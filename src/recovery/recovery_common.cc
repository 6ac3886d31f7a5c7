#include "recovery/recovery_common.h"

namespace nlh::recovery {

const char* RecoveryPhaseName(RecoveryPhase p) {
  switch (p) {
    case RecoveryPhase::kFreeze: return "freeze";
    case RecoveryPhase::kDiscardThreads: return "discard_threads";
    case RecoveryPhase::kAckInterrupts: return "ack_interrupts";
    case RecoveryPhase::kResume: return "resume";
    case RecoveryPhase::kRetrySetup: return "retry_setup";
    case RecoveryPhase::kFrameTableScan: return "frame_table_scan";
    case RecoveryPhase::kClearIrqCount: return "clear_irq_count";
    case RecoveryPhase::kReleaseLocks: return "release_locks";
    case RecoveryPhase::kSchedMetadataRepair: return "sched_metadata_repair";
    case RecoveryPhase::kReactivateTimers: return "reactivate_timers";
    case RecoveryPhase::kReprogramApic: return "reprogram_apic";
    case RecoveryPhase::kPreserveStatics: return "preserve_statics";
    case RecoveryPhase::kEarlyBoot: return "early_boot";
    case RecoveryPhase::kCpusOnline: return "cpus_online";
    case RecoveryPhase::kApicSetup: return "apic_setup";
    case RecoveryPhase::kTscCalibrate: return "tsc_calibrate";
    case RecoveryPhase::kRecordOldHeap: return "record_old_heap";
    case RecoveryPhase::kReinitFrameDescriptors: return "reinit_frame_descriptors";
    case RecoveryPhase::kRecreateHeap: return "recreate_heap";
    case RecoveryPhase::kSmpInit: return "smp_init";
    case RecoveryPhase::kRelocateModules: return "relocate_modules";
    case RecoveryPhase::kMiscOthers: return "misc_others";
    case RecoveryPhase::kSnapshotCapture: return "snapshot_capture";
    case RecoveryPhase::kRollback: return "rollback";
    case RecoveryPhase::kReplayInFlight: return "replay_in_flight";
    case RecoveryPhase::kPrivVmRingRepair: return "privvm_ring_repair";
    case RecoveryPhase::kPrivVmBackendRebuild: return "privvm_backend_rebuild";
    case RecoveryPhase::kPrivVmKernelReset: return "privvm_kernel_reset";
  }
  return "?";
}

RecoveryReport RecoveryMechanism::Recover(const hv::DetectionEvent& event) {
  RecoveryReport report;
  report.detected_at = hv_.Now();
  report.kind = event.kind;

  // The root span [detected_at, resumed_at]; its steps record inside it.
  forensics::FlightRecorder& recorder = hv_.flight_recorder();
  const std::uint64_t root = recorder.OpenSpan();
  const auto close_root = [&](sim::Duration length) {
    if (root == 0) return;  // recording off
    recorder.CloseSpan(root, {.at = report.detected_at,
                              .dur = length,
                              .kind = forensics::EventKind::kRecovery,
                              .cpu = event.cpu,
                              .detail = Name()});
  };
  steps::StepRecorder rec(hv_, report, event.cpu);

  // The recovery routine itself depends on hypervisor state (IDT entries,
  // the recovery handler's own data); if the fault corrupted that state the
  // routine never gets to run (Section VII-A failure reason 1).
  if (!hv_.recovery_path_ok()) {
    report.gave_up = true;
    report.give_up_code = hv::FailureReason::kRecoveryPathCorrupted;
    report.give_up_reason = "recovery routine could not be invoked";
    hv_.MarkDead(report.give_up_code, report.give_up_reason);
    close_root(0);
    return report;
  }

  // Who was running at detection, read before any repair touches
  // percpu.curr.
  const std::vector<hv::VcpuId> running = steps::RunningVcpus(hv_);
  if (enh_.save_fs_gs) steps::SaveFsGs(hv_, running);

  const bool reprogram_apics = Repair(event.cpu, report.detected_at, rec);

  // Resume at detection + total latency.
  report.resumed_at = report.detected_at + report.total();
  close_root(report.total());
  hv_.ResumeAfterRecovery(report.resumed_at, reprogram_apics);
  hv_.platform().queue().ScheduleAt(report.resumed_at, [this, running] {
    steps::NotifyGuestsAfterResume(hv_, running);
  });
  return report;
}

}  // namespace nlh::recovery

namespace nlh::recovery::steps {

std::vector<hv::VcpuId> RunningVcpus(hv::Hypervisor& hv) {
  std::vector<hv::VcpuId> running;
  for (const hv::PerCpuData& pc : hv.percpu()) {
    if (pc.curr != hv::kInvalidVcpu &&
        pc.curr < static_cast<hv::VcpuId>(hv.vcpus().size())) {
      running.push_back(pc.curr);
    }
  }
  return running;
}

void SaveFsGs(hv::Hypervisor& hv, const std::vector<hv::VcpuId>& running) {
  for (hv::VcpuId v : running) {
    hv::Vcpu& vc = hv.vcpu(v);
    vc.ctx.fs_gs_valid = true;
  }
}

RetrySetupStats SetupRequestRetries(hv::Hypervisor& hv,
                                    const EnhancementSet& enh) {
  RetrySetupStats stats;
  for (hv::Vcpu& vc : hv.vcpus()) {
    hv::InFlightRequest& req = vc.inflight;
    if (!req.active) continue;
    req.active = false;

    if (req.is_vmexit) {
      // HVM: the exit is re-delivered architecturally regardless of the
      // retry enhancement; the undo log still needs the mitigation flag.
      if (enh.nonidem_mitigation) {
        stats.undo_records_replayed += static_cast<int>(req.undo.size());
        req.undo.UnwindAll();
      } else {
        req.undo.Clear();
      }
      req.needs_retry = true;
      ++stats.hypercalls_retried;
      continue;
    }

    if (req.is_syscall) {
      if (enh.syscall_retry) {
        req.needs_retry = true;
        ++stats.syscalls_retried;
      } else {
        req.lost = true;
        ++stats.requests_lost;
      }
      continue;
    }

    if (!enh.hypercall_retry) {
      req.lost = true;
      req.undo.Clear();
      ++stats.requests_lost;
      continue;
    }
    if (enh.nonidem_mitigation) {
      stats.undo_records_replayed += static_cast<int>(req.undo.size());
      req.undo.UnwindAll();  // restore logged critical variables
    } else {
      req.undo.Clear();  // partial mutations stay; retry double-applies
    }
    if (!enh.batched_retry_fine) {
      // Without per-component completion logging the whole batch re-runs.
      req.multicall_progress = 0;
    }
    req.needs_retry = true;
    ++stats.hypercalls_retried;
  }
  return stats;
}

void NotifyGuestsAfterResume(hv::Hypervisor& hv,
                             const std::vector<hv::VcpuId>& was_running) {
  // Lost requests: the guest sees a garbage return value.
  for (hv::Vcpu& vc : hv.vcpus()) {
    if (!vc.inflight.lost) continue;
    vc.inflight.lost = false;
    hv::Domain* dom = hv.FindDomain(vc.domain);
    if (dom != nullptr && dom->guest != nullptr) {
      dom->guest->OnHypercallLost(vc.id, vc.inflight.code,
                                  vc.inflight.is_syscall);
    }
  }
  // FS/GS loss: vCPUs that were running at detection resume with clobbered
  // segment bases unless recovery saved them.
  for (hv::VcpuId v : was_running) {
    hv::Vcpu& vc = hv.vcpu(v);
    if (vc.ctx.fs_gs_valid) {
      vc.ctx.fs_gs_valid = false;  // consumed
      continue;
    }
    hv::Domain* dom = hv.FindDomain(vc.domain);
    if (dom != nullptr && dom->guest != nullptr) {
      dom->guest->OnFsGsLost(v);
    }
  }
  // Generic resume notification (e.g. a hypercall that committed at the
  // abandonment boundary looks returned-with-garbage to its guest).
  for (hv::Vcpu& vc : hv.vcpus()) {
    hv::Domain* dom = hv.FindDomain(vc.domain);
    if (dom != nullptr && dom->guest != nullptr && dom->alive()) {
      dom->guest->OnResumedAfterRecovery(vc.id);
    }
  }
}

}  // namespace nlh::recovery::steps
