#include "recovery/nilihype.h"

namespace nlh::recovery {

bool NiLiHype::Repair(hw::CpuId cpu, sim::Time detected_at,
                      steps::StepRecorder& rec) {
  // 1. Freeze: disable interrupts on this CPU, IPI all others (their entry
  //    increments the interrupt nesting count), park them in busy waits.
  hv_.FreezeForRecovery(cpu);
  rec.Add(RecoveryPhase::kFreeze, "freeze CPUs (IPIs, disable interrupts)",
          latency::kFreeze);

  // 2. Microreset core: discard every execution thread.
  hv_.DiscardAllHvStacks();
  rec.Add(RecoveryPhase::kDiscardThreads,
          "discard hypervisor execution threads", latency::kNlDiscardThreads);

  // 3. Roll-forward enhancements (Section V-A).
  if (enh_.clear_irq_count) {
    for (hv::PerCpuData& pc : hv_.percpu()) pc.local_irq_count = 0;
    rec.Add(RecoveryPhase::kClearIrqCount, "clear IRQ count",
            latency::kNlClearIrq);
  }
  if (enh_.release_heap_locks || enh_.unlock_static_locks) {
    int released = 0;
    if (enh_.release_heap_locks) released += hv_.heap().ReleaseAllLocks();
    if (enh_.unlock_static_locks) {
      released += hv_.static_locks().ForceReleaseAll();
    }
    rec.Add(RecoveryPhase::kReleaseLocks,
            "release locks (" + std::to_string(released) + " held)",
            latency::kNlReleaseLocks);
  }
  if (enh_.sched_metadata_repair) {
    const int repaired = hv::RepairSchedMetadata(hv_.percpu(), hv_.vcpus());
    rec.Add(RecoveryPhase::kSchedMetadataRepair,
            "scheduling metadata consistency (" + std::to_string(repaired) +
                " fields)",
            latency::kNlSchedRepair);
  }
  if (enh_.hypercall_retry || enh_.syscall_retry) {
    const steps::RetrySetupStats st = steps::SetupRequestRetries(hv_, enh_);
    rec.Add(RecoveryPhase::kRetrySetup,
            "set up hypercall/syscall retry (" +
                std::to_string(st.hypercalls_retried + st.syscalls_retried) +
                " retried, " + std::to_string(st.requests_lost) + " lost)",
            latency::kNlRetrySetup);
  } else {
    steps::SetupRequestRetries(hv_, enh_);  // marks everything lost
  }
  if (enh_.frame_table_scan) {
    hv_.frames().ScanAndRepair();
    rec.Add(RecoveryPhase::kFrameTableScan,
            "restore page-frame descriptor consistency",
            latency::FrameScan(hv_.platform().memory().num_frames(),
                               enh_.frame_scan_parallelism));
  }
  if (enh_.reactivate_recurring) {
    const int reinserted = hv_.ReactivateRecurringEvents();
    hv_.RearmVcpuTimers();
    rec.Add(RecoveryPhase::kReactivateTimers,
            "reactivate recurring timer events (" +
                std::to_string(reinserted) + " missing)",
            latency::kNlReactivate);
  }

  // 4. Ack pending and in-service interrupts shortly after the freeze. An
  //    APIC one-shot that fires before this point is consumed; one firing
  //    later stays latched and is redelivered at resume.
  if (enh_.ack_interrupts) {
    hv_.platform().queue().ScheduleAt(detected_at + latency::kAckDelay,
                                      [this] { hv_.AckAllInterrupts(); });
    rec.Add(RecoveryPhase::kAckInterrupts,
            "acknowledge pending/in-service interrupts",
            sim::Microseconds(20));
  }

  if (enh_.reprogram_apic) {
    rec.Add(RecoveryPhase::kReprogramApic, "reprogram hardware (APIC) timers",
            latency::kNlReprogram);
  }
  rec.Add(RecoveryPhase::kResume, "resume (exit busy waits)",
          latency::kNlResume);
  return enh_.reprogram_apic;
}

}  // namespace nlh::recovery
