#include "recovery/rehype.h"

namespace nlh::recovery {

bool ReHype::Repair(hw::CpuId cpu, sim::Time /*detected_at*/,
                    steps::StepRecorder& rec) {
  const std::uint64_t mem_frames = hv_.platform().memory().num_frames();

  // 1. Freeze; all CPUs except the recovering one halt until SMP re-init.
  hv_.FreezeForRecovery(cpu);
  for (int c = 0; c < hv_.platform().num_cpus(); ++c) {
    if (c != cpu) hv_.platform().cpu(c).set_halted(true);
  }
  rec.Add(RecoveryPhase::kFreeze, "freeze and halt other CPUs", latency::kFreeze);

  // The reboot gives every CPU a fresh hypervisor stack; any spinning
  // execution thread is gone with the old instance.
  hv_.DiscardAllHvStacks();

  // 2. Preserve static data (copy to a safe location), then boot. The boot
  //    re-initializes the whole static segment; the preserved subset is
  //    copied back over it — exactly StaticDataSegment::RebootRestore.
  rec.Add(RecoveryPhase::kPreserveStatics, "preserve static data segments",
          sim::Milliseconds(1));

  // --- Hardware initialization (Table II: 412 ms) --------------------------
  hv_.statics().RebootRestore();
  rec.Add(RecoveryPhase::kEarlyBoot, "early initialization of the boot CPU",
          latency::kRhEarlyBoot);
  rec.Add(RecoveryPhase::kCpusOnline,
          "initialize and wait for other CPUs to come online",
          latency::kRhCpusOnline);
  hv_.platform().intc().ResetAll();
  rec.Add(RecoveryPhase::kApicSetup,
          "verify, connect and set up local APIC / IO-APIC",
          latency::kRhApicSetup);
  rec.Add(RecoveryPhase::kTscCalibrate, "initialize and calibrate TSC timer",
          latency::kRhTscCalibrate);

  // --- Memory initialization (Table II: 266 ms at 8 GB) ----------------------
  rec.Add(RecoveryPhase::kRecordOldHeap, "record allocated pages of old heap",
          latency::PerFrame(latency::kRhRecordHeapNsPerFrame, mem_frames));
  if (enh_.frame_table_scan) {
    hv_.frames().ScanAndRepair();
    rec.Add(RecoveryPhase::kFrameTableScan,
            "restore and check consistency of page frame entries",
            latency::FrameScan(mem_frames, enh_.frame_scan_parallelism));
  }
  rec.Add(RecoveryPhase::kReinitFrameDescriptors,
          "re-initialize page frame descriptors for un-preserved pages",
          latency::PerFrame(latency::kRhReinitDescNsPerFrame, mem_frames));
  hv_.heap().RecreateFreeList();
  rec.Add(RecoveryPhase::kRecreateHeap, "recreate the new heap",
          latency::PerFrame(latency::kRhRecreateHeapNsPerFrame, mem_frames));

  // --- State re-integration / reset --------------------------------------
  // A fresh instance has: zero IRQ nesting, unlocked locks, fresh scheduler
  // and timer subsystem. The reused domain/vCPU state is re-integrated by
  // rebuilding the scheduling metadata around it.
  for (hv::PerCpuData& pc : hv_.percpu()) {
    pc.local_irq_count = 0;
    pc.curr = hv::kInvalidVcpu;  // nothing is running on a fresh instance
    pc.fs_gs_saved = false;
  }
  hv_.heap().ReleaseAllLocks();
  hv_.static_locks().ForceReleaseAll();
  hv::RepairSchedMetadata(hv_.percpu(), hv_.vcpus());
  hv_.RebuildTimerSubsystem();
  hv_.AckAllInterrupts();
  steps::SetupRequestRetries(hv_, enh_);

  // --- Misc (Table II: 35 ms) ------------------------------------------------
  rec.Add(RecoveryPhase::kSmpInit, "SMP initialization", latency::kRhSmpInit);
  rec.Add(RecoveryPhase::kRelocateModules,
          "identify valid page frames, relocate boot modules",
          latency::kRhRelocate);
  rec.Add(RecoveryPhase::kMiscOthers,
          "others (retry setup, lock release, scheduler re-integration)",
          latency::kRhMiscOthers);

  // 3. Resume: the boot reprogrammed every APIC timer.
  return true;
}

}  // namespace nlh::recovery
