// Integration tests for the hypervisor core: boot, domains, hypercalls,
// undo logging, multicall progress, events, scheduling, IRQ accounting.
#include <gtest/gtest.h>

#include "audit/state_auditor.h"
#include "hv/hypervisor.h"
#include "hv/panic.h"

namespace nlh::hv {
namespace {

class HypervisorTest : public ::testing::Test {
 protected:
  HypervisorTest()
      : platform_(MakePlatformConfig(), 1), hv_(platform_, HvConfig{}) {
    hv_.Boot();
    dom_ = hv_.CreateDomainDirect("test", /*privileged=*/false, /*cpu=*/1, 32);
    priv_ = hv_.CreateDomainDirect("dom0", /*privileged=*/true, /*cpu=*/0, 32);
    hv_.StartDomain(dom_);
    hv_.StartDomain(priv_);
    vcpu_ = hv_.FindDomain(dom_)->vcpus.front();
    pvcpu_ = hv_.FindDomain(priv_)->vcpus.front();
    // Mark them running so hypercalls execute in a realistic context.
    OpContext ctx(platform_, platform_.cpu(1), hv_.options(),
                  HvContextKind::kSchedule, nullptr, nullptr);
    hv_.Schedule(ctx, 1);
    OpContext ctx0(platform_, platform_.cpu(0), hv_.options(),
                   HvContextKind::kSchedule, nullptr, nullptr);
    hv_.Schedule(ctx0, 0);
  }

  static hw::PlatformConfig MakePlatformConfig() {
    hw::PlatformConfig cfg;
    cfg.num_cpus = 4;
    cfg.memory_gib = 1;
    return cfg;
  }

  std::uint64_t Call(VcpuId v, HypercallCode code, std::uint64_t a0 = 0,
                     std::uint64_t a1 = 0) {
    HypercallArgs a;
    a.arg0 = a0;
    a.arg1 = a1;
    return hv_.Hypercall(v, code, a);
  }

  hw::Platform platform_;
  Hypervisor hv_;
  DomainId dom_ = kInvalidDomain;
  DomainId priv_ = kInvalidDomain;
  VcpuId vcpu_ = kInvalidVcpu;
  VcpuId pvcpu_ = kInvalidVcpu;
};

TEST_F(HypervisorTest, BootEstablishesTimersAndLocks) {
  // Recurring system timers exist per CPU and the APICs are armed.
  for (int c = 0; c < platform_.num_cpus(); ++c) {
    EXPECT_TRUE(hv_.timers(c).ContainsName("watchdog_tick"));
    EXPECT_TRUE(hv_.timers(c).ContainsName("time_sync"));
    EXPECT_TRUE(platform_.apic(c).armed());
  }
  // Static locks registered: 5 globals + one sched lock per CPU.
  EXPECT_EQ(hv_.static_locks().size(), 5u + 4u);
}

TEST_F(HypervisorTest, DomainCreationAllocatesResources) {
  Domain* d = hv_.FindDomain(dom_);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->num_frames, 32u);
  EXPECT_NE(hv_.heap().LockOf(d->struct_obj), nullptr);
  EXPECT_NE(hv_.heap().LockOf(d->grant_obj), nullptr);
  EXPECT_NE(hv_.heap().LockOf(d->evtchn_obj), nullptr);
  // Port 0 reserved for the timer virq.
  EXPECT_EQ(d->evtchn.At(0).state, ChannelState::kVirq);
}

TEST_F(HypervisorTest, XenVersionHypercall) {
  EXPECT_EQ(Call(vcpu_, HypercallCode::kXenVersion), 40002u);
  EXPECT_EQ(hv_.stats().hypercalls, 1u);
  // Commit: nothing in flight afterwards.
  EXPECT_FALSE(hv_.vcpu(vcpu_).inflight.active);
}

TEST_F(HypervisorTest, MmuUpdateBalancesRefcounts) {
  Domain* d = hv_.FindDomain(dom_);
  const FrameNumber f = d->first_frame + 3;
  const std::int32_t before = hv_.frames().desc(f).use_count;
  Call(vcpu_, HypercallCode::kMmuUpdate, 3, 1);  // map
  EXPECT_EQ(hv_.frames().desc(f).use_count, before + 1);
  Call(vcpu_, HypercallCode::kMmuUpdate, 3, 0);  // unmap
  EXPECT_EQ(hv_.frames().desc(f).use_count, before);
  // No locks left held.
  EXPECT_EQ(hv_.heap().HeldLockCount(), 0);
}

TEST_F(HypervisorTest, PinUnpinSetsValidation) {
  Domain* d = hv_.FindDomain(dom_);
  const FrameNumber f = d->first_frame + 7;
  Call(vcpu_, HypercallCode::kPageTablePin, 7);
  EXPECT_TRUE(hv_.frames().desc(f).validated);
  EXPECT_EQ(hv_.frames().desc(f).type, FrameType::kPageTable);
  Call(vcpu_, HypercallCode::kPageTableUnpin, 7);
  EXPECT_FALSE(hv_.frames().desc(f).validated);
  EXPECT_EQ(hv_.frames().CountInconsistent(), 0u);
}

TEST_F(HypervisorTest, DoublePinPanics) {
  Call(vcpu_, HypercallCode::kPageTablePin, 7);
  EXPECT_THROW(Call(vcpu_, HypercallCode::kPageTablePin, 7), HvPanic);
}

TEST_F(HypervisorTest, MemoryOpGrowsAndShrinks) {
  Domain* d = hv_.FindDomain(dom_);
  const std::uint64_t before = hv_.frames().allocated_frames();
  Call(vcpu_, HypercallCode::kMemoryOpIncrease, 4);
  EXPECT_EQ(d->extra_frames.size(), 4u);
  EXPECT_EQ(hv_.frames().allocated_frames(), before + 4);
  Call(vcpu_, HypercallCode::kMemoryOpDecrease, 4);
  EXPECT_TRUE(d->extra_frames.empty());
  EXPECT_EQ(hv_.frames().allocated_frames(), before);
}

TEST_F(HypervisorTest, GrantMapCopyUnmapFlow) {
  Domain* d = hv_.FindDomain(dom_);
  const FrameNumber frame = d->first_frame + 1;
  const GrantRef ref = d->grants.TryGrant(priv_, frame);
  ASSERT_NE(ref, kInvalidGrant);
  const std::int32_t before = hv_.frames().desc(frame).use_count;

  Call(pvcpu_, HypercallCode::kGrantMap, static_cast<std::uint64_t>(dom_),
       static_cast<std::uint64_t>(ref));
  EXPECT_EQ(d->grants.At(ref).map_count, 1);
  EXPECT_EQ(hv_.frames().desc(frame).use_count, before + 1);

  Call(pvcpu_, HypercallCode::kGrantCopy, static_cast<std::uint64_t>(dom_),
       static_cast<std::uint64_t>(ref));
  EXPECT_EQ(d->grants.At(ref).xfer_count, 1);

  Call(pvcpu_, HypercallCode::kGrantUnmap, static_cast<std::uint64_t>(dom_),
       static_cast<std::uint64_t>(ref));
  EXPECT_EQ(d->grants.At(ref).map_count, 0);
  EXPECT_EQ(hv_.frames().desc(frame).use_count, before);
  d->grants.Revoke(ref);
}

TEST_F(HypervisorTest, EventChannelBindAndSend) {
  Domain* a = hv_.FindDomain(dom_);
  Domain* p = hv_.FindDomain(priv_);
  const EventPort pa = a->evtchn.AllocUnbound(priv_, vcpu_);
  const EventPort pp = p->evtchn.AllocUnbound(dom_, pvcpu_);
  a->evtchn.BindInterdomain(pa, priv_, pp);
  p->evtchn.BindInterdomain(pp, dom_, pa);

  Call(vcpu_, HypercallCode::kEventChannelSend,
       static_cast<std::uint64_t>(pa));
  EXPECT_TRUE(hv_.vcpu(pvcpu_).pending_events & (1ULL << pp));
  const std::uint64_t bits = hv_.ConsumePendingEvents(pvcpu_);
  EXPECT_NE(bits & (1ULL << pp), 0u);
  EXPECT_EQ(hv_.vcpu(pvcpu_).pending_events, 0u);
}

TEST_F(HypervisorTest, SendOnUnboundPortPanics) {
  EXPECT_THROW(Call(vcpu_, HypercallCode::kEventChannelSend, 9), HvPanic);
}

TEST_F(HypervisorTest, BlockRefusedWithPendingEvents) {
  hv_.vcpu(vcpu_).pending_events = 0x2;
  EXPECT_EQ(Call(vcpu_, HypercallCode::kSchedOpBlock), 1u);
  EXPECT_EQ(hv_.vcpu(vcpu_).state, VcpuState::kRunning);
}

TEST_F(HypervisorTest, BlockAndWake) {
  EXPECT_EQ(Call(vcpu_, HypercallCode::kSchedOpBlock), 0u);
  EXPECT_EQ(hv_.vcpu(vcpu_).state, VcpuState::kBlocked);
  hv_.WakeVcpu(vcpu_);
  EXPECT_EQ(hv_.vcpu(vcpu_).state, VcpuState::kRunnable);
  EXPECT_TRUE(hv_.vcpu(vcpu_).rq_queued);
}

TEST_F(HypervisorTest, SetTimerArmsVtimerAndVirqFires) {
  const sim::Time deadline = hv_.Now() + sim::Milliseconds(5);
  Call(vcpu_, HypercallCode::kSetTimerOp,
       static_cast<std::uint64_t>(deadline));
  EXPECT_EQ(hv_.vcpu(vcpu_).vtimer_deadline, deadline);
  EXPECT_TRUE(hv_.timers(1).ContainsName("vtimer:" + std::to_string(vcpu_)));
  // Drive the platform past the deadline; the virq should be delivered.
  platform_.queue().RunUntil(deadline + sim::Milliseconds(2));
  EXPECT_NE(hv_.vcpu(vcpu_).pending_events & 1ULL, 0u);
  EXPECT_EQ(hv_.vcpu(vcpu_).vtimer_deadline, 0);
}

TEST_F(HypervisorTest, PrivilegedCallFromAppVmPanics) {
  EXPECT_THROW(Call(vcpu_, HypercallCode::kDomctlCreate, 2, 16), HvPanic);
}

TEST_F(HypervisorTest, DomctlCreateMakesUsableDomain) {
  const std::uint64_t id = Call(pvcpu_, HypercallCode::kDomctlCreate, 2, 16);
  Domain* nd = hv_.FindDomain(static_cast<DomainId>(id));
  ASSERT_NE(nd, nullptr);
  EXPECT_EQ(nd->num_frames, 16u);
  Call(pvcpu_, HypercallCode::kDomctlUnpause, id);
  EXPECT_EQ(nd->lifecycle, DomainLifecycle::kRunning);
  EXPECT_EQ(hv_.vcpu(nd->vcpus.front()).state, VcpuState::kRunnable);
}

TEST_F(HypervisorTest, MulticallRunsAllComponents) {
  HypercallArgs a;
  for (int i = 0; i < 4; ++i) {
    MulticallEntry e;
    e.code = HypercallCode::kMmuUpdate;
    e.arg0 = static_cast<std::uint64_t>(i);
    e.arg1 = 1;  // map
    a.batch.push_back(e);
  }
  hv_.Hypercall(vcpu_, HypercallCode::kMulticall, a);
  Domain* d = hv_.FindDomain(dom_);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(hv_.frames().desc(d->first_frame + static_cast<FrameNumber>(i)).use_count, 2);
  }
}

TEST_F(HypervisorTest, MulticallProgressSkipsCompleted) {
  // Pretend a retry with 2 of 4 components already completed.
  Vcpu& vc = hv_.vcpu(vcpu_);
  HypercallArgs a;
  for (int i = 0; i < 4; ++i) {
    MulticallEntry e;
    e.code = HypercallCode::kMmuUpdate;
    e.arg0 = static_cast<std::uint64_t>(i);
    e.arg1 = 1;
    a.batch.push_back(e);
  }
  vc.inflight.code = HypercallCode::kMulticall;
  vc.inflight.args = a;
  vc.inflight.multicall_progress = 2;
  vc.inflight.needs_retry = true;
  // Execute the retry path directly.
  OpContext ctx(platform_, platform_.cpu(1), hv_.options(),
                HvContextKind::kHypercall, &vc, &vc.inflight.undo);
  vc.inflight.active = true;
  hv_.Dispatch(ctx, vc, HypercallCode::kMulticall, a);
  Domain* d = hv_.FindDomain(dom_);
  // Components 0,1 skipped; 2,3 executed.
  EXPECT_EQ(hv_.frames().desc(d->first_frame + 0).use_count, 1);
  EXPECT_EQ(hv_.frames().desc(d->first_frame + 2).use_count, 2);
}

TEST_F(HypervisorTest, UndoLogRestoresCriticalVariables) {
  Domain* d = hv_.FindDomain(dom_);
  const FrameNumber f = d->first_frame + 9;
  Vcpu& vc = hv_.vcpu(vcpu_);
  // Run a pin but "abandon" it by unwinding the undo log before commit:
  // simulate by executing the handler body then calling UnwindAll.
  vc.inflight.active = true;
  vc.inflight.undo.Clear();
  OpContext ctx(platform_, platform_.cpu(1), hv_.options(),
                HvContextKind::kHypercall, &vc, &vc.inflight.undo);
  HypercallArgs args;
  args.arg0 = 9;
  hv_.Dispatch(ctx, vc, HypercallCode::kPageTablePin, args);
  EXPECT_TRUE(hv_.frames().desc(f).validated);
  vc.inflight.undo.UnwindAll();  // recovery's mitigation step
  EXPECT_FALSE(hv_.frames().desc(f).validated);
  EXPECT_EQ(hv_.frames().desc(f).use_count, 1);
  EXPECT_EQ(hv_.frames().CountInconsistent(), 0u);
}

TEST_F(HypervisorTest, LoggingDisabledMeansNoUndoRecords) {
  hv_.options().undo_logging = false;
  Vcpu& vc = hv_.vcpu(vcpu_);
  vc.inflight.active = true;
  vc.inflight.undo.Clear();
  OpContext ctx(platform_, platform_.cpu(1), hv_.options(),
                HvContextKind::kHypercall, &vc, &vc.inflight.undo);
  HypercallArgs args;
  args.arg0 = 11;
  hv_.Dispatch(ctx, vc, HypercallCode::kPageTablePin, args);
  EXPECT_TRUE(vc.inflight.undo.empty());
}

TEST_F(HypervisorTest, SyscallForwardTracksInflight) {
  hv_.ForwardedSyscall(vcpu_, 42);
  EXPECT_EQ(hv_.stats().syscall_forwards, 1u);
  EXPECT_FALSE(hv_.vcpu(vcpu_).inflight.active);  // completed
}

TEST_F(HypervisorTest, FreezeIncrementsOtherCpusIrqCount) {
  hv_.FreezeForRecovery(/*detector=*/1);
  EXPECT_TRUE(hv_.frozen());
  EXPECT_EQ(hv_.percpu(1).local_irq_count, 0);  // detecting CPU: no IPI
  EXPECT_EQ(hv_.percpu(0).local_irq_count, 1);
  EXPECT_EQ(hv_.percpu(2).local_irq_count, 1);
  for (int c = 0; c < platform_.num_cpus(); ++c) {
    EXPECT_FALSE(platform_.cpu(c).interrupts_enabled());
  }
}

TEST_F(HypervisorTest, DiscardStacksClearsHungAndResetsStacks) {
  platform_.cpu(2).set_hung(true);
  platform_.cpu(2).hv_stack().top -= 128;
  hv_.DiscardAllHvStacks();
  EXPECT_FALSE(platform_.cpu(2).hung());
  EXPECT_TRUE(platform_.cpu(2).hv_stack().Clean());
}

TEST_F(HypervisorTest, ReactivateReinsertsLostRecurringEvents) {
  hv_.timers(2).RemoveByName("watchdog_tick");
  EXPECT_FALSE(hv_.timers(2).ContainsName("watchdog_tick"));
  const int missing = hv_.ReactivateRecurringEvents();
  EXPECT_EQ(missing, 1);
  EXPECT_TRUE(hv_.timers(2).ContainsName("watchdog_tick"));
  EXPECT_EQ(hv_.ReactivateRecurringEvents(), 0);  // idempotent
}

TEST_F(HypervisorTest, RearmVcpuTimersRestoresLostVtimer) {
  const sim::Time deadline = hv_.Now() + sim::Milliseconds(50);
  Call(vcpu_, HypercallCode::kSetTimerOp,
       static_cast<std::uint64_t>(deadline));
  hv_.timers(1).Clear();  // a reboot-style wipe
  hv_.RearmVcpuTimers();
  EXPECT_TRUE(hv_.timers(1).ContainsName("vtimer:" + std::to_string(vcpu_)));
}

TEST_F(HypervisorTest, ReportWithoutHandlerKillsSystem) {
  hv_.ReportError(0, DetectionKind::kPanic, "test");
  EXPECT_TRUE(hv_.dead());
}

TEST_F(HypervisorTest, AuditCleanAfterNormalActivity) {
  for (int i = 0; i < 20; ++i) {
    Call(vcpu_, HypercallCode::kMmuUpdate, static_cast<std::uint64_t>(i), 1);
    Call(vcpu_, HypercallCode::kMmuUpdate, static_cast<std::uint64_t>(i), 0);
  }
  EXPECT_EQ(audit::StateAuditor(hv_).Audit().CorruptionCount(), 0u);
}

}  // namespace
}  // namespace nlh::hv
