// Adversarial tests for the state-audit engine (audit/): every invariant
// the auditor checks gets a test that plants the exact corruption and
// asserts the auditor reports it — and a healthy platform reports nothing.
// Also covers the recovery-path regressions (what NiLiHype/ReHype do and do
// not repair shows up as audit findings) and campaign determinism with the
// audit columns enabled.
#include <gtest/gtest.h>

#include <string>

#include "audit/snapshot.h"
#include "audit/state_auditor.h"
#include "core/campaign.h"
#include "core/target_system.h"
#include "hv/hypervisor.h"
#include "hv/sched_ops.h"
#include "inject/injector.h"
#include "recovery/nilihype.h"
#include "recovery/rehype.h"
#include "sim/rng.h"

namespace nlh {
namespace {

class AuditTest : public ::testing::Test {
 protected:
  AuditTest() : platform_(MakeCfg(), 1), hv_(platform_, hv::HvConfig{}) {
    hv_.Boot();
    dom_ = hv_.CreateDomainDirect("app", false, 1, 32);
    hv_.StartDomain(dom_);
    vcpu_ = hv_.FindDomain(dom_)->vcpus.front();
  }

  static hw::PlatformConfig MakeCfg() {
    hw::PlatformConfig cfg;
    cfg.num_cpus = 4;
    cfg.memory_gib = 8;
    return cfg;
  }

  audit::AuditReport Sweep() {
    audit::StateAuditor auditor(hv_);
    return auditor.Audit();
  }

  hw::Platform platform_;
  hv::Hypervisor hv_;
  hv::DomainId dom_;
  hv::VcpuId vcpu_;
};

// --- Baseline ---------------------------------------------------------------

TEST_F(AuditTest, HealthyPlatformClean) {
  const audit::AuditReport r = Sweep();
  for (const audit::AuditFinding& f : r.findings) {
    ADD_FAILURE() << "unexpected finding " << f.invariant << ": " << f.detail;
  }
  EXPECT_TRUE(r.clean());
  EXPECT_EQ(r.CorruptionCount(), 0);
  EXPECT_GT(r.modeled_cost, 0);
}

TEST_F(AuditTest, EverySweepRecordsOneSpan) {
  hv_.flight_recorder().Enable(hv_.platform().num_cpus());
  const audit::AuditReport r = Sweep();
  Sweep();
  int sweeps = 0;
  int passes = 0;
  for (const forensics::FlightEvent& ev : hv_.flight_recorder().Retained()) {
    if (ev.kind == forensics::EventKind::kAuditSweep) {
      ++sweeps;
      EXPECT_EQ(ev.dur, r.modeled_cost);
    }
    passes += ev.kind == forensics::EventKind::kAuditPass ? 1 : 0;
  }
  EXPECT_EQ(sweeps, 2);
  EXPECT_GE(passes, 2 * integrity::kNumSurfaces);
}

// --- Frame table ------------------------------------------------------------

TEST_F(AuditTest, DetectsInconsistentFrameDescriptor) {
  // Validated bit on a non-page-table frame: the exact inconsistency the
  // recovery frame scan exists to repair.
  hv_.frames().mutable_desc(hv_.FindDomain(dom_)->first_frame).validated = true;
  const audit::AuditReport r = Sweep();
  EXPECT_TRUE(r.HasInvariant("frame.descriptor_consistent"));
  EXPECT_EQ(r.CountFor(audit::AuditSubsystem::kFrameTable), 1);
  EXPECT_EQ(r.findings.front().severity, audit::AuditSeverity::kFatal);
}

TEST_F(AuditTest, DetectsUseCountLeakAndUnderflow) {
  const hv::FrameNumber base = hv_.FindDomain(dom_)->first_frame;
  hv_.frames().mutable_desc(base).use_count += 2;      // leaked references
  hv_.frames().mutable_desc(base + 1).use_count -= 1;  // dropped reference
  const audit::AuditReport r = Sweep();
  EXPECT_EQ(r.CountFor(audit::AuditSubsystem::kFrameTable), 2);
  EXPECT_TRUE(r.HasInvariant("frame.use_count_referential"));
}

TEST_F(AuditTest, UseCountToleratesPinnedRepairSlack) {
  // A pinned page table repaired by the scan holds use_count >= 1 whether
  // or not the pin reference survived: the validated bit widens the
  // acceptable range by one instead of forcing a false positive.
  const hv::FrameNumber f = hv_.FindDomain(dom_)->first_frame;
  hv_.frames().ValidatePageTable(f);  // type=kPageTable, validated, use=1
  EXPECT_TRUE(Sweep().clean());
  hv_.frames().GetPage(f);  // the pin reference itself (use=2)
  EXPECT_TRUE(Sweep().clean());
  hv_.frames().GetPage(f);  // one more is a real leak (use=3)
  EXPECT_TRUE(Sweep().HasInvariant("frame.use_count_referential"));
}

TEST_F(AuditTest, DetectsOrphanedFrameOwner) {
  hv_.frames().mutable_desc(hv_.FindDomain(dom_)->first_frame).owner = 999;
  const audit::AuditReport r = Sweep();
  EXPECT_TRUE(r.HasInvariant("frame.orphaned_owner"));
}

TEST_F(AuditTest, DetectsAllocAccountingDrift) {
  // A stray retype-to-free desynchronizes the allocated counter from the
  // descriptor census.
  hv::PageFrameDescriptor& d =
      hv_.frames().mutable_desc(hv_.FindDomain(dom_)->first_frame);
  d = hv::PageFrameDescriptor{};
  const audit::AuditReport r = Sweep();
  EXPECT_TRUE(r.HasInvariant("frame.alloc_accounting"));
}

// --- Heap -------------------------------------------------------------------

TEST_F(AuditTest, DetectsFreeListCorruptionBothFlavors) {
  hv_.heap().CorruptFreeList(/*fatal=*/true);
  audit::AuditReport r = Sweep();
  EXPECT_TRUE(r.HasInvariant("heap.free_list"));
  EXPECT_EQ(r.findings.front().severity, audit::AuditSeverity::kFatal);

  hv_.heap().RecreateFreeList();
  EXPECT_TRUE(Sweep().clean());

  hv_.heap().CorruptFreeList(/*fatal=*/false);  // cycle flavor
  r = Sweep();
  EXPECT_TRUE(r.HasInvariant("heap.free_list"));
}

TEST_F(AuditTest, DetectsDoubleOwnership) {
  // Shift one object's recorded extent: it now overlaps its neighbor.
  hv_.heap().CorruptObjectExtent(hv_.FindDomain(dom_)->struct_obj);
  const audit::AuditReport r = Sweep();
  EXPECT_TRUE(r.HasInvariant("heap.double_ownership"));
}

TEST_F(AuditTest, DetectsExtentOutsideHeap) {
  // Absorb all remaining free pages into one object, then shift its extent:
  // with nothing after it, the damage is an out-of-bounds extent instead of
  // an overlap.
  const hv::HeapObjectId last =
      hv_.heap().Alloc("scratch", hv_.heap().free_pages());
  hv_.heap().CorruptObjectExtent(last);
  const audit::AuditReport r = Sweep();
  EXPECT_TRUE(r.HasInvariant("heap.extent_bounds"));
  EXPECT_FALSE(r.HasInvariant("heap.double_ownership"));
}

TEST_F(AuditTest, DetectsAccountingCounterDrift) {
  hv_.heap().CorruptAccounting();
  const audit::AuditReport r = Sweep();
  EXPECT_TRUE(r.HasInvariant("heap.accounting"));
}

TEST_F(AuditTest, DetectsRetypedHeapFrame) {
  hv_.frames().mutable_desc(hv_.heap().heap_base()).type =
      hv::FrameType::kDomainPage;
  const audit::AuditReport r = Sweep();
  EXPECT_TRUE(r.HasInvariant("heap.frame_type"));
}

TEST_F(AuditTest, DetectsLeakedDomainObject) {
  // A domain-tagged allocation no domain references: no recovery mechanism
  // will ever free it.
  hv_.heap().Alloc("domain:ghost", 1);
  const audit::AuditReport r = Sweep();
  EXPECT_TRUE(r.HasInvariant("heap.leaked_object"));
  // Non-domain scratch allocations are not leaks in the closed world.
  EXPECT_EQ(r.CountFor(audit::AuditSubsystem::kHeap), 1);
}

// --- Timers -----------------------------------------------------------------

TEST_F(AuditTest, DetectsNegativeDeadline) {
  hv_.timers(1).CorruptEntry(0, /*push_out=*/false);
  const audit::AuditReport r = Sweep();
  EXPECT_TRUE(r.HasInvariant("timer.deadline_negative"));
}

TEST_F(AuditTest, DetectsPushedOutDeadlineAndBrokenHeapOrder) {
  // Pushing the root to the far future silently loses the event AND breaks
  // the min-heap property for its children.
  hv_.timers(0).CorruptEntry(0, /*push_out=*/true);
  const audit::AuditReport r = Sweep();
  EXPECT_TRUE(r.HasInvariant("timer.deadline_horizon"));
  EXPECT_TRUE(r.HasInvariant("timer.heap_order"));
}

TEST_F(AuditTest, DetectsRecurringTimerWithoutPeriod) {
  hv::SoftTimer t;
  t.name = "broken_recurring";
  t.deadline = hv_.Now() + sim::Milliseconds(1);
  t.period = 0;
  t.is_system_recurring = true;
  hv_.timers(0).Insert(std::move(t));
  EXPECT_TRUE(Sweep().HasInvariant("timer.recurring_period"));
}

TEST_F(AuditTest, DetectsDanglingVcpuTimer) {
  hv::SoftTimer t;
  t.name = "vtimer:99";
  t.deadline = hv_.Now() + sim::Milliseconds(1);
  hv_.timers(0).Insert(std::move(t));
  EXPECT_TRUE(Sweep().HasInvariant("timer.dangling_vcpu"));
}

TEST_F(AuditTest, DetectsLostRecurringEvents) {
  hv_.timers(2).RemoveByName("watchdog_tick");
  ASSERT_TRUE(hv_.sched_tick_enabled(1));  // started with the domain
  hv_.timers(1).RemoveByName("sched_tick");
  const audit::AuditReport r = Sweep();
  EXPECT_EQ(r.CountFor(audit::AuditSubsystem::kTimer), 2);
  EXPECT_TRUE(r.HasInvariant("timer.recurring_missing"));
}

// --- Scheduler --------------------------------------------------------------

TEST_F(AuditTest, DetectsRunqueueLinkCorruption) {
  hv_.percpu(1).rq_len += 1;
  const audit::AuditReport r = Sweep();
  EXPECT_TRUE(r.HasInvariant("sched.runqueue_links"));
}

TEST_F(AuditTest, DetectsSchedMetadataDisagreement) {
  hv_.vcpu(vcpu_).is_current = true;  // no per-CPU curr claims it
  EXPECT_TRUE(Sweep().HasInvariant("sched.metadata"));
}

TEST_F(AuditTest, DetectsRunnableVcpuOnNoRunqueue) {
  hv::RunqueueRemove(hv_.percpu(1), hv_.vcpus(), vcpu_);
  const audit::AuditReport r = Sweep();
  EXPECT_TRUE(r.HasInvariant("sched.runnable_unreachable"));
}

// --- Locks ------------------------------------------------------------------

TEST_F(AuditTest, DetectsHeldStaticLock) {
  hv_.domlist_lock().Acquire(2);
  const audit::AuditReport r = Sweep();
  EXPECT_TRUE(r.HasInvariant("lock.static_held"));
  EXPECT_EQ(r.findings.front().severity, audit::AuditSeverity::kFatal);
}

TEST_F(AuditTest, DetectsHeldHeapLock) {
  hv_.heap().LockOf(hv_.FindDomain(dom_)->struct_obj)->Acquire(1);
  EXPECT_TRUE(Sweep().HasInvariant("lock.heap_held"));
}

// --- Event channels ---------------------------------------------------------

TEST_F(AuditTest, DetectsChannelToNonexistentDomain) {
  hv::EventChannel& ch = hv_.FindDomain(dom_)->evtchn.At(5);
  ch.state = hv::ChannelState::kInterdomain;
  ch.remote_domain = 77;
  ch.remote_port = 3;
  ch.notify_vcpu = vcpu_;
  EXPECT_TRUE(Sweep().HasInvariant("evtchn.closure"));
}

TEST_F(AuditTest, DetectsHalfOpenInterdomainChannel) {
  const hv::DomainId peer = hv_.CreateDomainDirect("peer", false, 2, 16);
  hv::EventChannel& ch = hv_.FindDomain(dom_)->evtchn.At(5);
  ch.state = hv::ChannelState::kInterdomain;
  ch.remote_domain = peer;
  ch.remote_port = 7;  // closed on the peer side
  ch.notify_vcpu = vcpu_;
  EXPECT_TRUE(Sweep().HasInvariant("evtchn.closure"));

  // Close the loop properly: finding disappears.
  hv::EventChannel& rch = hv_.FindDomain(peer)->evtchn.At(7);
  rch.state = hv::ChannelState::kInterdomain;
  rch.remote_domain = dom_;
  rch.remote_port = 5;
  rch.notify_vcpu = hv_.FindDomain(peer)->vcpus.front();
  EXPECT_TRUE(Sweep().clean());
}

TEST_F(AuditTest, DetectsForeignNotifyVcpu) {
  // Port 0 is the domain's timer virq; point its upcall at a vCPU the
  // domain does not own.
  hv_.FindDomain(dom_)->evtchn.At(0).notify_vcpu = 55;
  EXPECT_TRUE(Sweep().HasInvariant("evtchn.notify_vcpu"));
}

TEST_F(AuditTest, DetectsPendingEventOnClosedPort) {
  hv_.vcpu(vcpu_).pending_events = 1ULL << 9;
  EXPECT_TRUE(Sweep().HasInvariant("evtchn.pending_closed"));
}

// --- Grant tables -----------------------------------------------------------

TEST_F(AuditTest, DetectsBadGrantMapCount) {
  hv_.FindDomain(dom_)->grants.At(3).map_count = -1;
  EXPECT_TRUE(Sweep().HasInvariant("grant.map_count"));
}

TEST_F(AuditTest, DetectsGrantToNonexistentDomain) {
  hv::Domain* d = hv_.FindDomain(dom_);
  d->grants.Grant(99, d->first_frame);
  EXPECT_TRUE(Sweep().HasInvariant("grant.grantee_exists"));
}

TEST_F(AuditTest, DetectsGrantOfForeignFrame) {
  // Granting a hypervisor heap frame the domain does not own.
  hv_.FindDomain(dom_)->grants.Grant(dom_, hv_.heap().heap_base());
  EXPECT_TRUE(Sweep().HasInvariant("grant.frame_owner"));
}

// --- Per-CPU ----------------------------------------------------------------

TEST_F(AuditTest, DetectsStrandedIrqCount) {
  hv_.percpu(3).local_irq_count = 2;
  const audit::AuditReport r = Sweep();
  EXPECT_TRUE(r.HasInvariant("percpu.irq_count"));
  EXPECT_EQ(r.findings.front().severity, audit::AuditSeverity::kFatal);
}

// --- Statics ----------------------------------------------------------------

TEST_F(AuditTest, DetectsCorruptedStatic) {
  hv_.statics().Corrupt(hv::StaticVar::kSchedOpsPtr);
  const audit::AuditReport r = Sweep();
  EXPECT_TRUE(r.HasInvariant("static.corrupted"));
  EXPECT_EQ(r.CorruptionCount(), 1);
}

TEST_F(AuditTest, BenignStaticCorruptionIsInfoOnly) {
  hv_.statics().Corrupt(hv::StaticVar::kConsoleState);
  const audit::AuditReport r = Sweep();
  EXPECT_TRUE(r.HasInvariant("static.corrupted"));
  EXPECT_FALSE(r.clean());
  EXPECT_EQ(r.CorruptionCount(), 0);  // info findings do not dirty a run
}

// --- Differential mode ------------------------------------------------------

TEST_F(AuditTest, DiffReportsHeapGrowthAsInfo) {
  const audit::GoldenSnapshot snap = audit::GoldenSnapshot::Capture(hv_);
  hv_.heap().Alloc("scratch", 1);
  audit::StateAuditor auditor(hv_);
  const audit::AuditReport r = auditor.Audit(snap);
  EXPECT_TRUE(r.HasInvariant("diff.heap_objects"));
  EXPECT_EQ(r.CorruptionCount(), 0);
}

TEST_F(AuditTest, DiffReportsVanishedDomain) {
  const hv::DomainId peer = hv_.CreateDomainDirect("peer", false, 2, 16);
  const audit::GoldenSnapshot snap = audit::GoldenSnapshot::Capture(hv_);
  hv_.domains().erase(peer);
  audit::StateAuditor auditor(hv_);
  const audit::AuditReport r = auditor.Audit(snap);
  EXPECT_TRUE(r.HasInvariant("diff.domain_vanished"));
  // Erasing the map entry also stranded its heap objects: the leak census
  // sees them without any diff support.
  EXPECT_TRUE(r.HasInvariant("heap.leaked_object"));
}

// --- Against the real injector ----------------------------------------------

// The injector's own corruption vectors (the ones campaigns use) must be
// visible to the auditor: plant each hypervisor-visible target through the
// production mutation code and require a non-clean report.
TEST_F(AuditTest, InjectorCorruptionsAreVisible) {
  const inject::CorruptionTarget always_dirty[] = {
      inject::CorruptionTarget::kFrameDescriptor,
      inject::CorruptionTarget::kHeapFreeList,
      inject::CorruptionTarget::kTimerHeapEntry,
  };
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    for (const inject::CorruptionTarget target : always_dirty) {
      hw::Platform platform(MakeCfg(), seed);
      hv::Hypervisor hv(platform, hv::HvConfig{});
      hv.Boot();
      const hv::DomainId d = hv.CreateDomainDirect("app", false, 1, 32);
      hv.StartDomain(d);
      sim::Rng rng(seed * 17);
      inject::ApplyCorruptionTo(hv, target, rng, inject::CorruptionHooks{});
      audit::StateAuditor auditor(hv);
      EXPECT_GT(auditor.Audit().CorruptionCount(), 0)
          << "target " << static_cast<int>(target) << " seed " << seed;
    }
  }
}

TEST_F(AuditTest, InjectedStaticCorruptionIsVisible) {
  // kStaticVar may pick the benign console state (info, not corruption),
  // so the requirement is a non-clean report rather than CorruptionCount.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    sim::Rng rng(seed);
    hw::Platform platform(MakeCfg(), seed);
    hv::Hypervisor hv(platform, hv::HvConfig{});
    hv.Boot();
    inject::ApplyCorruptionTo(hv, inject::CorruptionTarget::kStaticVar, rng,
                              inject::CorruptionHooks{});
    audit::StateAuditor auditor(hv);
    EXPECT_FALSE(auditor.Audit().clean()) << "seed " << seed;
  }
}

// --- Recovery-path regressions ----------------------------------------------

TEST_F(AuditTest, NiLiHypeRepairsFrameDescriptorsButNotCounters) {
  // Microreset's frame scan repairs descriptor-internal inconsistency; a
  // leaked reference count is invisible to it and survives as latent state.
  const hv::FrameNumber base = hv_.FindDomain(dom_)->first_frame;
  hv_.frames().mutable_desc(base).validated = true;   // scan repairs this
  hv_.frames().mutable_desc(base + 1).use_count += 2;  // this survives
  ASSERT_TRUE(Sweep().HasInvariant("frame.descriptor_consistent"));

  recovery::NiLiHype mech(hv_, recovery::EnhancementSet::Full());
  mech.Recover(1, hv::DetectionKind::kPanic);

  const audit::AuditReport r = Sweep();
  EXPECT_FALSE(r.HasInvariant("frame.descriptor_consistent"));
  EXPECT_TRUE(r.HasInvariant("frame.use_count_referential"));
}

TEST_F(AuditTest, NiLiHypeLeavesStaticCorruptionLatent) {
  hv_.statics().Corrupt(hv::StaticVar::kTscKhz);
  recovery::NiLiHype mech(hv_, recovery::EnhancementSet::Full());
  mech.Recover(1, hv::DetectionKind::kPanic);
  // Microreset reuses the static segment in place: still corrupted.
  EXPECT_TRUE(Sweep().HasInvariant("static.corrupted"));
}

TEST_F(AuditTest, ReHypeRepairsFreeListAndNonPreservedStatics) {
  hv_.heap().CorruptFreeList(/*fatal=*/true);
  hv_.statics().Corrupt(hv::StaticVar::kTscKhz);  // not preserved by reboot
  ASSERT_TRUE(hv_.statics().RebootRepairs(hv::StaticVar::kTscKhz));

  recovery::ReHype mech(hv_, recovery::EnhancementSet::Full());
  mech.Recover(1, hv::DetectionKind::kPanic);

  const audit::AuditReport r = Sweep();
  EXPECT_FALSE(r.HasInvariant("heap.free_list"));
  EXPECT_FALSE(r.HasInvariant("static.corrupted"));
}

TEST_F(AuditTest, RecoveryEndsLockAndIrqClean) {
  hv_.domlist_lock().Acquire(2);
  hv_.heap().LockOf(hv_.FindDomain(dom_)->struct_obj)->Acquire(1);
  hv_.percpu(2).local_irq_count = 1;

  recovery::NiLiHype mech(hv_, recovery::EnhancementSet::Full());
  mech.Recover(1, hv::DetectionKind::kPanic);
  // The lock/irq audit passes run only at quiescent points: drive the event
  // queue past the scheduled un-freeze first.
  platform_.queue().RunUntil(hv_.Now() + sim::Seconds(2));
  ASSERT_FALSE(hv_.frozen());

  const audit::AuditReport r = Sweep();
  EXPECT_EQ(r.CountFor(audit::AuditSubsystem::kLocks), 0);
  EXPECT_EQ(r.CountFor(audit::AuditSubsystem::kPerCpu), 0);
}

// --- End-to-end: audited runs and campaigns ---------------------------------

TEST(AuditRun, FailstopRecoveryIsAuditClean) {
  // Failstop faults corrupt nothing: every successful recovery must leave
  // the hypervisor with zero latent-corruption findings.
  for (std::uint64_t seed = 100; seed < 106; ++seed) {
    core::RunConfig cfg = core::RunConfig::OneAppVm(guest::BenchmarkKind::kUnixBench);
    cfg.mechanism = core::Mechanism::kNiLiHype;
    cfg.fault = inject::FaultType::kFailstop;
    cfg.audit = true;
    cfg.seed = seed;
    core::TargetSystem sys(cfg);
    const core::RunResult r = sys.Run();
    ASSERT_TRUE(r.audited);
    if (r.success) {
      EXPECT_TRUE(r.audit_clean) << "seed " << seed;
      EXPECT_FALSE(r.latent_corruption);
    }
  }
}

TEST(AuditCampaign, ResultIsThreadCountInvariant) {
  // The campaign aggregate — including the audit columns — must be
  // byte-identical whether runs execute on one worker or eight.
  core::RunConfig cfg = core::RunConfig::OneAppVm(guest::BenchmarkKind::kUnixBench);
  cfg.mechanism = core::Mechanism::kNiLiHype;
  cfg.fault = inject::FaultType::kCode;
  cfg.audit = true;

  core::CampaignOptions opts;
  opts.runs = 12;
  opts.seed0 = 7000;
  opts.threads = 1;
  const std::string serial = core::RunCampaign(cfg, opts).ToJson();
  opts.threads = 8;
  const std::string parallel = core::RunCampaign(cfg, opts).ToJson();
  EXPECT_EQ(serial, parallel);
}

TEST(AuditCampaign, AuditColumnsCloseOverSuccesses) {
  core::RunConfig cfg = core::RunConfig::OneAppVm(guest::BenchmarkKind::kUnixBench);
  cfg.mechanism = core::Mechanism::kNiLiHype;
  cfg.fault = inject::FaultType::kCode;
  cfg.audit = true;
  core::CampaignOptions opts;
  opts.runs = 30;
  opts.seed0 = 4200;
  const core::CampaignResult res = core::RunCampaign(cfg, opts);
  // Every audited success is exactly one of audit-clean / latent.
  EXPECT_EQ(res.audit_clean.denom, res.latent_corruption.denom);
  EXPECT_EQ(res.audit_clean.numer + res.latent_corruption.numer,
            res.audit_clean.denom);
  // The JSON carries the audit split.
  const std::string json = res.ToJson();
  EXPECT_NE(json.find("\"audit_clean\""), std::string::npos);
  EXPECT_NE(json.find("\"latent_corruption\""), std::string::npos);
  EXPECT_NE(json.find("\"audit_findings_by_subsystem\""), std::string::npos);
}

}  // namespace
}  // namespace nlh
