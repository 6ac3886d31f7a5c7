// Tests for the recovery mechanisms (recovery/): NiLiHype microreset,
// ReHype microreboot, shared steps, latency model, enhancement presets.
#include <gtest/gtest.h>

#include "hv/hypervisor.h"
#include "recovery/manager.h"
#include "recovery/nilihype.h"
#include "recovery/rehype.h"
#include "recovery/snapres.h"

namespace nlh::recovery {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest() : platform_(MakeCfg(), 1), hv_(platform_, hv::HvConfig{}) {
    hv_.Boot();
    dom_ = hv_.CreateDomainDirect("app", false, 1, 32);
    hv_.StartDomain(dom_);
    vcpu_ = hv_.FindDomain(dom_)->vcpus.front();
  }

  static hw::PlatformConfig MakeCfg() {
    hw::PlatformConfig cfg;
    cfg.num_cpus = 4;
    cfg.memory_gib = 8;  // the paper's calibration point
    return cfg;
  }

  hw::Platform platform_;
  hv::Hypervisor hv_;
  hv::DomainId dom_;
  hv::VcpuId vcpu_;
};

TEST_F(RecoveryTest, EnhancementPresets) {
  const EnhancementSet none = EnhancementSet::None();
  EXPECT_FALSE(none.hypercall_retry);
  EXPECT_FALSE(none.clear_irq_count);

  const EnhancementSet row1 = EnhancementSet::TableISimple(1);
  EXPECT_TRUE(row1.clear_irq_count);
  EXPECT_FALSE(row1.hypercall_retry);

  const EnhancementSet row2 = EnhancementSet::TableISimple(2);
  EXPECT_TRUE(row2.hypercall_retry);
  EXPECT_TRUE(row2.frame_table_scan);
  EXPECT_FALSE(row2.sched_metadata_repair);

  const EnhancementSet full = EnhancementSet::Full();
  EXPECT_TRUE(full.reactivate_recurring);

  const EnhancementSet port0 = EnhancementSet::ReHypeStage(0);
  EXPECT_TRUE(port0.hypercall_retry);   // base ReHype mechanism
  EXPECT_FALSE(port0.syscall_retry);    // added at stage 1 (Section IV)
  EXPECT_FALSE(port0.nonidem_mitigation);
  const EnhancementSet port2 = EnhancementSet::ReHypeStage(2);
  EXPECT_TRUE(port2.nonidem_mitigation);
}

TEST_F(RecoveryTest, NiLiHypeLatencyMatchesTableIII) {
  NiLiHype mech(hv_, EnhancementSet::Full());
  const RecoveryReport rep = mech.Recover(1, hv::DetectionKind::kPanic);
  // Table III: 22 ms total at 8 GB, dominated by the 21 ms frame scan.
  EXPECT_NEAR(sim::ToMillisF(rep.total()), 22.0, 1.0);
  sim::Duration scan = 0;
  for (const StepLatency& s : rep.steps) {
    if (s.name.find("page-frame") != std::string::npos) scan = s.latency;
  }
  EXPECT_NEAR(sim::ToMillisF(scan), 21.0, 0.5);
  // Everything else sums to ~1 ms.
  EXPECT_NEAR(sim::ToMillisF(rep.total() - scan), 1.0, 0.6);
}

TEST_F(RecoveryTest, ReHypeLatencyMatchesTableII) {
  ReHype mech(hv_, EnhancementSet::Full());
  const RecoveryReport rep = mech.Recover(1, hv::DetectionKind::kPanic);
  // Table II: 713 ms total at 8 GB.
  EXPECT_NEAR(sim::ToMillisF(rep.total()), 713.0, 15.0);
  // ReHype / NiLiHype latency ratio is "over a factor of 30" (abstract).
  NiLiHype nl(hv_, EnhancementSet::Full());
  // (fresh system for the second measurement)
  hw::Platform p2(MakeCfg(), 2);
  hv::Hypervisor hv2(p2, hv::HvConfig{});
  hv2.Boot();
  NiLiHype nl2(hv2, EnhancementSet::Full());
  const RecoveryReport rep2 = nl2.Recover(0, hv::DetectionKind::kPanic);
  EXPECT_GT(static_cast<double>(rep.total()) / rep2.total(), 30.0);
}

TEST_F(RecoveryTest, LatencyScalesWithMemory) {
  const std::uint64_t frames8 = (8ULL << 30) / 4096;
  const std::uint64_t frames64 = (64ULL << 30) / 4096;
  EXPECT_NEAR(sim::ToMillisF(latency::FrameScan(frames8, 1)), 21.0, 0.5);
  EXPECT_NEAR(sim::ToMillisF(latency::FrameScan(frames64, 1)), 8 * 21.0, 4.0);
}

TEST_F(RecoveryTest, NiLiHypeClearsStrandedIrqCounts) {
  hv_.percpu(2).local_irq_count = 1;
  NiLiHype mech(hv_, EnhancementSet::Full());
  mech.Recover(1, hv::DetectionKind::kPanic);
  for (int c = 0; c < 4; ++c) EXPECT_EQ(hv_.percpu(c).local_irq_count, 0);
}

TEST_F(RecoveryTest, BasicNiLiHypeLeavesIrqCountsStranded) {
  NiLiHype mech(hv_, EnhancementSet::None());
  mech.Recover(1, hv::DetectionKind::kPanic);
  // The freeze IPI incremented everyone else; basic microreset never
  // clears it — the mechanical reason Table I row "Basic" is 0%.
  EXPECT_GT(hv_.percpu(0).local_irq_count, 0);
}

TEST_F(RecoveryTest, NiLiHypeReleasesAllLocks) {
  hv_.domlist_lock().Acquire(2);
  hv_.heap().LockOf(hv_.FindDomain(dom_)->struct_obj)->Acquire(1);
  NiLiHype mech(hv_, EnhancementSet::Full());
  mech.Recover(1, hv::DetectionKind::kPanic);
  EXPECT_EQ(hv_.static_locks().HeldCount(), 0);
  EXPECT_EQ(hv_.heap().HeldLockCount(), 0);
}

TEST_F(RecoveryTest, NiLiHypeWithoutStaticUnlockLeavesStaticLocksHeld) {
  hv_.domlist_lock().Acquire(2);
  EnhancementSet enh = EnhancementSet::Full();
  enh.unlock_static_locks = false;
  NiLiHype mech(hv_, enh);
  mech.Recover(1, hv::DetectionKind::kPanic);
  EXPECT_TRUE(hv_.domlist_lock().held());
}

TEST_F(RecoveryTest, RetrySetupMarksInflightRequests) {
  hv::Vcpu& vc = hv_.vcpu(vcpu_);
  vc.inflight.active = true;
  vc.inflight.code = hv::HypercallCode::kPageTablePin;
  NiLiHype mech(hv_, EnhancementSet::Full());
  mech.Recover(1, hv::DetectionKind::kPanic);
  EXPECT_FALSE(vc.inflight.active);
  EXPECT_TRUE(vc.inflight.needs_retry);
  EXPECT_FALSE(vc.inflight.lost);
}

TEST_F(RecoveryTest, NoRetryEnhancementMarksRequestsLost) {
  hv::Vcpu& vc = hv_.vcpu(vcpu_);
  vc.inflight.active = true;
  EnhancementSet enh = EnhancementSet::Full();
  enh.hypercall_retry = false;
  enh.syscall_retry = false;
  NiLiHype mech(hv_, enh);
  mech.Recover(1, hv::DetectionKind::kPanic);
  EXPECT_FALSE(vc.inflight.needs_retry);
  EXPECT_TRUE(vc.inflight.lost);
}

TEST_F(RecoveryTest, UndoReplayOnlyWithMitigation) {
  hv::Vcpu& vc = hv_.vcpu(vcpu_);
  int undone = 0;
  vc.inflight.active = true;
  vc.inflight.undo.Record([&] { ++undone; });
  EnhancementSet enh = EnhancementSet::Full();
  enh.nonidem_mitigation = false;
  steps::SetupRequestRetries(hv_, enh);
  EXPECT_EQ(undone, 0);  // records dropped, not replayed

  vc.inflight.active = true;
  vc.inflight.undo.Record([&] { ++undone; });
  steps::SetupRequestRetries(hv_, EnhancementSet::Full());
  EXPECT_EQ(undone, 1);
}

TEST_F(RecoveryTest, BatchProgressResetWithoutFineGrainedRetry) {
  hv::Vcpu& vc = hv_.vcpu(vcpu_);
  vc.inflight.active = true;
  vc.inflight.multicall_progress = 3;
  EnhancementSet enh = EnhancementSet::Full();
  enh.batched_retry_fine = false;
  steps::SetupRequestRetries(hv_, enh);
  EXPECT_EQ(vc.inflight.multicall_progress, 0);
}

TEST_F(RecoveryTest, ReHypeRestoresNonPreservedStatics) {
  hv_.statics().Corrupt(hv::StaticVar::kTscKhz);        // reboot-repairable
  hv_.statics().Corrupt(hv::StaticVar::kDomainListHead);  // preserved
  ReHype mech(hv_, EnhancementSet::Full());
  mech.Recover(0, hv::DetectionKind::kPanic);
  EXPECT_FALSE(hv_.statics().corrupted(hv::StaticVar::kTscKhz));
  EXPECT_TRUE(hv_.statics().corrupted(hv::StaticVar::kDomainListHead));
}

TEST_F(RecoveryTest, NiLiHypeReusesCorruptStatics) {
  hv_.statics().Corrupt(hv::StaticVar::kTscKhz);
  NiLiHype mech(hv_, EnhancementSet::Full());
  mech.Recover(0, hv::DetectionKind::kPanic);
  EXPECT_TRUE(hv_.statics().corrupted(hv::StaticVar::kTscKhz));
}

TEST_F(RecoveryTest, ReHypeRecreatesCorruptHeapFreeList) {
  hv_.heap().CorruptFreeList(true);
  ReHype mech(hv_, EnhancementSet::Full());
  mech.Recover(0, hv::DetectionKind::kPanic);
  EXPECT_TRUE(hv_.heap().CheckFreeListIntegrity());
}

TEST_F(RecoveryTest, NiLiHypeKeepsCorruptHeapFreeList) {
  hv_.heap().CorruptFreeList(true);
  NiLiHype mech(hv_, EnhancementSet::Full());
  mech.Recover(0, hv::DetectionKind::kPanic);
  EXPECT_FALSE(hv_.heap().CheckFreeListIntegrity());
}

TEST_F(RecoveryTest, ReHypeHaltsAndResumesCpus) {
  ReHype mech(hv_, EnhancementSet::Full());
  const RecoveryReport rep = mech.Recover(1, hv::DetectionKind::kPanic);
  EXPECT_TRUE(platform_.cpu(0).halted());  // others halted during recovery
  EXPECT_FALSE(platform_.cpu(1).halted());
  platform_.queue().RunUntil(rep.resumed_at + sim::Milliseconds(1));
  EXPECT_FALSE(platform_.cpu(0).halted());
  EXPECT_FALSE(hv_.frozen());
}

TEST_F(RecoveryTest, ManagerEnforcesAttemptLimit) {
  auto mech = std::make_unique<NiLiHype>(hv_, EnhancementSet::Full());
  RecoveryManager mgr(hv_, std::move(mech), nullptr);
  mgr.Install();
  for (int i = 0; i < kMaxRecoveryAttempts; ++i) {
    hv_.ReportError(0, hv::DetectionKind::kPanic, "recoverable");
    platform_.queue().RunUntil(platform_.Now() + sim::Milliseconds(100));
    EXPECT_FALSE(hv_.dead());
  }
  hv_.ReportError(0, hv::DetectionKind::kPanic, "one too many");
  EXPECT_TRUE(hv_.dead());
  EXPECT_EQ(hv_.death_code(), hv::FailureReason::kAttemptLimitReached);
  EXPECT_EQ(mgr.reports().size(),
            static_cast<std::size_t>(kMaxRecoveryAttempts));
}

// The shared Recover frame, run once per mechanism.
template <typename M>
class RecoveryFrameTest : public RecoveryTest {};
using AllMechanisms = ::testing::Types<NiLiHype, ReHype, SnapRes>;
TYPED_TEST_SUITE(RecoveryFrameTest, AllMechanisms);

TYPED_TEST(RecoveryFrameTest, CorruptedRecoveryPathGivesUp) {
  this->hv_.CorruptRecoveryPath();
  TypeParam mech(this->hv_, EnhancementSet::Full());
  const RecoveryReport rep = mech.Recover(0, hv::DetectionKind::kPanic);
  EXPECT_TRUE(rep.gave_up);
  EXPECT_EQ(rep.give_up_code, hv::FailureReason::kRecoveryPathCorrupted);
  EXPECT_TRUE(rep.steps.empty());
  EXPECT_TRUE(this->hv_.dead());
}

TYPED_TEST(RecoveryFrameTest, ReportTotalsSumSteps) {
  TypeParam mech(this->hv_, EnhancementSet::Full());
  const RecoveryReport rep = mech.Recover(0, hv::DetectionKind::kHang);
  EXPECT_FALSE(rep.gave_up);
  sim::Duration sum = 0;
  for (const auto& s : rep.steps) sum += s.latency;
  EXPECT_EQ(sum, rep.total());
  EXPECT_EQ(rep.resumed_at, rep.detected_at + rep.total());
  EXPECT_EQ(rep.kind, hv::DetectionKind::kHang);
}

}  // namespace
}  // namespace nlh::recovery
