// Tests for the mechanism table (core/config.h) and the SnapRes
// snapshot/rollback mechanism (recovery/snapres.h): table contents and
// slug round trips, the mechanism TargetSystem builds for each entry, the
// capture -> corrupt -> rollback repair cycle, and an end-to-end failstop
// run through core::TargetSystem.
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "audit/snapshot.h"
#include "audit/state_auditor.h"
#include "core/config.h"
#include "core/outcome.h"
#include "core/target_system.h"
#include "hv/hypervisor.h"
#include "recovery/nilihype.h"
#include "recovery/snapres.h"

namespace nlh {
namespace {

// --- Mechanism table --------------------------------------------------------

using core::Mechanism;

TEST(MechanismTableTest, SlugsAndDisplayNamesInCanonicalOrder) {
  // Display strings are load-bearing: committed JSON artifacts carry them.
  const core::MechanismInfo want[] = {
      {Mechanism::kNone, "none", "None"},
      {Mechanism::kNiLiHype, "nilihype", "NiLiHype"},
      {Mechanism::kReHype, "rehype", "ReHype"},
      {Mechanism::kSnapRes, "snapres", "SnapRes"},
  };
  ASSERT_EQ(std::size(core::kMechanisms), std::size(want));
  for (std::size_t i = 0; i < std::size(want); ++i) {
    SCOPED_TRACE(want[i].slug);
    EXPECT_EQ(core::kMechanisms[i].mechanism, want[i].mechanism);
    EXPECT_STREQ(core::MechanismSlug(want[i].mechanism), want[i].slug);
    EXPECT_STREQ(core::MechanismName(want[i].mechanism), want[i].name);
    Mechanism parsed = Mechanism::kNone;
    ASSERT_TRUE(core::MechanismFromSlug(want[i].slug, &parsed));
    EXPECT_EQ(parsed, want[i].mechanism);
  }
}

TEST(MechanismTableTest, UnknownSlugIsRejected) {
  Mechanism parsed = Mechanism::kSnapRes;
  EXPECT_FALSE(core::MechanismFromSlug("no-such-mechanism", &parsed));
  EXPECT_FALSE(core::MechanismFromSlug("NiLiHype", &parsed));
  EXPECT_EQ(parsed, Mechanism::kSnapRes);  // left alone
}

TEST(MechanismTableTest, TargetSystemBuildsEachMechanism) {
  for (const core::MechanismInfo& e : core::kMechanisms) {
    SCOPED_TRACE(e.slug);
    core::RunConfig cfg =
        core::RunConfig::OneAppVm(guest::BenchmarkKind::kUnixBench);
    cfg.mechanism = e.mechanism;
    cfg.snapshot_period = sim::Milliseconds(250);
    core::TargetSystem sys(cfg);
    recovery::RecoveryMechanism* mech = sys.recovery_manager()->mechanism();
    if (e.mechanism == Mechanism::kNone) {
      EXPECT_EQ(mech, nullptr);
      continue;
    }
    ASSERT_NE(mech, nullptr);
    EXPECT_EQ(mech->Name(), e.name);
    if (e.mechanism == Mechanism::kSnapRes) {
      // The period reached the mechanism from the run config.
      const auto* snapres = dynamic_cast<recovery::SnapRes*>(mech);
      ASSERT_NE(snapres, nullptr);
      EXPECT_EQ(snapres->period(), sim::Milliseconds(250));
    }
  }
}

// --- SnapRes mechanism ------------------------------------------------------

class SnapResTest : public ::testing::Test {
 protected:
  SnapResTest() : platform_(MakeCfg(), 1), hv_(platform_, hv::HvConfig{}) {
    hv_.Boot();
    dom_ = hv_.CreateDomainDirect("app", false, 1, 32);
    hv_.StartDomain(dom_);
  }

  static hw::PlatformConfig MakeCfg() {
    hw::PlatformConfig cfg;
    cfg.num_cpus = 4;
    cfg.memory_gib = 8;  // the paper's calibration point
    return cfg;
  }

  audit::AuditReport Sweep() { return audit::StateAuditor(hv_).Audit(); }

  // Drives the queue past the scheduled un-freeze after a Recover() call.
  void DrainRecovery() {
    platform_.queue().RunUntil(hv_.Now() + sim::Seconds(2));
    ASSERT_FALSE(hv_.frozen());
  }

  hw::Platform platform_;
  hv::Hypervisor hv_;
  hv::DomainId dom_;
};

TEST_F(SnapResTest, RollbackRepairsStaticsAndHeapFreeList) {
  recovery::SnapRes mech(hv_, recovery::EnhancementSet::Full());
  mech.CaptureNow();  // pin the rollback target after domain setup

  // Corruption classes roll-forward cannot repair (the mechanical reason
  // this mechanism exists): a clobbered static and a broken free list.
  hv_.statics().Corrupt(hv::StaticVar::kTscKhz);
  hv_.statics().Corrupt(hv::StaticVar::kSchedOpsPtr);
  hv_.heap().CorruptFreeList(/*fatal=*/true);
  ASSERT_GT(hv_.statics().CorruptedCount(), 0);

  mech.Recover(1, hv::DetectionKind::kPanic);
  DrainRecovery();

  EXPECT_EQ(hv_.statics().CorruptedCount(), 0);
  const audit::AuditReport r = Sweep();
  EXPECT_FALSE(r.HasInvariant("static.corrupted"));
  EXPECT_FALSE(r.HasInvariant("heap.free_list"));
}

TEST_F(SnapResTest, RollbackRoundTripIsAuditCleanAgainstGolden) {
  recovery::SnapRes mech(hv_, recovery::EnhancementSet::Full());
  mech.CaptureNow();
  const audit::GoldenSnapshot golden = audit::GoldenSnapshot::Capture(hv_);

  hv_.statics().Corrupt(hv::StaticVar::kHeapMetadataPtr);
  hv_.heap().CorruptFreeList(/*fatal=*/true);

  mech.Recover(1, hv::DetectionKind::kPanic);
  DrainRecovery();

  // Differential sweep against the pre-corruption golden: the rollback plus
  // roll-forward reconciliation must leave zero corruption findings.
  const audit::AuditReport r = audit::StateAuditor(hv_).Audit(golden);
  EXPECT_EQ(r.CorruptionCount(), 0) << r.ToJson();
}

TEST_F(SnapResTest, RepairsWhatMicroresetLeavesLatent) {
  // The head-to-head that motivates the design: the same static corruption
  // survives NiLiHype's pure roll-forward but not SnapRes' rollback.
  hw::Platform p2(MakeCfg(), 2);
  hv::Hypervisor hv2(p2, hv::HvConfig{});
  hv2.Boot();
  recovery::NiLiHype nl(hv2, recovery::EnhancementSet::Full());
  hv2.statics().Corrupt(hv::StaticVar::kTscKhz);
  nl.Recover(0, hv::DetectionKind::kPanic);
  EXPECT_GT(hv2.statics().CorruptedCount(), 0);

  recovery::SnapRes mech(hv_, recovery::EnhancementSet::Full());
  mech.CaptureNow();
  hv_.statics().Corrupt(hv::StaticVar::kTscKhz);
  mech.Recover(1, hv::DetectionKind::kPanic);
  EXPECT_EQ(hv_.statics().CorruptedCount(), 0);
}

TEST_F(SnapResTest, RecoveryReportCarriesRollbackAndReplaySteps) {
  recovery::SnapRes mech(hv_, recovery::EnhancementSet::Full());
  const recovery::RecoveryReport rep =
      mech.Recover(1, hv::DetectionKind::kPanic);
  ASSERT_FALSE(rep.gave_up);
  bool has_rollback = false, has_replay = false;
  for (const recovery::StepLatency& s : rep.steps) {
    has_rollback |= s.phase == recovery::RecoveryPhase::kRollback;
    has_replay |= s.phase == recovery::RecoveryPhase::kReplayInFlight;
  }
  EXPECT_TRUE(has_rollback);
  EXPECT_TRUE(has_replay);
  // Microreset-class speed: the 21 ms frame scan dominates, the rollback
  // adds ~2.5 ms at 8 GiB — far from ReHype's 713 ms reboot.
  EXPECT_NEAR(sim::ToMillisF(rep.total()), 24.5, 2.0);
}

TEST_F(SnapResTest, PeriodicCaptureChainFollowsConfiguredCadence) {
  recovery::SnapRes mech(hv_, recovery::EnhancementSet::Full(),
                         sim::Milliseconds(100));
  EXPECT_EQ(mech.captures(), 1u);  // initial capture at construction
  platform_.queue().RunUntil(hv_.Now() + sim::Milliseconds(550));
  EXPECT_EQ(mech.captures(), 6u);  // + one per 100 ms epoch
  EXPECT_GE(mech.captured_at(), sim::Milliseconds(500));
}

// --- End-to-end through TargetSystem ----------------------------------------

std::uint64_t Captures(core::TargetSystem& sys) {
  return dynamic_cast<const recovery::SnapRes&>(
             *sys.recovery_manager()->mechanism())
      .captures();
}

TEST(SnapResEndToEnd, FailstopRunRecoversSuccessfully) {
  core::RunConfig cfg;
  cfg.mechanism = core::Mechanism::kSnapRes;
  cfg.seed = 12;
  core::TargetSystem sys(cfg);
  const core::RunResult r = sys.Run();

  EXPECT_EQ(r.outcome, core::OutcomeClass::kDetected);
  EXPECT_TRUE(r.success) << r.failure_detail;
  EXPECT_EQ(r.recoveries, 1);
  bool has_rollback = false, has_replay = false;
  for (const core::PhaseLatency& p : r.recovery_phases) {
    has_rollback |= p.phase == "rollback";
    has_replay |= p.phase == "replay_in_flight";
  }
  EXPECT_TRUE(has_rollback);
  EXPECT_TRUE(has_replay);
  // The periodic capture chain ran (and its overhead was charged as
  // hypervisor cycles — it is runtime cost, not recovery cost).
  EXPECT_GT(Captures(sys), 3u);
}

TEST(SnapResEndToEnd, SnapshotPeriodConfigControlsCadence) {
  core::RunConfig coarse;
  coarse.mechanism = core::Mechanism::kSnapRes;
  coarse.inject = false;
  coarse.snapshot_period = sim::Milliseconds(400);
  core::RunConfig fine = coarse;
  fine.snapshot_period = sim::Milliseconds(50);

  core::TargetSystem a(coarse), b(fine);
  a.RunUntil(sim::Milliseconds(900));
  b.RunUntil(sim::Milliseconds(900));
  EXPECT_GT(Captures(b), 3 * Captures(a));
}

}  // namespace
}  // namespace nlh
