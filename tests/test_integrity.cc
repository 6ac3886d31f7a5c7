// Integrity observability battery (src/integrity/): per-subsystem one-plant
// drift goldens (the drift fires at the first epoch boundary after the
// plant, on exactly the planted surface), the clean-run zero-drift
// invariant (which forces the mutation ledger to be complete: any
// legitimate mutation site missing its NLH_INTEGRITY_NOTE shows up here as
// a false drift), outcome invariance (the monitor is pure observation),
// proactive rejuvenation, campaign aggregation determinism, warm-fork
// byte-equality of the ladder, and the differential oracle's
// integrity-drift divergence class.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/target_system.h"
#include "fuzz/oracle.h"
#include "hv/hypervisor.h"
#include "hv/sched_ops.h"
#include "integrity/ladder.h"
#include "integrity/monitor.h"
#include "integrity/surface.h"
#include "recovery/rejuvenation.h"

namespace nlh {
namespace {

// --- Bare-hypervisor fixture: manual epoch ticks ----------------------------

class IntegrityTest : public ::testing::Test {
 protected:
  IntegrityTest()
      : platform_(MakeCfg(), 1), hv_(platform_, hv::HvConfig{}), mon_(hv_) {
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

  // Asserts that after one baseline epoch, `plant` causes exactly one
  // surface to drift — the expected one — at the epoch right after it runs.
  template <typename Plant>
  void ExpectDriftOn(integrity::Surface expected, Plant&& plant) {
    mon_.Tick();  // epoch 1: baseline
    ASSERT_EQ(mon_.drift_count(), 0u);
    plant();
    mon_.Tick();  // epoch 2: the plant epoch
    ASSERT_EQ(mon_.drift_count(), 1u)
        << "expected exactly one drift on "
        << integrity::SubsystemName(expected);
    EXPECT_EQ(mon_.first_drift_epoch(), 2);
    EXPECT_EQ(mon_.first_drift_surface(), expected);
    EXPECT_EQ(mon_.drift_per_surface()[static_cast<std::size_t>(expected)],
              1u);
    // Adopted as the new baseline: a quiet epoch after the drift is quiet.
    mon_.Tick();
    EXPECT_EQ(mon_.drift_count(), 1u);
  }

  hw::Platform platform_;
  hv::Hypervisor hv_;
  integrity::EpochMonitor mon_;
  hv::DomainId dom_;
  hv::VcpuId vcpu_;
};

TEST_F(IntegrityTest, QuietEpochsNoDrift) {
  mon_.Tick();
  mon_.Tick();
  mon_.Tick();
  EXPECT_EQ(mon_.epochs(), 3u);
  EXPECT_EQ(mon_.drift_count(), 0u);
  EXPECT_FALSE(mon_.has_drift());
  EXPECT_EQ(mon_.first_drift_epoch(), -1);
  EXPECT_NE(integrity::ComputeLadder(hv_).surface[static_cast<std::size_t>(
                integrity::Surface::kFrameTable)],
            0u);
}

TEST_F(IntegrityTest, LegitimateMutationIsExplained) {
  mon_.Tick();
  // A real hypervisor-path mutation (noted via the ledger): no drift.
  hv::SoftTimer t;
  t.name = "scratch";
  t.deadline = hv_.Now() + sim::Milliseconds(1);
  hv_.timers(0).Insert(std::move(t));
  mon_.Tick();
  EXPECT_EQ(mon_.drift_count(), 0u);
}

// --- Per-subsystem one-plant goldens ----------------------------------------

TEST_F(IntegrityTest, DriftFrameTable) {
  ExpectDriftOn(integrity::Surface::kFrameTable, [&] {
    hv_.frames().mutable_desc(hv_.FindDomain(dom_)->first_frame).validated =
        true;
  });
}

TEST_F(IntegrityTest, EpochsAndDriftAreRecorderInstants) {
  hv_.flight_recorder().Enable(platform_.num_cpus());
  ExpectDriftOn(integrity::Surface::kHeap,
                [&] { hv_.heap().CorruptAccounting(); });
  std::vector<std::string> names;
  for (const forensics::FlightEvent& ev : hv_.flight_recorder().Retained()) {
    if (ev.kind == forensics::EventKind::kIntegrityEpoch ||
        ev.kind == forensics::EventKind::kIntegrityDrift) {
      names.push_back(forensics::EventName(ev));
    }
  }
  EXPECT_EQ(names, (std::vector<std::string>{"integrity_epoch",
                                             "integrity_epoch",
                                             "integrity_drift:heap",
                                             "integrity_epoch"}));
}

TEST_F(IntegrityTest, DriftHeap) {
  ExpectDriftOn(integrity::Surface::kHeap, [&] { hv_.heap().CorruptAccounting(); });
}

TEST_F(IntegrityTest, DriftTimer) {
  ExpectDriftOn(integrity::Surface::kTimer,
                [&] { hv_.timers(1).CorruptEntry(0, /*push_out=*/true); });
}

TEST_F(IntegrityTest, DriftScheduler) {
  ExpectDriftOn(integrity::Surface::kScheduler,
                [&] { hv_.percpu(1).rq_len += 1; });
}

TEST_F(IntegrityTest, DriftLocks) {
  // The epoch-boundary lock invariant: every lock is released at event
  // boundaries in a healthy run, so a holder at an epoch IS the drift.
  ExpectDriftOn(integrity::Surface::kLocks,
                [&] { hv_.domlist_lock().Acquire(2); });
}

TEST_F(IntegrityTest, DriftEventChannel) {
  ExpectDriftOn(integrity::Surface::kEventChannel, [&] {
    hv::EventChannel& ch = hv_.FindDomain(dom_)->evtchn.At(5);
    ch.state = hv::ChannelState::kInterdomain;
    ch.remote_domain = 77;
  });
}

TEST_F(IntegrityTest, DriftGrantTable) {
  ExpectDriftOn(integrity::Surface::kGrantTable, [&] {
    hv_.FindDomain(dom_)->grants.At(3).map_count = -1;
  });
}

TEST_F(IntegrityTest, DriftPerCpu) {
  ExpectDriftOn(integrity::Surface::kPerCpu,
                [&] { hv_.percpu(3).local_irq_count = 2; });
}

TEST_F(IntegrityTest, DriftStatics) {
  ExpectDriftOn(integrity::Surface::kStatics,
                [&] { hv_.statics().Corrupt(hv::StaticVar::kSchedOpsPtr); });
}

TEST_F(IntegrityTest, DriftTrailFingerprintsSequence) {
  mon_.Tick();
  hv_.percpu(3).local_irq_count = 2;
  mon_.Tick();
  const std::uint64_t after_one = mon_.drift_trail();
  hv_.statics().Corrupt(hv::StaticVar::kSchedOpsPtr);
  mon_.Tick();
  EXPECT_NE(mon_.drift_trail(), after_one);
  EXPECT_EQ(mon_.drift_count(), 2u);
  ASSERT_EQ(mon_.drifts().size(), 2u);
  EXPECT_EQ(mon_.drifts()[0].surface, integrity::Surface::kPerCpu);
  EXPECT_EQ(mon_.drifts()[1].surface, integrity::Surface::kStatics);
}

TEST_F(IntegrityTest, RejuvenationReportsDriftAsDetectionEvent) {
  recovery::RejuvenationPolicy policy(hv_, /*threshold=*/1);
  mon_.SetOnDrift(
      [&](const integrity::DriftEvent& drift) { policy.OnDrift(drift); });
  std::vector<hv::DetectionEvent> events;
  hv_.SetErrorHandler(
      [&](const hv::DetectionEvent& ev) { events.push_back(ev); });
  mon_.Tick();
  hv_.statics().Corrupt(hv::StaticVar::kSchedOpsPtr);
  mon_.Tick();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].cpu, 0);
  EXPECT_EQ(events[0].kind, hv::DetectionKind::kPanic);
  EXPECT_EQ(events[0].code, hv::FailureCode::kIntegrityDrift);
  EXPECT_EQ(events[0].when, mon_.first_drift_at());
  EXPECT_EQ(events[0].detail,
            "unexplained integrity drift on statics at epoch 2");
  EXPECT_EQ(policy.triggers(), 1);
}

// --- Whole-system runs ------------------------------------------------------

core::RunConfig BaseConfig(std::uint64_t seed) {
  core::RunConfig cfg;
  cfg.seed = seed;
  cfg.integrity = true;
  return cfg;
}

// THE ledger-completeness invariant: a full healthy run (boot, workload,
// I/O, VM lifecycle — no injection) must see hundreds of epochs and not a
// single unexplained drift. Any mutation site missing its ledger note
// fails here.
TEST(IntegritySystemTest, CleanRunZeroDrift) {
  core::RunConfig cfg = BaseConfig(7);
  cfg.inject = false;
  core::TargetSystem sys(cfg);
  const core::RunResult r = sys.Run();
  EXPECT_TRUE(r.integrity);
  EXPECT_GT(r.integrity_epochs, 100u);
  ASSERT_NE(sys.integrity_monitor(), nullptr);
  const auto& drifts = sys.integrity_monitor()->drifts();
  for (const integrity::DriftEvent& d : drifts) {
    ADD_FAILURE() << "unexplained drift on "
                  << integrity::SubsystemName(d.surface) << " at epoch "
                  << d.epoch << " (t=" << d.at << ")";
  }
  EXPECT_EQ(r.integrity_drifts, 0u);
  EXPECT_EQ(r.first_drift_epoch, -1);
  EXPECT_EQ(r.outcome, core::OutcomeClass::kNonManifested);
}

// Same, 1AppVM flavors: different workload mix exercises different
// hypercall paths (blk rings, net rings, HVM mode).
TEST(IntegritySystemTest, CleanRunZeroDriftAcrossWorkloads) {
  for (const guest::BenchmarkKind bench :
       {guest::BenchmarkKind::kUnixBench, guest::BenchmarkKind::kBlkBench,
        guest::BenchmarkKind::kNetBench}) {
    core::RunConfig cfg = core::RunConfig::OneAppVm(bench);
    cfg.seed = 11;
    cfg.integrity = true;
    cfg.inject = false;
    core::TargetSystem sys(cfg);
    const core::RunResult r = sys.Run();
    EXPECT_EQ(r.integrity_drifts, 0u)
        << "workload " << guest::BenchmarkName(bench);
  }
}

// The monitor is pure observation: enabling it must not change any
// behavioral outcome, for healthy and faulty runs alike.
TEST(IntegritySystemTest, MonitorDoesNotChangeOutcomes) {
  for (std::uint64_t seed : {101, 102, 103, 104}) {
    core::RunConfig off;
    off.seed = seed;
    off.fault = inject::FaultType::kCode;
    core::RunConfig on = off;
    on.integrity = true;
    const core::RunResult a = core::TargetSystem(off).Run();
    const core::RunResult b = core::TargetSystem(on).Run();
    EXPECT_EQ(a.outcome, b.outcome) << "seed " << seed;
    EXPECT_EQ(a.detected, b.detected) << "seed " << seed;
    EXPECT_EQ(a.recoveries, b.recoveries) << "seed " << seed;
    EXPECT_EQ(a.success, b.success) << "seed " << seed;
    EXPECT_EQ(a.hv_cycles, b.hv_cycles) << "seed " << seed;
    EXPECT_EQ(a.AffectedVmCount(), b.AffectedVmCount()) << "seed " << seed;
  }
}

// A silently planted corruption (no trigger, no manifestation) is flagged
// at the first epoch boundary after it lands — the online
// corruption->detection latency the post-mortem audit cannot measure.
TEST(IntegritySystemTest, PlantFlaggedAtNextEpoch) {
  // Seed 3's static-var draw lands on a latent variable: the corruption
  // never manifests (no panic, no recovery), so only the epoch ladder sees
  // it. A busy surface would be masked by its own legitimate ledger notes;
  // the statics segment is quiescent in steady state, which is exactly the
  // silent-corruption class the monitor exists for.
  core::RunConfig cfg = BaseConfig(3);
  cfg.inject = false;
  inject::PlantSpec plant;
  plant.target = inject::CorruptionTarget::kStaticVar;
  plant.at = sim::Milliseconds(500);
  cfg.inject_plants = {plant};
  core::TargetSystem sys(cfg);
  const core::RunResult r = sys.Run();
  ASSERT_GE(r.integrity_drifts, 1u);
  EXPECT_EQ(r.recoveries, 0) << "plant was supposed to stay latent";
  EXPECT_EQ(r.first_drift_surface, "statics");
  // The plant lands on the epoch grid; the plant event sorts before the
  // tick at the same timestamp, so the drift epoch can coincide exactly.
  EXPECT_GE(r.first_drift_at, plant.at);
  // Within one epoch period of the plant (the sched-tick default).
  EXPECT_LE(r.first_drift_at, plant.at + sim::Milliseconds(10));
}

// Proactive rejuvenation: the same latent plant that a reactive
// configuration never recovers from triggers the configured mechanism at
// the drift epoch when proactive is armed.
TEST(IntegritySystemTest, ProactiveRejuvenationRecoversLatentPlant) {
  inject::PlantSpec plant;
  plant.target = inject::CorruptionTarget::kStaticVar;
  plant.at = sim::Milliseconds(500);

  core::RunConfig reactive = BaseConfig(18);  // latent static-var draw
  reactive.inject = false;
  reactive.inject_plants = {plant};
  const core::RunResult r0 = core::TargetSystem(reactive).Run();
  EXPECT_GE(r0.integrity_drifts, 1u);
  EXPECT_EQ(r0.recoveries, 0);
  EXPECT_EQ(r0.rejuvenations, 0);

  core::RunConfig proactive = reactive;
  proactive.proactive = true;
  proactive.proactive_threshold = 1;
  core::TargetSystem sys(proactive);
  const core::RunResult r1 = sys.Run();
  EXPECT_GE(r1.rejuvenations, 1);
  EXPECT_GE(r1.recoveries, 1);
  EXPECT_TRUE(r1.detected);
  ASSERT_NE(sys.rejuvenation(), nullptr);
  EXPECT_GE(sys.rejuvenation()->triggers(), 1);
}

// The rejuvenation threshold gates triggering: threshold 2 needs two
// distinct drift events before the first trigger.
TEST(IntegritySystemTest, RejuvenationThresholdGates) {
  inject::PlantSpec plant;
  plant.target = inject::CorruptionTarget::kStaticVar;
  plant.at = sim::Milliseconds(500);
  core::RunConfig cfg = BaseConfig(19);  // latent static-var draw
  cfg.inject = false;
  cfg.inject_plants = {plant};
  cfg.proactive = true;
  cfg.proactive_threshold = 99;  // unreachable: one plant, one drift
  const core::RunResult r = core::TargetSystem(cfg).Run();
  EXPECT_GE(r.integrity_drifts, 1u);
  EXPECT_EQ(r.rejuvenations, 0);
  EXPECT_EQ(r.recoveries, 0);
}

// On-drift online audit: with audit also armed, each drift immediately
// runs the matching per-subsystem StateAuditor pass.
TEST(IntegritySystemTest, OnlineAuditPassRunsOnDrift) {
  inject::PlantSpec plant;
  plant.target = inject::CorruptionTarget::kStaticVar;
  plant.at = sim::Milliseconds(500);
  core::RunConfig cfg = BaseConfig(43);  // latent, non-benign static-var draw
  cfg.inject = false;
  cfg.inject_plants = {plant};
  cfg.audit = true;
  core::TargetSystem sys(cfg);
  const core::RunResult r = sys.Run();
  ASSERT_GE(r.integrity_drifts, 1u);
  EXPECT_GE(r.online_audit_findings, 1);
  EXPECT_GE(sys.online_audit_report().CorruptionCount(), 1);
  EXPECT_TRUE(sys.online_audit_report().HasInvariant("static.corrupted"));
}

// --- Campaign aggregation ---------------------------------------------------

TEST(IntegrityCampaignTest, AggregatesAndIsThreadCountInvariant) {
  core::RunConfig cfg;
  cfg.fault = inject::FaultType::kMemory;
  cfg.integrity = true;
  core::CampaignOptions opt;
  opt.runs = 12;
  opt.seed0 = 9000;
  opt.threads = 1;
  const core::CampaignResult a = core::RunCampaign(cfg, opt);
  opt.threads = 3;
  const core::CampaignResult b = core::RunCampaign(cfg, opt);
  EXPECT_EQ(a.ToJson(), b.ToJson());
  EXPECT_TRUE(a.integrity);
  EXPECT_GT(a.total_epochs, 0u);
  EXPECT_NE(a.ToJson().find("\"integrity\":{"), std::string::npos);
  EXPECT_NE(a.ToJson().find("\"drift_latency\""), std::string::npos);
}

TEST(IntegrityCampaignTest, JsonOmitsIntegrityBlockWhenOff) {
  core::RunConfig cfg;
  core::CampaignOptions opt;
  opt.runs = 2;
  opt.seed0 = 9100;
  opt.threads = 1;
  const core::CampaignResult r = core::RunCampaign(cfg, opt);
  EXPECT_FALSE(r.integrity);
  EXPECT_EQ(r.ToJson().find("\"integrity\""), std::string::npos);
}

// Warm-fork byte-equality: the ladder, the trail and every integrity field
// fork with the run.
TEST(IntegrityCampaignTest, WarmForkMatchesColdLadder) {
  core::RunConfig base;
  base.fault = inject::FaultType::kMemory;
  base.integrity = true;
  std::vector<core::RunConfig> cfgs;
  for (std::uint64_t s = 0; s < 6; ++s) {
    core::RunConfig c = base;
    c.seed = 5000 + s;
    cfgs.push_back(c);
  }
  const std::vector<core::RunResult> cold = core::RunMany(cfgs, 2);
  const std::vector<core::RunResult> warm =
      core::RunManyWarmForked(cfgs, 2, sim::Milliseconds(100));
  ASSERT_EQ(cold.size(), warm.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(cold[i].integrity_epochs, warm[i].integrity_epochs) << i;
    EXPECT_EQ(cold[i].integrity_drifts, warm[i].integrity_drifts) << i;
    EXPECT_EQ(cold[i].first_drift_epoch, warm[i].first_drift_epoch) << i;
    EXPECT_EQ(cold[i].first_drift_at, warm[i].first_drift_at) << i;
    EXPECT_EQ(cold[i].first_drift_surface, warm[i].first_drift_surface) << i;
    EXPECT_EQ(cold[i].drift_trail, warm[i].drift_trail) << i;
    EXPECT_EQ(cold[i].outcome, warm[i].outcome) << i;
  }
}

// --- Differential oracle ----------------------------------------------------

TEST(IntegrityOracleTest, JudgeFlagsTrailDivergence) {
  fuzz::Scenario s;
  s.integrity = true;
  // Two mechanism variants with identical behavioral verdicts but
  // different drift trails: the new divergence class fires.
  core::RunResult results[3];
  for (core::RunResult& r : results) {
    r.integrity = true;
    r.detected = true;
    r.recoveries = 1;
    r.success = true;
    r.outcome = core::OutcomeClass::kDetected;
    r.integrity_drifts = 1;
    r.first_drift_epoch = 40;
    r.first_drift_surface = "heap";
    r.drift_trail = 0x1111;
  }
  results[1].drift_trail = 0x2222;  // same epoch+surface, different sequence
  const fuzz::OracleOutcome o = fuzz::Judge(s, results);
  EXPECT_EQ(o.divergence, fuzz::DivergenceKind::kIntegrityDrift);
  EXPECT_NE(o.detail.find("trails differ"), std::string::npos);
  EXPECT_NE(o.divergence_signature, 0u);
}

TEST(IntegrityOracleTest, JudgeFlagsFirstEpochDivergence) {
  fuzz::Scenario s;
  s.integrity = true;
  core::RunResult results[3];
  for (core::RunResult& r : results) {
    r.integrity = true;
    r.outcome = core::OutcomeClass::kNonManifested;
  }
  results[0].integrity_drifts = 1;
  results[0].first_drift_epoch = 12;
  results[0].first_drift_surface = "grant_table";
  results[0].drift_trail = 0x77;
  const fuzz::OracleOutcome o = fuzz::Judge(s, results);
  EXPECT_EQ(o.divergence, fuzz::DivergenceKind::kIntegrityDrift);
  EXPECT_NE(o.detail.find("epoch 12 on grant_table"), std::string::npos);
  EXPECT_NE(o.detail.find("no drift"), std::string::npos);
}

TEST(IntegrityOracleTest, NoDivergenceWhenLaddersAgree) {
  fuzz::Scenario s;
  s.integrity = true;
  core::RunResult results[3];
  for (core::RunResult& r : results) {
    r.integrity = true;
    r.outcome = core::OutcomeClass::kNonManifested;
    r.integrity_drifts = 2;
    r.first_drift_epoch = 9;
    r.first_drift_surface = "timer";
    r.drift_trail = 0xabc;
  }
  const fuzz::OracleOutcome o = fuzz::Judge(s, results);
  EXPECT_EQ(o.divergence, fuzz::DivergenceKind::kNone);
}

TEST(IntegrityOracleTest, ScenarioRoundTripsIntegrityFlag) {
  fuzz::Scenario s;
  s.integrity = true;
  const std::string json = s.ToJson();
  EXPECT_NE(json.find("\"integrity\":true"), std::string::npos);
  sim::JsonValue v;
  ASSERT_TRUE(sim::ParseJson(json, &v));
  fuzz::Scenario back;
  ASSERT_TRUE(fuzz::Scenario::FromJson(v, &back));
  EXPECT_TRUE(back.integrity);
  EXPECT_EQ(back.ToJson(), json);

  // Absent field stays false — pre-existing documents are untouched.
  fuzz::Scenario plain;
  EXPECT_EQ(plain.ToJson().find("\"integrity\""), std::string::npos);
}

TEST(IntegrityOracleTest, VerdictJsonConditional) {
  core::RunResult r;
  fuzz::PolicyVerdict off =
      fuzz::MakeVerdict(core::Mechanism::kNiLiHype, r);
  EXPECT_EQ(off.ToJson().find("drift_trail"), std::string::npos);
  r.integrity = true;
  r.drift_trail = 0xdeadbeefcafef00dULL;
  r.first_drift_epoch = 3;
  fuzz::PolicyVerdict on = fuzz::MakeVerdict(core::Mechanism::kNiLiHype, r);
  const std::string json = on.ToJson();
  EXPECT_NE(json.find("\"drift_trail\":\"0xdeadbeefcafef00d\""),
            std::string::npos);
  EXPECT_NE(json.find("\"first_drift_epoch\":3"), std::string::npos);
}

}  // namespace
}  // namespace nlh
