// Adversarial battery for the PrivVM component recovery path: every fault
// class that targets the PrivVM (ring pointer desync, lost response,
// duplicate grant ref, kernel crash) paired with the audit invariant that
// names it and the repair that must clear it — plus the detector that turns
// component failures into recoveries, and system-level goldens proving the
// composed path (hypervisor mechanism + PrivVM recovery, with faults planted
// mid-recovery) stays bit-deterministic across thread counts and across the
// warm-fork campaign runner.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "audit/state_auditor.h"
#include "core/campaign.h"
#include "core/config.h"
#include "core/outcome.h"
#include "core/target_system.h"
#include "detect/privvm_detector.h"
#include "guest/appvm.h"
#include "guest/devices.h"
#include "guest/privvm.h"
#include "hv/hypervisor.h"
#include "recovery/privvm_recovery.h"
#include "sim/rng.h"

namespace nlh {
namespace {

// ---------------------------------------------------------------------------
// Component-level fixture: the minimal hand-built PrivVM + one blk frontend
// system (same wiring as the backend tests), plus the recovery path and an
// auditor armed with the guest context.
// ---------------------------------------------------------------------------

class PrivVmRecoveryTest : public ::testing::Test {
 protected:
  PrivVmRecoveryTest() : platform_(Cfg(), 5), hv_(platform_, hv::HvConfig{}) {
    hv_.Boot();
    priv_id_ = hv_.CreateDomainDirect("dom0", true, 0, 64);
    privvm_ = std::make_unique<guest::PrivVmKernel>(hv_, 9);
    privvm_->Bind(priv_id_, hv_.FindDomain(priv_id_)->vcpus.front());
    hv_.AttachGuest(priv_id_, privvm_.get());

    disk_ = std::make_unique<guest::VirtualDisk>(platform_, 0);
    privvm_->AttachDisk(disk_.get());
    hv::Domain* priv = hv_.FindDomain(priv_id_);
    const hv::EventPort p = priv->evtchn.AllocUnbound(priv_id_, 0);
    hv_.BindDeviceVector(hw::vec::kBlk, priv_id_, p);

    app_id_ = hv_.CreateDomainDirect("app", false, 1, 64);
    app_ = std::make_unique<guest::AppVmKernel>(
        hv_, "app", 10, guest::BenchmarkKind::kBlkBench, 5);
    app_->Bind(app_id_, hv_.FindDomain(app_id_)->vcpus.front());
    hv_.AttachGuest(app_id_, app_.get());

    hv::Domain* ad = hv_.FindDomain(app_id_);
    const hv::EventPort p_app =
        ad->evtchn.AllocUnbound(priv_id_, ad->vcpus.front());
    const hv::EventPort p_priv = priv->evtchn.AllocUnbound(app_id_, 0);
    ad->evtchn.BindInterdomain(p_app, priv_id_, p_priv);
    priv->evtchn.BindInterdomain(p_priv, app_id_, p_app);
    app_->ConnectBlk(&ring_, p_app);
    privvm_->ConnectBlkFrontend(app_id_, &ring_, p_priv);

    hv_.StartDomain(priv_id_);
    hv_.StartDomain(app_id_);

    recovery_ = std::make_unique<recovery::PrivVmRecovery>(hv_, *privvm_);
    recovery_->AddFrontend(app_.get());
  }

  static hw::PlatformConfig Cfg() {
    hw::PlatformConfig cfg;
    cfg.num_cpus = 2;
    cfg.memory_gib = 1;
    return cfg;
  }

  // Just the component passes (privvm_backend + io_ring): the battery pins
  // one corruption to one invariant, so the hypervisor-wide sweep would only
  // add noise here.
  audit::AuditReport ComponentAudit() {
    audit::StateAuditor auditor(hv_);
    auditor.SetGuestContext(privvm_.get(), {app_.get()});
    audit::AuditReport r;
    auditor.AuditPrivVmBackend(r);
    auditor.AuditIoRings(r);
    return r;
  }

  hv::DetectionEvent Ev(hv::DetectionKind kind = hv::DetectionKind::kPanic) {
    hv::DetectionEvent ev;
    ev.cpu = 0;
    ev.kind = kind;
    ev.code = kind == hv::DetectionKind::kPanic
                  ? hv::FailureCode::kAssertFailure
                  : hv::FailureCode::kWatchdogStall;
    ev.when = platform_.Now();
    ev.detail = "test";
    return ev;
  }

  // Advance event by event until `done()` holds (bounded, so a wedged
  // system fails the ASSERT instead of hanging the test).
  template <typename Pred>
  bool StepUntil(Pred done) {
    while (!done() && !platform_.queue().Empty() &&
           platform_.Now() < sim::Seconds(1)) {
      platform_.queue().RunOne();
    }
    return done();
  }

  void ExpectConvergedClean() {
    platform_.queue().RunUntil(sim::Seconds(2));
    EXPECT_TRUE(app_->BenchmarkDone());
    EXPECT_EQ(app_->io_errors(), 0);
    EXPECT_EQ(hv_.FindDomain(app_id_)->grants.MappedCount(), 0);
    EXPECT_EQ(hv_.frames().CountInconsistent(), 0u);
    const audit::AuditReport post = ComponentAudit();
    EXPECT_TRUE(post.clean()) << post.ToJson();
  }

  hw::Platform platform_;
  hv::Hypervisor hv_;
  hv::DomainId priv_id_ = hv::kInvalidDomain;
  hv::DomainId app_id_ = hv::kInvalidDomain;
  std::unique_ptr<guest::PrivVmKernel> privvm_;
  std::unique_ptr<guest::AppVmKernel> app_;
  std::unique_ptr<guest::VirtualDisk> disk_;
  std::unique_ptr<recovery::PrivVmRecovery> recovery_;
  guest::BlkRing ring_;
};

// --- One corruption per invariant ------------------------------------------

TEST_F(PrivVmRecoveryTest, RingPointerDesyncIsAuditedThenRepaired) {
  ASSERT_TRUE(StepUntil([&] { return privvm_->ios_served() > 0; }));
  sim::Rng rng(42);
  ASSERT_TRUE(privvm_->CorruptRingCounters(rng));
  ASSERT_FALSE(ring_.CountersConsistent());

  const audit::AuditReport before = ComponentAudit();
  EXPECT_TRUE(before.HasInvariant("io_ring.counters")) << before.ToJson();

  recovery_->Recover(Ev());
  EXPECT_GE(recovery_->last_stats().rings_resynced, 1);
  EXPECT_TRUE(ring_.CountersConsistent());
  EXPECT_FALSE(ComponentAudit().HasInvariant("io_ring.counters"));

  ExpectConvergedClean();
}

TEST_F(PrivVmRecoveryTest, LostResponseIsRequeuedAndWorkloadCompletes) {
  // Catch the backend mid-op, then make it silently forget the request.
  ASSERT_TRUE(StepUntil([&] { return privvm_->blk_op().active; }));
  sim::Rng rng(7);
  ASSERT_TRUE(privvm_->CorruptBackendQueue(rng));

  const audit::AuditReport before = ComponentAudit();
  EXPECT_TRUE(before.HasInvariant("privvm.lost_response")) << before.ToJson();

  recovery_->Recover(Ev());
  const recovery::PrivVmRepairStats& s = recovery_->last_stats();
  EXPECT_GE(s.inflight_requeued + s.responses_synthesized, 1);
  EXPECT_FALSE(ComponentAudit().HasInvariant("privvm.lost_response"));

  ExpectConvergedClean();
}

TEST_F(PrivVmRecoveryTest, DuplicateGrantRefIsDroppedBeforeSecondService) {
  // The duplicate must land while the original still sits queued (backend
  // not yet serving it), so the ring visibly carries the same id twice.
  ASSERT_TRUE(StepUntil(
      [&] { return !ring_.requests.empty() && !privvm_->blk_op().active; }));
  sim::Rng rng(11);
  ASSERT_TRUE(privvm_->InjectDuplicateRingRequest(rng));

  const audit::AuditReport before = ComponentAudit();
  EXPECT_TRUE(before.HasInvariant("io_ring.duplicate_id")) << before.ToJson();

  recovery_->Recover(Ev());
  EXPECT_GE(recovery_->last_stats().duplicates_dropped, 1);
  EXPECT_FALSE(ComponentAudit().HasInvariant("io_ring.duplicate_id"));

  // Had the duplicate been served, the grant's transfer count would exceed
  // one and the frontend would flag an I/O error; dropped in time, the run
  // finishes clean.
  ExpectConvergedClean();
}

TEST_F(PrivVmRecoveryTest, CrashedKernelIsResetAndWorkloadCompletes) {
  privvm_->CorruptKernelState();
  ASSERT_TRUE(StepUntil([&] { return privvm_->crashed(); }));

  const audit::AuditReport before = ComponentAudit();
  EXPECT_TRUE(before.HasInvariant("privvm.kernel_alive")) << before.ToJson();

  recovery_->Recover(Ev());
  EXPECT_TRUE(recovery_->last_stats().kernel_reset);
  EXPECT_FALSE(privvm_->crashed());
  EXPECT_FALSE(privvm_->kernel_state_corrupted());
  EXPECT_FALSE(ComponentAudit().HasInvariant("privvm.kernel_alive"));

  ExpectConvergedClean();
}

TEST_F(PrivVmRecoveryTest, RepeatedCrashRecoverCyclesConverge) {
  // The mid-recovery corruption shape at component level: the PrivVM goes
  // down again right after a recovery handed it back — the second cycle
  // must repair from the (partially replayed) state the first one left.
  privvm_->CorruptKernelState();
  ASSERT_TRUE(StepUntil([&] { return privvm_->crashed(); }));
  recovery_->Recover(Ev());

  privvm_->CorruptKernelState();
  ASSERT_TRUE(StepUntil([&] { return privvm_->crashed(); }));
  recovery_->Recover(Ev());
  EXPECT_EQ(recovery_->recoveries(), 2);

  ExpectConvergedClean();
}

// --- Detector --------------------------------------------------------------

TEST_F(PrivVmRecoveryTest, DetectorStaysQuietOnHealthyRun) {
  detect::PrivVmDetector det(hv_, *privvm_);
  det.SetOnFailure([](const hv::DetectionEvent&) { FAIL(); });
  det.Start();
  platform_.queue().RunUntil(sim::Seconds(2));
  EXPECT_TRUE(app_->BenchmarkDone());
  EXPECT_EQ(det.detections(), 0u);
}

TEST_F(PrivVmRecoveryTest, DetectorDrivesCrashRecoveryClosedLoop) {
  detect::PrivVmDetector det(hv_, *privvm_);
  std::vector<hv::DetectionEvent> events;
  det.SetOnFailure([&](const hv::DetectionEvent& ev) {
    events.push_back(ev);
    recovery_->Recover(ev);
  });
  det.Start();

  privvm_->CorruptKernelState();
  platform_.queue().RunUntil(sim::Seconds(2));

  ASSERT_GE(events.size(), 1u);
  EXPECT_EQ(events.front().kind, hv::DetectionKind::kPanic);
  EXPECT_EQ(events.front().code, hv::FailureCode::kAssertFailure);
  EXPECT_GE(recovery_->recoveries(), 1);
  EXPECT_TRUE(app_->BenchmarkDone());
  EXPECT_EQ(app_->io_errors(), 0);
  EXPECT_TRUE(ComponentAudit().clean());
}

TEST(PrivVmDetectorStandalone, HangFiresOnStalledBackendWithPendingWork) {
  // A backend that never runs while a request sits in its ring is the hang
  // signature: served-I/O counter frozen + demonstrably pending work.
  hw::PlatformConfig cfg;
  cfg.num_cpus = 2;
  cfg.memory_gib = 1;
  hw::Platform platform(cfg, 5);
  hv::Hypervisor hv(platform, hv::HvConfig{});
  hv.Boot();
  const hv::DomainId priv_id = hv.CreateDomainDirect("dom0", true, 0, 64);
  guest::PrivVmKernel privvm(hv, 9);
  privvm.Bind(priv_id, hv.FindDomain(priv_id)->vcpus.front());
  hv.AttachGuest(priv_id, &privvm);

  guest::BlkRing ring;
  privvm.ConnectBlkFrontend(1, &ring, hv::kInvalidPort);
  guest::BlkRequest req;
  req.id = 1;
  ring.PushRequest(req);
  // The domain is never started: pending work, no service.

  detect::PrivVmDetector det(hv, privvm);
  std::vector<hv::DetectionEvent> events;
  det.SetOnFailure(
      [&](const hv::DetectionEvent& ev) { events.push_back(ev); });
  det.Start();
  platform.queue().RunUntil(sim::Seconds(1));

  ASSERT_GE(events.size(), 1u);
  EXPECT_EQ(events.front().kind, hv::DetectionKind::kHang);
  EXPECT_EQ(events.front().code, hv::FailureCode::kWatchdogStall);
}

// ---------------------------------------------------------------------------
// System-level goldens: the composed path (hypervisor mechanism + PrivVM
// recovery + faults planted during the recovery window) under every
// mechanism, bit-deterministic at 1/4/8 threads and across the
// warm-fork runner.
// ---------------------------------------------------------------------------

// Canonical serialization of every field classification, aggregation, or
// forensics reads — including the PrivVM component counters, which is what
// distinguishes these goldens from the plain warm-fork ones.
std::string Canon(const core::RunResult& r) {
  std::ostringstream o;
  o << "outcome=" << static_cast<int>(r.outcome) << " detected=" << r.detected
    << " recoveries=" << r.recoveries
    << " privvm_recoveries=" << r.privvm_recoveries
    << " privvm_repairs=" << r.privvm_repairs << " dead=" << r.system_dead
    << " death_code=" << static_cast<int>(r.death_code)
    << " death_reason=" << r.death_reason
    << " first_latency=" << r.first_recovery_latency << "\nphases:";
  for (const core::PhaseLatency& p : r.recovery_phases) {
    o << " [" << p.phase << "|" << p.label << "|" << p.latency << "]";
  }
  o << "\nvms:";
  for (const core::VmVerdict& v : r.vms) {
    o << " [" << v.name << "|" << v.affected << "|" << v.why << "]";
  }
  o << "\nprivvm_ok=" << r.privvm_ok << " vm3_attempted=" << r.vm3_attempted
    << " vm3_ok=" << r.vm3_ok << " success=" << r.success
    << " no_vm_failures=" << r.no_vm_failures
    << " failure_reason=" << static_cast<int>(r.failure_reason)
    << " failure_detail=" << r.failure_detail << "\naudited=" << r.audited
    << " audit_clean=" << r.audit_clean << " latent=" << r.latent_corruption
    << " audit_findings=" << r.audit_report.findings.size()
    << "\ninj_fired=" << r.injection_fired << " injected_at=" << r.injected_at
    << " inj_cpu=" << r.injection_cpu
    << " manifestation=" << static_cast<int>(r.manifestation)
    << "\ninj_corruptions:";
  for (const std::string& c : r.injection_corruptions) o << " " << c;
  o << "\nplanted:";
  for (const std::string& c : r.planted_corruptions) o << " " << c;
  o << "\ndet_kind=" << static_cast<int>(r.detection.kind)
    << " det_code=" << static_cast<int>(r.detection.code)
    << " det_cpu=" << r.detection.cpu << " det_latency=" << r.detection_latency
    << " det_class=" << static_cast<int>(r.detection_class)
    << " hv_cycles=" << r.hv_cycles << " total_cycles=" << r.total_cycles;
  return o.str();
}

// A hypervisor failstop with two PrivVM-targeted plants deferred into the
// recovery window: the correlated hypervisor + PrivVM failure, with the
// component damage landing while the mechanism is mid-repair.
core::RunConfig CorrelatedConfig(core::Mechanism mech, std::uint64_t seed) {
  core::RunConfig cfg;
  cfg.mechanism = mech;
  cfg.privvm_recovery = true;
  cfg.audit = true;
  cfg.fault = inject::FaultType::kFailstop;
  cfg.seed = seed;
  inject::PlantSpec queue;
  queue.target = inject::CorruptionTarget::kPrivVmBackendQueue;
  queue.during_recovery = true;
  queue.at = sim::Microseconds(200);
  cfg.inject_plants.push_back(queue);
  inject::PlantSpec rings;
  rings.target = inject::CorruptionTarget::kIoRingPointers;
  rings.during_recovery = true;
  rings.at = sim::Microseconds(700);
  cfg.inject_plants.push_back(rings);
  return cfg;
}

TEST(PrivVmSystemGolden, CorrelatedFaultsConvergeUnderEveryMechanism) {
  for (const core::Mechanism mech :
       {core::Mechanism::kNiLiHype, core::Mechanism::kReHype,
        core::Mechanism::kSnapRes}) {
    core::TargetSystem sys(CorrelatedConfig(mech, 4242));
    const core::RunResult r = sys.Run();
    SCOPED_TRACE(core::MechanismName(mech));
    EXPECT_TRUE(r.detected);
    EXPECT_GE(r.recoveries, 1);
    // The component path must have run after the mechanism's resume point.
    EXPECT_GE(r.privvm_recoveries, 1);
    EXPECT_TRUE(r.privvm_ok);
    EXPECT_FALSE(r.system_dead) << r.death_reason;
  }
}

TEST(PrivVmSystemGolden, MixedMechanismBatchIsThreadCountInvariant) {
  // Correlated scenarios across all three mechanisms plus plain PrivVM-only
  // memory faults, one batch: RunMany must produce bit-identical results at
  // every thread count.
  std::vector<core::RunConfig> configs;
  const core::Mechanism mechs[] = {core::Mechanism::kNiLiHype,
                                   core::Mechanism::kReHype,
                                   core::Mechanism::kSnapRes};
  for (int i = 0; i < 6; ++i) {
    configs.push_back(CorrelatedConfig(mechs[i % 3], 9000 + i));
  }
  for (int i = 0; i < 3; ++i) {
    core::RunConfig cfg;
    cfg.mechanism = mechs[i];
    cfg.privvm_recovery = true;
    cfg.audit = true;
    cfg.fault = inject::FaultType::kMemory;
    cfg.seed = 9100 + static_cast<std::uint64_t>(i);
    inject::PlantSpec dup;
    dup.target = inject::CorruptionTarget::kIoRingDupGrant;
    dup.at = sim::Milliseconds(400);
    cfg.inject_plants.push_back(dup);
    configs.push_back(cfg);
  }

  const std::vector<core::RunResult> base = core::RunMany(configs, 1);
  ASSERT_EQ(base.size(), configs.size());
  for (const int threads : {4, 8}) {
    const std::vector<core::RunResult> got = core::RunMany(configs, threads);
    ASSERT_EQ(got.size(), base.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(Canon(got[i]), Canon(base[i]))
          << "threads=" << threads << " run=" << i;
    }
  }
}

TEST(PrivVmSystemGolden, WarmForkMatchesColdWithPrivVmRecovery) {
  // The component path adds run state (detector counters, repair stats) to
  // the fork image: a warm-forked run inheriting another run's PrivVM state
  // breaks this golden.
  std::vector<core::RunConfig> configs;
  for (int i = 0; i < 6; ++i) {
    configs.push_back(CorrelatedConfig(core::Mechanism::kNiLiHype,
                                       11000 + static_cast<std::uint64_t>(i)));
  }
  const std::vector<core::RunResult> cold = core::RunMany(configs, 1);
  ASSERT_EQ(cold.size(), configs.size());
  for (const int threads : {1, 4, 8}) {
    const std::vector<core::RunResult> warm =
        core::RunManyWarmForked(configs, threads, sim::Milliseconds(100));
    ASSERT_EQ(warm.size(), cold.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < cold.size(); ++i) {
      EXPECT_EQ(Canon(warm[i]), Canon(cold[i]))
          << "threads=" << threads << " run=" << i
          << " seed=" << configs[i].seed;
    }
  }
}

}  // namespace
}  // namespace nlh
