#include "core/target_system.h"

#include <algorithm>

#include "audit/state_auditor.h"
#include "recovery/nilihype.h"
#include "recovery/rehype.h"
#include "recovery/snapres.h"

namespace nlh::core {

namespace {

// Work of the BlkBench VM created after recovery (~0.5 s check).
constexpr int kVm3BlkBenchFiles = 800;

// Seeds of the per-run RNG streams, derived from the run seed. A cold
// Build() and RearmForSeed() both derive through these, so a re-armed warm
// fork draws exactly the streams a cold boot of the same seed would.
std::uint64_t RunRngSeed(std::uint64_t seed) { return seed ^ 0xa5a5a5a5ULL; }
std::uint64_t PrivVmSeed(std::uint64_t seed) { return seed ^ 0x111; }
std::uint64_t AppVmSeed(std::uint64_t seed, hv::DomainId id) {
  return seed ^ (0x1000ULL + static_cast<std::uint64_t>(id));
}

// The injection trigger time: the first draw of the run RNG stream.
sim::Time DrawFirstTrigger(const RunConfig& cfg, sim::Rng& run_rng) {
  return cfg.inject_window_start +
         run_rng.Range(0, cfg.inject_window_end - cfg.inject_window_start);
}

}  // namespace

const char* OutcomeClassName(OutcomeClass c) {
  switch (c) {
    case OutcomeClass::kNonManifested: return "non-manifested";
    case OutcomeClass::kSdc: return "SDC";
    case OutcomeClass::kDetected: return "detected";
  }
  return "?";
}

TargetSystem::TargetSystem(const RunConfig& config)
    : TargetSystem(config, nullptr) {}

TargetSystem::TargetSystem(const RunConfig& config, RunArena* arena)
    : config_(config), arena_(arena), run_rng_(RunRngSeed(config.seed)) {
  Build();
}

sim::Time TargetSystem::FirstTrigger(const RunConfig& config) {
  sim::Rng run_rng(RunRngSeed(config.seed));
  return DrawFirstTrigger(config, run_rng);
}

TargetSystem::~TargetSystem() {
  // Hand the event queue's buffers back to the worker's arena so the next
  // run starts with warmed capacity instead of growing from zero.
  if (arena_ != nullptr && platform_ != nullptr) {
    arena_->queue = platform_->queue().ReleaseStorage();
  }
}

void TargetSystem::Build() {
  platform_ = std::make_unique<hw::Platform>(config_.platform, config_.seed);
  // Adopt recycled buffers before anything is scheduled (Platform's
  // constructor schedules nothing; timers start later, during Boot()).
  if (arena_ != nullptr) {
    platform_->queue().AdoptStorage(std::move(arena_->queue));
  }
  hv_ = std::make_unique<hv::Hypervisor>(*platform_, config_.MakeHvConfig());
  hv_->Boot();

  // Detection + recovery.
  hang_ = std::make_unique<detect::HangDetector>(*hv_);
  hang_->Install();
  std::unique_ptr<recovery::RecoveryMechanism> mech;
  switch (config_.mechanism) {
    case Mechanism::kNone:
      break;
    case Mechanism::kNiLiHype:
      mech = std::make_unique<recovery::NiLiHype>(*hv_, config_.enhancements);
      break;
    case Mechanism::kReHype:
      mech = std::make_unique<recovery::ReHype>(*hv_, config_.enhancements);
      break;
    case Mechanism::kSnapRes:
      mech = std::make_unique<recovery::SnapRes>(*hv_, config_.enhancements,
                                                 config_.snapshot_period);
      break;
  }
  manager_ = std::make_unique<recovery::RecoveryManager>(*hv_, std::move(mech),
                                                         hang_.get());
  manager_->Install();
  // During-recovery fault plants: the injector defers PlantSpecs marked
  // during_recovery until a detection names the recovery window.
  manager_->SetOnDetection([this](const hv::DetectionEvent& ev) {
    if (injector_ != nullptr) injector_->ScheduleRecoveryPlants(ev.when);
  });
  // Fleet-visible failure seam: record how long the first failed recovery
  // spent before giving up (detection→give-up offset). Kept separate from
  // SetOnRecovered so the privvm composition below is untouched.
  manager_->SetOnRecoveryFailed([this](const hv::DetectionEvent&,
                                       hv::FailureReason,
                                       sim::Duration spent) {
    if (recovery_failed_after_ < 0) recovery_failed_after_ = spent;
  });
  if (config_.privvm_recovery) {
    // Correlated-failure composition: the mechanism restores the hypervisor
    // but cannot see the backend's rings and in-flight op, so every
    // successful hypervisor recovery is followed by a PrivVM repair pass at
    // the resume point.
    manager_->SetOnRecovered([this](const recovery::RecoveryReport& rep) {
      const hv::DetectionEvent ev = manager_->last_detection();
      platform_->queue().ScheduleAt(rep.resumed_at, [this, ev] {
        hv::DetectionEvent e = ev;
        e.when = platform_->Now();
        RunPrivVmRecovery(e);
      });
    });
  }

  // PrivVM (Dom0) on CPU 0 with the device backends.
  const hv::DomainId priv_id =
      hv_->CreateDomainDirect("PrivVM", /*privileged=*/true, /*cpu=*/0,
                              /*frames=*/128);
  privvm_ = std::make_unique<guest::PrivVmKernel>(*hv_,
                                                  PrivVmSeed(config_.seed));
  privvm_->Bind(priv_id, hv_->FindDomain(priv_id)->vcpus.front());
  hv_->AttachGuest(priv_id, privvm_.get());

  disk_ = std::make_unique<guest::VirtualDisk>(*platform_, /*irq_cpu=*/0);
  privvm_->AttachDisk(disk_.get());
  // Block device IRQ -> PrivVM event port.
  {
    hv::Domain* priv = hv_->FindDomain(priv_id);
    const hv::EventPort p =
        priv->evtchn.AllocUnbound(priv_id, priv->vcpus.front());
    hv_->BindDeviceVector(hw::vec::kBlk, priv_id, p);
  }

  // PrivVM component detection + repair: the hypervisor watchdog cannot see
  // a dead backend under a healthy hypervisor, so a component-level
  // detector routes PrivVM-only failures straight to the component repair
  // (never to the mechanism). Built before the AppVMs so WireBlk can
  // register every frontend as it is wired.
  if (config_.privvm_recovery) {
    privvm_recovery_ =
        std::make_unique<recovery::PrivVmRecovery>(*hv_, *privvm_);
    privvm_detector_ = std::make_unique<detect::PrivVmDetector>(*hv_, *privvm_);
    privvm_detector_->SetOnFailure(
        [this](const hv::DetectionEvent& ev) { RunPrivVmRecovery(ev); });
    privvm_detector_->Start();
  }

  // Integrity observability chain: epoch monitor -> (online audit pass,
  // rejuvenation policy). The monitor compares the per-surface hash ladder
  // against the mutation ledger every scheduler epoch; with config.audit
  // each unexplained drift runs the drifted surface's StateAuditor pass,
  // and with config.proactive it feeds the policy, which triggers the
  // configured recovery mechanism before the corruption manifests.
  if (config_.integrity) {
    monitor_ = std::make_unique<integrity::EpochMonitor>(*hv_);
    if (config_.proactive) {
      rejuvenation_ = std::make_unique<recovery::RejuvenationPolicy>(
          *hv_, config_.proactive_threshold);
    }
    monitor_->SetOnDrift([this](const integrity::DriftEvent& drift) {
      // Online audit first: the per-subsystem pass must see the state at
      // the drift epoch, before any proactive recovery rewrites it.
      if (config_.audit) {
        audit::StateAuditor(*hv_).RunPass(drift.surface, online_audit_);
      }
      if (rejuvenation_ != nullptr) rejuvenation_->OnDrift(drift);
    });
    monitor_->Start();
  }

  // The toolstack factory builds BlkBench VMs created at runtime (VM3).
  privvm_->SetVmFactory([this](hv::DomainId created) {
    auto vm = std::make_unique<guest::AppVmKernel>(
        *hv_, "BlkBench-VM3", config_.seed ^ 0x333,
        guest::BenchmarkKind::kBlkBench, kVm3BlkBenchFiles);
    vm->Bind(created, hv_->FindDomain(created)->vcpus.front());
    hv_->AttachGuest(created, vm.get());
    WireBlk(vm.get());
    vm3_ = vm.get();
    vm3_created_ = true;
    appvms_.push_back(std::move(vm));
  });

  // Initial AppVMs.
  if (config_.setup == Setup::k1AppVM) {
    const int iters = (config_.bench_1appvm == guest::BenchmarkKind::kBlkBench)
                          ? config_.blkbench_files
                          : config_.unixbench_iterations;
    AddAppVm(config_.bench_1appvm, iters, /*cpu=*/1);
    initial_appvm_count_ = 1;
  } else {
    AddAppVm(guest::BenchmarkKind::kUnixBench, config_.unixbench_iterations,
             /*cpu=*/1);
    AddAppVm(guest::BenchmarkKind::kNetBench, /*iterations=*/1 << 30,
             /*cpu=*/config_.share_cpu ? 1 : 2);
    initial_appvm_count_ = 2;
    if (config_.vm3_at_start) {
      AddAppVm(guest::BenchmarkKind::kBlkBench, config_.blkbench_files,
               /*cpu=*/3);
      initial_appvm_count_ = 3;
      vm3_attempted_ = true;  // no post-recovery creation in this variant
    }
  }

  hv_->StartDomain(priv_id);
  for (auto& vm : appvms_) hv_->StartDomain(vm->domain());

  if (peer_ != nullptr) {
    // Let the system settle briefly, then ping for the configured duration.
    platform_->queue().ScheduleAt(sim::Milliseconds(50), [this] {
      peer_->Start(platform_->Now() + config_.netbench_duration);
    });
  }

  // Golden snapshot of the healthy platform, captured before the injection
  // can fire (differential audit baseline).
  if (config_.audit) golden_ = audit::GoldenSnapshot::Capture(*hv_);

  if (config_.inject || !config_.inject_plants.empty()) ArmInjection();

  // Campaign-agent-style watcher: once the first recovery has resumed,
  // create the post-recovery BlkBench VM (3AppVM setup, Section VI-A).
  if (config_.setup == Setup::k3AppVM) {
    struct Watcher {
      TargetSystem* sys;
      void operator()() const {
        TargetSystem* s = sys;
        if (!s->vm3_attempted_ && s->manager_ != nullptr &&
            !s->manager_->reports().empty()) {
          const auto& rep = s->manager_->reports().front();
          if (!rep.gave_up &&
              s->platform_->Now() >= rep.resumed_at + sim::Milliseconds(100)) {
            s->TriggerVm3Creation();
            return;  // done watching
          }
        }
        if (s->hv_->dead()) return;
        s->platform_->queue().ScheduleAfter(sim::Milliseconds(50), Watcher{s});
      }
    };
    platform_->queue().ScheduleAfter(sim::Milliseconds(50), Watcher{this});
  }
}

guest::AppVmKernel* TargetSystem::AddAppVm(guest::BenchmarkKind kind,
                                           int iterations, hw::CpuId cpu) {
  const hv::DomainId id =
      hv_->CreateDomainDirect(std::string(guest::BenchmarkName(kind)),
                              /*privileged=*/false, cpu, /*frames=*/64);
  auto vm = std::make_unique<guest::AppVmKernel>(
      *hv_, guest::BenchmarkName(kind), AppVmSeed(config_.seed, id), kind,
      iterations, config_.appvm_mode);
  vm->Bind(id, hv_->FindDomain(id)->vcpus.front());
  hv_->AttachGuest(id, vm.get());
  if (kind == guest::BenchmarkKind::kBlkBench) WireBlk(vm.get());
  if (kind == guest::BenchmarkKind::kNetBench) WireNet(vm.get());
  guest::AppVmKernel* raw = vm.get();
  appvms_.push_back(std::move(vm));
  return raw;
}

std::pair<hv::EventPort, hv::EventPort> TargetSystem::BindPorts(
    hv::DomainId app) {
  hv::Domain* ad = hv_->FindDomain(app);
  hv::Domain* pd = hv_->FindDomain(hv::kPrivVmId);
  const hv::EventPort p_app =
      ad->evtchn.AllocUnbound(hv::kPrivVmId, ad->vcpus.front());
  const hv::EventPort p_priv = pd->evtchn.AllocUnbound(app, pd->vcpus.front());
  ad->evtchn.BindInterdomain(p_app, hv::kPrivVmId, p_priv);
  pd->evtchn.BindInterdomain(p_priv, app, p_app);
  return {p_app, p_priv};
}

void TargetSystem::WireBlk(guest::AppVmKernel* vm) {
  BlkWiring w;
  w.ring = std::make_unique<guest::BlkRing>();
  const auto [p_app, p_priv] = BindPorts(vm->domain());
  vm->ConnectBlk(w.ring.get(), p_app);
  privvm_->ConnectBlkFrontend(vm->domain(), w.ring.get(), p_priv);
  if (privvm_recovery_ != nullptr) privvm_recovery_->AddFrontend(vm);
  blk_wirings_.push_back(std::move(w));
}

void TargetSystem::WireNet(guest::AppVmKernel* vm) {
  if (nic_ == nullptr) {
    nic_ = std::make_unique<guest::VirtualNic>(*platform_, /*irq_cpu=*/0);
    privvm_->AttachNic(nic_.get());
    peer_ = std::make_unique<guest::NetPeer>(*platform_, *nic_);
    hv::Domain* priv = hv_->FindDomain(hv::kPrivVmId);
    const hv::EventPort p =
        priv->evtchn.AllocUnbound(hv::kPrivVmId, priv->vcpus.front());
    hv_->BindDeviceVector(hw::vec::kNet, hv::kPrivVmId, p);
  }
  NetWiring w;
  w.rx = std::make_unique<guest::NetRxRing>();
  w.tx = std::make_unique<guest::NetTxRing>();
  const auto [p_app, p_priv] = BindPorts(vm->domain());
  vm->ConnectNet(w.rx.get(), w.tx.get(), p_app);
  // Pre-grant the packet buffer frames the backend copies through.
  hv::Domain* ad = hv_->FindDomain(vm->domain());
  const hv::GrantRef rx_gref =
      ad->grants.TryGrant(hv::kPrivVmId, ad->first_frame + 60);
  const hv::GrantRef tx_gref =
      ad->grants.TryGrant(hv::kPrivVmId, ad->first_frame + 61);
  privvm_->ConnectNetFrontend(vm->domain(), w.rx.get(), w.tx.get(), p_priv,
                              rx_gref, tx_gref);
  net_wirings_.push_back(std::move(w));
}

void TargetSystem::ArmInjection() {
  inject::CorruptionHooks hooks;
  hooks.corrupt_privvm = [this] { privvm_->CorruptKernelState(); };
  hooks.corrupt_random_appvm_memory = [this] {
    std::vector<guest::AppVmKernel*> alive;
    for (auto& vm : appvms_) {
      if (!vm->crashed()) alive.push_back(vm.get());
    }
    if (alive.empty()) return;
    guest::AppVmKernel* victim = alive[run_rng_.Index(alive.size())];
    victim->OnMemoryCorrupted(victim->vcpu_id());
  };
  hooks.corrupt_privvm_backend_queue = [this](sim::Rng& rng) {
    privvm_->CorruptBackendQueue(rng);
  };
  hooks.corrupt_io_ring_pointers = [this](sim::Rng& rng) {
    privvm_->CorruptRingCounters(rng);
  };
  hooks.corrupt_io_ring_dup_grant = [this](sim::Rng& rng) {
    privvm_->InjectDuplicateRingRequest(rng);
  };
  injector_ = std::make_unique<inject::FaultInjector>(*hv_, std::move(hooks),
                                                      config_.seed ^ 0x777);
  inject::InjectionPlan plan;
  plan.type = config_.fault;
  plan.fault_enabled = config_.inject;
  plan.trigger = config_.inject_trigger;
  plan.plants = config_.inject_plants;
  plan.first_trigger = DrawFirstTrigger(config_, run_rng_);
  plan.second_trigger_instructions =
      config_.inject_second_trigger >= 0
          ? static_cast<std::uint64_t>(config_.inject_second_trigger)
          : static_cast<std::uint64_t>(run_rng_.Range(0, 20000));
  injector_->Arm(plan);
}

void TargetSystem::TriggerVm3Creation() {
  if (vm3_attempted_) return;
  vm3_attempted_ = true;
  privvm_->RequestCreateVm(/*pin_cpu=*/3, /*frames=*/64,
                           [](hv::DomainId) {});
}

void TargetSystem::RunUntil(sim::Time t) { platform_->queue().RunUntil(t); }

void TargetSystem::CaptureForkImage(ForkImage* img) {
  img->state.Clear();
  sim::StateSaver saver{img->state};
  VisitForkState(saver);
  img->queue = platform_->queue().CaptureImage();
  img->captured = true;
}

void TargetSystem::RestoreForkImage(ForkImage& img) {
  // Tear down the previous run's injector before touching state (its
  // destructor removes the step hook and op observer it installed).
  injector_.reset();
  img.state.Rewind();
  sim::StateLoader loader{img.state, /*prune_new=*/true};
  VisitForkState(loader);
  platform_->queue().RestoreImage(img.queue);
  // The frontend list holds raw pointers into appvms_, which the restore
  // just truncated back to the captured count.
  RebindPrivVmFrontends();
}

void TargetSystem::RebindPrivVmFrontends() {
  if (privvm_recovery_ == nullptr) return;
  privvm_recovery_->ClearFrontends();
  for (auto& vm : appvms_) {
    // Exactly the VMs WireBlk registered: the blk-wired (BlkBench) ones.
    if (vm->kind() == guest::BenchmarkKind::kBlkBench) {
      privvm_recovery_->AddFrontend(vm.get());
    }
  }
}

void TargetSystem::RunPrivVmRecovery(const hv::DetectionEvent& ev) {
  if (privvm_recovery_ == nullptr || hv_->dead() || hv_->frozen()) return;
  // The hypervisor path's attempt cap (recovery/manager.h): a backend that
  // keeps failing is left down rather than repaired forever.
  if (privvm_recovery_->recoveries() >= recovery::kMaxRecoveryAttempts) return;
  privvm_recovery_->Recover(ev);
}

void TargetSystem::RearmForSeed(const RunConfig& run_config) {
  config_ = run_config;
  // The fork image restored the monitor and policy to the captured
  // baseline; only the non-forked online-audit accumulator needs clearing.
  online_audit_ = audit::AuditReport{};
  recovery_failed_after_ = -1;
  const std::uint64_t seed = config_.seed;
  // Exactly the streams a cold TargetSystem(run_config) would construct,
  // through the same seed derivations.
  platform_->rng().Reseed(seed);
  run_rng_.Reseed(RunRngSeed(seed));
  privvm_->ReseedRng(PrivVmSeed(seed));
  for (auto& vm : appvms_) vm->ReseedRng(AppVmSeed(seed, vm->domain()));
  if (config_.inject || !config_.inject_plants.empty()) ArmInjection();
}

RunResult TargetSystem::Run() {
  auto& queue = platform_->queue();
  std::uint64_t n = 0;
  while (!queue.Empty() && queue.NextTime() <= config_.run_deadline) {
    queue.RunOne();
    if ((++n & 0x3fff) == 0 && hv_->dead()) {
      // Nothing else can change once the platform is dead, except pending
      // timers; stop early.
      break;
    }
  }
  return Classify();
}

RunResult TargetSystem::Classify() {
  RunResult r;
  r.detected = hv_->stats().detections > 0;
  r.recoveries =
      manager_ != nullptr ? static_cast<int>(manager_->reports().size()) : 0;
  r.system_dead = hv_->dead();
  r.death_code = hv_->death_code();
  r.death_reason = hv_->death_reason();
  r.recovery_failed_after = recovery_failed_after_;
  if (r.recoveries > 0) {
    const recovery::RecoveryReport& first = manager_->reports().front();
    r.first_recovery_latency = first.total();
    for (const recovery::StepLatency& s : first.steps) {
      r.recovery_phases.push_back(
          {recovery::RecoveryPhaseName(s.phase), s.name, s.latency});
    }
  }
  r.privvm_ok = !privvm_->crashed();
  if (privvm_recovery_ != nullptr) {
    r.privvm_recoveries = privvm_recovery_->recoveries();
    const recovery::PrivVmRepairStats& st = privvm_recovery_->last_stats();
    r.privvm_repairs = st.rings_resynced + st.duplicates_dropped +
                       st.grants_unmapped + st.inflight_requeued +
                       st.responses_synthesized;
  }

  // Recovery window: NetBench's 10%-rate-drop criterion excludes the
  // detection+recovery interval, whose interruption is reported as recovery
  // latency instead (Section VII-B; see EXPERIMENTS.md).
  sim::Time rec_from = -1;
  sim::Time rec_to = -1;
  if (r.recoveries > 0) {
    rec_from = std::max<sim::Time>(
        0, manager_->reports().front().detected_at - sim::Milliseconds(400));
    rec_to = manager_->reports().front().resumed_at + sim::Milliseconds(400);
  }

  // Per-VM verdicts for the initial AppVMs.
  for (int i = 0; i < initial_appvm_count_; ++i) {
    const guest::AppVmKernel& vm = *appvms_[static_cast<std::size_t>(i)];
    VmVerdict v;
    v.name = vm.name();
    if (vm.crashed()) {
      v.affected = true;
      v.why = "kernel crash: " + vm.crash_reason();
    } else if (vm.memory_corrupted()) {
      v.affected = true;
      v.why = "output differs from golden copy";
    } else if (vm.syscall_failures() > 0) {
      v.affected = true;
      v.why = "failed system calls logged";
    } else if (vm.io_errors() > 0) {
      v.affected = true;
      v.why = "I/O errors";
    } else if (vm.process_failed()) {
      v.affected = true;
      v.why = "benchmark process failed";
    } else if (vm.kind() == guest::BenchmarkKind::kNetBench) {
      if (peer_ != nullptr) {
        r.net_max_gap = peer_->MaxGap();
        const double period = static_cast<double>(peer_->period());
        const double window_loss =
            (rec_from >= 0)
                ? static_cast<double>(rec_to - rec_from) / period
                : 0.0;
        const double expected =
            static_cast<double>(peer_->sent()) - window_loss;
        r.net_rate_dropped =
            peer_->RateDropped(0.10, rec_from, rec_to) ||
            static_cast<double>(peer_->received()) < expected * 0.90;
        if (r.net_rate_dropped) {
          v.affected = true;
          v.why = "packet reception rate dropped >10%";
        }
      }
    } else if (!vm.BenchmarkDone()) {
      v.affected = true;
      v.why = "benchmark did not complete (" +
              std::to_string(vm.iterations_done()) + "/" +
              std::to_string(vm.iterations_target()) + ")";
    }
    r.vms.push_back(std::move(v));
  }

  // VM3 (3AppVM hypervisor-operational check).
  r.vm3_attempted = vm3_attempted_;
  r.vm3_ok = vm3_created_ && vm3_ != nullptr && vm3_->BenchmarkDone() &&
             !vm3_->Affected();

  // Cycle accounting (Figure 3 measurements use inject=false runs).
  for (int c = 0; c < platform_->num_cpus(); ++c) {
    r.hv_cycles += platform_->cpu(c).hv_instructions();
    r.total_cycles += platform_->cpu(c).total_cycles();
  }

  // Outcome class.
  const bool any_affected = r.AffectedVmCount() > 0 || !r.privvm_ok;
  if (r.detected) {
    r.outcome = OutcomeClass::kDetected;
  } else {
    r.outcome = any_affected ? OutcomeClass::kSdc : OutcomeClass::kNonManifested;
  }

  // Success metrics (Section VII-A definitions).
  if (r.detected) {
    if (config_.setup == Setup::k3AppVM) {
      r.success = !r.system_dead && r.privvm_ok && r.AffectedVmCount() <= 1 &&
                  r.vm3_ok;
      r.no_vm_failures = r.success && r.AffectedVmCount() == 0;
    } else {
      r.success = !r.system_dead && r.privvm_ok && r.AffectedVmCount() == 0;
      r.no_vm_failures = r.success;
    }
    if (!r.success) {
      if (r.system_dead) {
        r.failure_reason = r.death_code != FailureReason::kNone
                               ? r.death_code
                               : FailureReason::kSystemDead;
        r.failure_detail = "system dead: " + r.death_reason;
      } else if (!r.privvm_ok) {
        r.failure_reason = FailureReason::kPrivVmFailed;
        r.failure_detail = "PrivVM failed";
      } else if (config_.setup == Setup::k3AppVM && !r.vm3_ok) {
        r.failure_reason = vm3_attempted_ ? FailureReason::kVm3Failed
                                          : FailureReason::kVm3NotAttempted;
        r.failure_detail = vm3_attempted_
                               ? "post-recovery VM creation/BlkBench failed"
                               : "VM3 never attempted";
      } else {
        r.failure_reason = FailureReason::kTooManyVmsAffected;
        r.failure_detail = "too many AppVMs affected";
        for (const VmVerdict& v : r.vms) {
          if (v.affected) r.failure_detail += "; " + v.name + ": " + v.why;
        }
      }
    }
  }
  // Forensics: join injection ground truth with the first detection.
  if (injector_ != nullptr) {
    const inject::InjectionRecord& rec = injector_->record();
    // Plants apply regardless of whether the two-level trigger ever fired.
    for (const inject::CorruptionTarget t : rec.planted) {
      r.planted_corruptions.emplace_back(inject::CorruptionTargetName(t));
    }
    if (rec.fired) {
      r.injection_fired = true;
      r.injected_at = rec.fired_at;
      r.injection_cpu = rec.cpu;
      r.manifestation = rec.manifestation;
      for (const inject::CorruptionTarget t : rec.corruptions) {
        r.injection_corruptions.emplace_back(inject::CorruptionTargetName(t));
      }
    }
  }
  if (const hv::DetectionEvent* first = hv_->first_detection()) {
    r.detection = *first;
    if (r.injection_fired && first->when >= r.injected_at) {
      r.detection_latency = first->when - r.injected_at;
    }
  }
  r.detection_class = forensics::ClassifyDetection(
      r.injection_fired, r.manifestation, r.detected, r.detection.kind,
      r.detection_latency);

  // State audit: a run that passed the behavioral classification can still
  // carry latent corruption inside the hypervisor. The sweep runs on the
  // quiescent end-of-run platform (even a dead one — every walk is bounded).
  if (config_.audit) {
    audit::StateAuditor auditor(*hv_);
    if (config_.privvm_recovery) {
      // With the component path armed, the sweep also checks the backend
      // and rings against the frontends' driver bookkeeping.
      std::vector<guest::AppVmKernel*> fes;
      for (auto& vm : appvms_) {
        if (vm->kind() == guest::BenchmarkKind::kBlkBench) fes.push_back(vm.get());
      }
      auditor.SetGuestContext(privvm_.get(), std::move(fes));
    }
    r.audited = true;
    r.audit_report = golden_.captured ? auditor.Audit(golden_) : auditor.Audit();
    r.audit_clean = r.audit_report.CorruptionCount() == 0;
    r.latent_corruption = r.success && !r.audit_clean;
  }

  // Integrity observability summary: the online corruption->detection story.
  if (monitor_ != nullptr) {
    r.integrity = true;
    r.integrity_epochs = monitor_->epochs();
    r.integrity_drifts = monitor_->drift_count();
    r.first_drift_epoch = monitor_->first_drift_epoch();
    r.first_drift_at = monitor_->first_drift_at();
    if (monitor_->has_drift()) {
      r.first_drift_surface =
          std::string(integrity::SubsystemName(monitor_->first_drift_surface()));
      if (r.injection_fired && monitor_->first_drift_at() >= r.injected_at) {
        r.drift_latency = monitor_->first_drift_at() - r.injected_at;
      }
    }
    r.drift_trail = monitor_->drift_trail();
    r.rejuvenations = rejuvenation_ != nullptr ? rejuvenation_->triggers() : 0;
    r.online_audit_findings = static_cast<int>(online_audit_.findings.size());
  }

  return r;
}

}  // namespace nlh::core
