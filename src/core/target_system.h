// TargetSystem: builds and runs one complete simulated virtualized host —
// platform, hypervisor, PrivVM with backends, AppVMs with benchmarks,
// detectors, a recovery mechanism, and optionally one injected fault — and
// classifies the outcome per the paper's criteria.
//
// This is the library's main entry point:
//
//   core::RunConfig cfg;                    // 3AppVM, NiLiHype, failstop
//   cfg.seed = 42;
//   core::TargetSystem sys(cfg);
//   core::RunResult r = sys.Run();
//
#pragma once

#include <memory>
#include <type_traits>
#include <vector>

#include "audit/snapshot.h"
#include "core/config.h"
#include "core/outcome.h"
#include "detect/hang_detector.h"
#include "guest/appvm.h"
#include "guest/devices.h"
#include "guest/privvm.h"
#include "hv/hypervisor.h"
#include "hw/platform.h"
#include "inject/injector.h"
#include "core/run_arena.h"
#include "detect/privvm_detector.h"
#include "integrity/monitor.h"
#include "recovery/manager.h"
#include "recovery/privvm_recovery.h"
#include "recovery/rejuvenation.h"
#include "sim/state_image.h"

namespace nlh::core {

class TargetSystem {
 public:
  explicit TargetSystem(const RunConfig& config);
  // Arena flavor: adopts the arena's recycled buffers during Build() and
  // returns them (with any grown capacity) at destruction. The arena must
  // outlive this object. Purely a reuse of vector capacity across runs;
  // results are identical with arena == nullptr.
  TargetSystem(const RunConfig& config, RunArena* arena);
  ~TargetSystem();

  TargetSystem(const TargetSystem&) = delete;
  TargetSystem& operator=(const TargetSystem&) = delete;

  // Runs the configured scenario to its deadline and classifies the result.
  RunResult Run();

  // Enables the flight recorder, the run's one recording channel (off by
  // default; see forensics/flight_recorder.h). Call before Run(); export
  // with hv().flight_recorder().ToJson() or ToChromeJson(), or print the
  // run's narrative with hv().flight_recorder().PinnedText().
  void EnableFlightRecorder() {
    hv_->flight_recorder().Enable(platform_->num_cpus());
  }

  // --- Component access (tests, examples, benches) --------------------------
  hw::Platform& platform() { return *platform_; }
  hv::Hypervisor& hv() { return *hv_; }
  guest::PrivVmKernel& privvm() { return *privvm_; }
  recovery::RecoveryManager* recovery_manager() { return manager_.get(); }
  const std::vector<std::unique_ptr<guest::AppVmKernel>>& appvms() const {
    return appvms_;
  }
  guest::NetPeer* net_peer() { return peer_.get(); }
  // Component-level PrivVM recovery path (only when config.privvm_recovery).
  recovery::PrivVmRecovery* privvm_recovery() { return privvm_recovery_.get(); }
  // Integrity observability path (only when config.integrity).
  integrity::EpochMonitor* integrity_monitor() { return monitor_.get(); }
  recovery::RejuvenationPolicy* rejuvenation() { return rejuvenation_.get(); }
  // Findings accumulated by the on-drift per-subsystem audit passes
  // (config.integrity && config.audit).
  const audit::AuditReport& online_audit_report() const {
    return online_audit_;
  }
  // The pre-injection golden snapshot (captured only when config.audit).
  const audit::GoldenSnapshot& golden_snapshot() const { return golden_; }

  // Runs the event queue up to `t` without classifying (tests/examples).
  void RunUntil(sim::Time t);

  // --- Warm-fork support (core/campaign.cc warm runner) ---------------------
  // A full-system image: every layer's mutable state plus a deep clone of
  // the pending event queue. Captured at a quiescent event boundary of a
  // template system (built with injection disabled), one image seeds any
  // number of restores — the warm runner forks each injection run off a
  // post-boot epoch image instead of replaying boot + workload setup.
  struct ForkImage {
    sim::StateImage state;
    sim::EventQueue::Image queue;
    bool captured = false;
  };
  void CaptureForkImage(ForkImage* img);
  // Restores every layer and the event queue to the image. The previous
  // run's injector is torn down first. Non-const: restoring advances the
  // image's read cursor (rewound internally, so the same image restores
  // any number of times).
  void RestoreForkImage(ForkImage& img);
  // Re-arms the restored system for one campaign run: adopts `run_config`
  // (which must match the template's config in everything that shaped the
  // captured state — platform, workload, mechanism), re-derives every RNG
  // stream exactly as a cold boot with run_config.seed would, and arms the
  // injection plan. Valid because no RNG stream draws before the injection
  // window opens.
  void RearmForSeed(const RunConfig& run_config);
  // The injection trigger time a system built from `config` draws
  // (ArmInjection), computed without building one: the warm runner orders
  // its runs by it.
  static sim::Time FirstTrigger(const RunConfig& config);

  // Issues the post-recovery VM-creation check manually (normally triggered
  // automatically at first recovery resume in the 3AppVM setup).
  void TriggerVm3Creation();

 private:
  struct BlkWiring {
    std::unique_ptr<guest::BlkRing> ring;
  };
  struct NetWiring {
    std::unique_ptr<guest::NetRxRing> rx;
    std::unique_ptr<guest::NetTxRing> tx;
  };

  void Build();
  guest::AppVmKernel* AddAppVm(guest::BenchmarkKind kind, int iterations,
                               hw::CpuId cpu);
  void WireBlk(guest::AppVmKernel* vm);
  void WireNet(guest::AppVmKernel* vm);
  // Creates a pair of bound interdomain event ports; returns {app_port,
  // priv_port}.
  std::pair<hv::EventPort, hv::EventPort> BindPorts(hv::DomainId app);
  void ArmInjection();
  // Runs the PrivVM component recovery for `ev` (attempt-capped; no-op when
  // the path is not armed or the platform is dead/frozen).
  void RunPrivVmRecovery(const hv::DetectionEvent& ev);
  // Re-registers the blk frontends with the PrivVM recovery path (the list
  // holds raw pointers into appvms_, which restore truncates).
  void RebindPrivVmFrontends();
  RunResult Classify();

  // Walks every layer's mutable state for CaptureForkImage/RestoreForkImage.
  // AppVMs and ring wirings are only ever appended (the post-recovery VM3),
  // so restore reconciles by truncating back to the captured count.
  template <typename V>
  void VisitForkState(V&& v) {
    platform_->VisitState(v);
    hv_->VisitState(v);
    hv_->VisitMetaState(v);
    hang_->VisitState(v);
    manager_->VisitState(v);
    privvm_->VisitState(v);
    if constexpr (std::decay_t<V>::kSave) {
      const std::size_t n_vms = appvms_.size();
      const std::size_t n_blk = blk_wirings_.size();
      const std::size_t n_net = net_wirings_.size();
      v(n_vms);
      v(n_blk);
      v(n_net);
    } else {
      std::size_t n_vms = 0, n_blk = 0, n_net = 0;
      v(n_vms);
      v(n_blk);
      v(n_net);
      appvms_.resize(n_vms);
      blk_wirings_.resize(n_blk);
      net_wirings_.resize(n_net);
    }
    for (auto& vm : appvms_) vm->VisitState(v);
    for (auto& w : blk_wirings_) v(*w.ring);
    for (auto& w : net_wirings_) {
      v(*w.rx);
      v(*w.tx);
    }
    disk_->VisitState(v);
    if (nic_ != nullptr) nic_->VisitState(v);
    if (peer_ != nullptr) peer_->VisitState(v);
    // vm3_ is a raw pointer into appvms_; carried as an index.
    if constexpr (std::decay_t<V>::kSave) {
      int vm3_index = -1;
      for (std::size_t i = 0; i < appvms_.size(); ++i) {
        if (appvms_[i].get() == vm3_) vm3_index = static_cast<int>(i);
      }
      v(vm3_index);
    } else {
      int vm3_index = -1;
      v(vm3_index);
      vm3_ = vm3_index >= 0 ? appvms_[static_cast<std::size_t>(vm3_index)].get()
                            : nullptr;
    }
    v(vm3_attempted_);
    v(vm3_created_);
    v(initial_appvm_count_);
    v(recovery_failed_after_);
    run_rng_.VisitState(v);
    // Mechanism-internal state (e.g. the snapres snapshot) rides along as
    // one nested image field.
    if constexpr (std::decay_t<V>::kSave) {
      sim::StateImage mech_img;
      if (recovery::RecoveryMechanism* m = manager_->mechanism()) {
        m->SaveForkState(&mech_img);
      }
      v(mech_img);
    } else {
      sim::StateImage mech_img;
      v(mech_img);
      if (recovery::RecoveryMechanism* m = manager_->mechanism()) {
        m->LoadForkState(&mech_img);
      }
    }
    // PrivVM component path (present iff config.privvm_recovery, which must
    // match between capture and restore — same contract as the mechanism).
    if (privvm_detector_ != nullptr) privvm_detector_->VisitState(v);
    if (privvm_recovery_ != nullptr) privvm_recovery_->VisitState(v);
    // Integrity path (present iff config.integrity — same contract). The
    // monitor's baseline and trail fork with the run, so a warm-forked
    // run's ladder is byte-identical to a cold-booted one.
    if (monitor_ != nullptr) monitor_->VisitState(v);
    if (rejuvenation_ != nullptr) rejuvenation_->VisitState(v);
  }

  RunConfig config_;
  RunArena* arena_ = nullptr;  // not owned; may be null
  std::unique_ptr<hw::Platform> platform_;
  std::unique_ptr<hv::Hypervisor> hv_;
  std::unique_ptr<detect::HangDetector> hang_;
  std::unique_ptr<recovery::RecoveryManager> manager_;
  std::unique_ptr<guest::VirtualDisk> disk_;
  std::unique_ptr<guest::VirtualNic> nic_;
  std::unique_ptr<guest::NetPeer> peer_;
  std::unique_ptr<guest::PrivVmKernel> privvm_;
  std::vector<std::unique_ptr<guest::AppVmKernel>> appvms_;
  std::vector<BlkWiring> blk_wirings_;
  std::vector<NetWiring> net_wirings_;
  std::unique_ptr<inject::FaultInjector> injector_;
  std::unique_ptr<detect::PrivVmDetector> privvm_detector_;
  std::unique_ptr<recovery::PrivVmRecovery> privvm_recovery_;
  std::unique_ptr<integrity::EpochMonitor> monitor_;
  std::unique_ptr<recovery::RejuvenationPolicy> rejuvenation_;
  sim::Rng run_rng_;

  audit::GoldenSnapshot golden_;
  audit::AuditReport online_audit_;
  guest::AppVmKernel* vm3_ = nullptr;
  bool vm3_attempted_ = false;
  bool vm3_created_ = false;
  int initial_appvm_count_ = 0;
  // Detection→give-up offset of the first failed recovery this run; -1 when
  // none failed (feeds RunResult::recovery_failed_after).
  sim::Duration recovery_failed_after_ = -1;
};

}  // namespace nlh::core
