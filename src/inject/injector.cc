#include "inject/injector.h"

#include "forensics/record.h"
#include "hv/panic.h"

namespace nlh::inject {

const char* FaultTypeName(FaultType t) {
  switch (t) {
    case FaultType::kFailstop: return "Failstop";
    case FaultType::kRegister: return "Register";
    case FaultType::kCode: return "Code";
    case FaultType::kMemory: return "Memory";
  }
  return "?";
}

const char* TriggerKindName(TriggerKind k) {
  switch (k) {
    case TriggerKind::kTime: return "time";
    case TriggerKind::kAnyHypercall: return "hypercall";
    case TriggerKind::kGrantOp: return "grant_op";
    case TriggerKind::kEvtchnOp: return "evtchn_op";
    case TriggerKind::kMulticallBoundary: return "multicall_boundary";
    case TriggerKind::kTimerSoftirq: return "timer_softirq";
    case TriggerKind::kCount: break;
  }
  return "?";
}

TriggerKind TriggerKindFromName(const std::string& name) {
  for (int i = 0; i < static_cast<int>(TriggerKind::kCount); ++i) {
    const auto k = static_cast<TriggerKind>(i);
    if (name == TriggerKindName(k)) return k;
  }
  return TriggerKind::kTime;
}

namespace {

bool TriggerMatches(TriggerKind want, hv::Hypervisor::OpEventKind kind,
                    hv::HypercallCode code) {
  using OpEventKind = hv::Hypervisor::OpEventKind;
  switch (want) {
    case TriggerKind::kAnyHypercall:
      return kind == OpEventKind::kHypercall;
    case TriggerKind::kGrantOp:
      return kind == OpEventKind::kHypercall &&
             (code == hv::HypercallCode::kGrantMap ||
              code == hv::HypercallCode::kGrantUnmap ||
              code == hv::HypercallCode::kGrantCopy);
    case TriggerKind::kEvtchnOp:
      return kind == OpEventKind::kHypercall &&
             (code == hv::HypercallCode::kEventChannelSend ||
              code == hv::HypercallCode::kEventChannelAllocUnbound ||
              code == hv::HypercallCode::kEventChannelBindInterdomain ||
              code == hv::HypercallCode::kEventChannelClose);
    case TriggerKind::kMulticallBoundary:
      return kind == OpEventKind::kMulticallComponent;
    case TriggerKind::kTimerSoftirq:
      return kind == OpEventKind::kTimerSoftirq;
    case TriggerKind::kTime:
    case TriggerKind::kCount:
      break;
  }
  return false;
}

}  // namespace

void FaultInjector::Arm(const InjectionPlan& plan) {
  plan_ = plan;
  // Plants fire unconditionally at their absolute times, independent of the
  // fault trigger (a scenario may consist of plants alone). During-recovery
  // plants are deferred: their anchor (the detection time) does not exist
  // yet, so ScheduleRecoveryPlants places them later.
  for (std::size_t i = 0; i < plan_.plants.size(); ++i) {
    if (plan_.plants[i].during_recovery) continue;
    hv_.platform().queue().ScheduleAt(plan_.plants[i].at,
                                      [this, i] { ApplyPlant(i); });
  }
  if (!plan_.fault_enabled) return;
  hv_.platform().queue().ScheduleAt(plan_.first_trigger, [this] {
    if (plan_.trigger.kind == TriggerKind::kTime) {
      StartCountdown();
    } else {
      awaiting_event_ = true;
      events_to_skip_ = plan_.trigger.skip;
    }
  });
  if (plan_.trigger.kind != TriggerKind::kTime) {
    hv_.SetOpObserver([this](hv::Hypervisor::OpEventKind kind,
                             hv::HypercallCode code,
                             hw::CpuId /*cpu*/) { OnOpEvent(kind, code); });
  }
}

void FaultInjector::ScheduleRecoveryPlants(sim::Time detected_at) {
  if (recovery_plants_scheduled_) return;
  recovery_plants_scheduled_ = true;
  for (std::size_t i = 0; i < plan_.plants.size(); ++i) {
    if (!plan_.plants[i].during_recovery) continue;
    hv_.platform().queue().ScheduleAt(detected_at + plan_.plants[i].at,
                                      [this, i] { ApplyPlant(i); });
  }
}

void FaultInjector::OnOpEvent(hv::Hypervisor::OpEventKind kind,
                              hv::HypercallCode code) {
  if (!awaiting_event_ || fired_) return;
  if (!TriggerMatches(plan_.trigger.kind, kind, code)) return;
  if (events_to_skip_-- > 0) return;
  // Condition met: arm the instruction countdown. The fault itself still
  // fires from the per-step hook, i.e. between two real mutation steps of
  // the matched (or a later) in-flight operation.
  awaiting_event_ = false;
  StartCountdown();
  hv_.ClearOpObserver();
}

void FaultInjector::StartCountdown() {
  counting_ = true;
  remaining_ = plan_.second_trigger_instructions;
  hv_.platform().SetHvStepHook(
      [this](hw::Cpu& cpu, std::uint64_t n) { OnHvStep(cpu, n); });
}

void FaultInjector::ApplyPlant(std::size_t index) {
  const PlantSpec& plant = plan_.plants[index];
  if (hv_.dead()) return;
  record_.planted.push_back(plant.target);
  NLH_RECORD(forensics::EventKind::kCorruptionApplied, -1,
             static_cast<std::uint64_t>(plant.target), 1,
             "planted:" + std::string(CorruptionTargetName(plant.target)));
  // Each plant draws from its own stream, derived from the injector seed —
  // never from rng_, whose draw order the fault trigger owns. Dropping or
  // reordering plants during shrinking therefore perturbs neither the other
  // plants nor the fault's manifestation roll.
  sim::Rng plant_rng(seed_ ^ (0xc2b2ae3d27d4eb4fULL * (index + 1)));
  ApplyCorruptionTo(hv_, plant.target, plant_rng, hooks_);
}

void FaultInjector::OnHvStep(hw::Cpu& cpu, std::uint64_t instructions) {
  if (delayed_armed_) {
    if (instructions >= delay_remaining_) {
      delayed_armed_ = false;
      hv_.platform().ClearHvStepHook();
      RaiseDetected(delayed_kind_);
    }
    delay_remaining_ -= instructions;
    return;
  }
  if (!counting_ || fired_) return;
  if (instructions < remaining_) {
    remaining_ -= instructions;
    return;
  }
  Fire(cpu);
}

void FaultInjector::Fire(hw::Cpu& cpu) {
  fired_ = true;
  counting_ = false;
  record_.fired = true;
  record_.fired_at = hv_.Now();
  record_.cpu = cpu.id();
  NLH_RECORD(forensics::EventKind::kInjectionFired, cpu.id(),
             static_cast<std::uint64_t>(plan_.type), 0,
             std::string(FaultTypeName(plan_.type)));

  const OutcomeMix mix = MixFor(plan_.type);
  const double roll = rng_.Uniform();

  if (roll < mix.p_nonmanifested) {
    record_.manifestation = Manifestation::kNone;
    hv_.platform().ClearHvStepHook();
    return;
  }
  if (roll < mix.p_nonmanifested + mix.p_sdc) {
    record_.manifestation = Manifestation::kSdc;
    ApplyCorruption(CorruptionTarget::kGuestMemory);
    hv_.platform().ClearHvStepHook();
    return;
  }

  // Detected.
  const double det = rng_.Uniform();
  if (det < mix.p_immediate) {
    record_.manifestation = Manifestation::kImmediatePanic;
    hv_.platform().ClearHvStepHook();
    RaiseDetected(Manifestation::kImmediatePanic);
  }
  if (det < mix.p_immediate + mix.p_delayed) {
    // Corrupt state now; detection after a propagation window.
    record_.manifestation = Manifestation::kDelayedPanic;
    const int n = static_cast<int>(
        rng_.Range(mix.corruptions_min, mix.corruptions_max));
    for (int i = 0; i < n; ++i) ApplyCorruption(PickTarget());
    delayed_armed_ = true;
    delayed_kind_ = Manifestation::kDelayedPanic;
    delay_remaining_ = static_cast<std::uint64_t>(rng_.Range(
        static_cast<std::int64_t>(mix.delay_instr_min),
        static_cast<std::int64_t>(mix.delay_instr_max)));
    return;  // hook stays armed for the countdown
  }
  record_.manifestation = Manifestation::kHang;
  hv_.platform().ClearHvStepHook();
  RaiseDetected(Manifestation::kHang);
}

void FaultInjector::RaiseDetected(Manifestation m) {
  switch (m) {
    case Manifestation::kImmediatePanic:
      if (plan_.type == FaultType::kFailstop) {
        throw hv::HvPanic("failstop fault: PC set to 0 (fatal fetch)");
      }
      throw hv::HvPanic("fatal exception from injected " +
                        std::string(FaultTypeName(plan_.type)) + " fault");
    case Manifestation::kDelayedPanic:
      throw hv::HvPanic("assertion failure after error propagation (" +
                        std::string(FaultTypeName(plan_.type)) + " fault)");
    case Manifestation::kHang:
    default:
      throw hv::HvHang("livelock from injected " +
                       std::string(FaultTypeName(plan_.type)) + " fault");
  }
}

CorruptionTarget FaultInjector::PickTarget() {
  const TargetWeights tw = CorruptionWeights();
  double total = 0;
  for (double w : tw.w) total += w;
  double roll = rng_.Uniform() * total;
  for (int i = 0; i < static_cast<int>(CorruptionTarget::kCount); ++i) {
    roll -= tw.w[i];
    if (roll <= 0) return static_cast<CorruptionTarget>(i);
  }
  return CorruptionTarget::kFrameDescriptor;
}

void FaultInjector::ApplyCorruption(CorruptionTarget target) {
  record_.corruptions.push_back(target);
  NLH_RECORD(forensics::EventKind::kCorruptionApplied, -1,
             static_cast<std::uint64_t>(target), 0,
             std::string(CorruptionTargetName(target)));
  ApplyCorruptionTo(hv_, target, rng_, hooks_);
}

void ApplyCorruptionTo(hv::Hypervisor& hv, CorruptionTarget target,
                       sim::Rng& rng, const CorruptionHooks& hooks) {
  switch (target) {
    case CorruptionTarget::kFrameDescriptor: {
      const hv::FrameNumber f = hv.frames().PickAllocatedFrame(rng);
      if (f == hv::kInvalidFrame) return;
      hv::PageFrameDescriptor& d = hv.frames().mutable_desc(f);
      switch (rng.Index(3)) {
        case 0: d.validated = !d.validated; break;
        case 1: d.use_count += static_cast<std::int32_t>(rng.Range(1, 3)); break;
        default: d.use_count -= static_cast<std::int32_t>(rng.Range(1, 3)); break;
      }
      return;
    }
    case CorruptionTarget::kSchedMetadata: {
      auto& vcpus = hv.vcpus();
      if (vcpus.empty()) return;
      hv::Vcpu& vc = vcpus[rng.Index(vcpus.size())];
      switch (rng.Index(4)) {
        case 0:
          vc.running_on = static_cast<hw::CpuId>(
              rng.Index(static_cast<std::size_t>(hv.platform().num_cpus())));
          break;
        case 1:
          vc.is_current = !vc.is_current;
          break;
        case 2:
          vc.state = static_cast<hv::VcpuState>(rng.Index(4));
          break;
        default: {
          hv::PerCpuData& pc = hv.percpu(static_cast<int>(
              rng.Index(static_cast<std::size_t>(hv.platform().num_cpus()))));
          pc.curr = static_cast<hv::VcpuId>(rng.Index(vcpus.size()));
          break;
        }
      }
      return;
    }
    case CorruptionTarget::kStaticVar: {
      const auto v = static_cast<hv::StaticVar>(
          rng.Index(static_cast<std::size_t>(hv::kNumStaticVars)));
      hv.statics().Corrupt(v);
      return;
    }
    case CorruptionTarget::kHeapFreeList:
      hv.heap().CorruptFreeList(/*fatal=*/rng.Chance(0.5));
      return;
    case CorruptionTarget::kTimerHeapEntry: {
      const int cpu = static_cast<int>(
          rng.Index(static_cast<std::size_t>(hv.platform().num_cpus())));
      hv.timers(cpu).CorruptEntry(rng.Index(16), rng.Chance(0.5));
      return;
    }
    case CorruptionTarget::kVcpuStruct: {
      auto& vcpus = hv.vcpus();
      if (vcpus.empty()) return;
      vcpus[rng.Index(vcpus.size())].struct_corrupted = true;
      return;
    }
    case CorruptionTarget::kDomainStruct: {
      auto& domains = hv.domains();
      if (domains.empty()) return;
      // Index in id order: identical pick to the old advance(begin, k) over
      // the id-sorted map, so injection plans stay seed-deterministic.
      domains.at_index(rng.Index(domains.size())).struct_corrupted = true;
      return;
    }
    case CorruptionTarget::kPrivVmState:
      if (hooks.corrupt_privvm) hooks.corrupt_privvm();
      return;
    case CorruptionTarget::kRecoveryPath:
      hv.CorruptRecoveryPath();
      return;
    case CorruptionTarget::kGuestMemory:
      if (hooks.corrupt_random_appvm_memory) {
        hooks.corrupt_random_appvm_memory();
      }
      return;
    case CorruptionTarget::kPrivVmBackendQueue:
      if (hooks.corrupt_privvm_backend_queue) {
        hooks.corrupt_privvm_backend_queue(rng);
      }
      return;
    case CorruptionTarget::kIoRingPointers:
      if (hooks.corrupt_io_ring_pointers) {
        hooks.corrupt_io_ring_pointers(rng);
      }
      return;
    case CorruptionTarget::kIoRingDupGrant:
      if (hooks.corrupt_io_ring_dup_grant) {
        hooks.corrupt_io_ring_dup_grant(rng);
      }
      return;
    case CorruptionTarget::kCount:
      return;
  }
}

}  // namespace nlh::inject
