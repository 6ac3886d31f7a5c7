// The fault injector — our re-implementation of the Gigan setup
// (Section VI-C) for the simulated platform.
//
// Faults are injected through a two-level chained trigger: a timer fires at
// a configured point in the run, arming an instruction counter; after a
// random 0..20000 further instructions retired *in hypervisor code* (the
// platform's per-step hook, installed only while that counter runs), the
// fault fires on whichever CPU is executing.
// Firing happens between two real mutation steps of whatever handler is
// running, so abandonment leaves authentic partial state.
//
// In the paper the injector runs outside the target (in the "outside"
// hypervisor of a nested-virtualization setup); here it runs outside the
// simulated world, hooked into the simulated hardware — the same vantage
// point.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "hv/hypervisor.h"
#include "inject/corruption.h"
#include "sim/rng.h"

namespace nlh::inject {

// Access the injector needs into the guest layer for corruption targets the
// hypervisor cannot name (provided by core::TargetSystem). The PrivVM
// component-fault hooks take the plant/fault rng so each corruption's
// random choices stay on the caller's deterministic stream.
struct CorruptionHooks {
  std::function<void()> corrupt_privvm;             // wild write into Dom0
  std::function<void()> corrupt_random_appvm_memory;  // SDC / guest damage
  std::function<void(sim::Rng&)> corrupt_privvm_backend_queue;
  std::function<void(sim::Rng&)> corrupt_io_ring_pointers;
  std::function<void(sim::Rng&)> corrupt_io_ring_dup_grant;
};

// Trigger-event injection condition: instead of arming the instruction
// counter the moment the level-1 timer fires, wait until the Nth matching
// hypervisor operation *after* that moment. This lets a scenario land the
// fault against a specific kind of in-flight work — a grant op, an event
// channel op, a multicall batch boundary, the timer softirq — which is
// where retry/reactivation bugs hide (Section IV/V).
enum class TriggerKind {
  kTime = 0,           // classic: arm immediately at first_trigger
  kAnyHypercall,       // Nth hypercall of any code
  kGrantOp,            // Nth grant_map/grant_unmap/grant_copy
  kEvtchnOp,           // Nth event-channel hypercall
  kMulticallBoundary,  // Nth multicall batch-component boundary
  kTimerSoftirq,       // Nth timer softirq entry
  kCount,
};

const char* TriggerKindName(TriggerKind k);
// Inverse of TriggerKindName; returns kTime for unknown names.
TriggerKind TriggerKindFromName(const std::string& name);

struct TriggerSpec {
  TriggerKind kind = TriggerKind::kTime;
  int skip = 0;  // fire on the (skip+1)-th matching event

  bool operator==(const TriggerSpec&) const = default;
};

// A planted corruption: applies one corruption action at an absolute time,
// silently — no manifestation, no detection. Plants create exactly the
// latent-corruption surface the behavioral classification cannot see; the
// scenario fuzzer's differential oracle exists to expose them.
struct PlantSpec {
  CorruptionTarget target = CorruptionTarget::kStaticVar;
  sim::Time at = 0;
  // When true, `at` is an offset from the moment the first failure is
  // detected, and the plant lands inside the recovery window — state is
  // corrupted *while* a mechanism is mid-recovery (the hypervisor is
  // frozen). Such plants stay dormant in runs that never detect anything.
  bool during_recovery = false;

  bool operator==(const PlantSpec&) const = default;
};

struct InjectionPlan {
  FaultType type = FaultType::kFailstop;
  bool fault_enabled = true;                 // arm the two-level trigger?
  sim::Time first_trigger = 0;               // timer (level 1)
  std::uint64_t second_trigger_instructions = 0;  // 0..20000 (level 2)
  TriggerSpec trigger;                       // optional level-1.5 condition
  std::vector<PlantSpec> plants;             // silent latent corruptions
};

struct InjectionRecord {
  bool fired = false;
  sim::Time fired_at = 0;
  hw::CpuId cpu = -1;
  Manifestation manifestation = Manifestation::kNone;
  std::vector<CorruptionTarget> corruptions;
  std::vector<CorruptionTarget> planted;  // applied PlantSpecs, in time order
};

// Applies one corruption of `target` to the hypervisor — the mutation step
// the injector performs, exposed as a free function so tests can plant an
// exact corruption class and assert the audit engine reports it. Targets
// that damage guest-side state use `hooks` (pass a default-constructed
// CorruptionHooks to limit effects to the hypervisor).
void ApplyCorruptionTo(hv::Hypervisor& hv, CorruptionTarget target,
                       sim::Rng& rng, const CorruptionHooks& hooks);

class FaultInjector {
 public:
  FaultInjector(hv::Hypervisor& hv, CorruptionHooks hooks, std::uint64_t seed)
      : hv_(hv), hooks_(std::move(hooks)), rng_(seed), seed_(seed) {}

  ~FaultInjector() {
    hv_.ClearOpObserver();
    hv_.platform().ClearHvStepHook();
  }

  // Arms the two-level trigger (and schedules any planted corruptions;
  // plants marked during_recovery stay deferred until
  // ScheduleRecoveryPlants is called with the detection time).
  void Arm(const InjectionPlan& plan);

  // Schedules every deferred during-recovery plant at detected_at + its
  // offset (called by the recovery manager's detection hook, once — repeat
  // detections do not replant). No-op if no plant is deferred.
  void ScheduleRecoveryPlants(sim::Time detected_at);

  const InjectionRecord& record() const { return record_; }

 private:
  void OnHvStep(hw::Cpu& cpu, std::uint64_t instructions);
  void OnOpEvent(hv::Hypervisor::OpEventKind kind, hv::HypercallCode code);
  // Starts the level-2 instruction countdown and installs the step hook.
  // The hook is live only from here until the fault fires, or until a
  // delayed panic's propagation countdown ends: every other Step runs
  // without a hook call.
  void StartCountdown();
  void ApplyPlant(std::size_t index);
  void Fire(hw::Cpu& cpu);
  [[noreturn]] void RaiseDetected(Manifestation m);
  void ApplyCorruption(CorruptionTarget target);
  CorruptionTarget PickTarget();

  hv::Hypervisor& hv_;
  CorruptionHooks hooks_;
  sim::Rng rng_;
  std::uint64_t seed_;  // plant streams derive from this, not from rng_
  InjectionPlan plan_;
  bool recovery_plants_scheduled_ = false;
  bool counting_ = false;
  bool fired_ = false;
  bool awaiting_event_ = false;  // trigger-event condition armed, not yet met
  int events_to_skip_ = 0;
  std::uint64_t remaining_ = 0;
  // Delayed-detection countdown (propagation window).
  bool delayed_armed_ = false;
  std::uint64_t delay_remaining_ = 0;
  Manifestation delayed_kind_ = Manifestation::kDelayedPanic;
  InjectionRecord record_;
};

}  // namespace nlh::inject
