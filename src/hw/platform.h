// The simulated machine: CPUs + memory + APIC timers + interrupt controller
// + perf-counter NMI source, all driven by one discrete-event queue.
//
// The platform is passive hardware; the hypervisor (hv/hypervisor.h)
// registers handlers for interrupts, NMIs and CPU wakeups, and drives
// execution. The fault injector hooks instruction retirement via
// SetHvStepHook to implement its instruction-counting trigger.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "forensics/record.h"
#include "hw/apic.h"
#include "hw/cpu.h"
#include "hw/interrupt_controller.h"
#include "hw/memory.h"
#include "hw/perf_counter.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace nlh::hw {

// Simulated execution speed: simulated-ns of CPU time per retired
// hypervisor instruction. 2.5 GHz, ~1 IPC.
inline constexpr double kNsPerInstruction = 0.4;
inline constexpr sim::Duration kWatchdogNmiPeriod = sim::Milliseconds(100);

struct PlatformConfig {
  int num_cpus = 8;            // paper: 8-core Nehalem hosts
  std::uint64_t memory_gib = 8;  // paper: 8 GB (Section VII-B)

  bool operator==(const PlatformConfig&) const = default;
};

class Platform {
 public:
  explicit Platform(const PlatformConfig& config, std::uint64_t seed = 1);

  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  const PlatformConfig& config() const { return config_; }

  sim::EventQueue& queue() { return queue_; }
  sim::Rng& rng() { return rng_; }
  sim::Time Now() const { return queue_.Now(); }

  int num_cpus() const { return static_cast<int>(cpus_.size()); }
  Cpu& cpu(CpuId id) { return *cpus_[static_cast<std::size_t>(id)]; }
  const Cpu& cpu(CpuId id) const { return *cpus_[static_cast<std::size_t>(id)]; }

  InterruptController& intc() { return intc_; }
  ApicTimer& apic(CpuId id) { return *apics_[static_cast<std::size_t>(id)]; }
  PhysicalMemory& memory() { return memory_; }
  PerfCounterNmiSource& watchdog_nmi() { return watchdog_nmi_; }

  sim::Duration DurationForInstructions(std::uint64_t n) const {
    return static_cast<sim::Duration>(
        static_cast<double>(n) * kNsPerInstruction);
  }
  std::uint64_t CyclesForDuration(sim::Duration d) const {
    return static_cast<std::uint64_t>(static_cast<double>(d) /
                                      kNsPerInstruction);
  }

  // --- Hooks -------------------------------------------------------------
  // Invoked after each hypervisor execution step retires on a CPU; the fault
  // injector uses this to count instructions and fire (it may throw a
  // simulated fault/panic, which unwinds the current handler).
  using HvStepHook = std::function<void(Cpu&, std::uint64_t /*instructions*/)>;
  void SetHvStepHook(HvStepHook hook) { hv_step_hook_ = std::move(hook); }
  void ClearHvStepHook() { hv_step_hook_ = nullptr; }
  bool has_hv_step_hook() const { return static_cast<bool>(hv_step_hook_); }

  void OnHvStep(Cpu& cpu, std::uint64_t instructions) {
    if (hv_step_hook_) hv_step_hook_(cpu, instructions);
  }

  // Snapshot/restore (sim/state_image.h): all hardware state except the
  // event queue, which the caller captures/restores separately
  // (EventQueue::CaptureImage — callbacks need cloning, not copying).
  // The step hook is wiring, managed by the restore orchestration.
  template <typename V>
  void VisitState(V&& v) {
    rng_.VisitState(v);
    for (auto& c : cpus_) c->VisitState(v);
    for (auto& a : apics_) a->VisitState(v);
    intc_.VisitState(v);
    watchdog_nmi_.VisitState(v);
  }

 private:
  PlatformConfig config_;
  sim::EventQueue queue_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<Cpu>> cpus_;
  std::vector<std::unique_ptr<ApicTimer>> apics_;
  InterruptController intc_;
  PhysicalMemory memory_;
  PerfCounterNmiSource watchdog_nmi_;
  HvStepHook hv_step_hook_;
};

}  // namespace nlh::hw
