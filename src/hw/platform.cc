#include "hw/platform.h"

namespace nlh::hw {

Platform::Platform(const PlatformConfig& config, std::uint64_t seed)
    : config_(config),
      rng_(seed),
      intc_(config.num_cpus),
      memory_(PhysicalMemory::FromGiB(config.memory_gib)),
      watchdog_nmi_(queue_, config.num_cpus, kWatchdogNmiPeriod,
                    [this](CpuId c) { intc_.DeliverNmi(c); }) {
  cpus_.reserve(static_cast<std::size_t>(config.num_cpus));
  apics_.reserve(static_cast<std::size_t>(config.num_cpus));
  for (CpuId id = 0; id < config.num_cpus; ++id) {
    cpus_.push_back(std::make_unique<Cpu>(id));
    // An expiring APIC timer raises the timer vector on its own CPU.
    apics_.push_back(std::make_unique<ApicTimer>(
        queue_, id, [this](CpuId c) { intc_.Raise(c, vec::kTimer); }));
  }
}

}  // namespace nlh::hw
