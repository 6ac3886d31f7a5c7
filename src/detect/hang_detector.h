// The hang detector (Section VI-B).
//
// Mirrors Xen's watchdog: a recurring software timer event increments a
// per-CPU counter every 100 ms (hv: PerCpuData::watchdog_soft_count, driven
// by the "watchdog_tick" recurring timer); a per-CPU performance counter
// raises an NMI every 100 ms of unhalted cycles, whose handler compares the
// counter against its last sample. Three consecutive unchanged samples
// declare a hang. This is the only detector that can catch a CPU spinning
// on a dead lock or a livelocked walk of a corrupted structure, because
// NMIs bypass the interrupt flag.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hv/hypervisor.h"

namespace nlh::detect {

// Consecutive unchanged samples that declare a hang.
inline constexpr int kWatchdogMissesToHang = 3;

class HangDetector {
 public:
  explicit HangDetector(hv::Hypervisor& hv)
      : hv_(hv),
        last_count_(static_cast<std::size_t>(hv.platform().num_cpus()), 0),
        misses_(static_cast<std::size_t>(hv.platform().num_cpus()), 0) {}

  // Installs this detector as the hypervisor's NMI hook.
  void Install() {
    hv_.SetNmiHook([this](hw::CpuId c) { OnNmi(c); });
  }

  // The perf-counter NMI handler body.
  void OnNmi(hw::CpuId cpu) {
    const std::size_t i = static_cast<std::size_t>(cpu);
    const std::uint64_t count = hv_.percpu(cpu).watchdog_soft_count;
    NLH_RECORD(forensics::EventKind::kNmi, cpu, count,
               static_cast<std::uint64_t>(misses_[i]));
    if (count != last_count_[i]) {
      last_count_[i] = count;
      misses_[i] = 0;
      return;
    }
    if (++misses_[i] < kWatchdogMissesToHang) return;
    misses_[i] = 0;
    hv::DetectionEvent ev;
    ev.cpu = cpu;
    ev.kind = hv::DetectionKind::kHang;
    ev.code = hv::FailureCode::kWatchdogStall;
    ev.when = hv_.Now();
    ev.detail =
        "watchdog: soft counter stalled on cpu" + std::to_string(cpu);
    hv_.ReportError(std::move(ev));
  }

  // Recovery clears detector history so a frozen interval does not count.
  void ResetAll() {
    for (std::size_t i = 0; i < misses_.size(); ++i) {
      misses_[i] = 0;
      last_count_[i] = hv_.percpu(static_cast<int>(i)).watchdog_soft_count;
    }
  }

  // Snapshot/restore (sim/state_image.h).
  template <typename V>
  void VisitState(V&& v) {
    v(last_count_);
    v(misses_);
  }

 private:
  hv::Hypervisor& hv_;
  std::vector<std::uint64_t> last_count_;
  std::vector<int> misses_;
};

}  // namespace nlh::detect
