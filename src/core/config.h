// Top-level run configuration: everything that defines one experiment run.
//
// Defaults reproduce the paper's target systems (Section VI-A) at reduced
// time scale: the simulated benchmarks are fixed-work and sized to run for
// a few simulated seconds instead of 10/24 s, which preserves every ratio
// that matters (injection lands uniformly over hypervisor execution; the
// recovery latencies are unchanged absolute values) while keeping
// thousand-run campaigns tractable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "guest/appvm.h"
#include "hv/hypervisor.h"
#include "hw/platform.h"
#include "inject/corruption.h"
#include "inject/injector.h"
#include "recovery/enhancements.h"
#include "sim/time.h"

namespace nlh::core {

// The recovery mechanism under test. kNone is the no-recovery baseline:
// detection marks the system dead.
enum class Mechanism { kNone, kNiLiHype, kReHype, kSnapRes };

// The one list of mechanisms, in the order tools list them. The slug is
// the enum's text form (`--mechanism=<slug>`, fleet JSON); the display name
// is what committed corpus bundles, dossiers and BENCH_*.json carry. Both
// are load-bearing: changing one breaks those artifacts.
struct MechanismInfo {
  Mechanism mechanism;
  const char* slug;
  const char* name;
};
inline constexpr MechanismInfo kMechanisms[] = {
    {Mechanism::kNone, "none", "None"},
    {Mechanism::kNiLiHype, "nilihype", "NiLiHype"},
    {Mechanism::kReHype, "rehype", "ReHype"},
    {Mechanism::kSnapRes, "snapres", "SnapRes"},
};

// Display name ("NiLiHype").
inline const char* MechanismName(Mechanism m) {
  for (const MechanismInfo& e : kMechanisms) {
    if (e.mechanism == m) return e.name;
  }
  return "?";
}

// Slug ("nilihype").
inline const char* MechanismSlug(Mechanism m) {
  for (const MechanismInfo& e : kMechanisms) {
    if (e.mechanism == m) return e.slug;
  }
  return "?";
}

// Parses a slug; returns false (and leaves *out alone) for an unknown one.
inline bool MechanismFromSlug(const std::string& slug, Mechanism* out) {
  for (const MechanismInfo& e : kMechanisms) {
    if (slug == e.slug) {
      *out = e.mechanism;
      return true;
    }
  }
  return false;
}

enum class Setup {
  k1AppVM,  // PrivVM + one AppVM (Section VI-A)
  k3AppVM,  // PrivVM + UnixBench + NetBench; BlkBench VM created after
            // recovery to verify the hypervisor still works
};

struct RunConfig {
  // --- Platform -----------------------------------------------------------
  hw::PlatformConfig platform;  // 8 CPUs, 8 GiB (paper defaults)

  // --- Mechanism under test -------------------------------------------------
  Mechanism mechanism = Mechanism::kNiLiHype;
  recovery::EnhancementSet enhancements = recovery::EnhancementSet::Full();
  // Snapshot cadence of the snapres mechanism (ignored by the others).
  sim::Duration snapshot_period = sim::Milliseconds(100);

  // --- Workload ---------------------------------------------------------
  Setup setup = Setup::k3AppVM;
  guest::BenchmarkKind bench_1appvm = guest::BenchmarkKind::kUnixBench;
  // Fixed work per benchmark (iterations); see guest/appvm.h.
  int unixbench_iterations = 42000;   // ~2.9 s at ~70 us/iter
  int blkbench_files = 2000;          // ~1.5 s at ~0.73 ms/file
  sim::Duration netbench_duration = sim::Seconds(3);
  sim::Duration run_deadline = sim::Seconds(6);
  // Figure 3 variant of the 3AppVM setup (Section VII-C): create all three
  // AppVMs at the start instead of creating BlkBench after recovery.
  bool vm3_at_start = false;
  // Extension (Section IX future work): pin multiple vCPUs to the same
  // physical CPU — both initial AppVMs share CPU 1 and time-slice through
  // the scheduler instead of owning a core each.
  bool share_cpu = false;
  // Virtualization mode of the AppVMs (Section VI-A: HVM results closely
  // match PV). HVM applies to the UnixBench workload, which has a
  // hardware-virtualized variant; I/O-driver paths stay paravirtual.
  guest::VirtMode appvm_mode = guest::VirtMode::kPV;

  // --- Fault injection ------------------------------------------------------
  bool inject = true;
  inject::FaultType fault = inject::FaultType::kFailstop;
  sim::Time inject_window_start = sim::Milliseconds(300);
  sim::Time inject_window_end = sim::Milliseconds(1200);
  // Scenario hooks (src/fuzz/): an optional trigger-event condition ("fire
  // on the Nth grant op after the window position"), an exact level-2
  // instruction count (-1 keeps the classic uniform 0..20000 draw), and
  // silently planted latent corruptions. Defaults reproduce the paper's
  // campaign behavior exactly.
  inject::TriggerSpec inject_trigger;
  std::int64_t inject_second_trigger = -1;
  std::vector<inject::PlantSpec> inject_plants;

  std::uint64_t seed = 1;

  // --- PrivVM component recovery --------------------------------------------
  // Arm the component-level path alongside whatever hypervisor mechanism is
  // configured: a PrivVM failure detector (detect/privvm_detector.h), the
  // backend-state repair (recovery/privvm_recovery.h) run both on PrivVM-only
  // failures and after every hypervisor recovery (correlated failures), and
  // the guest-context audit passes (privvm_backend, io_ring) when `audit` is
  // also set. Off by default: existing runs are byte-identical.
  bool privvm_recovery = false;

  // --- State audit ----------------------------------------------------------
  // Capture a golden snapshot of the hypervisor state before injection and
  // run a full state audit (audit/state_auditor.h) at the end of the run.
  // Splits "successful recovery" into audit-clean vs latent-corruption.
  bool audit = false;

  // --- Integrity observability ----------------------------------------------
  // Arm the epoch integrity monitor (integrity/monitor.h): a per-epoch hash
  // ladder over the nine recovery-critical surfaces, cross-checked against
  // the mutation ledger so silent corruption is flagged at the epoch it
  // lands. Pure observation — run outcomes are unchanged. When `audit` is
  // also set, each drift immediately runs the matching per-subsystem
  // StateAuditor pass (online audit). Off by default: existing runs are
  // byte-identical.
  bool integrity = false;
  // Proactive rejuvenation (recovery/rejuvenation.h): trigger the
  // configured recovery mechanism after `proactive_threshold` unexplained
  // drift events instead of waiting for the corruption to manifest.
  // Requires `integrity`.
  bool proactive = false;
  int proactive_threshold = 1;

  bool operator==(const RunConfig&) const = default;

  // Derived: hypervisor runtime options follow the enhancement set — the
  // undo-log and batch-completion logging only exist in the image when the
  // corresponding mitigation is part of the build (Section IV).
  hv::HvConfig MakeHvConfig() const {
    hv::HvConfig cfg;
    cfg.runtime.undo_logging = enhancements.nonidem_mitigation;
    cfg.runtime.batch_completion_logging = enhancements.batched_retry_fine;
    cfg.runtime.rehype_ioapic_shadow = (mechanism == Mechanism::kReHype);
    return cfg;
  }

  // Switches the workload to the 1AppVM setup running `bench`: the setup,
  // the benchmark sizes, the injection window and the deadline. Every other
  // field keeps its value.
  void SetOneAppVmWorkload(guest::BenchmarkKind bench) {
    setup = Setup::k1AppVM;
    bench_1appvm = bench;
    unixbench_iterations = 20000;  // ~1.4 s
    blkbench_files = 2000;
    netbench_duration = sim::Milliseconds(1500);
    inject_window_start = sim::Milliseconds(150);
    inject_window_end = sim::Milliseconds(1000);
    run_deadline = sim::Seconds(4);
  }

  static RunConfig OneAppVm(guest::BenchmarkKind bench) {
    RunConfig c;
    c.SetOneAppVmWorkload(bench);
    return c;
  }

  // Per-host configuration of the fleet simulator (src/fleet/): the 1AppVM
  // setup (cheapest full run — a fleet pays one run per fault event) with
  // the state audit on, because the audit-clean vs latent-corruption split
  // is what drives the fleet's degraded-host model.
  static RunConfig FleetHost() {
    RunConfig c;
    c.SetOneAppVmWorkload(guest::BenchmarkKind::kUnixBench);
    c.audit = true;
    return c;
  }
};

}  // namespace nlh::core
