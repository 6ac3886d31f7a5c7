// Classification of a single fault-injection run (Section VII-A).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "audit/finding.h"
#include "forensics/correlator.h"
#include "hv/failure.h"
#include "inject/corruption.h"
#include "sim/time.h"

namespace nlh::core {

// Re-exported so campaign-level code can tally failures without pulling in
// the whole hypervisor header.
using FailureReason = hv::FailureReason;

// One recovery step with its simulated latency (a Table III row), copied
// from the first RecoveryReport of the run.
struct PhaseLatency {
  std::string phase;   // stable slug (recovery::RecoveryPhaseName)
  std::string label;   // human-readable step label
  sim::Duration latency = 0;
};

// Top-level fate of the injected fault.
enum class OutcomeClass {
  kNonManifested,  // benchmarks finished correctly, nothing detected
  kSdc,            // silent data corruption: wrong output, no detection
  kDetected,       // a detector fired and recovery was attempted
};

const char* OutcomeClassName(OutcomeClass c);

struct VmVerdict {
  std::string name;
  bool affected = false;   // failure criteria of Section VI-A
  std::string why;
};

struct RunResult {
  OutcomeClass outcome = OutcomeClass::kNonManifested;

  // Detection / recovery.
  bool detected = false;
  int recoveries = 0;
  bool system_dead = false;
  FailureReason death_code = FailureReason::kNone;
  std::string death_reason;
  sim::Duration first_recovery_latency = 0;
  // Detection→give-up offset of the first *failed* recovery (the time the
  // mechanism spent before giving up; 0 when recovery failed without an
  // attempt, e.g. no mechanism or attempt limit). -1 when no recovery
  // failed. The fleet layer turns this into the host's time of death.
  sim::Duration recovery_failed_after = -1;
  // Per-phase latency breakdown of the first recovery (Table 3 rows).
  std::vector<PhaseLatency> recovery_phases;

  // Per-VM verdicts (initial AppVMs only; VM3 reported separately).
  std::vector<VmVerdict> vms;
  bool privvm_ok = true;

  // 3AppVM: post-recovery VM creation check (hypervisor operational).
  bool vm3_attempted = false;
  bool vm3_ok = false;

  // The paper's success metrics (meaningful when detected):
  bool success = false;           // <=1 AppVM affected && hv operational
  bool no_vm_failures = false;    // noVMF: no AppVM affected at all
  FailureReason failure_reason = FailureReason::kNone;
  std::string failure_detail;

  // State audit (RunConfig::audit): full end-of-run sweep, differential
  // against the pre-injection golden snapshot. `audit_clean` means no
  // finding above info severity; a *successful* recovery that is not clean
  // carries latent corruption — the residual-failure class the behavioral
  // classification above cannot see.
  bool audited = false;
  audit::AuditReport audit_report;
  bool audit_clean = false;
  bool latent_corruption = false;  // success && !audit_clean

  // Forensics: injection ground truth joined against what the detectors
  // reported (forensics/correlator.h). Populated by TargetSystem::Classify.
  bool injection_fired = false;
  sim::Time injected_at = 0;
  int injection_cpu = -1;
  inject::Manifestation manifestation = inject::Manifestation::kNone;
  std::vector<std::string> injection_corruptions;  // CorruptionTargetName
  // Planted (silent) corruptions applied via InjectionPlan::plants; these
  // fire independently of the two-level trigger and are recorded even when
  // the fault itself never manifests.
  std::vector<std::string> planted_corruptions;
  hv::DetectionEvent detection;                    // first detection, if any
  sim::Duration detection_latency = -1;            // injection→detection; -1 n/a
  forensics::DetectionClass detection_class =
      forensics::DetectionClass::kNotApplicable;

  // Integrity observability (RunConfig::integrity): the epoch monitor's
  // per-run summary. `drift_latency` is the online corruption->detection
  // latency — injection to the first unexplained drift epoch — the number
  // the post-mortem audit story cannot provide; -1 when not applicable.
  bool integrity = false;
  std::uint64_t integrity_epochs = 0;
  std::uint64_t integrity_drifts = 0;
  std::int64_t first_drift_epoch = -1;        // -1: no drift observed
  sim::Time first_drift_at = 0;
  std::string first_drift_surface;            // integrity::SubsystemName slug
  std::uint64_t drift_trail = 0;              // drift-sequence fingerprint
  sim::Duration drift_latency = -1;           // injection→first drift
  int rejuvenations = 0;                      // proactive triggers fired
  int online_audit_findings = 0;              // findings from on-drift passes

  // PrivVM component recovery (RunConfig::privvm_recovery): how many times
  // the backend-repair path ran and what the last pass actually fixed
  // (sum of rings resynced, duplicates dropped, grants unmapped, requests
  // requeued, responses synthesized). Zero when the path is not armed.
  int privvm_recoveries = 0;
  int privvm_repairs = 0;

  // NetBench service measurement (when a NetBench VM is present).
  sim::Duration net_max_gap = 0;
  bool net_rate_dropped = false;

  // Hypervisor processing measurement (Figure 3).
  std::uint64_t hv_cycles = 0;
  std::uint64_t total_cycles = 0;

  int AffectedVmCount() const {
    int n = 0;
    for (const VmVerdict& v : vms) n += v.affected ? 1 : 0;
    return n;
  }
};

}  // namespace nlh::core
