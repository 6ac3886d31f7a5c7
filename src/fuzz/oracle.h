// Differential recovery oracle: runs one scenario under a list of recovery
// mechanisms plus the no-recovery baseline and compares the per-policy
// verdicts. The simulator guarantees execution is identical across all
// variants until the first detection (same seed, same injection), so any
// divergence is attributable to the recovery path itself — exactly the bug
// surface Sections IV/V of the paper spend their enhancement catalogue on.
//
// The policy list is a runtime parameter: every oracle entry point takes a
// mechanism vector and defaults to DefaultPolicies(), which preserves the
// historical NiLiHype/ReHype/baseline triple byte-for-byte (the committed
// corpus reproducers were shrunk against it). RegisteredPolicies() expands
// the comparison to every mechanism in core::kMechanisms — snapres rides
// along as the fourth variant.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/outcome.h"
#include "fuzz/scenario.h"

namespace nlh::fuzz {

// The historical fixed policy triple, kept as the default list. The last
// entry is the full-reboot-equivalent baseline: no in-place recovery
// mechanism at all, which stands in for "lose everything and start over" —
// the paper's point of comparison for both mechanisms.
inline constexpr int kNumPolicies = 3;
inline constexpr core::Mechanism kPolicies[kNumPolicies] = {
    core::Mechanism::kNiLiHype, core::Mechanism::kReHype,
    core::Mechanism::kNone};

// {kNiLiHype, kReHype, kNone} — kPolicies as a runtime list.
std::vector<core::Mechanism> DefaultPolicies();
// Every mechanism in core::kMechanisms, recovery mechanisms in table order
// with the baseline last: {kNiLiHype, kReHype, kSnapRes, kNone}. The order
// feeds the fuzzer's coverage signature.
std::vector<core::Mechanism> RegisteredPolicies();

enum class DivergenceKind {
  kNone = 0,
  kOutcomeSplit,    // outcome class differs somewhere in the tuple
  kRecoveryGap,     // two recovery mechanisms disagree on recovery success
  kAuditSplit,      // both recovered, but only one is audit-clean
  kAuditSlugs,      // both carry latent corruption with different findings
  kVmVerdictSplit,  // same top-level fate, different per-VM damage
  kIntegrityDrift,  // epoch hash ladders diverge between mechanism variants
  kCount,
};

const char* DivergenceKindName(DivergenceKind k);
bool DivergenceKindFromName(const std::string& name, DivergenceKind* out);

// Everything the oracle compares (and the corpus runner re-asserts) about
// one policy's run, reduced to stable slugs and integers. ToJson() emits
// integer-valued numbers only, so parse -> sim::WriteJson is byte-stable —
// the property the corpus regression runner's byte-for-byte check rests on.
struct PolicyVerdict {
  core::Mechanism mechanism = core::Mechanism::kNone;
  core::OutcomeClass outcome = core::OutcomeClass::kNonManifested;
  bool detected = false;
  int recoveries = 0;
  bool success = false;
  bool no_vm_failures = false;
  core::FailureReason failure_reason = core::FailureReason::kNone;
  bool system_dead = false;
  bool vm3_attempted = false;
  bool vm3_ok = false;
  int affected_vms = 0;
  bool audit_clean = false;
  bool latent_corruption = false;
  // Sorted, deduplicated invariant slugs / subsystem slugs of findings with
  // severity above info.
  std::vector<std::string> latent_findings;
  std::vector<std::string> latent_subsystems;
  std::int64_t detection_latency_ns = -1;       // -1 when not applicable
  std::int64_t first_recovery_latency_ns = -1;  // -1 when never recovered
  // Integrity observability (Scenario::integrity): the epoch monitor's
  // per-run summary. Serialized only when `integrity` is set, so bundles
  // (and signatures) from scenarios without the monitor are byte-identical.
  bool integrity = false;
  std::int64_t integrity_drifts = 0;
  std::int64_t first_drift_epoch = -1;          // -1: no drift observed
  std::string first_drift_surface;              // integrity::SubsystemName slug
  std::uint64_t drift_trail = 0;                // drift-sequence fingerprint
  std::int64_t drift_latency_ns = -1;           // injection->first drift

  std::string ToJson() const;
  // Strict inverse of ToJson: every key ToJson writes, with its JSON type
  // (flags as 0 or 1), known slugs, no other key, and the integrity keys
  // present exactly when "integrity" is 1. Returns false otherwise.
  static bool FromJson(const sim::JsonValue& v, PolicyVerdict* out);
  bool operator==(const PolicyVerdict&) const = default;
};

PolicyVerdict MakeVerdict(core::Mechanism mechanism, const core::RunResult& r);

struct OracleOutcome {
  std::vector<PolicyVerdict> verdicts;  // one per policy, in list order
  DivergenceKind divergence = DivergenceKind::kNone;
  std::string detail;  // human-readable one-liner for the reproducer bundle
  // Coverage signature: hashes the behavior tuple plus bucketed hypervisor
  // cycle counts — the generator's feedback signal. Fine-grained on purpose.
  std::uint64_t coverage_signature = 0;
  // Divergence identity: hashes only the divergence-relevant behavior, so
  // re-discoveries of the same split dedupe. 0 when divergence == kNone.
  std::uint64_t divergence_signature = 0;
};

// The RunConfigs a scenario expands to, in `policies` order.
std::vector<core::RunConfig> OracleConfigs(
    const Scenario& s,
    const std::vector<core::Mechanism>& policies = DefaultPolicies());

// Compares the finished runs (`results` has one entry per policy, in
// `policies` order). Divergence details render the first divergent pair;
// a kNone entry renders as "baseline".
OracleOutcome Judge(
    const Scenario& s, const core::RunResult* results,
    const std::vector<core::Mechanism>& policies = DefaultPolicies());

// Convenience: expand, run (via core::RunMany with `threads`), judge.
OracleOutcome EvaluateScenario(
    const Scenario& s, int threads = 1,
    const std::vector<core::Mechanism>& policies = DefaultPolicies());

}  // namespace nlh::fuzz
