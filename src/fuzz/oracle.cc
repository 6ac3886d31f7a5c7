#include "fuzz/oracle.h"

#include <algorithm>
#include <set>
#include <utility>

#include "hv/failure.h"
#include "integrity/surface.h"

namespace nlh::fuzz {

const char* DivergenceKindName(DivergenceKind k) {
  switch (k) {
    case DivergenceKind::kNone: return "none";
    case DivergenceKind::kOutcomeSplit: return "outcome_split";
    case DivergenceKind::kRecoveryGap: return "recovery_gap";
    case DivergenceKind::kAuditSplit: return "audit_split";
    case DivergenceKind::kAuditSlugs: return "audit_slugs";
    case DivergenceKind::kVmVerdictSplit: return "vm_verdict_split";
    case DivergenceKind::kIntegrityDrift: return "integrity_drift";
    case DivergenceKind::kCount: break;
  }
  return "?";
}

bool DivergenceKindFromName(const std::string& name, DivergenceKind* out) {
  for (int i = 0; i < static_cast<int>(DivergenceKind::kCount); ++i) {
    const auto k = static_cast<DivergenceKind>(i);
    if (name == DivergenceKindName(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

PolicyVerdict MakeVerdict(core::Mechanism mechanism,
                          const core::RunResult& r) {
  PolicyVerdict v;
  v.mechanism = mechanism;
  v.outcome = r.outcome;
  v.detected = r.detected;
  v.recoveries = r.recoveries;
  v.success = r.success;
  v.no_vm_failures = r.no_vm_failures;
  v.failure_reason = r.failure_reason;
  v.system_dead = r.system_dead;
  v.vm3_attempted = r.vm3_attempted;
  v.vm3_ok = r.vm3_ok;
  v.affected_vms = r.AffectedVmCount();
  v.audit_clean = r.audit_clean;
  v.latent_corruption = r.latent_corruption;
  std::set<std::string> findings, subsystems;
  for (const audit::AuditFinding& f : r.audit_report.findings) {
    if (f.severity == audit::AuditSeverity::kInfo) continue;
    findings.insert(f.invariant);
    subsystems.insert(integrity::SubsystemName(f.subsystem));
  }
  v.latent_findings.assign(findings.begin(), findings.end());
  v.latent_subsystems.assign(subsystems.begin(), subsystems.end());
  v.detection_latency_ns = r.detection_latency >= 0 ? r.detection_latency : -1;
  v.first_recovery_latency_ns =
      r.recoveries > 0 ? r.first_recovery_latency : -1;
  v.integrity = r.integrity;
  v.integrity_drifts = static_cast<std::int64_t>(r.integrity_drifts);
  v.first_drift_epoch = r.first_drift_epoch;
  v.first_drift_surface = r.first_drift_surface;
  v.drift_trail = r.drift_trail;
  v.drift_latency_ns = r.drift_latency >= 0 ? r.drift_latency : -1;
  return v;
}

namespace {

std::string StrArrayJson(const std::vector<std::string>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) out += ",";
    out += sim::JsonStr(xs[i]);
  }
  return out + "]";
}

// Power-of-two bucket of a cycle count: coarse enough to be stable under
// small perturbations, fine enough that a recovery path that doubles
// hypervisor work counts as new coverage.
int CycleBucket(std::uint64_t cycles) {
  int b = 0;
  while (cycles > 1) {
    cycles >>= 1;
    ++b;
  }
  return b;
}

std::uint64_t MixVerdict(std::uint64_t h, const PolicyVerdict& v) {
  h = FnvMix(h, std::string(core::MechanismName(v.mechanism)));
  h = FnvMix(h, std::string(core::OutcomeClassName(v.outcome)));
  h = FnvMix(h, static_cast<std::uint64_t>(v.success ? 1 : 0));
  h = FnvMix(h, static_cast<std::uint64_t>(v.no_vm_failures ? 1 : 0));
  h = FnvMix(h, std::string(hv::FailureReasonName(v.failure_reason)));
  h = FnvMix(h, static_cast<std::uint64_t>(v.affected_vms));
  h = FnvMix(h, static_cast<std::uint64_t>(v.audit_clean ? 1 : 0));
  for (const std::string& s : v.latent_findings) h = FnvMix(h, s);
  // Only when the monitor ran: signatures of integrity-less scenarios
  // (including every committed bundle) are unchanged.
  if (v.integrity) {
    h = FnvMix(h, static_cast<std::uint64_t>(v.first_drift_epoch));
    h = FnvMix(h, v.drift_trail);
  }
  return h;
}

}  // namespace

std::string PolicyVerdict::ToJson() const {
  // Integer-valued numbers only (bools as 0/1): parse -> sim::WriteJson must
  // be a fixed point for the corpus runner's byte-for-byte comparison.
  const auto b = [](bool x) { return std::string(x ? "1" : "0"); };
  std::string out = "{";
  out += "\"mechanism\":" + sim::JsonStr(core::MechanismName(mechanism));
  out += ",\"outcome\":" + sim::JsonStr(core::OutcomeClassName(outcome));
  out += ",\"detected\":" + b(detected);
  out += ",\"recoveries\":" + std::to_string(recoveries);
  out += ",\"success\":" + b(success);
  out += ",\"no_vm_failures\":" + b(no_vm_failures);
  out += ",\"failure_reason\":" +
         sim::JsonStr(hv::FailureReasonName(failure_reason));
  out += ",\"system_dead\":" + b(system_dead);
  out += ",\"vm3_attempted\":" + b(vm3_attempted);
  out += ",\"vm3_ok\":" + b(vm3_ok);
  out += ",\"affected_vms\":" + std::to_string(affected_vms);
  out += ",\"audit_clean\":" + b(audit_clean);
  out += ",\"latent_corruption\":" + b(latent_corruption);
  out += ",\"latent_findings\":" + StrArrayJson(latent_findings);
  out += ",\"latent_subsystems\":" + StrArrayJson(latent_subsystems);
  out += ",\"detection_latency_ns\":" + std::to_string(detection_latency_ns);
  out += ",\"first_recovery_latency_ns\":" +
         std::to_string(first_recovery_latency_ns);
  // Conditional, like Scenario::privvm_recovery: documents from scenarios
  // without the monitor are reproduced byte-for-byte. drift_trail is a raw
  // u64, which does not survive the double-typed JSON number path — hex
  // string, like Scenario::seed.
  if (integrity) {
    out += ",\"integrity\":1";
    out += ",\"integrity_drifts\":" + std::to_string(integrity_drifts);
    out += ",\"first_drift_epoch\":" + std::to_string(first_drift_epoch);
    out += ",\"first_drift_surface\":" + sim::JsonStr(first_drift_surface);
    out += ",\"drift_trail\":" + sim::JsonStr(HexU64(drift_trail));
    out += ",\"drift_latency_ns\":" + std::to_string(drift_latency_ns);
  }
  out += "}";
  return out;
}

namespace {

// A flag, which ToJson writes as 0 or 1.
bool GetFlag(const sim::JsonValue& obj, const char* key, bool* out) {
  std::int64_t n = 0;
  if (!GetI64(obj, key, &n)) return false;
  *out = n != 0;
  return true;
}

bool GetStrArray(const sim::JsonValue& obj, const char* key,
                 std::vector<std::string>* out) {
  const sim::JsonValue* v = obj.Find(key);
  if (v == nullptr || !v->IsArray()) return false;
  for (const sim::JsonValue& item : v->items) {
    if (item.type != sim::JsonValue::Type::kString) return false;
    out->push_back(item.str);
  }
  return true;
}

// An integrity::SubsystemName slug among the first `n` subsystems.
bool KnownSubsystem(const std::string& slug, int n) {
  for (int i = 0; i < n; ++i) {
    if (slug == integrity::SubsystemName(static_cast<integrity::Subsystem>(i)))
      return true;
  }
  return false;
}

}  // namespace

bool PolicyVerdict::FromJson(const sim::JsonValue& v, PolicyVerdict* out) {
  PolicyVerdict p;
  std::string mechanism, outcome, failure_reason, trail;
  if (!GetStr(v, "mechanism", &mechanism) || !GetStr(v, "outcome", &outcome) ||
      !GetFlag(v, "detected", &p.detected) ||
      !GetCount(v, "recoveries", &p.recoveries) ||
      !GetFlag(v, "success", &p.success) ||
      !GetFlag(v, "no_vm_failures", &p.no_vm_failures) ||
      !GetStr(v, "failure_reason", &failure_reason) ||
      !GetFlag(v, "system_dead", &p.system_dead) ||
      !GetFlag(v, "vm3_attempted", &p.vm3_attempted) ||
      !GetFlag(v, "vm3_ok", &p.vm3_ok) ||
      !GetCount(v, "affected_vms", &p.affected_vms) ||
      !GetFlag(v, "audit_clean", &p.audit_clean) ||
      !GetFlag(v, "latent_corruption", &p.latent_corruption) ||
      !GetStrArray(v, "latent_findings", &p.latent_findings) ||
      !GetStrArray(v, "latent_subsystems", &p.latent_subsystems) ||
      !GetI64(v, "detection_latency_ns", &p.detection_latency_ns) ||
      !GetI64(v, "first_recovery_latency_ns", &p.first_recovery_latency_ns)) {
    return false;
  }
  if (v.Find("integrity") != nullptr &&
      (!GetFlag(v, "integrity", &p.integrity) ||
       !GetI64(v, "integrity_drifts", &p.integrity_drifts) ||
       !GetI64(v, "first_drift_epoch", &p.first_drift_epoch) ||
       !GetStr(v, "first_drift_surface", &p.first_drift_surface) ||
       !GetStr(v, "drift_trail", &trail) ||
       !ParseHexU64(trail, &p.drift_trail) ||
       !GetI64(v, "drift_latency_ns", &p.drift_latency_ns))) {
    return false;
  }
  for (const core::MechanismInfo& e : core::kMechanisms) {
    if (mechanism == e.name) p.mechanism = e.mechanism;
  }
  for (const core::OutcomeClass c :
       {core::OutcomeClass::kNonManifested, core::OutcomeClass::kSdc,
        core::OutcomeClass::kDetected}) {
    if (outcome == core::OutcomeClassName(c)) p.outcome = c;
  }
  p.failure_reason = hv::FailureReasonFromName(failure_reason);
  const int subsystems = static_cast<int>(integrity::Subsystem::kIoRing) + 1;
  for (const std::string& slug : p.latent_subsystems) {
    if (!KnownSubsystem(slug, subsystems)) return false;
  }
  if (!p.first_drift_surface.empty() &&
      !KnownSubsystem(p.first_drift_surface, integrity::kNumSurfaces)) {
    return false;
  }
  // What was read must print back as the same document. That rejects an
  // unknown mechanism, outcome or failure reason, a flag other than 0/1,
  // any other key, and integrity keys ToJson would not write.
  sim::JsonValue back;
  if (!sim::ParseJson(p.ToJson(), &back) ||
      sim::WriteJson(back) != sim::WriteJson(v)) {
    return false;
  }
  *out = std::move(p);
  return true;
}

std::vector<core::Mechanism> DefaultPolicies() {
  return {kPolicies, kPolicies + kNumPolicies};
}

std::vector<core::Mechanism> RegisteredPolicies() {
  // Recovery mechanisms in table order, the no-recovery baseline last.
  std::vector<core::Mechanism> out;
  for (const core::MechanismInfo& e : core::kMechanisms) {
    if (e.mechanism != core::Mechanism::kNone) out.push_back(e.mechanism);
  }
  out.push_back(core::Mechanism::kNone);
  return out;
}

std::vector<core::RunConfig> OracleConfigs(
    const Scenario& s, const std::vector<core::Mechanism>& policies) {
  std::vector<core::RunConfig> cfgs;
  cfgs.reserve(policies.size());
  for (core::Mechanism m : policies) cfgs.push_back(s.ToRunConfig(m));
  return cfgs;
}

namespace {

// How a policy reads in a divergence detail line. The no-recovery entry is
// the paper's point of comparison, so it renders as "baseline".
std::string PolicyLabel(core::Mechanism m) {
  return m == core::Mechanism::kNone ? std::string("baseline")
                                     : std::string(core::MechanismName(m));
}

}  // namespace

OracleOutcome Judge(const Scenario& s, const core::RunResult* results,
                    const std::vector<core::Mechanism>& policies) {
  OracleOutcome o;
  o.verdicts.reserve(policies.size());
  for (std::size_t i = 0; i < policies.size(); ++i) {
    o.verdicts.push_back(MakeVerdict(policies[i], results[i]));
  }

  // Indices of the recovery mechanisms (every non-baseline entry), in list
  // order. Pairwise checks scan pairs lexicographically and report the
  // first divergent one — for the default triple that is exactly the
  // historical NiLiHype-vs-ReHype comparison, byte-for-byte.
  std::vector<std::size_t> mechs;
  for (std::size_t i = 0; i < policies.size(); ++i) {
    if (policies[i] != core::Mechanism::kNone) mechs.push_back(i);
  }

  bool outcome_split = false;
  for (const PolicyVerdict& v : o.verdicts) {
    outcome_split |= v.outcome != o.verdicts[0].outcome;
  }
  // First divergent recovery-mechanism pair per divergence class.
  const auto first_pair = [&mechs, &o](auto&& diverges) {
    for (std::size_t a = 0; a < mechs.size(); ++a) {
      for (std::size_t b = a + 1; b < mechs.size(); ++b) {
        if (diverges(o.verdicts[mechs[a]], o.verdicts[mechs[b]])) {
          return std::make_pair(mechs[a], mechs[b]);
        }
      }
    }
    return std::make_pair(std::size_t(0), std::size_t(0));
  };
  const auto gap = first_pair([](const PolicyVerdict& x,
                                 const PolicyVerdict& y) {
    return x.success != y.success;
  });
  // Silent-corruption divergence, visible at the epoch the damage lands:
  // execution is identical across variants until the first detection, so
  // two mechanisms whose ladders disagree on when/where state first drifted
  // (or whose drift sequences then evolve differently) split on the
  // recovery path itself, even when every behavioral verdict above matches.
  const auto integrity_drift = first_pair([](const PolicyVerdict& x,
                                             const PolicyVerdict& y) {
    return x.integrity && y.integrity &&
           (x.first_drift_epoch != y.first_drift_epoch ||
            x.first_drift_surface != y.first_drift_surface ||
            x.drift_trail != y.drift_trail);
  });
  const auto audit_split = first_pair([](const PolicyVerdict& x,
                                         const PolicyVerdict& y) {
    return x.success && y.success && x.audit_clean != y.audit_clean;
  });
  const auto audit_slugs = first_pair([](const PolicyVerdict& x,
                                         const PolicyVerdict& y) {
    return x.latent_corruption && y.latent_corruption &&
           x.latent_findings != y.latent_findings;
  });
  const auto vm_split = first_pair([](const PolicyVerdict& x,
                                      const PolicyVerdict& y) {
    return x.affected_vms != y.affected_vms ||
           x.vm3_attempted != y.vm3_attempted || x.vm3_ok != y.vm3_ok;
  });

  if (outcome_split) {
    o.divergence = DivergenceKind::kOutcomeSplit;
    o.detail = "outcome ";
    for (std::size_t i = 0; i < o.verdicts.size(); ++i) {
      if (i) o.detail += " vs ";
      o.detail += std::string(core::OutcomeClassName(o.verdicts[i].outcome)) +
                  " (" + PolicyLabel(policies[i]) + ")";
    }
  } else if (gap.first != gap.second) {
    o.divergence = DivergenceKind::kRecoveryGap;
    const PolicyVerdict& x = o.verdicts[gap.first];
    const PolicyVerdict& y = o.verdicts[gap.second];
    const std::size_t winner = x.success ? gap.first : gap.second;
    const std::size_t loser = x.success ? gap.second : gap.first;
    o.detail = PolicyLabel(policies[winner]) + " recovers, " +
               PolicyLabel(policies[loser]) + " fails (" +
               hv::FailureReasonName((x.success ? y : x).failure_reason) + ")";
  } else if (integrity_drift.first != integrity_drift.second) {
    o.divergence = DivergenceKind::kIntegrityDrift;
    const PolicyVerdict& x = o.verdicts[integrity_drift.first];
    const PolicyVerdict& y = o.verdicts[integrity_drift.second];
    const auto side = [](const PolicyVerdict& v) {
      if (v.first_drift_epoch < 0) return std::string("no drift");
      return "epoch " + std::to_string(v.first_drift_epoch) + " on " +
             v.first_drift_surface;
    };
    o.detail = "integrity drift diverges: " + side(x) + " (" +
               PolicyLabel(policies[integrity_drift.first]) + ") vs " +
               side(y) + " (" + PolicyLabel(policies[integrity_drift.second]) +
               ")";
    if (x.first_drift_epoch == y.first_drift_epoch &&
        x.first_drift_surface == y.first_drift_surface) {
      o.detail += " [trails differ]";
    }
  } else if (audit_split.first != audit_split.second) {
    o.divergence = DivergenceKind::kAuditSplit;
    const std::size_t dirty_idx = o.verdicts[audit_split.first].audit_clean
                                      ? audit_split.second
                                      : audit_split.first;
    const PolicyVerdict& dirty = o.verdicts[dirty_idx];
    o.detail = PolicyLabel(policies[dirty_idx]) +
               " recovers with latent corruption (" +
               (dirty.latent_findings.empty() ? "?"
                                              : dirty.latent_findings[0]) +
               "), the other is audit-clean";
  } else if (audit_slugs.first != audit_slugs.second) {
    o.divergence = DivergenceKind::kAuditSlugs;
    o.detail = "both mechanisms leave latent corruption, different findings";
  } else if (vm_split.first != vm_split.second) {
    o.divergence = DivergenceKind::kVmVerdictSplit;
    o.detail = "per-VM damage differs: " +
               std::to_string(o.verdicts[vm_split.first].affected_vms) +
               " affected VMs (" + PolicyLabel(policies[vm_split.first]) +
               ") vs " +
               std::to_string(o.verdicts[vm_split.second].affected_vms) +
               " (" + PolicyLabel(policies[vm_split.second]) + ")";
  }

  std::uint64_t cov = kFnvOffset;
  for (std::size_t i = 0; i < o.verdicts.size(); ++i) {
    cov = MixVerdict(cov, o.verdicts[i]);
    cov = FnvMix(cov,
                 static_cast<std::uint64_t>(CycleBucket(results[i].hv_cycles)));
  }
  cov = FnvMix(cov, std::string(DivergenceKindName(o.divergence)));
  o.coverage_signature = cov;

  if (o.divergence != DivergenceKind::kNone) {
    std::uint64_t sig = kFnvOffset;
    sig = FnvMix(sig, std::string(DivergenceKindName(o.divergence)));
    for (const PolicyVerdict& v : o.verdicts) sig = MixVerdict(sig, v);
    o.divergence_signature = sig;
  }
  (void)s;
  return o;
}

OracleOutcome EvaluateScenario(const Scenario& s, int threads,
                               const std::vector<core::Mechanism>& policies) {
  const std::vector<core::RunConfig> cfgs = OracleConfigs(s, policies);
  const std::vector<core::RunResult> results = core::RunMany(cfgs, threads);
  return Judge(s, results.data(), policies);
}

}  // namespace nlh::fuzz
