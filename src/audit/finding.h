// Typed audit findings: the output vocabulary of the state-audit engine.
//
// The paper classifies each injection run as success / SDC / failure by
// observing guest-visible behavior (Section VI-B). A run can pass that
// classification while leaving latent corruption inside the hypervisor —
// stale frame use counters, leaked heap objects, orphaned timers — which
// the ReHype follow-up analysis identifies as the dominant residual-failure
// class. Findings give that latent state a stable, machine-readable name so
// campaigns can split "success" into audit-clean vs latent-corruption.
#pragma once

#include <string>
#include <vector>

#include "integrity/surface.h"
#include "sim/json.h"
#include "sim/time.h"

namespace nlh::audit {

// Which subsystem the finding is about (integrity/surface.h). Slugs are
// stable: metric names, campaign JSON columns, and tests key on them.
using AuditSubsystem = integrity::Subsystem;

enum class AuditSeverity {
  kInfo = 0,  // divergence worth reporting, no functional consequence
  kLatent,    // functionally wrong state that has not yet manifested
  kFatal,     // state that will panic/hang the next code path touching it
};

inline const char* AuditSeverityName(AuditSeverity s) {
  switch (s) {
    case AuditSeverity::kInfo: return "info";
    case AuditSeverity::kLatent: return "latent";
    case AuditSeverity::kFatal: return "fatal";
  }
  return "?";
}

struct AuditFinding {
  AuditSubsystem subsystem = AuditSubsystem::kFrameTable;
  std::string invariant;  // stable slug, e.g. "frame.use_count_referential"
  AuditSeverity severity = AuditSeverity::kLatent;
  std::string detail;     // human-readable diagnostic

  std::string ToJson() const {
    return std::string("{\"subsystem\":") +
           sim::JsonStr(integrity::SubsystemName(subsystem)) +
           ",\"invariant\":" + sim::JsonStr(invariant) +
           ",\"severity\":" + sim::JsonStr(AuditSeverityName(severity)) +
           ",\"detail\":" + sim::JsonStr(detail) + "}";
  }
};

// The result of one audit sweep.
struct AuditReport {
  std::vector<AuditFinding> findings;
  // Modeled simulated cost of the sweep (per-entry charges; see
  // StateAuditor). Exposed so campaigns can account audit cost the same way
  // they account recovery phase latency.
  sim::Time modeled_cost = 0;

  bool clean() const { return findings.empty(); }

  // Findings that make the platform state functionally wrong (severity
  // above kInfo). Differential/info findings do not make a run dirty.
  int CorruptionCount() const {
    int n = 0;
    for (const AuditFinding& f : findings) {
      if (f.severity != AuditSeverity::kInfo) ++n;
    }
    return n;
  }

  int CountFor(AuditSubsystem s) const {
    int n = 0;
    for (const AuditFinding& f : findings) n += (f.subsystem == s) ? 1 : 0;
    return n;
  }

  bool HasInvariant(const std::string& slug) const {
    for (const AuditFinding& f : findings) {
      if (f.invariant == slug) return true;
    }
    return false;
  }

  std::string ToJson() const {
    std::string out = "[";
    for (std::size_t i = 0; i < findings.size(); ++i) {
      if (i) out += ",";
      out += findings[i].ToJson();
    }
    out += "]";
    return out;
  }
};

}  // namespace nlh::audit
