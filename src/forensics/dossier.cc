#include "forensics/dossier.h"

#include <cstdio>
#include <filesystem>
#include <map>

#include "forensics/profiler.h"
#include "hv/failure.h"
#include "inject/corruption.h"
#include "recovery/snapres.h"
#include "sim/json.h"
#include "sim/metrics.h"

namespace nlh::forensics {

bool DossierWorthy(const core::RunResult& r) {
  if (r.outcome == core::OutcomeClass::kSdc) return true;
  if (r.detected && !r.success) return true;
  return r.latent_corruption;
}

namespace {

const char* Bool(bool b) { return b ? "true" : "false"; }

}  // namespace

std::string ConfigJson(const core::RunConfig& cfg) {
  std::string out = "{";
  out += "\"mechanism\":" + sim::JsonStr(core::MechanismName(cfg.mechanism));
  out += ",\"setup\":" + sim::JsonStr(cfg.setup == core::Setup::k1AppVM
                                          ? "1AppVM"
                                          : "3AppVM");
  out += ",\"fault\":" + sim::JsonStr(inject::FaultTypeName(cfg.fault));
  out += ",\"inject\":" + std::string(Bool(cfg.inject));
  out += ",\"audit\":" + std::string(Bool(cfg.audit));
  // Conditional: documents from before the PrivVM component path existed
  // stay byte-identical.
  if (cfg.privvm_recovery) out += ",\"privvm_recovery\":true";
  out += ",\"seed\":" + std::to_string(cfg.seed);
  out += ",\"num_cpus\":" + std::to_string(cfg.platform.num_cpus);
  // Scenario hooks (defaults encode the classic campaign behavior).
  out += ",\"trigger\":" +
         sim::JsonStr(inject::TriggerKindName(cfg.inject_trigger.kind));
  out += ",\"trigger_skip\":" + std::to_string(cfg.inject_trigger.skip);
  out += ",\"second_trigger\":" + std::to_string(cfg.inject_second_trigger);
  out += ",\"plants\":[";
  for (std::size_t i = 0; i < cfg.inject_plants.size(); ++i) {
    if (i) out += ",";
    out += "{\"target\":" +
           sim::JsonStr(inject::CorruptionTargetName(cfg.inject_plants[i].target)) +
           ",\"at_ns\":" + std::to_string(cfg.inject_plants[i].at);
    if (cfg.inject_plants[i].during_recovery) out += ",\"during_recovery\":true";
    out += "}";
  }
  out += "]}";
  return out;
}

std::string ResultJson(const core::RunResult& r) {
  std::string out = "{";
  out += "\"outcome\":" + sim::JsonStr(core::OutcomeClassName(r.outcome));
  out += ",\"detected\":" + std::string(Bool(r.detected));
  out += ",\"recoveries\":" + std::to_string(r.recoveries);
  out += ",\"success\":" + std::string(Bool(r.success));
  out += ",\"no_vm_failures\":" + std::string(Bool(r.no_vm_failures));
  out += ",\"failure_reason\":" +
         sim::JsonStr(hv::FailureReasonName(r.failure_reason));
  out += ",\"failure_detail\":" + sim::JsonStr(r.failure_detail);
  out += ",\"system_dead\":" + std::string(Bool(r.system_dead));
  out += ",\"death_reason\":" + sim::JsonStr(r.death_reason);
  out += ",\"detection_class\":" +
         sim::JsonStr(DetectionClassName(r.detection_class));
  out += ",\"detection_latency_ms\":";
  out += r.detection_latency >= 0
             ? sim::JsonNum(sim::ToMillisF(r.detection_latency), 6)
             : std::string("null");
  out += ",\"audited\":" + std::string(Bool(r.audited));
  out += ",\"audit_clean\":" + std::string(Bool(r.audit_clean));
  out += ",\"latent_corruption\":" + std::string(Bool(r.latent_corruption));
  out += ",\"vm3_attempted\":" + std::string(Bool(r.vm3_attempted));
  out += ",\"vm3_ok\":" + std::string(Bool(r.vm3_ok));
  if (r.privvm_recoveries > 0) {
    out += ",\"privvm_recoveries\":" + std::to_string(r.privvm_recoveries);
    out += ",\"privvm_repairs\":" + std::to_string(r.privvm_repairs);
  }
  out += ",\"vms\":[";
  for (std::size_t i = 0; i < r.vms.size(); ++i) {
    if (i) out += ",";
    out += "{\"name\":" + sim::JsonStr(r.vms[i].name) +
           ",\"affected\":" + Bool(r.vms[i].affected) +
           ",\"why\":" + sim::JsonStr(r.vms[i].why) + "}";
  }
  out += "]}";
  return out;
}

std::string InjectionJson(const core::RunResult& r) {
  std::string out = "{";
  out += "\"fired\":" + std::string(Bool(r.injection_fired));
  out += ",\"fired_at_ns\":" + std::to_string(r.injected_at);
  out += ",\"cpu\":" + std::to_string(r.injection_cpu);
  out += ",\"manifestation\":" +
         sim::JsonStr(inject::ManifestationName(r.manifestation));
  out += ",\"corruptions\":[";
  for (std::size_t i = 0; i < r.injection_corruptions.size(); ++i) {
    if (i) out += ",";
    out += sim::JsonStr(r.injection_corruptions[i]);
  }
  out += "],\"planted\":[";
  for (std::size_t i = 0; i < r.planted_corruptions.size(); ++i) {
    if (i) out += ",";
    out += sim::JsonStr(r.planted_corruptions[i]);
  }
  out += "]}";
  return out;
}

std::string DetectionJson(const core::RunResult& r) {
  if (!r.detected) return "null";
  const hv::DetectionEvent& ev = r.detection;
  return "{\"cpu\":" + std::to_string(ev.cpu) +
         ",\"kind\":" + sim::JsonStr(hv::DetectionKindName(ev.kind)) +
         ",\"code\":" + sim::JsonStr(hv::FailureCodeName(ev.code)) +
         ",\"when_ns\":" + std::to_string(ev.when) +
         ",\"detail\":" + sim::JsonStr(ev.detail) + "}";
}

std::string MetricsJson(core::TargetSystem& sys, const core::RunResult& r) {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, sim::Histogram> histograms;
  const hv::Hypervisor& hv = sys.hv();
  const hv::HvStats& s = hv.stats();
  counters["hv.hypercalls"] = s.hypercalls;
  counters["hv.syscall_forwards"] = s.syscall_forwards;
  counters["hv.interrupts"] = s.interrupts;
  counters["hv.schedules"] = s.schedules;
  counters["hv.timer_softirqs"] = s.timer_softirqs;
  counters["hv.idle_polls"] = s.idle_polls;
  counters["hv.events_sent"] = s.events_sent;
  counters["hv.detections"] = s.detections;
  counters["hv.recoveries"] = s.recoveries;
  if (hv.dead()) {
    counters[std::string("hv.dead.") + hv::FailureReasonName(hv.death_code())] =
        1;
  }
  if (const integrity::EpochMonitor* m = sys.integrity_monitor()) {
    counters["integrity.epochs"] = m->epochs();
    counters["integrity.drifts"] = m->drift_count();
  }
  if (r.audited) {
    counters["audit.sweeps"] = 1;
    for (const audit::AuditFinding& f : r.audit_report.findings) {
      ++counters[std::string("audit.findings.") +
                 integrity::SubsystemName(f.subsystem)];
    }
    histograms["audit.sweep_ms"].Observe(
        sim::ToMillisF(r.audit_report.modeled_cost));
    histograms["audit.findings_per_sweep"].Observe(
        static_cast<double>(r.audit_report.findings.size()));
  }
  // Each histogram takes its samples in the order the run produced them:
  // snapshot captures, then recovery steps report by report.
  recovery::RecoveryManager* manager = sys.recovery_manager();
  if (const auto* snapres =
          dynamic_cast<const recovery::SnapRes*>(manager->mechanism())) {
    counters["snapres.captures"] = snapres->captures();
    sim::Histogram& h = histograms["recovery.phase_ms.snapshot_capture"];
    for (std::uint64_t i = 0; i < snapres->captures(); ++i) {
      h.Observe(sim::ToMillisF(snapres->capture_cost()));
    }
  }
  const auto add_steps = [&](const recovery::RecoveryReport& rep) {
    for (const recovery::StepLatency& step : rep.steps) {
      histograms[std::string("recovery.phase_ms.") +
                 recovery::RecoveryPhaseName(step.phase)]
          .Observe(sim::ToMillisF(step.latency));
    }
  };
  for (const recovery::RecoveryReport& rep : manager->reports()) {
    if (rep.gave_up) continue;  // it recorded no step
    add_steps(rep);
    histograms["recovery.total_ms"].Observe(sim::ToMillisF(rep.total()));
  }
  if (const recovery::PrivVmRecovery* pv = sys.privvm_recovery()) {
    for (const recovery::RecoveryReport& rep : pv->reports()) add_steps(rep);
  }

  std::string out = "{\"counters\":{";
  for (const auto& [name, value] : counters) {
    if (out.back() != '{') out += ",";
    out += sim::JsonStr(name) + ":" + std::to_string(value);
  }
  // "gauges" stays, empty, so the export keeps its shape for its readers.
  out += "},\"gauges\":{},\"histograms\":{";
  for (const auto& [name, h] : histograms) {
    if (out.back() != '{') out += ",";
    out += sim::JsonStr(name) + ":{\"count\":" + std::to_string(h.count()) +
           ",\"sum\":" + sim::JsonNum(h.sum()) +
           ",\"min\":" + sim::JsonNum(h.min()) +
           ",\"max\":" + sim::JsonNum(h.max()) +
           ",\"mean\":" + sim::JsonNum(h.Mean()) +
           ",\"p50\":" + sim::JsonNum(h.Quantile(0.50)) +
           ",\"p99\":" + sim::JsonNum(h.Quantile(0.99)) + "}";
  }
  out += "}}";
  return out;
}

ReplayArtifacts ReplayRun(const core::RunConfig& base_cfg,
                          std::uint64_t run_id) {
  core::RunConfig cfg = base_cfg;
  cfg.seed = run_id;
  cfg.audit = true;  // so every dossier carries the audit findings

  core::TargetSystem sys(cfg);
  sys.EnableFlightRecorder();

  ReplayArtifacts art;
  art.result = sys.Run();
  const forensics::FlightRecorder& recorder = sys.hv().flight_recorder();
  art.trace_json = recorder.ToChromeJson();
  art.profile = CollapsedStackProfile(recorder.Retained());
  art.narrative = recorder.PinnedText();

  std::string out = "{";
  out += "\"schema\":\"nlh-dossier-v1\"";
  out += ",\"run_id\":" + std::to_string(run_id);
  out += ",\"config\":" + ConfigJson(cfg);
  out += ",\"result\":" + ResultJson(art.result);
  out += ",\"injection\":" + InjectionJson(art.result);
  out += ",\"detection\":" + DetectionJson(art.result);
  out += ",\"audit_findings\":" + art.result.audit_report.ToJson();
  out += ",\"recorder\":" + recorder.ToJson();
  out += ",\"trace\":" + art.trace_json;
  out += "}";
  art.dossier_json = std::move(out);
  return art;
}

std::string WriteDossier(const std::string& dossier_json, std::uint64_t run_id,
                         const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return "";

  const std::string path =
      (std::filesystem::path(dir) / ("run_" + std::to_string(run_id) + ".json"))
          .string();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return "";
  const std::size_t n =
      std::fwrite(dossier_json.data(), 1, dossier_json.size(), f);
  const bool ok = (n == dossier_json.size()) && (std::fclose(f) == 0);
  return ok ? path : "";
}

}  // namespace nlh::forensics
