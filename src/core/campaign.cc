#include "core/campaign.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/target_system.h"
#include "sim/json.h"
#include "sim/metrics.h"

namespace nlh::core {

double Proportion::HalfWidth95() const {
  if (denom == 0) return 0.0;
  const double p = Value();
  return 1.96 * std::sqrt(p * (1.0 - p) / denom);
}

std::string Proportion::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f%% ± %.1f%%", Value() * 100.0,
                HalfWidth95() * 100.0);
  return buf;
}

std::string Proportion::ToJson() const {
  std::string out = "{\"numer\":" + std::to_string(numer) +
                    ",\"denom\":" + std::to_string(denom) +
                    ",\"value\":" + sim::JsonNum(Value(), 6) +
                    ",\"hw95\":" + sim::JsonNum(HalfWidth95(), 6) + "}";
  return out;
}

namespace {

// Folds the samples into a sim::Histogram so every campaign aggregate uses
// the same interpolated quantile definition as --metrics-out.
sim::Histogram HistogramOf(const std::vector<double>& samples) {
  sim::Histogram h;
  for (double s : samples) h.Observe(s);
  return h;
}

PhaseAggregate Aggregate(const std::string& phase,
                         const std::vector<double>& samples) {
  PhaseAggregate agg;
  agg.phase = phase;
  agg.samples = static_cast<int>(samples.size());
  const sim::Histogram h = HistogramOf(samples);
  agg.mean_ms = h.Mean();
  agg.p99_ms = h.Quantile(0.99);
  return agg;
}

DetectionLatencyAggregate AggregateDetectionLatency(
    const std::string& fault_class, const std::vector<double>& samples) {
  DetectionLatencyAggregate agg;
  agg.fault_class = fault_class;
  agg.samples = static_cast<int>(samples.size());
  const sim::Histogram h = HistogramOf(samples);
  agg.mean_ms = h.Mean();
  agg.p50_ms = h.Quantile(0.50);
  agg.p99_ms = h.Quantile(0.99);
  agg.max_ms = h.max();
  return agg;
}

std::string PhaseAggToJson(const PhaseAggregate& a) {
  return "{\"phase\":" + sim::JsonStr(a.phase) +
         ",\"samples\":" + std::to_string(a.samples) +
         ",\"mean_ms\":" + sim::JsonNum(a.mean_ms, 6) +
         ",\"p99_ms\":" + sim::JsonNum(a.p99_ms, 6) + "}";
}

}  // namespace

std::string CampaignResult::ToJson() const {
  std::string out = "{";
  out += "\"runs\":" + std::to_string(runs);
  out += ",\"non_manifested\":" + std::to_string(non_manifested);
  out += ",\"sdc\":" + std::to_string(sdc);
  out += ",\"detected\":" + std::to_string(detected);
  out += ",\"success\":" + success.ToJson();
  out += ",\"no_vm_failures\":" + no_vm_failures.ToJson();
  out += ",\"audit_clean\":" + audit_clean.ToJson();
  out += ",\"latent_corruption\":" + latent_corruption.ToJson();
  out += ",\"audit_findings_by_subsystem\":{";
  for (std::size_t i = 0; i < audit_findings_by_subsystem.size(); ++i) {
    if (i) out += ",";
    out += sim::JsonStr(audit_findings_by_subsystem[i].first);
    out += ":" + std::to_string(audit_findings_by_subsystem[i].second);
  }
  out += "},\"failure_reasons\":{";
  for (std::size_t i = 0; i < failure_reasons.size(); ++i) {
    if (i) out += ",";
    out += sim::JsonStr(hv::FailureReasonName(failure_reasons[i].first));
    out += ":" + std::to_string(failure_reasons[i].second);
  }
  out += "},\"phase_latency\":[";
  for (std::size_t i = 0; i < phase_latency.size(); ++i) {
    if (i) out += ",";
    out += PhaseAggToJson(phase_latency[i]);
  }
  out += "],\"total_latency\":" + PhaseAggToJson(total_latency);
  out += ",\"detection\":{";
  out += "\"prompt\":" + std::to_string(detected_prompt);
  out += ",\"late\":" + std::to_string(detected_late);
  out += ",\"misdetected\":" + std::to_string(misdetected);
  out += ",\"silent\":" + std::to_string(silent);
  out += ",\"latency_by_class\":{";
  for (std::size_t i = 0; i < detection_latency_by_class.size(); ++i) {
    const DetectionLatencyAggregate& a = detection_latency_by_class[i];
    if (i) out += ",";
    out += sim::JsonStr(a.fault_class) +
           ":{\"samples\":" + std::to_string(a.samples) +
           ",\"mean_ms\":" + sim::JsonNum(a.mean_ms, 6) +
           ",\"p50_ms\":" + sim::JsonNum(a.p50_ms, 6) +
           ",\"p99_ms\":" + sim::JsonNum(a.p99_ms, 6) +
           ",\"max_ms\":" + sim::JsonNum(a.max_ms, 6) + "}";
  }
  out += "}}";
  if (integrity) {
    out += ",\"integrity\":{";
    out += "\"drift_runs\":" + std::to_string(drift_runs);
    out += ",\"total_drifts\":" + std::to_string(total_drifts);
    out += ",\"total_epochs\":" + std::to_string(total_epochs);
    out += ",\"drift_flagged\":" + drift_flagged.ToJson();
    out += ",\"rejuvenations\":" + std::to_string(rejuvenations);
    out += ",\"online_audit_findings\":" + std::to_string(online_audit_findings);
    out += ",\"first_drift_by_surface\":{";
    for (std::size_t i = 0; i < first_drift_by_surface.size(); ++i) {
      if (i) out += ",";
      out += sim::JsonStr(first_drift_by_surface[i].first);
      out += ":" + std::to_string(first_drift_by_surface[i].second);
    }
    out += "},\"drift_latency\":{\"samples\":" +
           std::to_string(drift_latency.samples) +
           ",\"mean_ms\":" + sim::JsonNum(drift_latency.mean_ms, 6) +
           ",\"p50_ms\":" + sim::JsonNum(drift_latency.p50_ms, 6) +
           ",\"p99_ms\":" + sim::JsonNum(drift_latency.p99_ms, 6) +
           ",\"max_ms\":" + sim::JsonNum(drift_latency.max_ms, 6) + "}";
    out += "}";
  }
  out += "}";
  return out;
}

std::vector<RunResult> RunMany(
    const std::vector<RunConfig>& configs, int threads,
    const std::function<void(int, const RunResult&)>& on_run) {
  const int total = static_cast<int>(configs.size());
  // Workers only *collect* per-run results, each into its own slot; all
  // aggregation happens after the join, in index order. This makes every
  // consumer — campaign aggregates, fuzz coverage maps — bit-identical
  // regardless of thread count or scheduling.
  std::vector<RunResult> run_results(static_cast<std::size_t>(total));
  std::mutex mu;  // serializes on_run only
  std::atomic<int> next{0};

  int nthreads = threads > 0
                     ? threads
                     : static_cast<int>(std::thread::hardware_concurrency());
  if (nthreads <= 0) nthreads = 4;
  nthreads = std::min(nthreads, total);

  auto worker = [&] {
    // One arena per worker: event-queue buffers are recycled across this
    // worker's runs (capacity only — no logical state crosses runs).
    RunArena arena;
    while (true) {
      const int i = next.fetch_add(1);
      if (i >= total) return;
      TargetSystem sys(configs[static_cast<std::size_t>(i)], &arena);
      run_results[static_cast<std::size_t>(i)] = sys.Run();
      if (on_run) {
        std::lock_guard<std::mutex> lock(mu);
        on_run(i, run_results[static_cast<std::size_t>(i)]);
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(std::max(nthreads, 0)));
  for (int t = 0; t < nthreads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  return run_results;
}

namespace {

// Whether `b` may fork off `a`'s template: equal in everything except the
// seed and the injection parameters, which only act from the trigger on.
bool SameTemplate(const RunConfig& a, RunConfig b) {
  b.seed = a.seed;
  b.fault = a.fault;
  b.inject = a.inject;
  b.inject_window_start = a.inject_window_start;
  b.inject_window_end = a.inject_window_end;
  b.inject_trigger = a.inject_trigger;
  b.inject_second_trigger = a.inject_second_trigger;
  b.inject_plants = a.inject_plants;
  return a == b;
}

}  // namespace

std::vector<RunResult> RunManyWarmForked(
    const std::vector<RunConfig>& configs, int threads, sim::Duration epoch,
    const std::function<void(int, const RunResult&)>& on_run) {
  const int total = static_cast<int>(configs.size());
  for (int i = 1; i < total; ++i) {
    if (!SameTemplate(configs[0], configs[static_cast<std::size_t>(i)])) {
      throw std::invalid_argument(
          "RunManyWarmForked: run " + std::to_string(i) +
          " differs from run 0 in more than the seed and injection "
          "parameters, so it cannot fork off the same template");
    }
  }
  std::vector<RunResult> run_results(static_cast<std::size_t>(total));
  std::mutex mu;  // serializes on_run only

  int nthreads = threads > 0
                     ? threads
                     : static_cast<int>(std::thread::hardware_concurrency());
  if (nthreads <= 0) nthreads = 4;
  nthreads = std::min(nthreads, total);
  if (nthreads <= 0) return run_results;

  // Runs sorted by trigger time (index as tiebreak), dealt round-robin:
  // worker t owns ranks t, t+n, t+2n, ... in ascending-trigger order, so
  // its template system only ever advances forward through the epochs.
  // The partition is static — unlike RunMany's work stealing — because a
  // worker's state (its template position) is order-dependent; results are
  // still collected by input index, so aggregation order never changes.
  std::vector<std::pair<sim::Time, int>> order;
  order.reserve(static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i) {
    order.emplace_back(
        TargetSystem::FirstTrigger(configs[static_cast<std::size_t>(i)]), i);
  }
  std::sort(order.begin(), order.end());

  auto worker = [&](int t) {
    TargetSystem::ForkImage img;
    std::unique_ptr<TargetSystem> sys;
    sim::Time epoch_at = -1;
    for (std::size_t rank = static_cast<std::size_t>(t); rank < order.size();
         rank += static_cast<std::size_t>(nthreads)) {
      const int i = order[rank].second;
      const RunConfig& cfg = configs[static_cast<std::size_t>(i)];
      // Fork off the last epoch boundary at or before the trigger.
      const sim::Time e =
          epoch > 0 ? (order[rank].first / epoch) * epoch : 0;
      if (sys == nullptr) {
        // The template: the same system with injection disabled. Its
        // pre-trigger state is seed-independent (no RNG stream draws
        // before the trigger), so one template serves every seed.
        RunConfig tmpl = cfg;
        tmpl.inject = false;
        tmpl.inject_plants.clear();
        sys = std::make_unique<TargetSystem>(tmpl);
      } else {
        sys->RestoreForkImage(img);  // back to the clean template state
      }
      if (!img.captured || e > epoch_at) {
        sys->RunUntil(e);
        sys->CaptureForkImage(&img);
        epoch_at = e;
      }
      sys->RearmForSeed(cfg);
      run_results[static_cast<std::size_t>(i)] = sys->Run();
      if (on_run) {
        std::lock_guard<std::mutex> lock(mu);
        on_run(i, run_results[static_cast<std::size_t>(i)]);
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(nthreads));
  for (int t = 0; t < nthreads; ++t) pool.emplace_back(worker, t);
  for (std::thread& t : pool) t.join();
  return run_results;
}

CampaignResult RunCampaign(const RunConfig& config,
                           const CampaignOptions& options) {
  CampaignResult result;
  result.runs = options.runs;

  std::vector<RunConfig> configs(
      static_cast<std::size_t>(std::max(options.runs, 0)), config);
  for (int i = 0; i < options.runs; ++i) {
    configs[static_cast<std::size_t>(i)].seed =
        options.seed0 + static_cast<std::uint64_t>(i);
  }
  const std::vector<RunResult> run_results =
      config.inject ? RunManyWarmForked(configs, options.threads,
                                        kWarmForkEpoch, options.on_run)
                    : RunMany(configs, options.threads, options.on_run);

  std::map<FailureReason, int> reasons;
  // Phase samples in first-observed order (matches step execution order;
  // deterministic because aggregation walks runs in index order).
  std::vector<std::string> phase_order;
  std::map<std::string, std::vector<double>> phase_samples;
  std::vector<double> total_samples;
  std::map<std::string, int> audit_findings;
  // Detection-latency samples keyed by fault class (lexicographic).
  std::map<std::string, std::vector<double>> det_latency;
  // Integrity: first-drift surface tally + injection->drift latency samples.
  std::map<std::string, int> drift_surfaces;
  std::vector<double> drift_lat_samples;

  for (const RunResult& r : run_results) {
    // Detection classification is orthogonal to the outcome switch below:
    // an SDC run with a fired fault counts as silent.
    switch (r.detection_class) {
      case forensics::DetectionClass::kPrompt: ++result.detected_prompt; break;
      case forensics::DetectionClass::kDetectedLate:
        ++result.detected_late;
        break;
      case forensics::DetectionClass::kMisdetected: ++result.misdetected; break;
      case forensics::DetectionClass::kSilent: ++result.silent; break;
      case forensics::DetectionClass::kNotApplicable: break;
    }
    if (r.injection_fired && r.detected && r.detection_latency >= 0) {
      det_latency[inject::ManifestationName(r.manifestation)].push_back(
          sim::ToMillisF(r.detection_latency));
    }
    switch (r.outcome) {
      case OutcomeClass::kNonManifested:
        ++result.non_manifested;
        break;
      case OutcomeClass::kSdc:
        ++result.sdc;
        break;
      case OutcomeClass::kDetected:
        ++result.detected;
        ++result.success.denom;
        ++result.no_vm_failures.denom;
        if (r.success) ++result.success.numer;
        if (r.no_vm_failures) ++result.no_vm_failures.numer;
        if (!r.success) ++reasons[r.failure_reason];
        if (r.audited && r.success) {
          ++result.audit_clean.denom;
          ++result.latent_corruption.denom;
          if (r.audit_clean) ++result.audit_clean.numer;
          if (r.latent_corruption) ++result.latent_corruption.numer;
        }
        if (!r.recovery_phases.empty()) {
          double total_ms = 0.0;
          for (const PhaseLatency& p : r.recovery_phases) {
            auto it = phase_samples.find(p.phase);
            if (it == phase_samples.end()) {
              phase_order.push_back(p.phase);
              it = phase_samples.emplace(p.phase, std::vector<double>{}).first;
            }
            const double ms = sim::ToMillisF(p.latency);
            it->second.push_back(ms);
            total_ms += ms;
          }
          total_samples.push_back(total_ms);
        }
        break;
    }
    if (r.audited) {
      for (const audit::AuditFinding& f : r.audit_report.findings) {
        if (f.severity != audit::AuditSeverity::kInfo) {
          ++audit_findings[integrity::SubsystemName(f.subsystem)];
        }
      }
    }
    if (r.integrity) {
      result.integrity = true;
      result.total_epochs += r.integrity_epochs;
      result.total_drifts += r.integrity_drifts;
      result.rejuvenations += r.rejuvenations;
      result.online_audit_findings += r.online_audit_findings;
      if (r.integrity_drifts > 0) {
        ++result.drift_runs;
        ++drift_surfaces[r.first_drift_surface];
      }
      if (r.injection_fired) {
        ++result.drift_flagged.denom;
        if (r.integrity_drifts > 0) ++result.drift_flagged.numer;
      }
      if (r.drift_latency >= 0) {
        drift_lat_samples.push_back(sim::ToMillisF(r.drift_latency));
      }
    }
  }

  result.failure_reasons.assign(reasons.begin(), reasons.end());
  std::sort(result.failure_reasons.begin(), result.failure_reasons.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  result.audit_findings_by_subsystem.assign(audit_findings.begin(),
                                            audit_findings.end());
  for (const std::string& phase : phase_order) {
    result.phase_latency.push_back(Aggregate(phase, phase_samples[phase]));
  }
  result.total_latency = Aggregate("total", total_samples);
  for (const auto& [fault_class, samples] : det_latency) {
    result.detection_latency_by_class.push_back(
        AggregateDetectionLatency(fault_class, samples));
  }
  if (result.integrity) {
    result.first_drift_by_surface.assign(drift_surfaces.begin(),
                                         drift_surfaces.end());
    result.drift_latency = AggregateDetectionLatency("drift", drift_lat_samples);
  }
  return result;
}

}  // namespace nlh::core
