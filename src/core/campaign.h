// Campaign runner: many independent fault-injection runs, aggregated with
// confidence intervals — the simulator-world equivalent of the paper's
// Campaign Agent (Section VI-C, Figure 1).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/outcome.h"

namespace nlh::core {

struct Proportion {
  int numer = 0;
  int denom = 0;
  double Value() const {
    return denom == 0 ? 0.0 : static_cast<double>(numer) / denom;
  }
  // Normal-approximation 95% half-width, as the paper reports (+/-).
  double HalfWidth95() const;
  std::string ToString() const;  // "95.0% ± 1.4%"
  std::string ToJson() const;    // {"numer":..,"denom":..,"value":..,"hw95":..}
};

// Aggregated latency of one recovery phase across the campaign's detected
// runs (a Table 3 row, with distribution info).
struct PhaseAggregate {
  std::string phase;   // stable slug (recovery::RecoveryPhaseName)
  int samples = 0;
  double mean_ms = 0.0;
  double p99_ms = 0.0;
};

// Injection→detection latency distribution for one fault class
// (inject::ManifestationName slug), across runs where the fault fired and a
// detector responded.
struct DetectionLatencyAggregate {
  std::string fault_class;
  int samples = 0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

struct CampaignResult {
  int runs = 0;
  int non_manifested = 0;
  int sdc = 0;
  int detected = 0;

  // Among detected runs:
  Proportion success;        // successful recovery rate (Figure 2)
  Proportion no_vm_failures;  // noVMF (Figure 2)

  // Audit-refined split of `success` (populated when RunConfig::audit):
  // every successful recovery is either audit-clean or carries latent
  // corruption the behavioral classification cannot see. Denominator is
  // the audited successful runs; audit_clean + latent_corruption == it.
  Proportion audit_clean;
  Proportion latent_corruption;
  // Corruption findings (severity above info) across all audited runs,
  // tallied by subsystem slug in lexicographic order.
  std::vector<std::pair<std::string, int>> audit_findings_by_subsystem;

  // Failure-reason tally (recovery-failure analysis, Section VII-A), keyed
  // by the typed reason so aggregation cannot drift on message wording.
  std::vector<std::pair<FailureReason, int>> failure_reasons;

  // Per-phase recovery latency breakdown (Table 3), in first-observed order.
  std::vector<PhaseAggregate> phase_latency;
  // Total recovery latency across detected runs that recovered.
  PhaseAggregate total_latency;  // phase == "total"

  // Root-cause correlation (forensics/correlator.h): how each run's
  // detection relates to its injected ground truth. `prompt + late +
  // misdetected + silent` covers every run where the correlator had
  // something to say (runs classified kNotApplicable are not counted).
  int detected_prompt = 0;
  int detected_late = 0;
  int misdetected = 0;
  int silent = 0;
  // Detection-latency histograms per fault class (ManifestationName slug,
  // lexicographic order).
  std::vector<DetectionLatencyAggregate> detection_latency_by_class;

  // Integrity observability aggregate (populated when RunConfig::integrity;
  // the `integrity` flag gates serialization so campaigns without the
  // monitor keep byte-identical JSON). `drift_latency` is the online
  // corruption->detection latency histogram: injection to the first
  // unexplained drift epoch, across fired-injection runs that drifted.
  bool integrity = false;
  int drift_runs = 0;                   // runs with >=1 unexplained drift
  std::uint64_t total_drifts = 0;
  std::uint64_t total_epochs = 0;
  Proportion drift_flagged;             // fired-injection runs with drift
  int rejuvenations = 0;                // proactive triggers across runs
  int online_audit_findings = 0;        // on-drift audit findings across runs
  // First-drift surface tally (integrity::SubsystemName slug, lexicographic).
  std::vector<std::pair<std::string, int>> first_drift_by_surface;
  DetectionLatencyAggregate drift_latency;  // fault_class == "drift"

  // Serializes rates, proportions, failure tally, and phase breakdown.
  std::string ToJson() const;

  double NonManifestedRate() const {
    return runs == 0 ? 0 : static_cast<double>(non_manifested) / runs;
  }
  double SdcRate() const {
    return runs == 0 ? 0 : static_cast<double>(sdc) / runs;
  }
  double DetectedRate() const {
    return runs == 0 ? 0 : static_cast<double>(detected) / runs;
  }
};

struct CampaignOptions {
  int runs = 500;
  std::uint64_t seed0 = 1000;
  int threads = 0;  // 0 = hardware concurrency
  // Optional per-run callback (e.g. progress display); called under a lock,
  // in no fixed run order.
  std::function<void(int /*index*/, const RunResult&)> on_run;
};

// Runs every config in `configs` once, in parallel (atomic work-stealing
// index, one RunArena per worker), and returns results indexed like the
// input. The result vector is bit-identical regardless of thread count —
// this is the primitive the scenario fuzzer's differential oracle batches
// heterogeneous configs through, and RunCampaign runs non-injecting
// campaigns through it.
std::vector<RunResult> RunMany(
    const std::vector<RunConfig>& configs, int threads,
    const std::function<void(int, const RunResult&)>& on_run = {});

// Spacing of the snapshot epochs RunCampaign and fleet::FleetSim::Run fork
// their runs from.
inline constexpr sim::Duration kWarmForkEpoch = sim::Milliseconds(100);

// Warm-fork flavor of RunMany. Requires homogeneous configs: every entry
// must equal configs[0] in everything but `seed`, `fault`, `inject`,
// `inject_window_start`, `inject_window_end`, `inject_trigger`,
// `inject_second_trigger` and `inject_plants`, since the rest shapes the
// pre-injection state every run forks from. Throws std::invalid_argument
// naming the first run index that differs.
// Runs are sorted by their precomputed injection-trigger time and dealt
// round-robin to workers, so each worker's template only ever advances
// forward. The result vector is indexed like the input and bit-identical
// to RunMany's regardless of thread count.
std::vector<RunResult> RunManyWarmForked(
    const std::vector<RunConfig>& configs, int threads,
    sim::Duration epoch = kWarmForkEpoch,
    const std::function<void(int, const RunResult&)>& on_run = {});

// Runs `options.runs` independent runs of `config` (seeds seed0, seed0+1,
// ...) in parallel and aggregates. An injecting config runs through
// RunManyWarmForked (boot + workload setup paid once per epoch, not once
// per run), any other through RunMany; both give the same results.
CampaignResult RunCampaign(const RunConfig& config,
                           const CampaignOptions& options);

}  // namespace nlh::core
