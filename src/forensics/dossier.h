// Failure dossiers: one self-contained JSON bundle per interesting run,
// assembled by deterministically *replaying* the run with full telemetry on.
//
// Campaigns run with the flight recorder off for speed; when a run fails
// (or recovers with latent corruption) the campaign tool re-executes that
// exact run — same RunConfig, seed == run_id — with the recorder enabled.
// Determinism of the simulator guarantees the replay reproduces the
// original byte-for-byte, so the dossier captures the true failing
// execution, not a statistical cousin.
//
// A dossier bundles everything the paper's failure analysis (Section VII-A)
// needs to attribute one run: the injection ground truth, the detection
// event with a machine-state snapshot at detection time, the last-N flight
// recorder events per CPU leading up to it, the end-of-run audit findings,
// and the Chrome trace of every event the recorder kept (the pinned
// injection, detection and recovery spans always among them).
#pragma once

#include <cstdint>
#include <string>

#include "core/campaign.h"
#include "core/config.h"
#include "core/outcome.h"
#include "core/target_system.h"

namespace nlh::forensics {

// A run deserves a dossier when the behavioral or audit classification says
// something went wrong: a detected run that did not fully recover, a
// successful recovery carrying latent corruption, or silent data corruption.
bool DossierWorthy(const core::RunResult& r);

struct ReplayArtifacts {
  core::RunResult result;
  std::string dossier_json;  // the full failure dossier (see dossier.cc)
  std::string trace_json;    // Chrome trace_event JSON of the replay
  std::string profile;       // collapsed-stack cost-attribution profile
  std::string narrative;     // FlightRecorder::PinnedText() of the replay
};

// Dossier JSON building blocks, exposed so other emitters (the scenario
// fuzzer's minimal-reproducer bundles) can stay schema-compatible with
// nlh-dossier-v1 instead of inventing parallel encodings.
std::string ConfigJson(const core::RunConfig& cfg);
std::string ResultJson(const core::RunResult& r);
std::string InjectionJson(const core::RunResult& r);
std::string DetectionJson(const core::RunResult& r);  // "null" if undetected

// The run's counters and histograms, read from the members that hold them
// (HvStats, the epoch monitor, SnapRes, the audit report and every
// recovery report), as {"counters":{..},"gauges":{},"histograms":{..}}
// with names sorted. `r` is what sys.Run() returned.
std::string MetricsJson(core::TargetSystem& sys, const core::RunResult& r);

// Deterministically re-executes run `run_id` of `base_cfg` (seed := run_id)
// with the flight recorder and state audit enabled and assembles
// the artifacts.
ReplayArtifacts ReplayRun(const core::RunConfig& base_cfg, std::uint64_t run_id);

// Writes a replay's `dossier_json` to `dir/run_<run_id>.json`, creating
// `dir` if missing. Returns the written path, or "" on I/O failure.
std::string WriteDossier(const std::string& dossier_json, std::uint64_t run_id,
                         const std::string& dir);

}  // namespace nlh::forensics
