// A command-line fault-injection campaign tool — the equivalent of the
// paper's Campaign Agent (Section VI-C, Figure 1). By default it runs N
// independent injection runs of one configuration (forked off a warm
// template, bit-identical to booting each run cold) and prints the
// aggregate statistics with 95% confidence intervals. Its other modes
// replay one run with full telemetry, fuzz the recovery stack and shrink or
// re-check reproducers (src/fuzz/), and simulate a fleet (src/fleet/).
//
// `campaign_tool --help` lists every flag and the flags each mode reads;
// the flag table in main() is the one place they are declared. A flag the
// chosen mode or configuration does not read exits 2, as does an unknown
// flag or a malformed value.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/campaign.h"
#include "core/target_system.h"
#include "fleet/fleet.h"
#include "forensics/dossier.h"
#include "forensics/profiler.h"
#include "fuzz/engine.h"
#include "fuzz/shrinker.h"
#include "sim/flags.h"
#include "sim/json.h"

using namespace nlh;

namespace {

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::printf("cannot write %s\n", path.c_str());
    return false;
  }
  out << content;
  return true;
}

// LoadReproducer, returning a flag setter's error.
std::string LoadError(const std::string& path, fuzz::LoadedReproducer* out) {
  std::string error;
  fuzz::LoadReproducer(path, out, &error);
  return error;
}

void PrintVerdicts(const fuzz::OracleOutcome& o) {
  for (const fuzz::PolicyVerdict& v : o.verdicts) {
    std::printf("  %-9s %s%s%s\n", core::MechanismName(v.mechanism),
                core::OutcomeClassName(v.outcome),
                v.detected ? (v.success ? " recovered" : " recovery-failed")
                           : "",
                v.latent_corruption ? " +latent-corruption" : "");
  }
  std::printf("divergence: %s%s%s\n",
              fuzz::DivergenceKindName(o.divergence),
              o.detail.empty() ? "" : " — ", o.detail.c_str());
}

// Corpus regression mode: replay every reproducer, compare its verdicts.
// Every bundle loads before any replays: a malformed one is an input error
// (exit 2, naming the file), not a mismatch.
int RunCorpusCheck(const std::string& dir, int threads) {
  const std::vector<std::string> paths = fuzz::ListCorpus(dir);
  std::vector<fuzz::LoadedReproducer> reps(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    std::string err;
    if (!fuzz::LoadReproducer(paths[i], &reps[i], &err)) {
      std::printf("--corpus: %s\n", err.c_str());
      return 2;
    }
  }
  std::printf("corpus check: %zu reproducer(s) under %s\n", paths.size(),
              dir.c_str());
  int failures = 0;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const fuzz::LoadedReproducer& rep = reps[i];
    const fuzz::OracleOutcome o =
        fuzz::EvaluateScenario(rep.scenario, threads, rep.policies);
    const bool ok =
        o.divergence == rep.divergence && o.verdicts == rep.expected;
    std::printf("  %-8s %s\n", ok ? "OK" : "MISMATCH", paths[i].c_str());
    if (!ok) ++failures;
  }
  if (failures > 0) {
    std::printf("corpus check FAILED: %d of %zu reproducer(s)\n", failures,
                paths.size());
    return 1;
  }
  std::printf("corpus check passed\n");
  return 0;
}

// The modes main() dispatches, in dispatch order: the first that applies
// runs.
enum Mode : unsigned {
  kFleet = 1u << 0,       // --fleet
  kReplayFile = 1u << 1,  // --replay=FILE.json
  kShrink = 1u << 2,      // --shrink=FILE
  kFuzz = 1u << 3,        // --fuzz=N
  kCorpus = 1u << 4,      // --corpus=DIR without --fuzz
  kReplayRun = 1u << 5,   // --replay=RUN_ID
  kCampaign = 1u << 6,    // none of the above
};
constexpr unsigned kRunModes = kReplayRun | kCampaign;  // build a RunConfig

}  // namespace

int main(int argc, char** argv) {
  core::RunConfig cfg;
  core::CampaignOptions opts;
  opts.runs = 200;
  bool verbose = false;
  guest::BenchmarkKind bench = guest::BenchmarkKind::kUnixBench;
  bool one_appvm = false;
  std::string trace_out;
  std::string metrics_out;
  std::string audit_out;
  std::string integrity_out;
  std::string dossier_dir;
  std::string profile_out;
  bool replay_mode = false;
  std::uint64_t replay_id = 0;
  std::string replay_path;   // --replay=<reproducer.json>
  fuzz::LoadedReproducer rep;  // read by --replay=FILE or --shrink=FILE
  int fuzz_iterations = 0;   // --fuzz=N (0 = fuzzing off)
  std::uint64_t fuzz_seed = 1;
  std::string corpus_dir;
  std::string shrink_path;
  int shrink_evals = 64;
  int max_corpus = 16;
  bool fuzz_all_mechs = false;  // --fuzz-all-mechs: snapres as 4th variant
  bool privvm_plants = false;   // --privvm-plants: correlated PrivVM damage
  sim::Duration privvm_plant_offset = sim::Microseconds(200);
  bool fleet_mode = false;      // --fleet: fleet simulator instead of campaign
  fleet::FleetConfig fleet_cfg;
  std::string fleet_out;

  sim::Choices<core::Mechanism> mechanisms;
  for (const core::MechanismInfo& e : core::kMechanisms) {
    mechanisms.emplace_back(e.slug, e.mechanism);
  }
  const sim::Choices<inject::FaultType> faults = {
      {"failstop", inject::FaultType::kFailstop},
      {"register", inject::FaultType::kRegister},
      {"code", inject::FaultType::kCode},
      {"memory", inject::FaultType::kMemory}};
  const sim::Choices<bool> setups = {{"1appvm", true}, {"3appvm", false}};
  const sim::Choices<guest::BenchmarkKind> benches = {
      {"unix", guest::BenchmarkKind::kUnixBench},
      {"blk", guest::BenchmarkKind::kBlkBench},
      {"net", guest::BenchmarkKind::kNetBench}};
  sim::Choices<fleet::PlacementPolicy> placements;
  for (const auto p : {fleet::PlacementPolicy::kLeastLoaded,
                       fleet::PlacementPolicy::kFirstFit}) {
    placements.emplace_back(fleet::PlacementPolicyName(p), p);
  }

  using enum sim::FlagValue;
  const sim::Flag flags[] = {
      // What a run is: read by campaigns and --replay=RUN_ID, the first two
      // by the fleet's hosts too.
      {"--mechanism", kRequired, sim::ChoiceForm(mechanisms),
       "recovery mechanism (default nilihype)",
       sim::SetChoice("mechanism", mechanisms, &cfg.mechanism),
       kFleet | kRunModes},
      {"--fault", kRequired, sim::ChoiceForm(faults), "(default failstop)",
       sim::SetChoice("fault class", faults, &cfg.fault), kFleet | kRunModes},
      {"--setup", kRequired, sim::ChoiceForm(setups), "(default 3appvm)",
       sim::SetChoice("setup", setups, &one_appvm), kRunModes},
      {"--bench", kRequired, sim::ChoiceForm(benches),
       "the 1AppVM workload (default unix)",
       sim::SetChoice("benchmark", benches, &bench), kRunModes, {},
       "without --setup=1appvm", [&] { return one_appvm; }},
      {"--snapshot-period", kRequired, "MS", "SnapRes cadence (default 100)",
       [&](std::string_view v) {
         int ms = 0;
         const std::string error = sim::IntError(v, &ms, 1);
         cfg.snapshot_period = sim::Milliseconds(ms);
         return error;
       },
       kRunModes, {}, "without --mechanism=snapres",
       [&] { return cfg.mechanism == core::Mechanism::kSnapRes; }},
      {"--privvm-recovery", kNone, "", "repair the PrivVM after recoveries",
       sim::SetTrue(&cfg.privvm_recovery), kRunModes},
      {"--privvm-plants", kOptional, "OFFSET_US",
       "damage the PrivVM's backend queue OFFSET_US (default 200) after "
       "detection, an I/O ring 500 us later; implies --privvm-recovery",
       [&](std::string_view v) {
         privvm_plants = true;
         cfg.privvm_recovery = true;  // plants are invisible without the passes
         int us = 0;
         if (v.empty()) return std::string();
         const std::string error = sim::IntError(v, &us, 1);
         privvm_plant_offset = sim::Microseconds(us);
         return error;
       },
       kRunModes},
      {"--integrity", kNone, "", "arm the epoch integrity monitor",
       sim::SetTrue(&cfg.integrity), kRunModes},
      {"--proactive", kOptional, "THRESHOLD",
       "recover after THRESHOLD (default 1) drifts; implies --integrity",
       [&](std::string_view v) {
         cfg.proactive = true;
         cfg.integrity = true;  // rejuvenation consumes the monitor's drifts
         if (v.empty()) return std::string();
         return sim::IntError(v, &cfg.proactive_threshold, 1);
       },
       kRunModes},
      {"--dossier-dir", kRequired, "DIR",
       "write the dossier of every unsuccessful run (default dossiers)",
       sim::SetString(&dossier_dir), kRunModes},
      {"--profile-out", kRequired, "FILE",
       "write the replayed (or seed0) run's collapsed-stack profile",
       sim::SetString(&profile_out), kRunModes},
      // Campaigns.
      {"--runs", kRequired, "N", "(default 200)", sim::SetInt(&opts.runs, 1),
       kCampaign},
      {"--seed", kRequired, "N", "first run's or fleet's seed (default 1000)",
       sim::SetInt(&opts.seed0, 0), kFleet | kCampaign},
      {"--threads", kRequired, "N", "(default 0: all cores)",
       sim::SetInt(&opts.threads, 0),
       kFleet | kReplayFile | kShrink | kFuzz | kCorpus | kCampaign},
      {"--verbose", kNone, "", "print one line per run",
       sim::SetTrue(&verbose), kCampaign},
      {"--audit", kNone, "", "audit every run against a golden snapshot",
       sim::SetTrue(&cfg.audit), kCampaign},  // a replay always audits
      {"--audit-out", kRequired, "FILE",
       "write seed0's audit findings; implies --audit",
       [&](std::string_view v) {
         audit_out = v;
         cfg.audit = true;
         return std::string();
       },
       kCampaign},
      {"--integrity-out", kRequired, "FILE",
       "write seed0's integrity summary; implies --integrity",
       [&](std::string_view v) {
         integrity_out = v;
         cfg.integrity = true;
         return std::string();
       },
       kCampaign},
      {"--trace-out", kRequired, "FILE", "write seed0's Chrome trace",
       sim::SetString(&trace_out), kCampaign},
      {"--metrics-out", kRequired, "FILE", "write seed0's metrics",
       sim::SetString(&metrics_out), kCampaign},
      // Replays, fuzzing, corpus checks and shrinking.
      {"--replay", kRequired, "RUN_ID|FILE",
       "replay one campaign run, or judge a reproducer again",
       [&](std::string_view v) {
         replay_mode = sim::ParseInt(v, &replay_id, 0);
         replay_path = replay_mode ? "" : v;
         return replay_mode ? std::string() : LoadError(replay_path, &rep);
       },
       kReplayFile | kReplayRun,
       {{kReplayFile, "=FILE"}, {kReplayRun, "=RUN_ID"}}},
      {"--fuzz", kRequired, "N", "fuzz N scenarios",
       sim::SetInt(&fuzz_iterations, 1), kFuzz, {{kFuzz, ""}}},
      {"--fuzz-seed", kRequired, "S", "(default 1)", sim::SetInt(&fuzz_seed, 0),
       kFuzz},
      {"--fuzz-all-mechs", kNone, "", "judge SnapRes too",
       sim::SetTrue(&fuzz_all_mechs), kFuzz},
      {"--max-corpus", kRequired, "N", "reproducers to write (default 16)",
       sim::SetInt(&max_corpus, 0), kFuzz},
      {"--corpus", kRequired, "DIR",
       "where --fuzz writes reproducers; alone, check every one in DIR",
       sim::SetString(&corpus_dir), kFuzz | kCorpus, {{kCorpus, ""}}},
      {"--shrink", kRequired, "FILE", "shrink a reproducer again",
       [&](std::string_view v) {
         shrink_path = v;
         return LoadError(shrink_path, &rep);
       },
       kShrink, {{kShrink, ""}}},
      {"--shrink-evals", kRequired, "N", "budget per shrink (default 64)",
       sim::SetInt(&shrink_evals, 0), kShrink | kFuzz},
      // The fleet.
      {"--fleet", kNone, "", "simulate a fleet", sim::SetTrue(&fleet_mode),
       kFleet, {{kFleet, ""}}},
      {"--hosts", kRequired, "N", "(default 100)",
       sim::SetInt(&fleet_cfg.hosts, 1), kFleet},
      {"--tenants", kRequired, "N", "per host (default 10)",
       sim::SetInt(&fleet_cfg.tenants_per_host, 1), kFleet},
      {"--fleet-horizon", kRequired, "S", "(default 3600)",
       sim::SetInt(&fleet_cfg.horizon_s, 1), kFleet},
      {"--placement", kRequired, sim::ChoiceForm(placements), "",
       sim::SetChoice("placement policy", placements, &fleet_cfg.placement),
       kFleet},
      {"--fleet-out", kRequired, "FILE", "write the fleet result",
       sim::SetString(&fleet_out), kFleet},
  };
  sim::ParseFlags(argc, argv, flags, [&]() -> unsigned {
    return fleet_mode               ? kFleet
           : !replay_path.empty()   ? kReplayFile
           : !shrink_path.empty()   ? kShrink
           : fuzz_iterations > 0    ? kFuzz
           : !corpus_dir.empty()    ? kCorpus
           : replay_mode            ? kReplayRun
                                    : kCampaign;
  });

  // --- Fleet mode (src/fleet/) ----------------------------------------------
  if (fleet_mode) {
    fleet_cfg.mechanism = cfg.mechanism;
    fleet_cfg.master_seed = opts.seed0;
    // Fault class rides along (--fault=register/memory gives the fleet
    // non-manifested/SDC/latent variety; failstop is all-detected).
    fleet_cfg.host_config.fault = cfg.fault;
    std::printf(
        "fleet: %d hosts x %d tenants, %d s horizon, %s, placement %s "
        "(seed %llu)\n",
        fleet_cfg.hosts, fleet_cfg.tenants_per_host, fleet_cfg.horizon_s,
        core::MechanismName(fleet_cfg.mechanism),
        fleet::PlacementPolicyName(fleet_cfg.placement),
        static_cast<unsigned long long>(fleet_cfg.master_seed));
    fleet::FleetSim fsim(fleet_cfg);
    const fleet::FleetResult fr = fsim.Run(opts.threads);
    std::printf("%s", fr.Summary().c_str());
    if (!fleet_out.empty()) {
      if (!WriteFile(fleet_out, fr.ToJson())) return 1;
      std::printf("fleet result written to %s\n", fleet_out.c_str());
    }
    return 0;
  }

  // --- Fuzzing / corpus / reproducer modes (src/fuzz/) ----------------------
  if (!replay_path.empty()) {
    std::printf("replaying reproducer %s (%s, %d plan elements)\n",
                replay_path.c_str(), fuzz::DivergenceKindName(rep.divergence),
                rep.scenario.PlanElementCount());
    const fuzz::OracleOutcome o =
        fuzz::EvaluateScenario(rep.scenario, opts.threads, rep.policies);
    PrintVerdicts(o);
    return o.divergence == rep.divergence && o.verdicts == rep.expected ? 0 : 1;
  }
  if (!shrink_path.empty()) {
    const auto evaluate = [&](const fuzz::Scenario& s) {
      return fuzz::EvaluateScenario(s, opts.threads, rep.policies);
    };
    const fuzz::OracleOutcome before = evaluate(rep.scenario);
    if (before.divergence != rep.divergence) {
      std::printf("scenario no longer shows %s (now %s) — nothing to shrink\n",
                  fuzz::DivergenceKindName(rep.divergence),
                  fuzz::DivergenceKindName(before.divergence));
      return 1;
    }
    const fuzz::ShrinkResult shrunk = fuzz::ShrinkScenario(
        rep.scenario, rep.divergence, evaluate, shrink_evals);
    std::printf("shrunk to %d plan element(s) in %d eval(s):\n%s\n",
                shrunk.scenario.PlanElementCount(), shrunk.evals,
                shrunk.scenario.ToJson().c_str());
    return 0;
  }
  if (fuzz_iterations > 0) {
    fuzz::FuzzOptions fopts;
    fopts.master_seed = fuzz_seed;
    fopts.iterations = fuzz_iterations;
    fopts.threads = opts.threads;
    fopts.max_shrink_evals = shrink_evals;
    fopts.max_corpus = max_corpus;
    fopts.corpus_dir = corpus_dir;
    if (fuzz_all_mechs) fopts.policies = fuzz::RegisteredPolicies();
    fopts.on_progress = [](const std::string& line) {
      std::printf("  %s\n", line.c_str());
    };
    std::printf("fuzzing: %d scenarios (master seed %llu)\n", fuzz_iterations,
                static_cast<unsigned long long>(fuzz_seed));
    const fuzz::FuzzStats stats = fuzz::Fuzz(fopts);
    std::printf(
        "\nfuzzing done: %d scenarios, coverage %zu (hash %016llx), "
        "%d divergent (%d unique), %zu reproducer(s), %d shrink eval(s)\n",
        stats.scenarios, stats.coverage,
        static_cast<unsigned long long>(stats.coverage_hash), stats.divergent,
        stats.unique_divergent, stats.reproducers.size(), stats.shrink_evals);
    return 0;
  }
  if (!corpus_dir.empty()) {
    if (!std::filesystem::is_directory(corpus_dir)) {
      std::printf("corpus directory %s does not exist\n%s", corpus_dir.c_str(),
                  sim::FlagUsage("campaign_tool", flags).c_str());
      return 2;
    }
    return RunCorpusCheck(corpus_dir, opts.threads);
  }

  if (one_appvm) cfg.SetOneAppVmWorkload(bench);

  if (privvm_plants) {
    // The correlated hypervisor+PrivVM failure mode: OFFSET after the
    // hypervisor fault is detected, the PrivVM's backend queue and (500us
    // later) a shared I/O ring are silently damaged. At the default 200us
    // both plants land while every mechanism is still mid-recovery and the
    // component repair at resume cleans them; at an offset past a fast
    // mechanism's recovery latency (e.g. 60000 > NiLiHype's ~22ms) the
    // damage lands on the *resumed* system and survives as latent
    // corruption there, while slower mechanisms (ReHype, ~450ms) are still
    // frozen and still repair it. The default pair matches the test
    // battery's CorrelatedConfig (tests/test_privvm_recovery.cc).
    inject::PlantSpec queue;
    queue.target = inject::CorruptionTarget::kPrivVmBackendQueue;
    queue.during_recovery = true;
    queue.at = privvm_plant_offset;
    cfg.inject_plants.push_back(queue);
    inject::PlantSpec rings;
    rings.target = inject::CorruptionTarget::kIoRingPointers;
    rings.during_recovery = true;
    rings.at = privvm_plant_offset + sim::Microseconds(500);
    cfg.inject_plants.push_back(rings);
  }

  if (replay_mode) {
    // Forensic replay of one run: same config, seed == run_id, recorder
    // on. Deterministic, so this is the exact execution the campaign
    // saw, and its dossier equals the one a campaign --dossier-dir writes.
    std::printf("replaying run %llu (%s, %s faults, %s) with full telemetry\n",
                static_cast<unsigned long long>(replay_id),
                core::MechanismName(cfg.mechanism),
                inject::FaultTypeName(cfg.fault),
                one_appvm ? "1AppVM" : "3AppVM");
    const forensics::ReplayArtifacts art = forensics::ReplayRun(cfg, replay_id);
    std::printf("%s", art.narrative.c_str());
    const core::RunResult& r = art.result;
    std::printf("\noutcome: %s%s\n", core::OutcomeClassName(r.outcome),
                r.outcome == core::OutcomeClass::kDetected
                    ? (r.success ? " (recovered)" : " (recovery FAILED)")
                    : "");
    if (r.detected) {
      std::printf("detection: %s/%s on cpu%d (%s, class=%s)\n",
                  hv::DetectionKindName(r.detection.kind),
                  hv::FailureCodeName(r.detection.code), r.detection.cpu,
                  r.detection.detail.c_str(),
                  forensics::DetectionClassName(r.detection_class));
    }
    if (!r.success && r.failure_reason != hv::FailureReason::kNone) {
      std::printf("failure: %s (%s)\n", hv::FailureReasonName(r.failure_reason),
                  r.failure_detail.c_str());
    }
    const std::string dir = dossier_dir.empty() ? "dossiers" : dossier_dir;
    const std::string path =
        forensics::WriteDossier(art.dossier_json, replay_id, dir);
    if (path.empty()) {
      std::printf("cannot write dossier under %s\n", dir.c_str());
      return 1;
    }
    std::printf("dossier written to %s\n", path.c_str());
    if (!profile_out.empty()) {
      if (!WriteFile(profile_out, art.profile)) return 1;
      std::printf("collapsed-stack profile written to %s\n",
                  profile_out.c_str());
    }
    return 0;
  }

  std::printf("campaign: %s, %s faults, %s, %d runs (seed0=%llu)\n",
              core::MechanismName(cfg.mechanism),
              inject::FaultTypeName(cfg.fault),
              one_appvm ? "1AppVM" : "3AppVM", opts.runs,
              static_cast<unsigned long long>(opts.seed0));

  // Per-run lines (--verbose) and the run ids (== seeds) of runs that
  // deserve a failure dossier, collected as the campaign goes (on_run is
  // called under a lock, in no fixed order) and used in run order after it.
  std::vector<std::string> run_lines(
      verbose ? static_cast<std::size_t>(opts.runs) : 0);
  std::vector<std::uint64_t> dossier_runs;
  if (verbose || !dossier_dir.empty()) {
    opts.on_run = [&](int i, const core::RunResult& r) {
      if (verbose) {
        char line[64];
        std::snprintf(line, sizeof(line), "  run %4d: %-14s %s", i,
                      core::OutcomeClassName(r.outcome),
                      r.outcome == core::OutcomeClass::kDetected
                          ? (r.success ? "recovered" : "FAILED: ")
                          : "");
        run_lines[static_cast<std::size_t>(i)] =
            line + (r.success ? std::string() : r.failure_detail);
      }
      if (!dossier_dir.empty() && forensics::DossierWorthy(r)) {
        dossier_runs.push_back(opts.seed0 + static_cast<std::uint64_t>(i));
      }
    };
  }

  const core::CampaignResult res = core::RunCampaign(cfg, opts);
  for (const std::string& line : run_lines) std::printf("%s\n", line.c_str());
  std::printf("\noutcomes: %.1f%% non-manifested, %.1f%% SDC, %.1f%% detected\n",
              res.NonManifestedRate() * 100, res.SdcRate() * 100,
              res.DetectedRate() * 100);
  std::printf("successful recovery rate: %s\n", res.success.ToString().c_str());
  std::printf("no-VM-failures (noVMF):   %s\n",
              res.no_vm_failures.ToString().c_str());
  if (cfg.audit) {
    std::printf("audit-clean successes:    %s\n",
                res.audit_clean.ToString().c_str());
    std::printf("latent corruption:        %s\n",
                res.latent_corruption.ToString().c_str());
    if (!res.audit_findings_by_subsystem.empty()) {
      std::printf("audit findings by subsystem:\n");
      for (const auto& [subsystem, count] : res.audit_findings_by_subsystem) {
        std::printf("  %4d  %s\n", count, subsystem.c_str());
      }
    }
  }
  if (cfg.integrity) {
    std::printf("integrity: %llu epochs, %llu drift(s) across %d run(s)\n",
                static_cast<unsigned long long>(res.total_epochs),
                static_cast<unsigned long long>(res.total_drifts),
                res.drift_runs);
    std::printf("drift-flagged injections:  %s\n",
                res.drift_flagged.ToString().c_str());
    if (res.drift_latency.samples > 0) {
      std::printf(
          "corruption->drift latency: mean %8.3f  p50 %8.3f  p99 %8.3f ms "
          "(n=%d)\n",
          res.drift_latency.mean_ms, res.drift_latency.p50_ms,
          res.drift_latency.p99_ms, res.drift_latency.samples);
    }
    if (cfg.proactive) {
      std::printf("proactive rejuvenations:   %d\n", res.rejuvenations);
    }
    if (!res.first_drift_by_surface.empty()) {
      std::printf("first-drift surfaces:\n");
      for (const auto& [surface, count] : res.first_drift_by_surface) {
        std::printf("  %4d  %s\n", count, surface.c_str());
      }
    }
  }
  if (!res.failure_reasons.empty()) {
    std::printf("failure causes:\n");
    for (const auto& [reason, count] : res.failure_reasons) {
      std::printf("  %4d  %s\n", count, hv::FailureReasonName(reason));
    }
  }
  if (!res.phase_latency.empty()) {
    std::printf("recovery phase latency (detected runs, ms):\n");
    for (const core::PhaseAggregate& p : res.phase_latency) {
      std::printf("  %-26s mean %8.3f  p99 %8.3f  (n=%d)\n", p.phase.c_str(),
                  p.mean_ms, p.p99_ms, p.samples);
    }
    std::printf("  %-26s mean %8.3f  p99 %8.3f  (n=%d)\n", "total",
                res.total_latency.mean_ms, res.total_latency.p99_ms,
                res.total_latency.samples);
  }

  if (!res.detection_latency_by_class.empty()) {
    std::printf(
        "detection: %d prompt, %d late, %d misdetected, %d silent\n",
        res.detected_prompt, res.detected_late, res.misdetected, res.silent);
    std::printf("detection latency by fault class (ms):\n");
    for (const core::DetectionLatencyAggregate& a :
         res.detection_latency_by_class) {
      std::printf("  %-16s mean %8.3f  p50 %8.3f  p99 %8.3f  max %8.3f (n=%d)\n",
                  a.fault_class.c_str(), a.mean_ms, a.p50_ms, a.p99_ms,
                  a.max_ms, a.samples);
    }
  }

  // Emit one failure dossier per non-successful run, in run order, by
  // deterministic replay (see --dossier-dir above).
  if (!dossier_dir.empty()) {
    std::sort(dossier_runs.begin(), dossier_runs.end());
    int written = 0;
    for (std::uint64_t run_id : dossier_runs) {
      const std::string path = forensics::WriteDossier(
          forensics::ReplayRun(cfg, run_id).dossier_json, run_id, dossier_dir);
      if (path.empty()) {
        std::printf("cannot write dossier for run %llu under %s\n",
                    static_cast<unsigned long long>(run_id),
                    dossier_dir.c_str());
        return 1;
      }
      ++written;
    }
    std::printf("%d failure dossier%s written to %s/\n", written,
                written == 1 ? "" : "s", dossier_dir.c_str());
  }

  // Replay the first run for the per-run artifacts: campaigns run many
  // hypervisors in parallel, so per-run telemetry comes from a
  // deterministic replay of seed0. Only the trace and the profile read the
  // flight recorder, so only they turn it on; recording is pure
  // observation, so the other files are the same either way.
  if (!trace_out.empty() || !metrics_out.empty() || !audit_out.empty() ||
      !integrity_out.empty() || !profile_out.empty()) {
    core::RunConfig rcfg = cfg;
    rcfg.seed = opts.seed0;
    core::TargetSystem sys(rcfg);
    if (!trace_out.empty() || !profile_out.empty()) sys.EnableFlightRecorder();
    const core::RunResult replay = sys.Run();
    const forensics::FlightRecorder& recorder = sys.hv().flight_recorder();
    if (!audit_out.empty()) {
      std::string json =
          "{\"campaign\":" + res.ToJson() +
          ",\"replay_seed0_audit\":{\"audit_clean\":" +
          (replay.audit_clean ? "true" : "false") +
          ",\"latent_corruption\":" +
          (replay.latent_corruption ? "true" : "false") +
          ",\"modeled_cost_us\":" +
          std::to_string(sim::ToMicros(replay.audit_report.modeled_cost)) +
          ",\"findings\":" + replay.audit_report.ToJson() + "}}";
      if (!WriteFile(audit_out, json)) return 1;
      std::printf("audit report written to %s\n", audit_out.c_str());
    }
    if (!integrity_out.empty()) {
      std::string json =
          "{\"campaign\":" + res.ToJson() +
          ",\"replay_seed0_integrity\":{\"epochs\":" +
          std::to_string(replay.integrity_epochs) +
          ",\"drifts\":" + std::to_string(replay.integrity_drifts) +
          ",\"first_drift_epoch\":" +
          std::to_string(replay.first_drift_epoch) +
          ",\"first_drift_surface\":" + sim::JsonStr(replay.first_drift_surface) +
          ",\"drift_trail\":" + sim::JsonStr(fuzz::HexU64(replay.drift_trail)) +
          ",\"rejuvenations\":" + std::to_string(replay.rejuvenations) +
          ",\"online_audit_findings\":" +
          std::to_string(replay.online_audit_findings) + "}}";
      if (!WriteFile(integrity_out, json)) return 1;
      std::printf("integrity report written to %s\n", integrity_out.c_str());
    }
    if (!trace_out.empty()) {
      if (!WriteFile(trace_out, recorder.ToChromeJson())) return 1;
      std::printf("trace (%zu events) written to %s\n",
                  recorder.Retained().size(), trace_out.c_str());
    }
    if (!metrics_out.empty()) {
      std::string json = "{\"campaign\":" + res.ToJson() +
                         ",\"replay_seed0_metrics\":" +
                         forensics::MetricsJson(sys, replay) + "}";
      if (!WriteFile(metrics_out, json)) return 1;
      std::printf("metrics written to %s\n", metrics_out.c_str());
    }
    if (!profile_out.empty()) {
      const std::string profile =
          forensics::CollapsedStackProfile(recorder.Retained());
      if (!WriteFile(profile_out, profile)) return 1;
      std::printf("collapsed-stack profile written to %s\n",
                  profile_out.c_str());
    }
  }
  return 0;
}
