// A command-line fault-injection campaign tool — the equivalent of the
// paper's Campaign Agent (Section VI-C, Figure 1). Runs N independent
// injection runs of a chosen configuration and prints the aggregate
// statistics with 95% confidence intervals.
//
// Usage:
//   campaign_tool [--mechanism=SLUG] [--fault=failstop|register|code]
//                 [--setup=1appvm|3appvm] [--bench=unix|blk|net]
//                 [--runs=N] [--seed=N] [--verbose]
//                 [--snapshot-period=MS]
//
// --mechanism accepts any slug in core::kMechanisms (core/config.h) and
// rejects an unknown slug, listing the valid ones; so do --fault, --setup
// and --bench. Every integer flag takes a plain decimal value; a malformed
// or out-of-range one exits 2. Each mode (campaign, replay, fuzzing,
// corpus check, shrink, fleet) reads only its own flags, listed in
// kFlagModes; any other flag exits 2 ("X has no effect with --fleet"), and
// so does --bench without --setup=1appvm.
// --snapshot-period sets the snapres capture cadence. Campaigns fork every
// injection run off a warm template (core::RunCampaign), bit-identical to
// booting each run cold. --verbose prints one line per run, in run order,
// after the campaign finishes.
//                 [--audit] [--audit-out=FILE.json]
//                 [--trace-out=FILE.json] [--metrics-out=FILE.json]
//                 [--dossier-dir=DIR] [--replay=RUN_ID]
//                 [--profile-out=FILE.folded]
//
// --privvm-recovery arms the PrivVM component-recovery path (detector +
// backend/ring repair, run after every hypervisor recovery and on PrivVM-only
// failures). --privvm-plants[=OFFSET_US] additionally plants the correlated
// during-recovery PrivVM damage (backend queue at OFFSET after detection,
// I/O ring 500us later; default 200, the pair the test battery uses) into
// every run; it implies --privvm-recovery. Offsets beyond a mechanism's
// recovery latency land on the resumed system and survive as latent
// corruption — the cross-component exposure window the corpus reproducers
// pin.
// --integrity arms the always-on epoch integrity monitor (src/integrity/):
// every scheduler-tick epoch the per-subsystem state-hash ladder is
// recomputed and unexplained drift (hash moved, mutation ledger static) is
// flagged; the campaign aggregate gains the integrity block (drift runs,
// corruption->drift latency histogram, first-drift surfaces).
// --proactive[=THRESHOLD] additionally arms proactive rejuvenation: after
// THRESHOLD unexplained drift events (default 1) the configured recovery
// mechanism is triggered on the still-running system — recovery before
// manifestation. Implies --integrity; a non-numeric or non-positive
// THRESHOLD exits 2.
// --integrity-out=FILE writes the campaign aggregate plus the seed0
// replay's monitor summary (epochs, drifts, first-drift surface, drift
// trail fingerprint) as JSON. Implies --integrity.
// --audit runs the state auditor at the end of every run (differential
// against a pre-injection golden snapshot) and splits the success rate into
// audit-clean vs latent-corruption. --audit-out additionally replays seed0
// and writes its full finding list as JSON (implies --audit).
// --trace-out replays the campaign's first run (seed0) with span tracing
// enabled and writes a Chrome trace_event JSON (load in chrome://tracing or
// Perfetto). --metrics-out writes the campaign aggregate plus the replayed
// run's counters and histograms (forensics::MetricsJson) as JSON.
//
// Forensics:
// --dossier-dir=DIR  after the campaign, deterministically replay every
//                    non-successful run (failed recovery, SDC, or latent
//                    corruption when --audit) with the flight recorder and
//                    tracer on, and write one dossier per run to
//                    DIR/run_<run_id>.json (run_id == the run's seed; the
//                    directory is created if missing).
// --replay=RUN_ID    skip the campaign and replay that one run with full
//                    telemetry; prints the run's narrative (the flight
//                    recorder's pinned events: injection, detection,
//                    recovery phases, death), writes its dossier to
//                    --dossier-dir (default "dossiers") and, with
//                    --profile-out, a flamegraph.pl-compatible
//                    collapsed-stack profile of the simulated time. It
//                    reads the flags that shape a run (--mechanism
//                    --fault --setup --bench --snapshot-period
//                    --privvm-recovery --privvm-plants --integrity
//                    --proactive); the replay always audits.
// --profile-out=F    write the collapsed-stack profile of the replayed run
//                    (with --replay, or of the seed0 replay otherwise).
// Fuzzing (src/fuzz/):
// --fuzz=N           run the scenario fuzzer for N scenarios (each evaluated
//                    under NiLiHype, ReHype, and the no-recovery baseline by
//                    the differential oracle); divergent scenarios are
//                    shrunk to minimal reproducers.
// --fuzz-seed=S      master seed of the fuzzing campaign (default 1; the
//                    whole campaign is a pure function of it).
// --threads=N        worker threads for campaigns and fuzzing (0 = auto).
// --corpus=DIR       with --fuzz: write shrunk reproducers here. Without
//                    --fuzz: corpus regression mode — replay every
//                    reproducer in DIR and verify its recorded verdicts
//                    byte-for-byte (exit 1 on any mismatch).
// --shrink=FILE      re-shrink the scenario of an existing reproducer
//                    bundle and report the minimal form (useful after
//                    simulator changes).
// --shrink-evals=N   oracle-evaluation budget per shrink (default 64).
// --max-corpus=N     cap on reproducers emitted per fuzz run (default 16).
// --replay also accepts a reproducer path: --replay=FILE.json re-evaluates
// that scenario and prints the per-policy verdicts.
// Fleet mode (src/fleet/):
// --fleet            run the fleet-scale simulator instead of a campaign:
//                    --hosts=N hosts each serving --tenants=N tenant VMs for
//                    --fleet-horizon=S seconds under the configured
//                    --mechanism, with fault events drawn from the master
//                    seed (--seed). Prints the fleet summary (faults,
//                    evacuations, request tallies, SLO-violation-minutes);
//                    --fleet-out=FILE writes the FleetResult JSON. Fleet
//                    mode reads only --mechanism, --fault, --seed,
//                    --threads and its own flags.
// --placement=SLUG   evacuation placement policy: least-loaded | first-fit.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/target_system.h"
#include "fleet/fleet.h"
#include "forensics/dossier.h"
#include "forensics/profiler.h"
#include "fuzz/engine.h"
#include "fuzz/shrinker.h"
#include "sim/int_flag.h"
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

void Usage() {
  std::printf(
      "usage: campaign_tool [options]\n"
      "  run:      [--mechanism=SLUG] [--fault=failstop|register|code|memory]\n"
      "            [--setup=1appvm|3appvm]\n"
      "            [--bench=unix|blk|net] (with --setup=1appvm)\n"
      "            [--snapshot-period=MS] [--privvm-recovery]\n"
      "            [--privvm-plants[=OFFSET_US]] [--integrity]\n"
      "            [--proactive[=THRESHOLD]] [--dossier-dir=DIR]\n"
      "            [--profile-out=FILE.folded]\n"
      "  campaign: [run flags] [--runs=N] [--seed=N] [--threads=N]\n"
      "            [--verbose] [--audit] [--audit-out=FILE.json]\n"
      "            [--integrity-out=FILE.json] [--trace-out=FILE.json]\n"
      "            [--metrics-out=FILE.json]\n"
      "  replay:   --replay=RUN_ID [run flags]  (print the run's event\n"
      "            narrative, write its dossier to --dossier-dir)\n"
      "            | --replay=REPRO.json [--threads=N]\n"
      "  fuzzing:  --fuzz=N [--fuzz-seed=S] [--fuzz-all-mechs] [--threads=N]\n"
      "            [--corpus=DIR] [--shrink-evals=N] [--max-corpus=N]\n"
      "  corpus:   --corpus=DIR [--threads=N]  (without --fuzz: replay every\n"
      "            reproducer in DIR and verify its verdicts byte-for-byte)\n"
      "  fleet:    --fleet [--hosts=N] [--tenants=N] [--fleet-horizon=S]\n"
      "            [--placement=least-loaded|first-fit] [--fleet-out=FILE.json]\n"
      "            [--mechanism=SLUG] [--fault=CLASS] [--seed=N] [--threads=N]\n"
      "  shrink:   --shrink=REPRO.json [--shrink-evals=N] [--threads=N]\n"
      "each mode reads only the flags listed for it; any other flag exits 2\n"
      "see the header comment of examples/campaign_tool.cpp for details\n");
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

// Corpus regression mode: replay every reproducer, byte-compare verdicts.
int RunCorpusCheck(const std::string& dir, int threads) {
  const std::vector<std::string> paths = fuzz::ListCorpus(dir);
  std::printf("corpus check: %zu reproducer(s) under %s\n", paths.size(),
              dir.c_str());
  int failures = 0;
  for (const std::string& path : paths) {
    fuzz::LoadedReproducer rep;
    std::string err;
    if (!fuzz::LoadReproducer(path, &rep, &err)) {
      std::printf("  LOAD-FAIL %s (%s)\n", path.c_str(), err.c_str());
      ++failures;
      continue;
    }
    const fuzz::OracleOutcome o =
        fuzz::EvaluateScenario(rep.scenario, threads, rep.policies);
    bool ok = o.divergence == rep.divergence &&
              o.verdicts.size() == rep.expected_verdicts.size();
    for (std::size_t i = 0; ok && i < o.verdicts.size(); ++i) {
      sim::JsonValue doc;
      if (!sim::ParseJson(o.verdicts[i].ToJson(), &doc) ||
          sim::WriteJson(doc) != rep.expected_verdicts[i]) {
        ok = false;
      }
    }
    std::printf("  %-8s %s\n", ok ? "OK" : "MISMATCH", path.c_str());
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

// The flag that selects each mode but the campaign, for error messages.
struct ModeFlagName {
  Mode mode;
  const char* flag;
};
constexpr ModeFlagName kModeFlags[] = {
    {kFleet, "--fleet"},   {kReplayFile, "--replay=FILE"},
    {kShrink, "--shrink"}, {kFuzz, "--fuzz"},
    {kCorpus, "--corpus"}, {kReplayRun, "--replay=RUN_ID"},
};
const char* ModeFlag(Mode mode) {
  for (const ModeFlagName& m : kModeFlags) {
    if (m.mode == mode) return m.flag;
  }
  return "";
}

// Which modes read each flag: the one list of what a flag does where.
// --bench is read only with --setup=1appvm.
struct FlagModes {
  const char* flag;
  unsigned modes;
};
constexpr FlagModes kFlagModes[] = {
    {"--mechanism", kFleet | kRunModes},
    {"--fault", kFleet | kRunModes},
    {"--seed", kFleet | kCampaign},
    {"--threads", kFleet | kReplayFile | kShrink | kFuzz | kCorpus | kCampaign},
    {"--setup", kRunModes},
    {"--bench", kRunModes},
    {"--snapshot-period", kRunModes},
    {"--privvm-recovery", kRunModes},
    {"--privvm-plants", kRunModes},
    {"--integrity", kRunModes},
    {"--proactive", kRunModes},
    {"--dossier-dir", kRunModes},
    {"--profile-out", kRunModes},
    {"--runs", kCampaign},
    {"--verbose", kCampaign},
    {"--audit", kCampaign},  // a replay always audits
    {"--audit-out", kCampaign},
    {"--integrity-out", kCampaign},
    {"--trace-out", kCampaign},
    {"--metrics-out", kCampaign},
    {"--replay", kReplayFile | kReplayRun},
    {"--shrink", kShrink},
    {"--shrink-evals", kShrink | kFuzz},
    {"--fuzz", kFuzz},
    {"--fuzz-seed", kFuzz},
    {"--fuzz-all-mechs", kFuzz},
    {"--max-corpus", kFuzz},
    {"--corpus", kFuzz | kCorpus},
    {"--fleet", kFleet},
    {"--hosts", kFleet},
    {"--tenants", kFleet},
    {"--fleet-horizon", kFleet},
    {"--placement", kFleet},
    {"--fleet-out", kFleet},
};

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
  std::vector<std::string> flags_given;  // each flag's name, without value

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    flags_given.push_back(arg.substr(0, arg.find('=')));
    auto val = [&](const char* prefix) -> const char* {
      return arg.c_str() + std::strlen(prefix);
    };
    // Integer flags parse strictly; a malformed value clears `ok`.
    bool ok = true;
    if (arg.rfind("--mechanism=", 0) == 0) {
      const std::string slug = val("--mechanism=");
      if (!core::MechanismFromSlug(slug, &cfg.mechanism)) {
        std::printf("unknown mechanism '%s'; valid:", slug.c_str());
        for (const core::MechanismInfo& e : core::kMechanisms) {
          std::printf(" %s", e.slug);
        }
        std::printf("\n");
        Usage();
        return 2;
      }
    } else if (arg.rfind("--snapshot-period=", 0) == 0) {
      int ms = 0;
      ok = sim::ParseIntFlag("--snapshot-period", val("--snapshot-period="),
                             &ms, 1);
      cfg.snapshot_period = sim::Milliseconds(ms);
    } else if (arg == "--fuzz-all-mechs") {
      fuzz_all_mechs = true;
    } else if (arg.rfind("--fault=", 0) == 0) {
      // Strict fault-class selection: an unknown class used to fall through
      // to failstop silently (and "memory" was unreachable entirely).
      const std::string f = val("--fault=");
      if (f == "failstop") {
        cfg.fault = inject::FaultType::kFailstop;
      } else if (f == "register") {
        cfg.fault = inject::FaultType::kRegister;
      } else if (f == "code") {
        cfg.fault = inject::FaultType::kCode;
      } else if (f == "memory") {
        cfg.fault = inject::FaultType::kMemory;
      } else {
        std::printf("unknown fault class '%s'; valid: failstop register code"
                    " memory\n",
                    f.c_str());
        Usage();
        return 2;
      }
    } else if (arg.rfind("--setup=", 0) == 0) {
      const std::string s = val("--setup=");
      if (s != "1appvm" && s != "3appvm") {
        std::printf("unknown setup '%s'; valid: 1appvm 3appvm\n", s.c_str());
        Usage();
        return 2;
      }
      one_appvm = s == "1appvm";
    } else if (arg.rfind("--bench=", 0) == 0) {
      const std::string b = val("--bench=");
      if (b == "unix") {
        bench = guest::BenchmarkKind::kUnixBench;
      } else if (b == "blk") {
        bench = guest::BenchmarkKind::kBlkBench;
      } else if (b == "net") {
        bench = guest::BenchmarkKind::kNetBench;
      } else {
        std::printf("unknown benchmark '%s'; valid: unix blk net\n",
                    b.c_str());
        Usage();
        return 2;
      }
    } else if (arg.rfind("--runs=", 0) == 0) {
      ok = sim::ParseIntFlag("--runs", val("--runs="), &opts.runs, 1);
    } else if (arg.rfind("--seed=", 0) == 0) {
      ok = sim::ParseIntFlag("--seed", val("--seed="), &opts.seed0, 0);
    } else if (arg == "--privvm-recovery") {
      cfg.privvm_recovery = true;
    } else if (arg == "--privvm-plants" ||
               arg.rfind("--privvm-plants=", 0) == 0) {
      if (arg.rfind("--privvm-plants=", 0) == 0) {
        int us = 0;
        ok = sim::ParseIntFlag("--privvm-plants", val("--privvm-plants="),
                               &us, 1);
        privvm_plant_offset = sim::Microseconds(us);
      }
      privvm_plants = true;
      cfg.privvm_recovery = true;  // plants are invisible without the passes
    } else if (arg == "--audit") {
      cfg.audit = true;
    } else if (arg.rfind("--audit-out=", 0) == 0) {
      audit_out = val("--audit-out=");
      cfg.audit = true;
    } else if (arg == "--integrity") {
      cfg.integrity = true;
    } else if (arg == "--proactive" || arg.rfind("--proactive=", 0) == 0) {
      if (arg.rfind("--proactive=", 0) == 0) {
        ok = sim::ParseIntFlag("--proactive", val("--proactive="),
                               &cfg.proactive_threshold, 1);
      }
      cfg.proactive = true;
      cfg.integrity = true;  // rejuvenation consumes the monitor's drifts
    } else if (arg.rfind("--integrity-out=", 0) == 0) {
      integrity_out = val("--integrity-out=");
      cfg.integrity = true;
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = val("--trace-out=");
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out = val("--metrics-out=");
    } else if (arg.rfind("--dossier-dir=", 0) == 0) {
      dossier_dir = val("--dossier-dir=");
    } else if (arg.rfind("--replay=", 0) == 0) {
      // A run id, or else the path of a reproducer bundle.
      const std::string what = val("--replay=");
      replay_mode = sim::ParseInt(what, &replay_id, 0);
      if (!replay_mode) replay_path = what;
    } else if (arg.rfind("--profile-out=", 0) == 0) {
      profile_out = val("--profile-out=");
    } else if (arg.rfind("--threads=", 0) == 0) {
      ok = sim::ParseIntFlag("--threads", val("--threads="), &opts.threads, 0);
    } else if (arg.rfind("--fuzz=", 0) == 0) {
      ok = sim::ParseIntFlag("--fuzz", val("--fuzz="), &fuzz_iterations, 1);
    } else if (arg.rfind("--fuzz-seed=", 0) == 0) {
      ok = sim::ParseIntFlag("--fuzz-seed", val("--fuzz-seed="), &fuzz_seed, 0);
    } else if (arg.rfind("--corpus=", 0) == 0) {
      corpus_dir = val("--corpus=");
    } else if (arg.rfind("--shrink=", 0) == 0) {
      shrink_path = val("--shrink=");
    } else if (arg.rfind("--shrink-evals=", 0) == 0) {
      ok = sim::ParseIntFlag("--shrink-evals", val("--shrink-evals="),
                             &shrink_evals, 0);
    } else if (arg.rfind("--max-corpus=", 0) == 0) {
      ok = sim::ParseIntFlag("--max-corpus", val("--max-corpus="),
                             &max_corpus, 0);
    } else if (arg == "--fleet") {
      fleet_mode = true;
    } else if (arg.rfind("--hosts=", 0) == 0) {
      ok = sim::ParseIntFlag("--hosts", val("--hosts="), &fleet_cfg.hosts, 1);
    } else if (arg.rfind("--tenants=", 0) == 0) {
      ok = sim::ParseIntFlag("--tenants", val("--tenants="),
                             &fleet_cfg.tenants_per_host, 1);
    } else if (arg.rfind("--fleet-horizon=", 0) == 0) {
      ok = sim::ParseIntFlag("--fleet-horizon", val("--fleet-horizon="),
                             &fleet_cfg.horizon_s, 1);
    } else if (arg.rfind("--placement=", 0) == 0) {
      const std::string slug = val("--placement=");
      if (!fleet::PlacementPolicyFromSlug(slug, &fleet_cfg.placement)) {
        std::printf(
            "unknown placement policy '%s'; valid: least-loaded first-fit\n",
            slug.c_str());
        Usage();
        return 2;
      }
    } else if (arg.rfind("--fleet-out=", 0) == 0) {
      fleet_out = val("--fleet-out=");
    } else if (arg == "--verbose") {
      verbose = true;
    } else {
      std::printf("unknown flag %s\n", arg.c_str());
      ok = false;
    }
    if (!ok) {
      Usage();
      return 2;
    }
  }

  // A flag the running mode does not read exits 2.
  const Mode mode = fleet_mode               ? kFleet
                    : !replay_path.empty()   ? kReplayFile
                    : !shrink_path.empty()   ? kShrink
                    : fuzz_iterations > 0    ? kFuzz
                    : !corpus_dir.empty()    ? kCorpus
                    : replay_mode            ? kReplayRun
                                             : kCampaign;
  for (const std::string& flag : flags_given) {
    unsigned reads = 0;
    for (const FlagModes& f : kFlagModes) {
      if (flag == f.flag) reads = f.modes;
    }
    if ((reads & mode) != 0 && (flag != "--bench" || one_appvm)) continue;
    std::string why;
    if ((reads & mode) != 0) {
      why = "without --setup=1appvm";
    } else if (mode != kCampaign) {
      why = std::string("with ") + ModeFlag(mode);
    } else {
      for (const ModeFlagName& m : kModeFlags) {
        if ((reads & m.mode) != 0) {
          why += (why.empty() ? "without " : " or ") + std::string(m.flag);
        }
      }
    }
    std::printf("%s has no effect %s\n", flag.c_str(), why.c_str());
    Usage();
    return 2;
  }

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
    fuzz::LoadedReproducer rep;
    std::string err;
    if (!fuzz::LoadReproducer(replay_path, &rep, &err)) {
      std::printf("cannot replay %s: %s\n", replay_path.c_str(), err.c_str());
      Usage();
      return 2;
    }
    std::printf("replaying reproducer %s (%s, %d plan elements)\n",
                replay_path.c_str(), fuzz::DivergenceKindName(rep.divergence),
                rep.scenario.PlanElementCount());
    const fuzz::OracleOutcome o =
        fuzz::EvaluateScenario(rep.scenario, opts.threads);
    PrintVerdicts(o);
    return o.divergence == rep.divergence ? 0 : 1;
  }
  if (!shrink_path.empty()) {
    fuzz::LoadedReproducer rep;
    std::string err;
    if (!fuzz::LoadReproducer(shrink_path, &rep, &err)) {
      std::printf("cannot shrink %s: %s\n", shrink_path.c_str(), err.c_str());
      Usage();
      return 2;
    }
    const fuzz::OracleOutcome before =
        fuzz::EvaluateScenario(rep.scenario, opts.threads);
    if (before.divergence != rep.divergence) {
      std::printf("scenario no longer shows %s (now %s) — nothing to shrink\n",
                  fuzz::DivergenceKindName(rep.divergence),
                  fuzz::DivergenceKindName(before.divergence));
      return 1;
    }
    const fuzz::ShrinkResult shrunk = fuzz::ShrinkScenario(
        rep.scenario, rep.divergence,
        [&opts](const fuzz::Scenario& s) {
          return fuzz::EvaluateScenario(s, opts.threads);
        },
        shrink_evals);
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
      std::printf("corpus directory %s does not exist\n", corpus_dir.c_str());
      Usage();
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
    // Forensic replay of one run: same config, seed == run_id, recorder +
    // tracer on. Deterministic, so this is the exact execution the campaign
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

  // Replay the first run with tracing enabled for the trace/metrics
  // artifacts: campaigns run many hypervisors in parallel, so per-run
  // telemetry comes from a deterministic replay of seed0.
  if (!trace_out.empty() || !metrics_out.empty() || !audit_out.empty() ||
      !integrity_out.empty() || !profile_out.empty()) {
    core::RunConfig rcfg = cfg;
    rcfg.seed = opts.seed0;
    core::TargetSystem sys(rcfg);
    sys.EnableTracing();
    const core::RunResult replay = sys.Run();
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
      if (!WriteFile(trace_out, sys.hv().tracer().ToChromeJson())) return 1;
      std::printf("trace (%zu spans) written to %s\n",
                  sys.hv().tracer().Snapshot().size(), trace_out.c_str());
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
          forensics::CollapsedStackProfile(sys.hv().tracer().Snapshot());
      if (!WriteFile(profile_out, profile)) return 1;
      std::printf("collapsed-stack profile written to %s\n",
                  profile_out.c_str());
    }
  }
  return 0;
}
