// Reproducer bundles and corpus management. A reproducer ("nlh-repro-v1")
// records a shrunk scenario together with the divergence that flagged it
// and the full per-policy verdicts; the corpus regression runner replays
// the scenario and asserts the recomputed verdicts equal the recorded
// ones. Each bundle also embeds an nlh-dossier-v1-compatible replay section
// (the same config/result/injection/detection JSON the forensics dossiers
// use) so existing dossier tooling can read fuzz reproducers directly.
#pragma once

#include <string>
#include <vector>

#include "fuzz/oracle.h"
#include "fuzz/scenario.h"

namespace nlh::fuzz {

inline constexpr const char* kReproSchema = "nlh-repro-v1";

// Serializes one reproducer bundle. `results` has one finished run per
// entry of o.verdicts, in the same policy order (they feed the
// dossier-compatible replay section).
std::string ReproducerJson(const Scenario& s, const OracleOutcome& o,
                           const core::RunResult* results);

// Writes `dir/repro_<fingerprint>.json` (creating `dir` if needed).
// Returns the written path, or "" on I/O failure.
std::string WriteReproducer(const std::string& dir, const Scenario& s,
                            const OracleOutcome& o,
                            const core::RunResult* results);

// Parsed reproducer, ready to re-run.
struct LoadedReproducer {
  Scenario scenario;
  DivergenceKind divergence = DivergenceKind::kNone;
  // The policy list the bundle was shrunk against, recovered from the
  // per-verdict mechanism names (committed bundles carry the historical
  // triple; newer ones may record more variants).
  std::vector<core::Mechanism> policies;
  // The expected verdict per policy, parsed by PolicyVerdict::FromJson.
  std::vector<PolicyVerdict> expected;
};

// Reads and validates one reproducer file. Returns false (with a message in
// *error naming the file) on unreadable files, schema mismatches, malformed
// scenarios, or expected verdicts PolicyVerdict::FromJson rejects.
bool LoadReproducer(const std::string& path, LoadedReproducer* out,
                    std::string* error);

// All "*.json" files directly inside `dir`, lexicographically sorted.
// Empty when the directory is missing or unreadable.
std::vector<std::string> ListCorpus(const std::string& dir);

}  // namespace nlh::fuzz
