// A Scenario is the fuzzer's unit of search: a fully serializable seed +
// plan that pins down one deterministic experiment — guest workload mix,
// injection target/class/trigger placement, planted latent corruptions —
// with *no* hidden randomness. Everything the classic campaign draws from
// its run rng (injection time inside the window, the level-2 instruction
// count) is explicit here, so a scenario replays bit-identically from its
// JSON form and delta-debugging over the plan is well-defined: dropping a
// plan element cannot silently shift any other element.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "sim/json.h"

namespace nlh::fuzz {

inline constexpr const char* kScenarioSchema = "nlh-scenario-v1";

// --- Stable hashing (FNV-1a) ------------------------------------------------
// Shared by scenario fingerprints and oracle coverage signatures; must stay
// platform-independent because corpus filenames and recorded signatures are
// committed to the repository.
inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

inline std::uint64_t FnvMix(std::uint64_t h, const char* data, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= kFnvPrime;
  }
  return h;
}

inline std::uint64_t FnvMix(std::uint64_t h, const std::string& s) {
  return FnvMix(h, s.data(), s.size());
}

inline std::uint64_t FnvMix(std::uint64_t h, std::uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  return FnvMix(h, bytes, sizeof(bytes));
}

struct Scenario {
  std::uint64_t seed = 1;

  // --- Guest workload mix ---------------------------------------------------
  core::Setup setup = core::Setup::k1AppVM;
  guest::BenchmarkKind bench = guest::BenchmarkKind::kUnixBench;  // 1AppVM only
  int unixbench_iterations = 20000;
  int blkbench_files = 2000;
  int netbench_ms = 1500;
  bool vm3_at_start = false;  // 3AppVM only (Figure 3 variant)
  bool share_cpu = false;
  bool hvm = false;
  // Arms the PrivVM component recovery path (RunConfig::privvm_recovery):
  // detector + backend repair + the guest-context audit passes. Serialized
  // only when set, so pre-existing corpus files and their fingerprints are
  // untouched.
  bool privvm_recovery = false;
  // Arms the integrity observability chain (RunConfig::integrity): the epoch
  // monitor hashes the nine recovery-critical surfaces every scheduler epoch
  // and the oracle cross-checks drift trails between mechanism variants.
  // Serialized only when set — same compatibility contract as
  // privvm_recovery.
  bool integrity = false;

  // --- Injection plan -------------------------------------------------------
  bool inject = true;
  inject::FaultType fault = inject::FaultType::kFailstop;
  std::int64_t inject_at_ns = 400000000;  // exact level-1 trigger time
  std::int64_t second_trigger = 0;        // exact level-2 instruction count
  inject::TriggerSpec trigger;            // optional event condition
  std::vector<inject::PlantSpec> plants;  // silent latent corruptions

  // Expands the scenario into a concrete RunConfig for one recovery policy.
  // The injection window collapses to [inject_at_ns, inject_at_ns] and the
  // level-2 count is pinned, so the run rng's draw *order* is identical to a
  // classic campaign run while the drawn values are scenario-controlled.
  core::RunConfig ToRunConfig(core::Mechanism mechanism) const;

  // Number of "plan elements" — the size metric the shrinker minimizes and
  // the acceptance criterion for minimal reproducers: initial AppVMs, each
  // enabled option (vm3-at-start, shared CPU, HVM), the fault itself, a
  // nontrivial trigger condition, and each planted corruption.
  int PlanElementCount() const;

  std::string ToJson() const;
  // Strict parse of a ToJson() document (schema checked). Unknown fields are
  // rejected so corpus files cannot silently rot.
  static bool FromJson(const sim::JsonValue& v, Scenario* out);

  // FNV-1a over the canonical JSON form; names corpus files.
  std::uint64_t Fingerprint() const { return FnvMix(kFnvOffset, ToJson()); }
};

// Formats a 64-bit value the way scenario/reproducer JSON stores it: as a
// hex string ("0x0123456789abcdef"), because raw u64 values do not survive
// the double-typed JSON number path.
std::string HexU64(std::uint64_t v);
bool ParseHexU64(const std::string& s, std::uint64_t* out);

// Typed readers of one member of a bundle's JSON object. Each returns false
// when the key is missing or holds another JSON type; a number must be an
// integer that fits (GetCount: in [0, INT_MAX]).
bool GetI64(const sim::JsonValue& obj, const char* key, std::int64_t* out);
bool GetCount(const sim::JsonValue& obj, const char* key, int* out);
bool GetBool(const sim::JsonValue& obj, const char* key, bool* out);
bool GetStr(const sim::JsonValue& obj, const char* key, std::string* out);

}  // namespace nlh::fuzz
