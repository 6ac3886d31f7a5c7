#include "fuzz/scenario.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace nlh::fuzz {

namespace {

const char* SetupName(core::Setup s) {
  return s == core::Setup::k1AppVM ? "1AppVM" : "3AppVM";
}

bool SetupFromName(const std::string& name, core::Setup* out) {
  if (name == "1AppVM") { *out = core::Setup::k1AppVM; return true; }
  if (name == "3AppVM") { *out = core::Setup::k3AppVM; return true; }
  return false;
}

bool BenchFromName(const std::string& name, guest::BenchmarkKind* out) {
  for (const guest::BenchmarkKind k :
       {guest::BenchmarkKind::kUnixBench, guest::BenchmarkKind::kBlkBench,
        guest::BenchmarkKind::kNetBench}) {
    if (name == guest::BenchmarkName(k)) { *out = k; return true; }
  }
  return false;
}

bool FaultFromName(const std::string& name, inject::FaultType* out) {
  for (const inject::FaultType t :
       {inject::FaultType::kFailstop, inject::FaultType::kRegister,
        inject::FaultType::kCode, inject::FaultType::kMemory}) {
    if (name == inject::FaultTypeName(t)) { *out = t; return true; }
  }
  return false;
}

bool TargetFromName(const std::string& name, inject::CorruptionTarget* out) {
  for (int i = 0; i < static_cast<int>(inject::CorruptionTarget::kCount); ++i) {
    const auto t = static_cast<inject::CorruptionTarget>(i);
    if (name == inject::CorruptionTargetName(t)) { *out = t; return true; }
  }
  return false;
}

bool TriggerFromName(const std::string& name, inject::TriggerKind* out) {
  for (int i = 0; i < static_cast<int>(inject::TriggerKind::kCount); ++i) {
    const auto k = static_cast<inject::TriggerKind>(i);
    if (name == inject::TriggerKindName(k)) { *out = k; return true; }
  }
  return false;
}

}  // namespace

// Typed field extraction; every getter fails loudly so corpus files with
// drifted schemas are rejected instead of half-parsed. A number must be an
// integer that fits its field: casting 1e20 to an integer is undefined, and
// 2.5 would be silently truncated.
bool GetI64(const sim::JsonValue& obj, const char* key, std::int64_t* out) {
  const sim::JsonValue* v = obj.Find(key);
  if (v == nullptr || v->type != sim::JsonValue::Type::kNumber) return false;
  const double d = v->number;
  // [-2^63, 2^63): both bounds are exact doubles, and NaN fails the test.
  if (!(d >= -9223372036854775808.0 && d < 9223372036854775808.0) ||
      d != std::trunc(d)) {
    return false;
  }
  *out = static_cast<std::int64_t>(d);
  return true;
}

// A count field: an integer in [0, INT_MAX].
bool GetCount(const sim::JsonValue& obj, const char* key, int* out) {
  std::int64_t v = 0;
  if (!GetI64(obj, key, &v) || v < 0 ||
      v > std::numeric_limits<int>::max()) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

bool GetBool(const sim::JsonValue& obj, const char* key, bool* out) {
  const sim::JsonValue* v = obj.Find(key);
  if (v == nullptr || v->type != sim::JsonValue::Type::kBool) return false;
  *out = v->boolean;
  return true;
}

bool GetStr(const sim::JsonValue& obj, const char* key, std::string* out) {
  const sim::JsonValue* v = obj.Find(key);
  if (v == nullptr || v->type != sim::JsonValue::Type::kString) return false;
  *out = v->str;
  return true;
}

std::string HexU64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool ParseHexU64(const std::string& s, std::uint64_t* out) {
  if (s.size() < 3 || s[0] != '0' || s[1] != 'x') return false;
  char* end = nullptr;
  *out = std::strtoull(s.c_str() + 2, &end, 16);
  return end != nullptr && *end == '\0';
}

core::RunConfig Scenario::ToRunConfig(core::Mechanism mechanism) const {
  core::RunConfig cfg = setup == core::Setup::k1AppVM
                            ? core::RunConfig::OneAppVm(bench)
                            : core::RunConfig{};
  cfg.mechanism = mechanism;
  cfg.seed = seed;
  cfg.audit = true;  // the oracle always needs the latent-corruption split
  cfg.vm3_at_start = setup == core::Setup::k3AppVM && vm3_at_start;
  cfg.share_cpu = share_cpu;
  cfg.appvm_mode = hvm ? guest::VirtMode::kHVM : guest::VirtMode::kPV;
  cfg.unixbench_iterations = unixbench_iterations;
  cfg.blkbench_files = blkbench_files;
  cfg.netbench_duration = sim::Milliseconds(netbench_ms);
  cfg.inject = inject;
  cfg.fault = fault;
  // Collapse the injection window to one point: Range(t, t) still consumes
  // exactly one run-rng draw, so downstream draw order matches a classic
  // campaign run while the injection time is scenario-controlled.
  cfg.inject_window_start = inject_at_ns;
  cfg.inject_window_end = inject_at_ns;
  cfg.inject_second_trigger = second_trigger;
  cfg.inject_trigger = trigger;
  cfg.inject_plants = plants;
  cfg.privvm_recovery = privvm_recovery;
  cfg.integrity = integrity;
  return cfg;
}

int Scenario::PlanElementCount() const {
  int n = setup == core::Setup::k3AppVM ? 2 : 1;  // initial AppVMs
  if (setup == core::Setup::k3AppVM && vm3_at_start) ++n;
  if (share_cpu) ++n;
  if (hvm) ++n;
  if (privvm_recovery) ++n;
  if (integrity) ++n;
  if (inject) ++n;
  if (trigger.kind != inject::TriggerKind::kTime || trigger.skip != 0) ++n;
  n += static_cast<int>(plants.size());
  return n;
}

std::string Scenario::ToJson() const {
  std::string out = "{";
  out += "\"schema\":" + sim::JsonStr(kScenarioSchema);
  out += ",\"seed\":" + sim::JsonStr(HexU64(seed));
  out += ",\"setup\":" + sim::JsonStr(SetupName(setup));
  out += ",\"bench\":" + sim::JsonStr(guest::BenchmarkName(bench));
  out += ",\"unixbench_iterations\":" + std::to_string(unixbench_iterations);
  out += ",\"blkbench_files\":" + std::to_string(blkbench_files);
  out += ",\"netbench_ms\":" + std::to_string(netbench_ms);
  out += ",\"vm3_at_start\":" + std::string(vm3_at_start ? "true" : "false");
  out += ",\"share_cpu\":" + std::string(share_cpu ? "true" : "false");
  out += ",\"hvm\":" + std::string(hvm ? "true" : "false");
  // Conditional: absent means false, so documents (and fingerprints) from
  // before the field existed are reproduced byte-for-byte.
  if (privvm_recovery) out += ",\"privvm_recovery\":true";
  if (integrity) out += ",\"integrity\":true";
  out += ",\"inject\":" + std::string(inject ? "true" : "false");
  out += ",\"fault\":" + sim::JsonStr(inject::FaultTypeName(fault));
  out += ",\"inject_at_ns\":" + std::to_string(inject_at_ns);
  out += ",\"second_trigger\":" + std::to_string(second_trigger);
  out += ",\"trigger\":" + sim::JsonStr(inject::TriggerKindName(trigger.kind));
  out += ",\"trigger_skip\":" + std::to_string(trigger.skip);
  out += ",\"plants\":[";
  for (std::size_t i = 0; i < plants.size(); ++i) {
    if (i) out += ",";
    out += "{\"target\":" +
           sim::JsonStr(inject::CorruptionTargetName(plants[i].target)) +
           ",\"at_ns\":" + std::to_string(plants[i].at);
    if (plants[i].during_recovery) out += ",\"during_recovery\":true";
    out += "}";
  }
  out += "]}";
  return out;
}

bool Scenario::FromJson(const sim::JsonValue& v, Scenario* out) {
  if (!v.IsObject()) return false;
  std::string schema;
  if (!GetStr(v, "schema", &schema) || schema != kScenarioSchema) return false;

  Scenario s;
  std::string seed_hex, setup_name, bench_name, fault_name, trigger_name;
  if (!GetStr(v, "seed", &seed_hex) || !ParseHexU64(seed_hex, &s.seed)) {
    return false;
  }
  if (!GetStr(v, "setup", &setup_name) || !SetupFromName(setup_name, &s.setup))
    return false;
  if (!GetStr(v, "bench", &bench_name) || !BenchFromName(bench_name, &s.bench))
    return false;
  if (!GetCount(v, "unixbench_iterations", &s.unixbench_iterations) ||
      !GetCount(v, "blkbench_files", &s.blkbench_files) ||
      !GetCount(v, "netbench_ms", &s.netbench_ms)) {
    return false;
  }
  if (!GetBool(v, "vm3_at_start", &s.vm3_at_start) ||
      !GetBool(v, "share_cpu", &s.share_cpu) || !GetBool(v, "hvm", &s.hvm) ||
      !GetBool(v, "inject", &s.inject)) {
    return false;
  }
  // Optional: absent in documents predating the PrivVM recovery path.
  if (v.Find("privvm_recovery") != nullptr &&
      !GetBool(v, "privvm_recovery", &s.privvm_recovery)) {
    return false;
  }
  // Optional: absent in documents predating the integrity monitor.
  if (v.Find("integrity") != nullptr &&
      !GetBool(v, "integrity", &s.integrity)) {
    return false;
  }
  if (!GetStr(v, "fault", &fault_name) || !FaultFromName(fault_name, &s.fault))
    return false;
  if (!GetI64(v, "inject_at_ns", &s.inject_at_ns) ||
      !GetI64(v, "second_trigger", &s.second_trigger)) {
    return false;
  }
  if (!GetStr(v, "trigger", &trigger_name) ||
      !TriggerFromName(trigger_name, &s.trigger.kind)) {
    return false;
  }
  if (!GetCount(v, "trigger_skip", &s.trigger.skip)) return false;

  const sim::JsonValue* plants = v.Find("plants");
  if (plants == nullptr || !plants->IsArray()) return false;
  for (const sim::JsonValue& p : plants->items) {
    if (!p.IsObject()) return false;
    inject::PlantSpec spec;
    std::string target_name;
    std::int64_t at = 0;
    if (!GetStr(p, "target", &target_name) ||
        !TargetFromName(target_name, &spec.target) ||
        !GetI64(p, "at_ns", &at)) {
      return false;
    }
    spec.at = at;
    if (p.Find("during_recovery") != nullptr &&
        !GetBool(p, "during_recovery", &spec.during_recovery)) {
      return false;
    }
    s.plants.push_back(spec);
  }
  *out = std::move(s);
  return true;
}

}  // namespace nlh::fuzz
