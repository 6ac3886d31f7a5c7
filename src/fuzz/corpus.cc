#include "fuzz/corpus.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "forensics/dossier.h"

namespace nlh::fuzz {

std::string ReproducerJson(const Scenario& s, const OracleOutcome& o,
                           const core::RunResult* results) {
  std::string out = "{";
  out += "\"schema\":" + sim::JsonStr(kReproSchema);
  out += ",\"divergence\":{";
  out += "\"kind\":" + sim::JsonStr(DivergenceKindName(o.divergence));
  out += ",\"detail\":" + sim::JsonStr(o.detail);
  out += ",\"signature\":" + sim::JsonStr(HexU64(o.divergence_signature));
  out += "}";
  out += ",\"plan_elements\":" + std::to_string(s.PlanElementCount());
  out += ",\"scenario\":" + s.ToJson();
  out += ",\"expected\":[";
  for (std::size_t i = 0; i < o.verdicts.size(); ++i) {
    if (i) out += ",";
    out += o.verdicts[i].ToJson();
  }
  out += "]";
  // Dossier-compatible replay section: the same building blocks
  // forensics::ReplayRun assembles, one entry per policy. The policy list
  // is recovered from the verdicts themselves.
  out += ",\"replay\":{\"schema\":\"nlh-dossier-v1\",\"runs\":[";
  for (std::size_t i = 0; i < o.verdicts.size(); ++i) {
    if (i) out += ",";
    const core::RunConfig cfg = s.ToRunConfig(o.verdicts[i].mechanism);
    out += "{\"config\":" + forensics::ConfigJson(cfg);
    out += ",\"result\":" + forensics::ResultJson(results[i]);
    out += ",\"injection\":" + forensics::InjectionJson(results[i]);
    out += ",\"detection\":" + forensics::DetectionJson(results[i]);
    out += ",\"audit_findings\":" + results[i].audit_report.ToJson();
    out += "}";
  }
  out += "]}}";
  return out;
}

std::string WriteReproducer(const std::string& dir, const Scenario& s,
                            const OracleOutcome& o,
                            const core::RunResult* results) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return "";
  char name[48];
  std::snprintf(name, sizeof(name), "repro_%016llx.json",
                static_cast<unsigned long long>(s.Fingerprint()));
  const std::string path = (std::filesystem::path(dir) / name).string();
  const std::string json = ReproducerJson(s, o, results);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return "";
  const std::size_t n = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = (n == json.size()) && (std::fclose(f) == 0);
  return ok ? path : "";
}

bool LoadReproducer(const std::string& path, LoadedReproducer* out,
                    std::string* error) {
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return fail("unreadable: " + path);
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);

  sim::JsonValue doc;
  if (!sim::ParseJson(text, &doc)) return fail("invalid JSON: " + path);
  const sim::JsonValue* schema = doc.Find("schema");
  if (schema == nullptr || schema->str != kReproSchema) {
    return fail("not an " + std::string(kReproSchema) + " bundle: " + path);
  }
  const sim::JsonValue* divergence = doc.Find("divergence");
  const sim::JsonValue* kind =
      divergence != nullptr ? divergence->Find("kind") : nullptr;
  LoadedReproducer rep;
  if (kind == nullptr ||
      !DivergenceKindFromName(kind->str, &rep.divergence)) {
    return fail("missing/unknown divergence kind: " + path);
  }
  const sim::JsonValue* scenario = doc.Find("scenario");
  if (scenario == nullptr || !Scenario::FromJson(*scenario, &rep.scenario)) {
    return fail("malformed scenario: " + path);
  }
  const sim::JsonValue* expected = doc.Find("expected");
  if (expected == nullptr || !expected->IsArray() ||
      expected->items.size() < 2) {
    return fail("malformed expected verdicts: " + path);
  }
  for (const sim::JsonValue& v : expected->items) {
    // The verdict's mechanism is the policy the replay runs, so the replay
    // judges the exact list the bundle was shrunk against.
    PolicyVerdict verdict;
    if (!PolicyVerdict::FromJson(v, &verdict)) {
      return fail("malformed expected verdict: " + path);
    }
    rep.policies.push_back(verdict.mechanism);
    rep.expected.push_back(std::move(verdict));
  }
  *out = std::move(rep);
  return true;
}

std::vector<std::string> ListCorpus(const std::string& dir) {
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string p = entry.path().string();
    if (p.size() >= 5 && p.compare(p.size() - 5, 5, ".json") == 0) {
      paths.push_back(p);
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

}  // namespace nlh::fuzz
