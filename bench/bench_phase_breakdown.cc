// Machine-readable recovery phase breakdown (the Table II / Table III row
// structure as JSON): one recorded run per mechanism plus a small campaign
// per mechanism for mean/p99 per-phase aggregates.
//
// Flags: see --help.
#include <cstdio>
#include <fstream>
#include <string>

#include "core/campaign.h"
#include "core/target_system.h"
#include "sim/flags.h"
#include "sim/json.h"

using namespace nlh;

namespace {

core::RunConfig Config(core::Mechanism mech, std::uint64_t seed) {
  core::RunConfig cfg =
      core::RunConfig::OneAppVm(guest::BenchmarkKind::kNetBench);
  cfg.mechanism = mech;
  cfg.fault = inject::FaultType::kFailstop;
  cfg.platform.memory_gib = 8;  // the paper's calibration point
  cfg.netbench_duration = sim::Milliseconds(2500);
  cfg.run_deadline = sim::Seconds(5);
  cfg.seed = seed;
  return cfg;
}

// One mechanism's JSON object: per-phase rows from a single run with the
// flight recorder on, plus campaign mean/p99 aggregates.
std::string MechanismJson(core::Mechanism mech, int runs,
                          std::uint64_t seed0) {
  core::TargetSystem sys(Config(mech, seed0));
  sys.EnableFlightRecorder();
  const core::RunResult r = sys.Run();

  std::string out = "{\"mechanism\":";
  out += sim::JsonStr(core::MechanismName(mech));
  out += ",\"single_run\":{\"phases\":[";
  double total_ms = 0;
  for (std::size_t i = 0; i < r.recovery_phases.size(); ++i) {
    const core::PhaseLatency& p = r.recovery_phases[i];
    if (i) out += ",";
    const double ms = sim::ToMillisF(p.latency);
    total_ms += ms;
    out += "{\"phase\":" + sim::JsonStr(p.phase) +
           ",\"label\":" + sim::JsonStr(p.label) +
           ",\"ms\":" + sim::JsonNum(ms, 6) + "}";
  }
  out += "],\"total_ms\":" + sim::JsonNum(total_ms, 6);
  int spans = 0;
  for (const forensics::FlightEvent& ev :
       sys.hv().flight_recorder().Retained()) {
    spans += forensics::IsSpanKind(ev.kind) ? 1 : 0;
  }
  out += ",\"trace_spans\":" + std::to_string(spans) + "}";

  core::CampaignOptions opts;
  opts.runs = runs;
  opts.seed0 = seed0;
  const core::CampaignResult agg = core::RunCampaign(Config(mech, 0), opts);
  out += ",\"campaign\":" + agg.ToJson();
  out += "}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  int runs = 20;
  std::uint64_t seed0 = 2024;
  using enum sim::FlagValue;
  const sim::Flag flags[] = {
      {"--out", kRequired, "FILE", "write the JSON here (default: stdout)",
       sim::SetString(&out_path)},
      {"--runs", kRequired, "N", "campaign runs per mechanism (default 20)",
       sim::SetInt(&runs, 1)},
      {"--seed", kRequired, "N",
       "seed of the traced run and the first campaign run (default 2024)",
       sim::SetInt(&seed0, 0)},
  };
  sim::ParseFlags(argc, argv, flags);

  std::string json = "{\"bench\":\"phase_breakdown\",\"memory_gib\":8,";
  json += "\"mechanisms\":[";
  json += MechanismJson(core::Mechanism::kNiLiHype, runs, seed0);
  json += ",";
  json += MechanismJson(core::Mechanism::kReHype, runs, seed0);
  json += "]}";

  if (out_path.empty()) {
    std::printf("%s\n", json.c_str());
  } else {
    std::ofstream f(out_path);
    if (!f) {
      std::printf("cannot write %s\n", out_path.c_str());
      return 1;
    }
    f << json;
    std::printf("phase breakdown written to %s\n", out_path.c_str());
  }
  return 0;
}
