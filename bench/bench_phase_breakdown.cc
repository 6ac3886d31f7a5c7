// Machine-readable recovery phase breakdown (the Table II / Table III row
// structure as JSON): one traced replay per mechanism plus a small campaign
// per mechanism for mean/p99 per-phase aggregates.
//
// Usage: bench_phase_breakdown [--out=FILE.json] [--runs=N] [--seed=N]
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "core/campaign.h"
#include "core/target_system.h"
#include "sim/int_flag.h"
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

// One mechanism's JSON object: per-phase rows from a traced single run,
// plus campaign mean/p99 aggregates.
std::string MechanismJson(core::Mechanism mech, int runs,
                          std::uint64_t seed0) {
  core::TargetSystem sys(Config(mech, seed0));
  sys.EnableTracing();
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
  out += ",\"trace_spans\":" +
         std::to_string(sys.hv().tracer().Snapshot().size()) + "}";

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
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(std::strlen("--out="));
    } else if (arg.rfind("--runs=", 0) == 0) {
      if (!sim::ParseIntFlag("--runs", arg.c_str() + std::strlen("--runs="),
                             &runs, 1)) {
        return 2;
      }
    } else if (arg.rfind("--seed=", 0) == 0) {
      if (!sim::ParseIntFlag("--seed", arg.c_str() + std::strlen("--seed="),
                             &seed0, 0)) {
        return 2;
      }
    } else {
      std::printf("unknown flag %s (see header comment)\n", arg.c_str());
      return 2;
    }
  }

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
