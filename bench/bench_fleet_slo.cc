// Fleet-scale SLO cost of recovery (bench_fleet_slo): the paper's
// recovery-latency gap — microreset (NiLiHype, ~22 ms) vs snapshot
// rollback (SnapRes) vs microreboot (ReHype, ~713 ms) — replayed over an
// identical fault schedule on a 100-host / 1000-tenant fleet and priced in
// tenant SLO-violation-minutes. Every mechanism sees the same faults at
// the same instants (the schedule is mechanism-independent), so the SLO
// column isolates what the recovery mechanism itself costs the fleet.
//
// Emits BENCH_fleet.json (--out) and optionally gates against a committed
// baseline (--baseline), which must carry every field this bench writes:
//   - host_runs_per_sec (phase-A injection-run throughput) is normalized
//     by `calib_mops` and gated at --gate-pct (default 15%) like
//     bench_sim_core;
//   - the model outputs (every other row field: fault and recovery
//     tallies, outage means, violation minutes) are pure functions of the
//     config, so when the baseline was produced by the same fleet shape
//     and seed they must match EXACTLY — any drift is a silent behavior
//     change, not machine noise, and fails the gate.
//
// Flags: see --help.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/config.h"
#include "fleet/fleet.h"
#include "sim/json.h"

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// The rows, in print order; SloRatio reads the first and the last.
constexpr nlh::core::Mechanism kMechs[] = {
    nlh::core::Mechanism::kNiLiHype,
    nlh::core::Mechanism::kSnapRes,
    nlh::core::Mechanism::kReHype,
};

struct MechRow {
  std::string slug;
  nlh::fleet::FleetResult result;
  double host_runs_per_sec = 0;  // phase-A throughput (perf metric)
};

std::string RowJson(const MechRow& r) {
  std::string out = "{";
  out += "\"faults\":" + std::to_string(r.result.faults_scheduled);
  out += ",\"clean\":" + std::to_string(r.result.clean_recoveries);
  out += ",\"latent\":" + std::to_string(r.result.latent_recoveries);
  out += ",\"failed\":" + std::to_string(r.result.failed_recoveries);
  out += ",\"mean_outage_ms\":" + nlh::sim::JsonNum(r.result.mean_outage_ms);
  out += ",\"hosts_lost\":" + std::to_string(r.result.hosts_lost);
  out += ",\"tenants_evacuated\":" + std::to_string(r.result.tenants_evacuated);
  out += ",\"slo_violated\":" + std::to_string(r.result.slo_violated);
  out += ",\"dropped\":" + std::to_string(r.result.dropped);
  out += ",\"bad_tenant_ticks\":" + std::to_string(r.result.bad_tenant_ticks);
  out += ",\"violation_minutes\":" +
         nlh::sim::JsonNum(r.result.slo_violation_minutes);
  out += ",\"host_runs_per_sec\":" + nlh::sim::JsonNum(r.host_runs_per_sec, 4);
  out += "}";
  return out;
}

// The headline ratio: what microreboot costs the fleet relative to
// microreset, at identical fault schedules.
double SloRatio(const std::vector<MechRow>& rows) {
  const double nili_min = rows[0].result.slo_violation_minutes;
  const double rehype_min = rows[2].result.slo_violation_minutes;
  return nili_min > 0 ? rehype_min / nili_min : 0;
}

// The bench's JSON: the fleet shape, calib_mops and one row per mechanism.
std::string FleetJson(const std::vector<MechRow>& rows, double calib,
                      int hosts, int tenants, int horizon, std::uint64_t seed,
                      bool quick) {
  std::string json = "{";
  json += "\"bench\":\"fleet_slo\",\"schema\":1";
  json += ",\"config\":{\"hosts\":" + std::to_string(hosts) +
          ",\"tenants_per_host\":" + std::to_string(tenants) +
          ",\"horizon_s\":" + std::to_string(horizon) +
          ",\"seed\":" + std::to_string(seed) +
          ",\"quick\":" + (quick ? std::string("true") : std::string("false")) +
          "}";
  json += ",\"calib_mops\":" + nlh::sim::JsonNum(calib, 3);
  json += ",\"mechanisms\":{";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i) json += ",";
    json += nlh::sim::JsonStr(rows[i].slug) + ":" + RowJson(rows[i]);
  }
  json += "}";
  json += ",\"rehype_vs_nilihype_slo_ratio\":" +
          nlh::sim::JsonNum(SloRatio(rows), 3);
  json += "}";
  return json;
}

// --baseline: every field FleetJson writes, and a positive calib_mops and
// host_runs_per_sec, which the gate divides by.
std::string LoadBaseline(std::string_view path, nlh::sim::JsonValue* out) {
  std::vector<MechRow> rows;
  for (const nlh::core::Mechanism mech : kMechs) {
    rows.push_back({nlh::core::MechanismSlug(mech), {}, 0});
  }
  const std::string error = nlh::bench::LoadBaseline(
      path, FleetJson(rows, 0, 0, 0, 0, 0, false), out);
  if (!error.empty()) return error;
  bool positive = out->Find("calib_mops")->number > 0;
  for (const MechRow& row : rows) {
    const nlh::sim::JsonValue* b = out->Find("mechanisms")->Find(row.slug);
    positive = positive && b->Find("host_runs_per_sec")->number > 0;
  }
  return positive ? "" : std::string(path) +
                             ": calib_mops and host_runs_per_sec must be "
                             "positive";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::optional<nlh::sim::JsonValue> baseline;
  double gate_pct = 15.0;
  int hosts = 0;
  int tenants = 0;
  int horizon = 0;
  int threads = 0;
  std::uint64_t seed = 1000;
  bool quick = false;
  using enum nlh::sim::FlagValue;
  const nlh::sim::Flag flags[] = {
      {"--out", kRequired, "FILE", "write the JSON here (default: stdout)",
       nlh::sim::SetString(&out_path)},
      {"--baseline", kRequired, "FILE", "gate against this BENCH_fleet.json",
       [&](std::string_view v) {
         return LoadBaseline(v, &baseline.emplace());
       }},
      {"--gate-pct", kRequired, "P",
       "fail a mechanism whose runs/sec is more than P% below the baseline "
       "(default 15)",
       nlh::bench::SetGatePct(&gate_pct), ~0u, {}, "without --baseline",
       [&] { return baseline.has_value(); }},
      {"--hosts", kRequired, "N", "hosts (default 100, --quick 12)",
       nlh::sim::SetInt(&hosts, 1)},
      {"--tenants", kRequired, "N", "tenants per host (default 10, --quick 4)",
       nlh::sim::SetInt(&tenants, 1)},
      {"--horizon", kRequired, "S",
       "simulated seconds (default 3600, --quick 600)",
       nlh::sim::SetInt(&horizon, 1)},
      {"--threads", kRequired, "N", "worker threads (default 0: all cores)",
       nlh::sim::SetInt(&threads, 0)},
      {"--seed", kRequired, "N", "the fleet's master seed (default 1000)",
       nlh::sim::SetInt(&seed, 0)},
      {"--quick", kNone, "", "a small fleet, for the smoke test",
       nlh::sim::SetTrue(&quick)},
  };
  nlh::sim::ParseFlags(argc, argv, flags);
  // Full mode is the acceptance-scale fleet: 100 hosts x 10 tenants over
  // one simulated hour. Quick mode (the `perf` ctest smoke) shrinks the
  // fleet but keeps every stage of the pipeline hot.
  if (hosts == 0) hosts = quick ? 12 : 100;
  if (tenants == 0) tenants = quick ? 4 : 10;
  if (horizon == 0) horizon = quick ? 600 : 3600;

  nlh::bench::PrintHeader(
      "Fleet SLO cost of recovery (bench_fleet_slo)",
      "recovery latency as tenant SLO-violation-minutes, equal fault rates");

  const double calib = nlh::bench::CalibMops();
  std::printf("calib                 %10.1f Mops\n", calib);
  std::printf("fleet: %d hosts x %d tenants, %d s horizon, seed %llu\n\n",
              hosts, tenants, horizon,
              static_cast<unsigned long long>(seed));

  std::vector<MechRow> rows;
  std::printf("%-10s %8s %10s %10s %12s %14s\n", "mechanism", "faults",
              "outage ms", "runs/sec", "bad ticks", "SLO viol-min");
  for (const nlh::core::Mechanism mech : kMechs) {
    nlh::fleet::FleetConfig cfg;
    cfg.hosts = hosts;
    cfg.tenants_per_host = tenants;
    cfg.horizon_s = horizon;
    cfg.master_seed = seed;
    cfg.mechanism = mech;
    MechRow row;
    row.slug = nlh::core::MechanismSlug(mech);
    const auto t0 = Clock::now();
    row.result = nlh::fleet::FleetSim(cfg).Run(threads);
    const double secs = SecondsSince(t0);
    row.host_runs_per_sec =
        secs > 0 ? static_cast<double>(row.result.faults_scheduled) / secs : 0;
    std::printf("%-10s %8d %10.3f %10.3f %12llu %14.3f\n", row.slug.c_str(),
                row.result.faults_scheduled, row.result.mean_outage_ms,
                row.host_runs_per_sec,
                static_cast<unsigned long long>(row.result.bad_tenant_ticks),
                row.result.slo_violation_minutes);
    rows.push_back(row);
  }
  std::printf("\nrehype/nilihype SLO cost ratio: x%.1f\n", SloRatio(rows));

  const std::string json =
      FleetJson(rows, calib, hosts, tenants, horizon, seed, quick);
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << json << "\n";
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::printf("%s\n", json.c_str());
  }

  if (!baseline) return 0;
  const nlh::sim::JsonValue& bcfg = *baseline->Find("config");
  const bool same_model =
      bcfg.Find("hosts")->number == hosts &&
      bcfg.Find("tenants_per_host")->number == tenants &&
      bcfg.Find("horizon_s")->number == horizon &&
      bcfg.Find("seed")->number == static_cast<double>(seed);
  const double bcalib = baseline->Find("calib_mops")->number;

  int failures = 0;
  std::printf("\nregression gate (±%.0f%% on runs/sec, normalized by "
              "calib_mops; model outputs exact%s):\n",
              gate_pct, same_model ? "" : " — SKIPPED, config differs");
  for (const MechRow& row : rows) {
    const nlh::sim::JsonValue& b =
        *baseline->Find("mechanisms")->Find(row.slug);
    const double bperf = b.Find("host_runs_per_sec")->number;
    const double r = (row.host_runs_per_sec / calib) / (bperf / bcalib);
    const bool fail = r < 1.0 - gate_pct / 100.0;
    std::printf("  %-10s runs/sec %8.3f vs %8.3f (normalized x%.3f)%s\n",
                row.slug.c_str(), row.host_runs_per_sec, bperf, r,
                fail ? "  REGRESSION" : "");
    failures += fail ? 1 : 0;
    if (!same_model) continue;
    // Deterministic model outputs, every field of the row but the timing:
    // an exact match, or it's a behavior change. Both sides went through
    // JsonNum's 3-decimal fixed point.
    nlh::sim::JsonValue cur;
    nlh::sim::ParseJson(RowJson(row), &cur);
    for (const auto& [key, v] : cur.fields) {
      const double want = b.Find(key)->number;
      if (key != "host_runs_per_sec" && std::fabs(want - v.number) > 5e-4) {
        std::printf("  %-10s %s %.3f vs baseline %.3f  MODEL DRIFT\n",
                    row.slug.c_str(), key.c_str(), v.number, want);
        ++failures;
      }
    }
  }
  if (failures > 0) {
    std::fprintf(stderr, "%d gate failure(s)\n", failures);
    return 1;
  }
  return 0;
}
