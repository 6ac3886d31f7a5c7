// Fleet-scale SLO cost of recovery (bench_fleet_slo): the paper's
// recovery-latency gap — microreset (NiLiHype, ~22 ms) vs snapshot
// rollback (SnapRes) vs microreboot (ReHype, ~713 ms) — replayed over an
// identical fault schedule on a 100-host / 1000-tenant fleet and priced in
// tenant SLO-violation-minutes. Every mechanism sees the same faults at
// the same instants (the schedule is mechanism-independent), so the SLO
// column isolates what the recovery mechanism itself costs the fleet.
//
// Emits BENCH_fleet.json (--out) and optionally gates against a committed
// baseline (--baseline):
//   - host_runs_per_sec (phase-A injection-run throughput) is normalized
//     by `calib_mops` and gated at --gate-pct (default 15%) like
//     bench_sim_core;
//   - the model outputs (violation minutes, outage means, fault tallies)
//     are pure functions of the config, so when the baseline was produced
//     by the same fleet shape and seed they must match EXACTLY — any drift
//     is a silent behavior change, not machine noise, and fails the gate.
//
// Flags: --out=FILE --baseline=FILE --gate-pct=P --hosts=N --tenants=N
//        --horizon=S --threads=N --seed=N --quick
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/config.h"
#include "fleet/fleet.h"
#include "sim/int_flag.h"
#include "sim/json.h"

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

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

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::string baseline_path;
  double gate_pct = 15.0;
  int hosts = 0;
  int tenants = 0;
  int horizon = 0;
  int threads = 0;
  std::uint64_t seed = 1000;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    bool ok = true;
    if (std::strncmp(arg, "--out=", 6) == 0) {
      out_path = arg + 6;
    } else if (std::strncmp(arg, "--baseline=", 11) == 0) {
      baseline_path = arg + 11;
    } else if (std::strncmp(arg, "--gate-pct=", 11) == 0) {
      ok = nlh::bench::ParseGatePct(arg + 11, &gate_pct);
    } else if (std::strncmp(arg, "--hosts=", 8) == 0) {
      ok = nlh::sim::ParseIntFlag("--hosts", arg + 8, &hosts, 1);
    } else if (std::strncmp(arg, "--tenants=", 10) == 0) {
      ok = nlh::sim::ParseIntFlag("--tenants", arg + 10, &tenants, 1);
    } else if (std::strncmp(arg, "--horizon=", 10) == 0) {
      ok = nlh::sim::ParseIntFlag("--horizon", arg + 10, &horizon, 1);
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      ok = nlh::sim::ParseIntFlag("--threads", arg + 10, &threads, 0);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      ok = nlh::sim::ParseIntFlag("--seed", arg + 7, &seed, 0);
    } else if (std::strcmp(arg, "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(arg, "--help") != 0) {
      std::printf("unknown flag %s\n", arg);
      ok = false;
    }
    if (!ok || std::strcmp(arg, "--help") == 0) {
      std::printf(
          "flags: --out=FILE --baseline=FILE --gate-pct=P --hosts=N "
          "--tenants=N --horizon=S --threads=N --seed=N --quick\n");
      return ok ? 0 : 2;
    }
  }
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

  const nlh::core::Mechanism mechs[] = {
      nlh::core::Mechanism::kNiLiHype,
      nlh::core::Mechanism::kSnapRes,
      nlh::core::Mechanism::kReHype,
  };
  std::vector<MechRow> rows;
  std::printf("%-10s %8s %10s %10s %12s %14s\n", "mechanism", "faults",
              "outage ms", "runs/sec", "bad ticks", "SLO viol-min");
  for (const nlh::core::Mechanism mech : mechs) {
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

  // The headline ratio: what microreboot costs the fleet relative to
  // microreset, at identical fault schedules.
  const double nili_min = rows[0].result.slo_violation_minutes;
  const double rehype_min = rows[2].result.slo_violation_minutes;
  const double ratio = nili_min > 0 ? rehype_min / nili_min : 0;
  std::printf("\nrehype/nilihype SLO cost ratio: x%.1f\n", ratio);

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
  json += ",\"rehype_vs_nilihype_slo_ratio\":" + nlh::sim::JsonNum(ratio, 3);
  json += "}";

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << json << "\n";
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::printf("%s\n", json.c_str());
  }

  if (baseline_path.empty()) return 0;

  std::ifstream in(baseline_path);
  if (!in) {
    std::fprintf(stderr, "cannot load baseline %s\n", baseline_path.c_str());
    return 2;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  nlh::sim::JsonValue base;
  if (!nlh::sim::ParseJson(ss.str(), &base) || !base.IsObject()) {
    std::fprintf(stderr, "cannot parse baseline %s\n", baseline_path.c_str());
    return 2;
  }
  const nlh::sim::JsonValue* bcfg = base.Find("config");
  const nlh::sim::JsonValue* bmechs = base.Find("mechanisms");
  const nlh::sim::JsonValue* bcalib = base.Find("calib_mops");
  if (bcfg == nullptr || bmechs == nullptr || bcalib == nullptr) {
    std::fprintf(stderr, "baseline missing config/mechanisms/calib_mops\n");
    return 2;
  }
  const auto cfg_num = [&](const char* key) -> double {
    const nlh::sim::JsonValue* f = bcfg->Find(key);
    return f != nullptr ? f->number : -1;
  };
  const bool same_model = cfg_num("hosts") == hosts &&
                          cfg_num("tenants_per_host") == tenants &&
                          cfg_num("horizon_s") == horizon &&
                          cfg_num("seed") == static_cast<double>(seed);

  int failures = 0;
  std::printf("\nregression gate (±%.0f%% on runs/sec, normalized by "
              "calib_mops; model outputs exact%s):\n",
              gate_pct, same_model ? "" : " — SKIPPED, config differs");
  for (const MechRow& row : rows) {
    const nlh::sim::JsonValue* b = bmechs->Find(row.slug);
    if (b == nullptr) {
      std::printf("  %-10s SKIP (no baseline row)\n", row.slug.c_str());
      continue;
    }
    const nlh::sim::JsonValue* bperf = b->Find("host_runs_per_sec");
    if (bperf != nullptr && bperf->number > 0 && bcalib->number > 0 &&
        calib > 0) {
      const double norm_cur = row.host_runs_per_sec / calib;
      const double norm_base = bperf->number / bcalib->number;
      const double r = norm_cur / norm_base;
      const bool fail = r < 1.0 - gate_pct / 100.0;
      std::printf("  %-10s runs/sec %8.3f vs %8.3f (normalized x%.3f)%s\n",
                  row.slug.c_str(), row.host_runs_per_sec, bperf->number, r,
                  fail ? "  REGRESSION" : "");
      failures += fail ? 1 : 0;
    }
    if (!same_model) continue;
    // Deterministic model outputs: exact match or it's a behavior change.
    const struct {
      const char* key;
      double cur;
    } model[] = {
        {"faults", static_cast<double>(row.result.faults_scheduled)},
        {"mean_outage_ms", row.result.mean_outage_ms},
        {"bad_tenant_ticks", static_cast<double>(row.result.bad_tenant_ticks)},
        {"violation_minutes", row.result.slo_violation_minutes},
    };
    for (const auto& m : model) {
      const nlh::sim::JsonValue* bm = b->Find(m.key);
      if (bm == nullptr) continue;
      // Baseline numbers round-trip through JsonNum's 3-decimal fixed point.
      if (std::fabs(bm->number - m.cur) > 5e-4) {
        std::printf("  %-10s %s %.3f vs baseline %.3f  MODEL DRIFT\n",
                    row.slug.c_str(), m.key, m.cur, bm->number);
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
