// Simulation-core throughput harness: the wall-clock speed of the measured
// hot paths that bound fault-injection campaign throughput —
//   events/sec          raw EventQueue schedule/cancel/run mix
//   hypercalls/sec      full hypercall dispatch on a booted hypervisor
//   campaign runs/sec   end-to-end cold TargetSystem runs (core::RunMany)
//                       on the default 8-CPU / 3AppVM / failstop
//                       configuration
//   cold/warm steady runs/sec  the same run list on a steady-state
//                       injection window, executed cold (fresh boot per
//                       run) and warm-forked (core::RunManyWarmForked:
//                       boot + workload setup paid once per snapshot
//                       epoch); their ratio is reported as
//                       warm_fork_speedup
//
// Emits BENCH_simcore.json (--out) and optionally gates against a committed
// baseline (--baseline), which must carry every field this bench writes.
// Each metric is first normalized by `calib_mops`, a fixed integer workload
// measured on the same machine in the same process, so the gate compares
// *machine-relative* throughput and survives runner speed differences. A
// metric more than --gate-pct (default 15) slower than the baseline fails
// the run (exit 1).
//
// Flags: see --help.
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/campaign.h"
#include "core/config.h"
#include "hv/hypervisor.h"
#include "hw/platform.h"
#include "sim/event_queue.h"
#include "sim/json.h"

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// EventQueue mix modeled on what a run does: a population of recurring
// self-rescheduling events (timer ticks, run-slice kicks) plus a
// cancel/reschedule churn lane (APIC one-shot reprogramming).
double EventsPerSec(std::uint64_t target_events) {
  nlh::sim::EventQueue q;
  std::uint64_t executed = 0;

  constexpr int kChains = 64;
  struct Chain {
    nlh::sim::EventQueue* q;
    std::uint64_t* executed;
    nlh::sim::EventId* victim;
    int idx;
    void operator()() const {
      ++*executed;
      const nlh::sim::Duration step = 1 + (idx * 7) % 13;
      q->ScheduleAfter(step, *this);
      // Churn lane: cancel the previous one-shot and arm a new one, like an
      // APIC reprogram. Roughly one cancel per four chain firings.
      if ((idx & 3) == 0) {
        q->Cancel(*victim);
        *victim = q->ScheduleAfter(5, [executed = executed] { ++*executed; });
      }
    }
  };
  std::vector<nlh::sim::EventId> victims(kChains, nlh::sim::kInvalidEvent);
  const auto t0 = Clock::now();
  for (int i = 0; i < kChains; ++i) {
    q.ScheduleAfter(1 + i % 17, Chain{&q, &executed, &victims[i], i});
  }
  while (executed < target_events) {
    if (!q.RunOne()) break;
  }
  const double secs = SecondsSince(t0);
  return static_cast<double>(executed) / secs;
}

// Hypercall dispatch on a booted 2-CPU hypervisor (the bench_micro_hvops
// world): alternating mmu_update map/unmap, the workhorse of UnixBench.
double HypercallsPerSec(std::uint64_t target_calls) {
  nlh::hw::PlatformConfig pcfg;
  pcfg.num_cpus = 2;
  pcfg.memory_gib = 1;
  nlh::hw::Platform platform(pcfg, /*seed=*/1);
  nlh::hv::Hypervisor hv(platform, nlh::hv::HvConfig{});
  hv.Boot();
  const nlh::hv::DomainId dom = hv.CreateDomainDirect("bench", false, 1, 32);
  hv.StartDomain(dom);
  const nlh::hv::VcpuId vcpu = hv.FindDomain(dom)->vcpus.front();
  {
    nlh::hv::OpContext ctx(platform, platform.cpu(1), hv.options(),
                           nlh::hv::HvContextKind::kSchedule, nullptr, nullptr);
    hv.Schedule(ctx, 1);
  }
  nlh::hv::HypercallArgs a;
  bool map = true;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < target_calls; ++i) {
    a.arg0 = 5;
    a.arg1 = map ? 1 : 0;
    hv.Hypercall(vcpu, nlh::hv::HypercallCode::kMmuUpdate, a);
    map = !map;
  }
  const double secs = SecondsSince(t0);
  return static_cast<double>(target_calls) / secs;
}

// End-to-end cold campaign throughput (fresh boot per run, core::RunMany)
// on the paper-default target system. With `integrity` the always-on epoch
// state-hash ladder runs every scheduler tick; the on/off pair bounds the
// monitor's campaign-throughput overhead (acceptance: <=10%).
double CampaignRunsPerSec(int runs, int threads, std::uint64_t seed0,
                          bool integrity = false) {
  std::vector<nlh::core::RunConfig> configs;
  for (int i = 0; i < runs; ++i) {
    nlh::core::RunConfig cfg;  // 8 CPUs, 3AppVM, NiLiHype, failstop
    cfg.seed = seed0 + static_cast<std::uint64_t>(i);
    cfg.integrity = integrity;
    configs.push_back(cfg);
  }
  const auto t0 = Clock::now();
  nlh::core::RunMany(configs, threads);
  return static_cast<double>(runs) / SecondsSince(t0);
}

// Cold vs warm-forked execution of one identical run list on a
// steady-state injection window (triggers spread over [300 ms, 2.8 s], so
// the boot + workload-setup prefix the warm runner amortizes is a large
// fraction of every cold run). Both paths produce bit-identical results
// (tests/test_warm_fork.cc); this measures only the throughput gap.
struct WarmForkThroughput {
  double cold_runs_per_sec = 0;
  double warm_runs_per_sec = 0;
};

WarmForkThroughput MeasureWarmFork(int runs, int threads,
                                   std::uint64_t seed0) {
  std::vector<nlh::core::RunConfig> configs;
  configs.reserve(static_cast<std::size_t>(runs));
  for (int i = 0; i < runs; ++i) {
    nlh::core::RunConfig cfg;  // 8 CPUs, 3AppVM, NiLiHype, failstop
    cfg.seed = seed0 + static_cast<std::uint64_t>(i);
    cfg.inject_window_start = nlh::sim::Milliseconds(300);
    cfg.inject_window_end = nlh::sim::Milliseconds(2800);
    configs.push_back(cfg);
  }
  WarmForkThroughput r;
  auto t0 = Clock::now();
  const auto cold = nlh::core::RunMany(configs, threads);
  r.cold_runs_per_sec = static_cast<double>(runs) / SecondsSince(t0);
  t0 = Clock::now();
  const auto warm = nlh::core::RunManyWarmForked(
      configs, threads, nlh::sim::Milliseconds(100));
  r.warm_runs_per_sec = static_cast<double>(runs) / SecondsSince(t0);
  if (cold.size() != warm.size()) {
    std::fprintf(stderr, "warm-fork run count mismatch\n");
  }
  return r;
}

struct Metrics {
  double calib_mops = 0;
  double events_per_sec = 0;
  double hypercalls_per_sec = 0;
  double campaign_runs_per_sec = 0;
  double campaign_integrity_runs_per_sec = 0;
  double campaign_cold_steady_runs_per_sec = 0;
  double campaign_warm_steady_runs_per_sec = 0;
};

std::string ToJson(const Metrics& m, int runs, int threads, bool quick) {
  std::string out = "{";
  out += "\"bench\":\"sim_core\",\"schema\":1";
  out += ",\"config\":{\"campaign_runs\":" + std::to_string(runs) +
         ",\"threads\":" + std::to_string(threads) +
         ",\"quick\":" + (quick ? std::string("true") : std::string("false")) +
         "}";
  out += ",\"calib_mops\":" + nlh::sim::JsonNum(m.calib_mops, 3);
  out += ",\"events_per_sec\":" + nlh::sim::JsonNum(m.events_per_sec, 1);
  out += ",\"hypercalls_per_sec\":" + nlh::sim::JsonNum(m.hypercalls_per_sec, 1);
  out +=
      ",\"campaign_runs_per_sec\":" + nlh::sim::JsonNum(m.campaign_runs_per_sec, 4);
  out += ",\"campaign_integrity_runs_per_sec\":" +
         nlh::sim::JsonNum(m.campaign_integrity_runs_per_sec, 4);
  // Machine-independent overhead of the epoch integrity monitor (same
  // process, same runs): 1 - integrity/off throughput.
  const double integ_overhead =
      m.campaign_runs_per_sec > 0
          ? 1.0 - m.campaign_integrity_runs_per_sec / m.campaign_runs_per_sec
          : 0;
  out += ",\"integrity_overhead_pct\":" +
         nlh::sim::JsonNum(integ_overhead * 100.0, 2);
  out += ",\"campaign_cold_steady_runs_per_sec\":" +
         nlh::sim::JsonNum(m.campaign_cold_steady_runs_per_sec, 4);
  out += ",\"campaign_warm_steady_runs_per_sec\":" +
         nlh::sim::JsonNum(m.campaign_warm_steady_runs_per_sec, 4);
  // Machine-independent ratio of the pair above (same process, same runs).
  const double speedup =
      m.campaign_cold_steady_runs_per_sec > 0
          ? m.campaign_warm_steady_runs_per_sec /
                m.campaign_cold_steady_runs_per_sec
          : 0;
  out += ",\"warm_fork_speedup\":" + nlh::sim::JsonNum(speedup, 3);
  out += "}";
  return out;
}

// The throughput metrics the gate compares, by their JSON names.
constexpr struct {
  const char* name;
  double Metrics::*value;
} kGated[] = {
    {"events_per_sec", &Metrics::events_per_sec},
    {"hypercalls_per_sec", &Metrics::hypercalls_per_sec},
    {"campaign_runs_per_sec", &Metrics::campaign_runs_per_sec},
    {"campaign_integrity_runs_per_sec",
     &Metrics::campaign_integrity_runs_per_sec},
    {"campaign_cold_steady_runs_per_sec",
     &Metrics::campaign_cold_steady_runs_per_sec},
    {"campaign_warm_steady_runs_per_sec",
     &Metrics::campaign_warm_steady_runs_per_sec},
};

// --baseline: every field ToJson writes, and calib_mops and each gated
// metric positive, since the gate divides by them.
std::string LoadBaseline(std::string_view path, Metrics* out) {
  nlh::sim::JsonValue v;
  const std::string error =
      nlh::bench::LoadBaseline(path, ToJson(Metrics{}, 0, 0, false), &v);
  if (!error.empty()) return error;
  out->calib_mops = v.Find("calib_mops")->number;
  bool positive = out->calib_mops > 0;
  for (const auto& g : kGated) {
    out->*g.value = v.Find(g.name)->number;
    positive = positive && out->*g.value > 0;
  }
  return positive ? "" : std::string(path) +
                             ": calib_mops and every gated metric must be "
                             "positive";
}

// Compares machine-normalized throughput against the baseline. Returns the
// number of gate failures.
int Gate(const Metrics& cur, const Metrics& base, double pct) {
  int failures = 0;
  std::printf("\nregression gate (±%.0f%%, normalized by calib_mops):\n", pct);
  for (const auto& g : kGated) {
    const double ratio =
        (cur.*g.value / cur.calib_mops) / (base.*g.value / base.calib_mops);
    const bool fail = ratio < 1.0 - pct / 100.0;
    std::printf("  %-24s %10.1f vs %10.1f  (normalized x%.3f)%s\n", g.name,
                cur.*g.value, base.*g.value, ratio,
                fail ? "  REGRESSION"
                     : (ratio > 1.0 + pct / 100.0 ? "  (faster; consider "
                                                    "refreshing baseline)"
                                                  : ""));
    failures += fail ? 1 : 0;
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::optional<Metrics> baseline;
  double gate_pct = 15.0;
  int runs = 0;
  int threads = 0;
  std::uint64_t seed = 1000;
  bool quick = false;
  using enum nlh::sim::FlagValue;
  const nlh::sim::Flag flags[] = {
      {"--out", kRequired, "FILE", "write the JSON here (default: stdout)",
       nlh::sim::SetString(&out_path)},
      {"--baseline", kRequired, "FILE", "gate against this BENCH_simcore.json",
       [&](std::string_view v) {
         return LoadBaseline(v, &baseline.emplace());
       }},
      {"--gate-pct", kRequired, "P",
       "fail a metric more than P% below the baseline (default 15)",
       nlh::bench::SetGatePct(&gate_pct), ~0u, {}, "without --baseline",
       [&] { return baseline.has_value(); }},
      {"--runs", kRequired, "N", "cold campaign runs (default 48, --quick 8)",
       nlh::sim::SetInt(&runs, 1)},
      {"--threads", kRequired, "N", "worker threads (default 0: all cores)",
       nlh::sim::SetInt(&threads, 0)},
      {"--seed", kRequired, "N", "first campaign seed (default 1000)",
       nlh::sim::SetInt(&seed, 0)},
      {"--quick", kNone, "", "fewer events, hypercalls and campaign runs",
       nlh::sim::SetTrue(&quick)},
  };
  nlh::sim::ParseFlags(argc, argv, flags);
  if (runs == 0) runs = quick ? 8 : 48;

  nlh::bench::PrintHeader("Simulation-core throughput (bench_sim_core)",
                          "the campaign engine underlying Sections VI-VII");

  Metrics m;
  m.calib_mops = nlh::bench::CalibMops();
  std::printf("calib                 %10.1f Mops\n", m.calib_mops);
  m.events_per_sec = EventsPerSec(quick ? 2'000'000ULL : 10'000'000ULL);
  std::printf("events/sec            %10.0f\n", m.events_per_sec);
  m.hypercalls_per_sec = HypercallsPerSec(quick ? 200'000ULL : 1'000'000ULL);
  std::printf("hypercalls/sec        %10.0f\n", m.hypercalls_per_sec);
  m.campaign_runs_per_sec = CampaignRunsPerSec(runs, threads, seed);
  std::printf("campaign runs/sec     %10.3f  (%d runs)\n",
              m.campaign_runs_per_sec, runs);
  // The same campaign with the epoch integrity monitor armed: the on/off
  // pair is the monitor's end-to-end overhead bound (acceptance: <=10%).
  m.campaign_integrity_runs_per_sec =
      CampaignRunsPerSec(runs, threads, seed, /*integrity=*/true);
  std::printf("integrity runs/sec    %10.3f  (%.1f%% overhead)\n",
              m.campaign_integrity_runs_per_sec,
              m.campaign_runs_per_sec > 0
                  ? (1.0 - m.campaign_integrity_runs_per_sec /
                               m.campaign_runs_per_sec) *
                        100.0
                  : 0.0);
  // Unlike the per-run metrics above, warm-fork throughput is sensitive to
  // how many runs share each forked template, so quick mode keeps the full
  // run count — shrinking it would change the amortization regime and make
  // the number incomparable to the committed baseline.
  const int wf_runs = 32;
  const WarmForkThroughput wf = MeasureWarmFork(wf_runs, threads, seed + 100);
  m.campaign_cold_steady_runs_per_sec = wf.cold_runs_per_sec;
  m.campaign_warm_steady_runs_per_sec = wf.warm_runs_per_sec;
  std::printf("cold steady runs/sec  %10.3f  (%d runs)\n",
              wf.cold_runs_per_sec, wf_runs);
  std::printf("warm steady runs/sec  %10.3f  (x%.2f warm-fork speedup)\n",
              wf.warm_runs_per_sec,
              wf.cold_runs_per_sec > 0
                  ? wf.warm_runs_per_sec / wf.cold_runs_per_sec
                  : 0.0);

  const std::string json = ToJson(m, runs, threads, quick);
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << json << "\n";
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::printf("%s\n", json.c_str());
  }

  if (baseline) {
    const int failures = Gate(m, *baseline, gate_pct);
    if (failures > 0) {
      std::fprintf(stderr, "%d metric(s) regressed beyond %.0f%%\n", failures,
                   gate_pct);
      return 1;
    }
  }
  return 0;
}
