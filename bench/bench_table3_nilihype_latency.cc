// Table III: NiLiHype recovery latency breakdown (22 ms total at 8 GB:
// 21 ms page-frame descriptor scan + ~1 ms everything else), measured as in
// Section VII-B via the service interruption of NetBench, plus the
// memory-size scaling discussed there ("the latency ... is proportional to
// the size of the host memory").
#include "bench/bench_util.h"
#include "core/target_system.h"

using namespace nlh;

namespace {

core::RunConfig NetBench1AppVm(std::uint64_t mem_gib, std::uint64_t seed) {
  core::RunConfig cfg = core::RunConfig::OneAppVm(guest::BenchmarkKind::kNetBench);
  cfg.mechanism = core::Mechanism::kNiLiHype;
  cfg.fault = inject::FaultType::kFailstop;
  cfg.platform.memory_gib = mem_gib;
  cfg.netbench_duration = sim::Milliseconds(2500);
  cfg.run_deadline = sim::Seconds(5);
  cfg.seed = seed;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  sim::ParseFlags(argc, argv, {});  // the one configuration of the paper
  bench::PrintHeader("NiLiHype (microreset) recovery latency breakdown",
                     "Table III");

  core::TargetSystem sys(NetBench1AppVm(8, 2024));
  const core::RunResult r = sys.Run();
  if (sys.recovery_manager()->reports().empty()) {
    std::printf("no recovery occurred (unexpected)\n");
    return 1;
  }
  const recovery::RecoveryReport& rep = sys.recovery_manager()->reports().front();
  std::printf("%-62s %10s\n", "Operation", "Time");
  for (const auto& step : rep.steps) {
    std::printf("  %-60s %8.2fms\n", step.name.c_str(),
                sim::ToMillisF(step.latency));
  }
  std::printf("  %-60s %8.2fms   (paper: 22ms)\n", "Total",
              sim::ToMillisF(rep.total()));
  std::printf("\nService interruption at the NetBench sender: %.1fms"
              " (paper: 22ms, ReHype/NiLiHype latency ratio > 30x)\n",
              sim::ToMillisF(r.net_max_gap));

  // Repeatability (the paper saw <1 ms variation over five repeats).
  std::printf("\nRepeatability over 5 runs (total recovery latency):\n  ");
  for (std::uint64_t s = 1; s <= 5; ++s) {
    core::TargetSystem rep_sys(NetBench1AppVm(8, 3000 + s));
    (void)rep_sys.Run();
    if (!rep_sys.recovery_manager()->reports().empty()) {
      std::printf("%.2fms  ",
                  sim::ToMillisF(
                      rep_sys.recovery_manager()->reports().front().total()));
    }
  }
  std::printf("\n");

  std::printf("\nMemory-size scaling (Section VII-B: scan latency is"
              " proportional to host memory):\n");
  std::printf("  %-10s %12s\n", "Memory", "Latency");
  for (std::uint64_t gib : {4ULL, 8ULL, 16ULL, 32ULL, 64ULL, 128ULL}) {
    core::TargetSystem s(NetBench1AppVm(gib, 2024));
    (void)s.Run();
    if (s.recovery_manager()->reports().empty()) continue;
    std::printf("  %4llu GiB   %9.2fms%s\n",
                static_cast<unsigned long long>(gib),
                sim::ToMillisF(s.recovery_manager()->reports().front().total()),
                gib == 8 ? "   <- paper calibration point" : "");
  }
  return 0;
}
