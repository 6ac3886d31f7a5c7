// Table II: ReHype recovery latency breakdown (713 ms total at 8 GB).
//
// Runs a NetBench 1AppVM system on the (simulated) bare hardware, injects a
// failstop fault, recovers with ReHype, and prints the per-step latency the
// recovery mechanism recorded, plus the service interruption observed by
// the external NetBench sender — the same measurement methodology as
// Section VII-B. A second sweep shows how the memory-proportional steps
// scale with host memory size.
#include "bench/bench_util.h"
#include "core/target_system.h"

using namespace nlh;

namespace {

core::RunConfig NetBench1AppVm(core::Mechanism mech, std::uint64_t mem_gib) {
  core::RunConfig cfg = core::RunConfig::OneAppVm(guest::BenchmarkKind::kNetBench);
  cfg.mechanism = mech;
  cfg.fault = inject::FaultType::kFailstop;
  cfg.platform.memory_gib = mem_gib;
  cfg.netbench_duration = sim::Milliseconds(2500);
  cfg.run_deadline = sim::Seconds(5);
  cfg.seed = 2024;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  sim::ParseFlags(argc, argv, {});  // the one configuration of the paper
  bench::PrintHeader("ReHype (microreboot) recovery latency breakdown",
                     "Table II");

  core::RunConfig cfg = NetBench1AppVm(core::Mechanism::kReHype, 8);
  core::TargetSystem sys(cfg);
  const core::RunResult r = sys.Run();

  if (sys.recovery_manager()->reports().empty()) {
    std::printf("no recovery occurred (unexpected)\n");
    return 1;
  }
  const recovery::RecoveryReport& rep = sys.recovery_manager()->reports().front();
  std::printf("%-62s %10s\n", "Operation", "Time");
  for (const auto& step : rep.steps) {
    std::printf("  %-60s %7.1fms\n", step.name.c_str(),
                sim::ToMillisF(step.latency));
  }
  std::printf("  %-60s %7.1fms   (paper: 713ms)\n", "Total",
              sim::ToMillisF(rep.total()));
  std::printf("\nService interruption at the NetBench sender: %.1fms\n",
              sim::ToMillisF(r.net_max_gap));

  std::printf("\nMemory-size scaling of the total recovery latency:\n");
  std::printf("  %-10s %12s\n", "Memory", "Latency");
  for (std::uint64_t gib : {4ULL, 8ULL, 16ULL, 32ULL, 64ULL}) {
    core::RunConfig c = NetBench1AppVm(core::Mechanism::kReHype, gib);
    core::TargetSystem s(c);
    (void)s.Run();
    if (s.recovery_manager()->reports().empty()) continue;
    std::printf("  %4llu GiB   %9.1fms%s\n",
                static_cast<unsigned long long>(gib),
                sim::ToMillisF(s.recovery_manager()->reports().front().total()),
                gib == 8 ? "   <- paper calibration point" : "");
  }
  return 0;
}
