// Quickstart: boot a simulated virtualized host, inject one failstop fault
// into the hypervisor, recover with NiLiHype (microreset), and report what
// happened.
//
// Build & run:   cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "core/campaign.h"
#include "core/target_system.h"

using namespace nlh;

namespace {

void PrintResult(const char* label, const core::RunResult& r) {
  std::printf("--- %s ---\n", label);
  std::printf("  outcome:            %s\n", core::OutcomeClassName(r.outcome));
  std::printf("  recoveries:         %d\n", r.recoveries);
  if (r.recoveries > 0) {
    std::printf("  recovery latency:   %.2f ms\n",
                sim::ToMillisF(r.first_recovery_latency));
  }
  for (const auto& vm : r.vms) {
    std::printf("  VM %-10s        %s%s\n", vm.name.c_str(),
                vm.affected ? "AFFECTED: " : "ok",
                vm.affected ? vm.why.c_str() : "");
  }
  std::printf("  PrivVM:             %s\n", r.privvm_ok ? "ok" : "FAILED");
  if (r.vm3_attempted) {
    std::printf("  post-recovery VM3:  %s\n",
                r.vm3_ok ? "created, BlkBench passed" : "FAILED");
  }
  if (r.detected) {
    std::printf("  recovery success:   %s%s%s\n", r.success ? "YES" : "NO",
                r.success ? "" : " — ",
                r.success ? "" : r.failure_detail.c_str());
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("NiLiHype quickstart — microreset-based hypervisor recovery\n\n");

  // 1. A fault-free run: everything should complete and nothing trigger.
  {
    core::RunConfig cfg;
    cfg.inject = false;
    cfg.seed = 7;
    core::TargetSystem sys(cfg);
    PrintResult("fault-free 3AppVM run", sys.Run());
  }

  // 2. A failstop fault recovered by NiLiHype, with the run narrative the
  //    flight recorder pinned: injection, detection, recovery steps.
  {
    core::RunConfig cfg;
    cfg.mechanism = core::Mechanism::kNiLiHype;
    cfg.fault = inject::FaultType::kFailstop;
    cfg.seed = 7;
    core::TargetSystem sys(cfg);
    sys.EnableFlightRecorder();
    PrintResult("failstop fault + NiLiHype (microreset)", sys.Run());
    std::printf("run narrative:\n%s\n",
                sys.hv().flight_recorder().PinnedText().c_str());
  }

  // 3. The same fault recovered by ReHype (microreboot): same outcome, but
  //    look at the latency.
  {
    core::RunConfig cfg;
    cfg.mechanism = core::Mechanism::kReHype;
    cfg.fault = inject::FaultType::kFailstop;
    cfg.seed = 7;
    core::TargetSystem sys(cfg);
    PrintResult("failstop fault + ReHype (microreboot)", sys.Run());
  }

  // 4. No recovery mechanism at all.
  {
    core::RunConfig cfg;
    cfg.mechanism = core::Mechanism::kNone;
    cfg.fault = inject::FaultType::kFailstop;
    cfg.seed = 7;
    core::TargetSystem sys(cfg);
    PrintResult("failstop fault, no recovery", sys.Run());
  }
  return 0;
}
