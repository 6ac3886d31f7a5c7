// Ablation bench for design choices DESIGN.md calls out, beyond the paper's
// own Table I ladder:
//
//  A. Full NiLiHype minus ONE enhancement at a time (which single mechanism
//     carries how much of the recovery rate on corrupting faults).
//  B. The undo-logging trade-off the paper quantifies in Section VII-C:
//     turning logging off saves overhead but costs ~12% recovery rate.
//  C. Recovery-attempt budget: how often a second recovery attempt rescues
//     a run (the paper implicitly allows re-detection).
#include "bench/bench_util.h"
#include "core/target_system.h"

using namespace nlh;

namespace {

core::Proportion MixedCampaign(const core::RunConfig& base,
                               const core::CampaignOptions& opts) {
  core::Proportion agg;
  for (int half = 0; half < 2; ++half) {
    core::RunConfig cfg = base;
    cfg.setup = core::Setup::k1AppVM;
    cfg.bench_1appvm = half == 0 ? guest::BenchmarkKind::kUnixBench
                                 : guest::BenchmarkKind::kBlkBench;
    core::RunConfig tmpl = core::RunConfig::OneAppVm(cfg.bench_1appvm);
    cfg.unixbench_iterations = tmpl.unixbench_iterations;
    cfg.blkbench_files = tmpl.blkbench_files;
    cfg.netbench_duration = tmpl.netbench_duration;
    cfg.inject_window_start = tmpl.inject_window_start;
    cfg.inject_window_end = tmpl.inject_window_end;
    cfg.run_deadline = tmpl.run_deadline;
    core::CampaignOptions o = opts;
    o.runs = opts.runs / 2;
    o.seed0 = opts.seed0 + static_cast<std::uint64_t>(half) * 100000;
    const core::CampaignResult r = core::RunCampaign(cfg, o);
    agg.numer += r.success.numer;
    agg.denom += r.success.denom;
  }
  return agg;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  bench::PrintHeader("Design-choice ablations (beyond Table I)",
                     "DESIGN.md section 4 / Sections V+VII");
  const core::CampaignOptions opts = args.MakeOptions(200, 600);

  // --- A: leave-one-out over the NiLiHype enhancement set ------------------
  struct Knob {
    const char* name;
    bool recovery::EnhancementSet::*flag;
  };
  const Knob knobs[] = {
      {"hypercall retry", &recovery::EnhancementSet::hypercall_retry},
      {"syscall retry", &recovery::EnhancementSet::syscall_retry},
      {"fine-grained batched retry", &recovery::EnhancementSet::batched_retry_fine},
      {"save FS/GS", &recovery::EnhancementSet::save_fs_gs},
      {"non-idempotent mitigation", &recovery::EnhancementSet::nonidem_mitigation},
      {"release heap locks", &recovery::EnhancementSet::release_heap_locks},
      {"ack interrupts", &recovery::EnhancementSet::ack_interrupts},
      {"frame-table scan", &recovery::EnhancementSet::frame_table_scan},
      {"clear IRQ count", &recovery::EnhancementSet::clear_irq_count},
      {"sched metadata repair", &recovery::EnhancementSet::sched_metadata_repair},
      {"reprogram APIC timer", &recovery::EnhancementSet::reprogram_apic},
      {"unlock static locks", &recovery::EnhancementSet::unlock_static_locks},
      {"reactivate recurring events", &recovery::EnhancementSet::reactivate_recurring},
  };

  std::printf("\nA. NiLiHype, failstop 1AppVM, leave-one-out:\n");
  {
    core::RunConfig base;
    base.mechanism = core::Mechanism::kNiLiHype;
    base.fault = inject::FaultType::kFailstop;
    std::printf("   %-34s %s\n", "(full enhancement set)",
                MixedCampaign(base, opts).ToString().c_str());
    for (const Knob& k : knobs) {
      core::RunConfig cfg = base;
      cfg.enhancements = recovery::EnhancementSet::Full();
      cfg.enhancements.*(k.flag) = false;
      std::printf("   minus %-28s %s\n", k.name,
                  MixedCampaign(cfg, opts).ToString().c_str());
    }
  }

  // --- B: the logging trade-off (Section VII-C) ------------------------------
  std::printf("\nB. Undo-logging trade-off (NiLiHype vs NiLiHype*):\n");
  {
    core::RunConfig with;
    with.mechanism = core::Mechanism::kNiLiHype;
    with.fault = inject::FaultType::kFailstop;
    core::RunConfig without = with;
    without.enhancements.nonidem_mitigation = false;
    const core::Proportion a = MixedCampaign(with, opts);
    const core::Proportion b = MixedCampaign(without, opts);
    std::printf("   logging on:  %s\n", a.ToString().c_str());
    std::printf("   logging off: %s   (paper: ~12%% lower)\n",
                b.ToString().c_str());
  }

  // --- C: recovery-latency mitigations (Section VII-B) -----------------------
  std::printf("\nC. NiLiHype latency mitigations (Section VII-B), failstop:\n");
  {
    struct Variant {
      const char* name;
      bool scan;
      int parallelism;
    };
    const Variant variants[] = {
        {"baseline (sequential scan)", true, 1},
        {"parallel scan, 8 cores", true, 8},
        {"skip frame scan entirely", false, 1},
    };
    for (const Variant& v : variants) {
      core::RunConfig cfg;
      cfg.mechanism = core::Mechanism::kNiLiHype;
      cfg.fault = inject::FaultType::kFailstop;
      cfg.enhancements.frame_table_scan = v.scan;
      cfg.enhancements.frame_scan_parallelism = v.parallelism;
      cfg.seed = 1;
      core::TargetSystem one(cfg);
      const core::RunResult single = one.Run();
      const core::CampaignResult r = core::RunCampaign(cfg, opts);
      std::printf("   %-30s latency %7.2f ms   success %s\n", v.name,
                  sim::ToMillisF(single.first_recovery_latency),
                  r.success.ToString().c_str());
    }
    std::printf("   (paper: skipping the scan cuts latency to ~1 ms but"
                " costs ~4%% recovery rate)\n");
  }
  return 0;
}
